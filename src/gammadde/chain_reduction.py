"""Reduce a chain-approximated delay kernel to an equivalent ODE system.

A DDE whose delayed term convolves the solution against an Erlang or
hypoexponential kernel is equivalent to an (n+1)-dimensional ODE: one
auxiliary compartment per exponential stage, with the delayed term read
off the final compartment's outflow r_n B_n.  The history function enters
only through the compartments' initial values

    B_i(0) = int_0^inf psi(t0 - s) / r_i * kappa_i(s) ds,

where kappa_i is the density of the first i stages in sequence, the
convolution of their exponentials.  For an exponential history this has
the closed form (c / r_i) prod_{k <= i} r_k / (r_k + rho); other histories
are integrated numerically.  At integer shape every two-moment chain has
all rates equal, so it reproduces the Erlang reduction exactly.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _scipy_quad

from .distributions import HypoexpKernel, gamma_pdf, GammaKernel, hypoexp_pdf


@dataclass(frozen=True)
class HistoryFunction:
    """Prescribed solution values on (-inf, t0].

    Kinds: ``constant`` (value c), ``exponential`` (c * exp(rho (s -
    anchor))), ``point_mass`` (weight at t0; meaningful only for chain
    initial conditions), and ``custom`` (any vectorized callable).
    ``smoothness`` records how many derivatives the history is good for.
    """

    kind: str
    value: float = 0.0
    growth: float = 0.0
    anchor: float = 0.0
    fn: object = None
    smoothness: int = 4

    @classmethod
    def constant(cls, c):
        return cls(kind="constant", value=float(c))

    @classmethod
    def exponential(cls, c, rho, anchor=0.0):
        return cls(kind="exponential", value=float(c), growth=float(rho), anchor=anchor)

    @classmethod
    def point_mass(cls, weight):
        return cls(kind="point_mass", value=float(weight))

    @classmethod
    def custom(cls, fn, smoothness=4):
        return cls(kind="custom", fn=fn, smoothness=smoothness)

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        if self.kind == "constant":
            out = np.full(s_arr.shape, self.value)
        elif self.kind == "exponential":
            out = self.value * np.exp(self.growth * (s_arr - self.anchor))
        elif self.kind == "point_mass":
            out = np.zeros(s_arr.shape)
        elif self.kind == "custom":
            out = np.asarray(self.fn(s_arr), dtype=float)
        else:
            raise ValueError(f"unknown history kind {self.kind!r}")
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ChainOdeProblem:
    """Linear-chain reduction: state (Y, B_1..B_n), full right-hand side,
    and history-derived initial values."""

    rhs: callable
    params: object
    history: HistoryFunction
    t0: float
    t_end: float
    y0: np.ndarray
    labels: tuple

    @property
    def dim(self):
        return len(self.y0)


def _chain_rhs(F, rates):
    r = np.asarray(rates, dtype=float)
    n = len(r)

    def rhs(t, state):
        y = state[0]
        b = state[1:]
        conv = r[-1] * b[-1]
        out = np.empty(n + 1)
        out[0] = F(y, conv)
        out[1] = y - r[0] * b[0]
        if n > 1:
            out[2:] = r[:-1] * b[:-1] - r[1:] * b[1:]
        return out

    return rhs


def _exponential_init(c, rho, rates):
    """Closed-form compartment integrals for psi(s) = c exp(rho (s - t0))."""
    r = np.asarray(rates, dtype=float)
    if np.any(r + rho <= 0):
        raise ValueError(
            f"history grows too fast for the chain: rate {r.min()} <= {-rho}"
        )
    return (c / r) * np.cumprod(r / (r + rho))


def _custom_init(history, t0, rates, erlang):
    """Adaptive quadrature of the defining integrals for custom histories."""
    r = list(rates)
    out = np.empty(len(r))

    def psi(s):
        return float(history(t0 - s))

    for i, rate_i in enumerate(r):
        if erlang:
            # All stages share one rate: the first i+1 form a gamma density.
            kern = GammaKernel(shape=i + 1.0, rate=r[0])
            dens = lambda s, k=kern: gamma_pdf(k, s)
        else:
            kern = HypoexpKernel(tuple(r[: i + 1]))
            dens = lambda s, k=kern: float(hypoexp_pdf(k, s))
        val, err = _scipy_quad(
            lambda s: psi(s) * dens(s) / rate_i, 0.0, np.inf, limit=200
        )
        if not math.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
            raise ValueError(f"history integral for compartment {i + 1} diverges")
        out[i] = val
    return out


def chain_initial_state(history, params, t0):
    """Compartment initial values for the given history.

    Point-mass histories bypass the integrals entirely: the whole weight
    starts in the first compartment.
    """
    rates = params.rates()
    if history.kind == "point_mass":
        out = np.zeros(len(rates))
        out[0] = history.value
        return out
    if history.kind == "constant":
        return history.value / np.asarray(rates)
    if history.kind == "exponential":
        c_at_t0 = history.value * math.exp(history.growth * (t0 - history.anchor))
        return _exponential_init(c_at_t0, history.growth, rates)
    return _custom_init(history, t0, rates, params.variant == "erlang")


def _build(F, params, history, t0, t_end):
    rates = params.rates()
    b_init = chain_initial_state(history, params, t0)
    if history.kind == "point_mass":
        y_start = 0.0
    else:
        y_start = float(history(t0))
    y0 = np.concatenate([[y_start], b_init])
    labels = ("Y",) + tuple(f"B{i + 1}" for i in range(len(rates)))
    return ChainOdeProblem(
        rhs=_chain_rhs(F, rates),
        params=params,
        history=history,
        t0=t0,
        t_end=t_end,
        y0=y0,
        labels=labels,
    )


def build_erlang_system(F, params, history, t0, t_end):
    """ODE reduction of the Erlang-kernel DDE y' = F(y, b A_n)."""
    if params.variant != "erlang":
        raise ValueError("params must come from the erlang approximation")
    return _build(F, params, history, t0, t_end)


def build_hypoexp_system(F, params, history, t0, t_end):
    """ODE reduction of the hypoexponential-kernel DDE y' = F(y, mu B_n)."""
    if params.variant == "erlang":
        raise ValueError("params must come from a hypoexponential approximation")
    return _build(F, params, history, t0, t_end)

