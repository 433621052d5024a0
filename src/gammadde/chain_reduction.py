"""Reduce a chain-approximated delay kernel to an equivalent ODE system.

A DDE whose delayed term convolves the solution against an Erlang or
hypoexponential kernel is equivalent to an (n+1)-dimensional ODE: one
auxiliary compartment per exponential stage, with the delayed term read
off the final compartment's outflow.  The history function enters only
through the compartments' initial values

    B_i(0) = int_0^inf psi(t0 - s) / r_i * kappa_i(s) ds,

where kappa_i is the kernel attached to compartment i.  Two conventions
for the last two compartments are provided: ``cumulative`` (the default)
uses the cumulative convolution kernels that the chain algebra actually
produces, ``stagewise`` pairs them with bare exponential kernels.  They
agree for constant histories; for any other history only ``cumulative``
reproduces the Erlang reduction at integer shape.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad as _scipy_quad

from .distributions import HypoexpKernel, gamma_pdf, GammaKernel, hypoexp_pdf

INIT_MODES = ("stagewise", "cumulative")


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


def _exponential_init(c, rho, rates, mode):
    """Closed-form compartment integrals for psi(s) = c exp(rho (s - t0))."""
    r = np.asarray(rates, dtype=float)
    if np.any(r + rho <= 0):
        raise ValueError(
            f"history grows too fast for the chain: rate {r.min()} <= {-rho}"
        )
    factors = r / (r + rho)
    if mode == "cumulative":
        return (c / r) * np.cumprod(factors)
    # stagewise: Erlang kernels of the common rate for the leading
    # compartments, bare exponentials for the last two.
    n = len(r)
    out = np.empty(n)
    if n > 2:
        out[: n - 2] = (c / r[: n - 2]) * np.cumprod(factors[: n - 2])
    for i in range(max(n - 2, 0), n):
        out[i] = (c / r[i]) * factors[i]
    return out


def _erlang_literal_exponential_init(c, rho, rates):
    """stagewise for a pure Erlang chain coincides with the cumulative
    kernels, all stages sharing one rate."""
    r = np.asarray(rates, dtype=float)
    if np.any(r + rho <= 0):
        raise ValueError("history grows too fast for the chain")
    return (c / r) * np.cumprod(r / (r + rho))


def _custom_init(history, t0, rates, mode, erlang):
    """Adaptive quadrature of the defining integrals for custom histories."""
    r = list(rates)
    n = len(r)
    out = np.empty(n)

    def psi(s):
        return float(history(t0 - s))

    for i in range(n):
        rate_i = r[i]
        if erlang or (mode == "stagewise" and i < n - 2):
            kern = GammaKernel(shape=i + 1.0, rate=r[0])
            dens = lambda s, k=kern: gamma_pdf(k, s)
        elif mode == "stagewise":
            dens = lambda s, ri=rate_i: ri * math.exp(-ri * s)
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


def chain_initial_state(history, params, t0, init_mode="cumulative"):
    """Compartment initial values for the given history.

    Point-mass histories bypass the integrals entirely: the whole weight
    starts in the first compartment.
    """
    if init_mode not in INIT_MODES:
        raise ValueError(f"init_mode must be one of {INIT_MODES}")
    rates = params.rates()
    n = len(rates)
    erlang = params.variant == "erlang"
    if history.kind == "point_mass":
        out = np.zeros(n)
        out[0] = history.value
        return out
    if history.kind == "constant":
        return history.value / np.asarray(rates)
    if history.kind == "exponential":
        c_at_t0 = history.value * math.exp(history.growth * (t0 - history.anchor))
        if erlang:
            return _erlang_literal_exponential_init(c_at_t0, history.growth, rates)
        return _exponential_init(c_at_t0, history.growth, rates, init_mode)
    return _custom_init(history, t0, rates, init_mode, erlang)


def _build(F, params, history, t0, t_end, init_mode):
    rates = params.rates()
    b_init = chain_initial_state(history, params, t0, init_mode)
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
    return _build(F, params, history, t0, t_end, "stagewise")


def build_hypoexp_system(F, params, history, t0, t_end, init_mode="cumulative"):
    """ODE reduction of the hypoexponential-kernel DDE y' = F(y, mu B_n)."""
    if params.variant == "erlang":
        raise ValueError("params must come from a hypoexponential approximation")
    return _build(F, params, history, t0, t_end, init_mode)


def delayed_term(problem, state):
    """The delayed convolution read off the chain state: r_n * B_n."""
    rates = problem.params.rates() if hasattr(problem, "params") else problem.rates()
    return rates[-1] * np.asarray(state)[..., -1]
