"""Reduce a chain-approximated delay kernel to an equivalent ODE system.

A DDE x' = F(x, x * g) whose kernel g is Erlang or hypoexponential is
equivalent to an (n+1)-dimensional ODE: one auxiliary compartment per
exponential stage, with the delayed term read off the final compartment's
outflow r_n B_n.  The compartments evolve as B' = Q^T B + x e_1, with Q the
generator of :func:`~gammadde.distributions.stage_generator`, the one place
the chain's transition rule is written.  Every chain ODE of the package,
the SIR model's C' = beta (1 - C) (C - C * g) among them, is built here;
its rhs is one product with B of an ``(n+1, n)`` row block made once per
problem: row 0 is r_n e_n and gives the delayed term, rows 1..n are Q^T;
the head's derivative F(x, r_n B_n) then replaces row 0's entry, and the
inflow x is added to B_1'.  Chains start at t = 0, and the history
function enters only through the compartments' initial values

    B_i(0) = int_0^inf psi(-s) / r_i * kappa_i(s) ds,

where kappa_i is the density of the first i stages in sequence, the
convolution of their exponentials.  For an exponential history this has
the closed form (c / r_i) prod_{k <= i} r_k / (r_k + rho), zero for c = 0;
for a custom history all compartments are integrated numerically in one
vector quadrature over the chain's generator.  At integer shape every
two-moment chain has all rates equal, so it reproduces the Erlang
reduction exactly.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec
from scipy.linalg import expm

from .distributions import stage_generator


@dataclass(frozen=True)
class HistoryFunction:
    """Prescribed solution values on (-inf, t0]; chains start at t0 = 0.

    Two kinds: ``exponential`` (c * exp(rho s); ``constant(c)`` is the one
    with rho = 0) and ``custom`` (any vectorized callable).
    """

    kind: str
    value: float = 0.0
    growth: float = 0.0
    fn: object = None

    @classmethod
    def constant(cls, c):
        return cls.exponential(c, 0.0)

    @classmethod
    def exponential(cls, c, rho):
        return cls(kind="exponential", value=float(c), growth=float(rho))

    @classmethod
    def custom(cls, fn):
        return cls(kind="custom", fn=fn)

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        if self.kind == "exponential" and self.growth == 0.0:
            # Not c e^(0 s): at s = -inf that is c * nan.
            out = np.full(s_arr.shape, self.value)
        elif self.kind == "exponential":
            out = self.value * np.exp(self.growth * s_arr)
        elif self.kind == "custom":
            out = np.asarray(self.fn(s_arr), dtype=float)
        else:
            raise ValueError(f"unknown history kind {self.kind!r}")
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ChainOdeProblem:
    """An ODE on a chain of exponential stages: state (head, stage 1..n),
    its right-hand side ``rhs(t, state)``, the chain it runs on, and the
    initial state."""

    rhs: callable
    params: object
    y0: np.ndarray
    labels: tuple


def _chain_rhs(F, rates):
    r = np.asarray(rates, dtype=float)
    rows = np.vstack([np.zeros(len(r)), stage_generator(r).T])
    rows[0, -1] = r[-1]

    def rhs(t, state):
        x = state[0]
        out = rows @ state[1:]
        out[0] = F(x, out[0])
        out[1] += x
        return out

    return rhs


def _exponential_init(c, rho, rates):
    """Closed-form compartment integrals for psi(s) = c exp(rho s)."""
    r = np.asarray(rates, dtype=float)
    if np.any(r + rho <= 0):
        raise ValueError(
            f"history grows too fast for the chain: rate {r.min()} <= {-rho}"
        )
    return (c / r) * np.cumprod(r / (r + rho))


def _custom_init(history, rates):
    """Adaptive vector quadrature of the defining integrals for custom
    histories: B(0) = int_0^inf psi(-s) e_1 exp(Q s) ds, since the
    occupancy of stage i, row e_1 exp(Q s) of the chain's generator Q, is
    kappa_i(s) / r_i."""
    q = stage_generator(rates)
    # A history growing too fast into the past overflows; the non-finite
    # result is rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        val, err = quad_vec(lambda s: float(history(-s)) * expm(q * s)[0], 0.0, np.inf)
    if not np.all(np.isfinite(val)) or not err <= 1e-6 * max(1.0, np.linalg.norm(val)):
        raise ValueError("history integral over the chain compartments diverges")
    return val


def chain_initial_state(history, params):
    """Compartment initial values at t = 0 for the given history."""
    rates = params.rates()
    if history.kind == "exponential":
        return _exponential_init(history.value, history.growth, rates)
    return _custom_init(history, rates)


def _build(F, params, history):
    rates = params.rates()
    y0 = np.concatenate([[float(history(0.0))], chain_initial_state(history, params)])
    labels = ("Y",) + tuple(f"B{i + 1}" for i in range(len(rates)))
    return ChainOdeProblem(rhs=_chain_rhs(F, rates), params=params, y0=y0, labels=labels)


def build_erlang_system(F, params, history):
    """ODE reduction of the Erlang-kernel DDE y' = F(y, b A_n)."""
    if params.variant != "erlang":
        raise ValueError("params must come from the erlang approximation")
    return _build(F, params, history)


def build_hypoexp_system(F, params, history):
    """ODE reduction of the hypoexponential-kernel DDE y' = F(y, mu B_n)."""
    if params.variant == "erlang":
        raise ValueError("params must come from a hypoexponential approximation")
    return _build(F, params, history)
