"""Reduce a chain-approximated delay kernel to an equivalent ODE system.

A DDE x' = F(x, x * g) whose kernel g is Erlang or hypoexponential is
equivalent to an (n+1)-dimensional ODE.  The builders take the gamma DDE
as the :class:`~gammadde.fcrk.DdeProblem` that FCRK solves, read its rhs
F, history and x0, and replace its kernel by the chain.  The ODE has one
auxiliary compartment per exponential stage, with the delayed term read
off the final compartment's outflow r_n B_n.  The compartments evolve as
B' = Q^T B + x e_1, with Q the generator of
:func:`~gammadde.distributions.stage_generator`, the one place the
chain's transition rule is written.  Every chain ODE of the package,
the SIR model's C' = beta (1 - C) (C - C * g) among them, is built here;
its rhs is one ``ndarray.dot`` of an ``(n+1, n)`` row block, made once per
problem, with B: row 0 is r_n e_n and gives the delayed term, rows 1..n
are Q^T; the head's derivative F(x, r_n B_n) then replaces row 0's entry,
and the inflow x is added to B_1'.  LSODA calls the rhs about twice per
step, on at most 14 x 13 entries in the package's own solves, so the
per-call dispatch of the ``@`` ufunc would cost more than the product:
``ndarray.dot`` gives the same bits in about 70% of the time (1.4-1.6
against 2.2 microseconds per SIR-chain call on a 2-vCPU machine).
Each call returns a new array.  Chains start at t0 = 0 and refuse any
other t0, and a chain whose mean is not the problem kernel's is refused.  The head starts at the problem's x0, and the history enters
only through the compartments' initial values

    B_i(0) = int_0^inf psi(-s) / r_i * kappa_i(s) ds,

where kappa_i is the density of the first i stages in sequence, the
convolution of their exponentials.  A chain takes only an exponential
history, for which this has the closed form
(c / r_i) prod_{k <= i} r_k / (r_k + rho), zero for c = 0; a custom
history is refused, and FCRK solves the DDE from it.  At integer shape
every two-moment chain has all rates equal, so it reproduces the Erlang
reduction exactly.
"""

from dataclasses import dataclass

import numpy as np

from .distributions import stage_generator


@dataclass(frozen=True)
class HistoryFunction:
    """Prescribed solution values on (-inf, t0); the solution's value at t0
    is the problem's x0, by default the history's own value there.

    One form, psi(s) = m(s) e^(rho s), rho = ``growth`` finite: m is the
    constant ``value`` c when ``fn`` is None (``exponential(c, rho)``), else
    the vectorized callable ``fn`` (``custom(fn, growth)``, no ``value``).
    FCRK folds e^(rho s) into its quadrature factors and reads m alone
    (:meth:`amplitude`).  Custom histories are for FCRK only.
    """

    value: float = 0.0
    growth: float = 0.0
    fn: object = None

    def __post_init__(self):
        if not np.isfinite(self.growth):
            raise ValueError(f"growth rate must be finite, got {self.growth}")
        if self.fn is not None and not callable(self.fn):
            raise ValueError(f"a custom history needs a callable fn, got {self.fn!r}")
        if self.fn is not None and self.value != 0.0:
            raise ValueError(f"a custom history takes no value, got {self.value!r}")

    @classmethod
    def constant(cls, c):
        return cls.exponential(c, 0.0)

    @classmethod
    def exponential(cls, c, rho):
        return cls(value=float(c), growth=float(rho))

    @classmethod
    def custom(cls, fn, growth=0.0):
        if fn is None:
            raise ValueError("a custom history needs a callable fn, got None")
        return cls(growth=float(growth), fn=fn)

    def amplitude(self, times):
        """m at the array ``times``, one value per time: c, or ``fn(times)``
        with one returned number broadcast; any other shape is refused."""
        vals = np.asarray(self.value if self.fn is None else self.fn(times), dtype=float)
        if vals.ndim == 0:
            vals = np.full(times.shape, float(vals))
        if vals.shape != times.shape:
            raise ValueError(f"history must return one value per time, got shape {vals.shape}")
        return vals

    def __call__(self, s):
        s_arr = np.asarray(s, dtype=float)
        out = self.amplitude(s_arr)
        # Not m e^(0 s) at rho = 0: at s = -inf that is m * nan.
        if self.growth:
            out = out * np.exp(self.growth * s_arr)
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
    product = rows.dot

    def rhs(t, state):
        # A numpy scalar, not a float: F's arithmetic then overflows under
        # the solver's errstate instead of going to inf silently.
        x = state[0]
        out = product(state[1:])
        out[0] = F(x, out[0])
        out[1] += x
        return out

    return rhs


def chain_initial_state(history, params):
    """Compartment initial values at t = 0, in closed form, for an
    exponential history.  The integrals diverge unless the history grows
    into the past more slowly than the chain's slowest stage decays."""
    if history.fn is not None:
        raise ValueError("a chain needs an exponential history; fcrk4_solve takes a custom one")
    rho = history.growth
    r = np.asarray(params.rates(), dtype=float)
    slowest = r.min()
    if not slowest + rho > 0:
        raise ValueError(
            f"history grows into the past at rate {-rho:g}, not below "
            f"the {params.variant} chain's slowest stage rate {slowest:g}"
        )
    return (history.value / r) * np.cumprod(r / (r + rho))


def _build(problem, params):
    if problem.t0 != 0:
        raise ValueError(
            f"a chain starts at t0 = 0, not at t0 = {problem.t0:g}; "
            "fcrk4_solve solves the DDE from any t0"
        )
    rates = params.rates()
    # Every variant matches the gamma mean to rounding (within 1e-15
    # relative); a chain of another mean reduces another DDE.
    mean, chain_mean = problem.kernel.mean, params.kernel().mean
    if not abs(chain_mean - mean) <= 1e-12 * mean:
        raise ValueError(
            f"the {params.variant} chain's mean {chain_mean:.12g} is not the "
            f"mean {mean:.12g} of the problem's kernel"
        )
    y0 = np.concatenate([[problem.initial_value()], chain_initial_state(problem.history, params)])
    labels = ("Y",) + tuple(f"B{i + 1}" for i in range(len(rates)))
    return ChainOdeProblem(rhs=_chain_rhs(problem.rhs, rates), params=params, y0=y0, labels=labels)


def build_erlang_system(problem, params):
    """ODE reduction of ``problem`` with its kernel replaced by the Erlang
    chain ``params``: y' = F(y, b A_n)."""
    if params.variant != "erlang":
        raise ValueError("params must come from the erlang approximation")
    return _build(problem, params)


def build_hypoexp_system(problem, params):
    """ODE reduction of ``problem`` with its kernel replaced by the
    hypoexponential chain ``params``: y' = F(y, mu B_n)."""
    if params.variant == "erlang":
        raise ValueError("params must come from a hypoexponential approximation")
    return _build(problem, params)
