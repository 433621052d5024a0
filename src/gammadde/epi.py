"""SIR model with a gamma-distributed infectious period, reduced to a
hypoexponential chain, plus synthetic-data generation and evidence-synthesis
likelihood fitting.

The model is a gamma DDE in the cumulative incidence C = 1 - S: by time t,
C(t) have been infected and (C * g)(t) have recovered, g the density of the
infectious period, so C' = beta (1 - C) (C - C * g), from C = 0 on
(-inf, 0) and C(0) = eps: a :class:`~gammadde.fcrk.DdeProblem` with the
history constant(0) and x0 = eps (:func:`sir_dde`), which FCRK solves as
it stands.  The likelihood runs on the :mod:`~gammadde.chain_reduction`
of this DDE, with stage rates from a two-moment chain approximation of the
Gamma(j, j/tau) infectious period: state (C, B_1..B_n), the infected in
stage i are I_i = B_i' and the recovered R = r_n B_n, checked and solved
as :mod:`~gammadde.ode_solver` does every chain ODE.  Observations are
daily case counts C_k ~ Poisson(M * (C(t_k) - C(t_{k-1}))) and serial
intervals drawn from the stationary forward recurrence density
survival(t)/tau.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln, xlogy

from .analysis import chain_system
from .approximations import ApproxConfig, chain_params
from .chain_reduction import HistoryFunction
from .distributions import GammaKernel, gamma_survival, sample_equilibrium_gamma
from .fcrk import DdeProblem
from .ode_solver import DEFAULT_RTOL, MAX_RATE, check_chain, rk45_adaptive


#: Largest population scale M.  Expected case counts are M times a fraction
#: of the population, and numpy refuses Poisson means above about 9.2e18.
#: The largest M in the tests is 100,000 and in the benchmark 1,000.
MAX_POPULATION = 1e18


@dataclass(frozen=True)
class SirParams:
    """Epidemic parameters and the observation grid."""

    beta: float
    tau: float
    j: float
    eps: float
    M: float
    obs_times: tuple = tuple(float(k) for k in range(1, 121))

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.beta, self.tau, self.j, self.M)):
            raise ValueError("beta, tau, j and M must be finite")
        if min(self.beta, self.tau, self.j) <= 0:
            raise ValueError("beta, tau, j must be positive")
        # eps = 0 is allowed and yields the disease-free equilibrium.
        if not (0 <= self.eps < 1):
            raise ValueError("initial infected fraction must lie in [0, 1)")
        if not 1 <= self.M <= MAX_POPULATION:
            raise ValueError(
                f"population scale M = {self.M:g} must lie in [1, {MAX_POPULATION:g}]"
            )
        times = tuple(float(t) for t in self.obs_times)
        if not all(math.isfinite(t) for t in times):
            raise ValueError("observation times must be finite")
        if any(b <= a for a, b in zip(times, times[1:])) or (times and times[0] <= 0):
            raise ValueError("observation times must be positive and increasing")
        object.__setattr__(self, "obs_times", times)


@dataclass(frozen=True)
class EpiData:
    """Observed case counts (one per observation time) and serial intervals."""

    cases: tuple
    serial: tuple

    def __post_init__(self):
        cases = tuple(int(c) for c in self.cases)
        if any(c < 0 for c in cases):
            raise ValueError("case counts must be nonnegative")
        serial = tuple(float(t) for t in self.serial)
        if not all(0 < t < math.inf for t in serial):
            raise ValueError("serial intervals must be positive and finite")
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "serial", serial)


def sir_dde(params):
    """The SIR model's C-DDE C' = beta (1 - C) (C - C * g) over the
    observation window, g the Gamma(j, j/tau) density of the infectious
    period, from C = 0 before t = 0 and C(0) = eps."""
    if not params.obs_times:
        raise ValueError("the SIR model needs an observation time to end its window")
    beta = params.beta
    return DdeProblem(
        rhs=lambda c, recovered: beta * (1.0 - c) * (c - recovered),
        kernel=GammaKernel(shape=params.j, rate=params.j / params.tau),
        history=HistoryFunction.constant(0.0),
        t0=0.0,
        t_end=params.obs_times[-1],
        x0=params.eps,
    )


def build_sir_chain(params, rate_variant="fixed", approx_cfg=None):
    """Chain reduction of :func:`sir_dde`; state (C, B_1..B_n).

    The history C = 0 gives every compartment 0 at t = 0, and the head
    starts at C(0) = eps.  A beta above ``ode_solver.MAX_RATE`` is
    refused, and so is a chain that ``ode_solver.check_chain`` refuses.
    """
    if params.beta > MAX_RATE:
        raise ValueError(f"beta = {params.beta:g} is above the largest rate, {MAX_RATE:g}")
    chain = chain_params(rate_variant, params.j, params.tau, approx_cfg)
    check_chain(params.j, params.tau, chain)
    return chain_system(sir_dde(params), chain)


def simulate_incidence(params, rate_variant="fixed", approx_cfg=None, rtol=DEFAULT_RTOL):
    """Per-interval incidences C(t_k) - C(t_{k-1}).

    Fractions of the population, so their sum is at most 1; multiply by M
    for expected case counts.
    """
    problem = build_sir_chain(params, rate_variant, approx_cfg)
    times = np.concatenate([[0.0], params.obs_times])
    states = rk45_adaptive(problem.rhs, problem.y0, times, rtol)
    return np.maximum(np.diff(states[:, 0]), 0.0)


def serial_density(j, tau, t):
    """Density of the serial interval: gamma survival / tau."""
    kernel = GammaKernel(shape=j, rate=j / tau)
    return gamma_survival(kernel, t) / tau


def sample_serial(rng, j, tau, size=None):
    """Serial-interval draws: stationary forward recurrence construction."""
    return sample_equilibrium_gamma(rng, GammaKernel(shape=j, rate=j / tau), size=size)


def simulate_dataset(rng, params, n_serial):
    """Seeded synthetic observation set: Poisson case counts around the
    model incidence on the fixed chain, plus serial intervals."""
    cases = rng.generator.poisson(params.M * simulate_incidence(params))
    serial = sample_serial(rng, params.j, params.tau, size=n_serial)
    return EpiData(cases=tuple(int(c) for c in cases), serial=tuple(serial))


def _poisson_loglik(counts, mu):
    counts = np.asarray(counts, dtype=float)
    return xlogy(counts, mu) - mu - gammaln(counts + 1.0)


def log_likelihood(params, data, rate_variant="fixed", approx_cfg=None, rtol=DEFAULT_RTOL):
    """Poisson case likelihood plus serial-interval likelihood.

    Returns -inf (rather than raising) when the model predicts zero
    incidence where cases were observed.
    """
    total = 0.0
    if data.cases:
        if len(data.cases) != len(params.obs_times):
            raise ValueError("case series and observation grid differ in length")
        ds = simulate_incidence(params, rate_variant, approx_cfg, rtol=rtol)
        terms = _poisson_loglik(data.cases, params.M * ds)
        if np.any(np.isneginf(terms)):
            return -np.inf
        total += float(terms.sum())
    if data.serial:
        dens = serial_density(params.j, params.tau, np.asarray(data.serial))
        if np.any(dens <= 0):
            return -np.inf
        total += float(np.log(dens).sum())
    return total


@dataclass(frozen=True)
class FitResult:
    beta: float
    tau: float
    j: float
    eps: float
    loglik: float
    n_evals: int
    converged: bool


DEFAULT_BOUNDS = {
    "beta": (0.02, 5.0),
    "tau": (0.5, 30.0),
    "j": (1.02, 12.0),
    "eps": (1e-6, 0.2),
}

#: Whether :func:`mle_fit` searches over the log of each parameter of
#: ``DEFAULT_BOUNDS`` or over the parameter itself.
_LOG_SEARCH = {"beta": True, "tau": True, "j": False, "eps": True}

#: Chain settings used inside the fitter: the regularized smoothed rates
#: keep the objective continuous in j across integers, and the relatively
#: large offsets cap the fastest rate at about 2 j / (eps tau), 160 at
#: j = 4 and tau = 5.  Just above an integer that rate makes the chain
#: stiff, which LSODA absorbs.
FIT_APPROX_CFG = ApproxConfig(eps=1e-2, hbar=1e-2)


def fit_log_likelihood(params, data):
    """The likelihood :func:`mle_fit` maximizes: ``log_likelihood`` on the
    regularized smoothed chain with ``FIT_APPROX_CFG`` at rtol 1e-8."""
    return log_likelihood(
        params, data, "smoothed_regularized", FIT_APPROX_CFG, rtol=1e-8
    )


def mle_fit(data, init, max_evals=500):
    """Maximize the evidence-synthesis likelihood over (beta, tau, j, eps).

    Nelder-Mead over (log beta, log tau, j, log eps), kept inside the
    ``DEFAULT_BOUNDS`` box by scipy's bounded variant, which clips every
    vertex to the box, so the search is gradient-free and immune to the
    square-root sensitivity of the chain rates near integer j.  ``init``
    is a :class:`SirParams` carrying the starting point, clipped into the
    box, and the observation design (grid, M).  The first simplex is
    scipy's default, each vertex the start with one coordinate times 1.05,
    except that a vertex past a lower face is reflected into the box, as
    scipy reflects one past an upper face; clipping it would flatten the
    simplex and pin that coordinate to the face.
    """
    if max_evals < 1:
        raise ValueError("the evaluation budget max_evals must be at least 1")

    def search(name, value):
        return math.log(value) if _LOG_SEARCH[name] else value

    def unpack(z):
        return {
            name: float(np.clip(math.exp(v) if _LOG_SEARCH[name] else v, *box))
            for (name, box), v in zip(DEFAULT_BOUNDS.items(), z)
        }

    def objective(z):
        ll = fit_log_likelihood(replace(init, **unpack(z)), data)
        return -ll if math.isfinite(ll) else 1e12

    boxes = DEFAULT_BOUNDS.items()
    bounds = np.array([[search(name, edge) for edge in box] for name, box in boxes])
    z0 = np.array([search(name, np.clip(getattr(init, name), *box)) for name, box in boxes])
    simplex = np.tile(z0, (len(z0) + 1, 1))
    np.fill_diagonal(simplex[1:], np.where(z0 != 0, 1.05 * z0, 0.00025))
    simplex = np.where(simplex < bounds[:, 0], 2 * bounds[:, 0] - simplex, simplex)
    result = minimize(
        objective,
        z0,
        method="Nelder-Mead",
        bounds=bounds,
        options={
            "initial_simplex": simplex,
            "maxfev": max_evals,
            "xatol": 1e-4,
            "fatol": 1e-6,
            "adaptive": True,
        },
    )
    return FitResult(
        **unpack(result.x),
        loglik=-float(result.fun),
        n_evals=int(result.nfev),
        converged=bool(result.success),
    )
