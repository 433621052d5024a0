"""SIR model with a gamma-distributed infectious period, reduced to a
hypoexponential chain, plus synthetic-data generation and evidence-synthesis
likelihood fitting.

The model tracks susceptibles S and n infectious stages I_1..I_n:

    S'   = -beta S I,          I = I_1 + ... + I_n
    I_1' = beta S I - g_1 I_1
    I_i' = g_{i-1} I_{i-1} - g_i I_i

with the stage rates g_i taken from a two-moment chain approximation of
the Gamma(j, j/tau) infectious period.  Observations are daily case
counts C_k ~ Poisson(M * (S(t_{k-1}) - S(t_k))) and serial intervals
drawn from the stationary forward recurrence density survival(t)/tau.
"""

import csv
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln

from .approximations import ApproxConfig, chain_params
from .chain_reduction import ChainOdeProblem, HistoryFunction
from .distributions import GammaKernel, gamma_survival, sample_equilibrium_gamma
from .ode_solver import OdeConfig, rk45_adaptive


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
        if min(self.beta, self.tau, self.j) <= 0:
            raise ValueError("beta, tau, j must be positive")
        # eps = 0 is allowed and yields the disease-free equilibrium.
        if not (0 <= self.eps < 1):
            raise ValueError("initial infected fraction must lie in [0, 1)")
        if self.M < 1:
            raise ValueError("population scale must be at least 1")
        times = tuple(float(t) for t in self.obs_times)
        if any(b <= a for a, b in zip(times, times[1:])) or (times and times[0] <= 0):
            raise ValueError("observation times must be positive and increasing")
        object.__setattr__(self, "obs_times", times)

    @property
    def r0(self):
        return self.beta * self.tau


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
        if any(t <= 0 for t in serial):
            raise ValueError("serial intervals must be positive")
        object.__setattr__(self, "cases", cases)
        object.__setattr__(self, "serial", serial)


def build_sir_chain(params, rate_variant="fixed", approx_cfg=None):
    """Chain ODE for the SIR model; state (S, I_1..I_n), n = ceil(j).

    The infection starts as a point mass: S(0) = 1 - eps, I_1(0) = eps.
    """
    chain = chain_params(rate_variant, params.j, params.tau, approx_cfg)
    rates = np.asarray(chain.rates())
    n = len(rates)
    beta = params.beta

    def rhs(t, state):
        s = state[0]
        stages = state[1:]
        force = beta * s * stages.sum()
        out = np.empty(n + 1)
        out[0] = -force
        out[1] = force - rates[0] * stages[0]
        if n > 1:
            out[2:] = rates[:-1] * stages[:-1] - rates[1:] * stages[1:]
        return out

    y0 = np.zeros(n + 1)
    y0[0] = 1.0 - params.eps
    y0[1] = params.eps
    t_end = params.obs_times[-1] if params.obs_times else params.tau * 20
    return ChainOdeProblem(
        rhs=rhs,
        params=chain,
        history=HistoryFunction.point_mass(params.eps),
        t0=0.0,
        t_end=t_end,
        y0=y0,
        labels=("S",) + tuple(f"I{i + 1}" for i in range(n)),
    )


def simulate_incidence(params, rate_variant="fixed", approx_cfg=None, rtol=1e-10):
    """Per-interval susceptible depletions DS_k = S(t_{k-1}) - S(t_k).

    Fractions of the population, so their sum is at most 1; multiply by M
    for expected case counts.
    """
    problem = build_sir_chain(params, rate_variant, approx_cfg)
    times = np.concatenate([[0.0], params.obs_times])
    cfg = OdeConfig(rtol=rtol, atol=rtol * 1e-2)
    _, states = rk45_adaptive(problem.rhs, problem.y0, 0.0, times[-1], cfg, t_eval=times)
    s_vals = states[:, 0]
    return np.maximum(-np.diff(s_vals), 0.0)


def serial_density(j, tau, t):
    """Density of the serial interval: gamma survival / tau."""
    kernel = GammaKernel(shape=j, rate=j / tau)
    return gamma_survival(kernel, t) / tau


def sample_serial(rng, j, tau, size=None):
    """Serial-interval draws: stationary forward recurrence construction."""
    return sample_equilibrium_gamma(rng, GammaKernel(shape=j, rate=j / tau), size=size)


def sample_cases(rng, params, rate_variant="fixed", approx_cfg=None):
    """Poisson case counts around the model incidence."""
    ds = simulate_incidence(params, rate_variant, approx_cfg)
    return rng.generator.poisson(params.M * ds)


def simulate_dataset(rng, params, n_serial, rate_variant="fixed", approx_cfg=None):
    """Seeded synthetic observation set: cases plus serial intervals."""
    cases = sample_cases(rng, params, rate_variant, approx_cfg)
    serial = sample_serial(rng, params.j, params.tau, size=n_serial)
    return EpiData(cases=tuple(int(c) for c in cases), serial=tuple(serial))


def _poisson_loglik(counts, mu):
    counts = np.asarray(counts, dtype=float)
    mu = np.asarray(mu, dtype=float)
    out = np.full(counts.shape, -np.inf)
    ok = mu > 0
    out[ok] = counts[ok] * np.log(mu[ok]) - mu[ok] - gammaln(counts[ok] + 1.0)
    zero = (~ok) & (counts == 0)
    out[zero] = 0.0
    return out


def log_likelihood(params, data, rate_variant="fixed", approx_cfg=None, rtol=1e-10):
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
    trace: tuple = field(repr=False, default=())

    def to_dict(self):
        return {
            "beta": self.beta,
            "tau": self.tau,
            "j": self.j,
            "eps": self.eps,
            "loglik": self.loglik,
            "n_evals": self.n_evals,
            "converged": self.converged,
        }


DEFAULT_BOUNDS = {
    "beta": (0.02, 5.0),
    "tau": (0.5, 30.0),
    "j": (1.02, 12.0),
    "eps": (1e-6, 0.2),
}

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


def mle_fit(data, init, bounds=None, max_evals=500):
    """Maximize the evidence-synthesis likelihood over (beta, tau, j, eps).

    Nelder-Mead over (log beta, log tau, j, log eps), with every candidate
    clamped to the bounds box, so the search is gradient-free and immune
    to the square-root sensitivity of the chain rates near integer j.
    ``init`` is a :class:`SirParams` carrying the starting point and the
    observation design (grid, M).
    """
    bounds = {**DEFAULT_BOUNDS, **(bounds or {})}
    if bounds["j"][0] <= 1.01:
        raise ValueError("lower bound on j must exceed 1.01")

    def clamp(name, value):
        lo, hi = bounds[name]
        return min(max(value, lo), hi)

    trace = []

    def unpack(z):
        return (
            clamp("beta", math.exp(z[0])),
            clamp("tau", math.exp(z[1])),
            float(clamp("j", z[2])),
            clamp("eps", math.exp(z[3])),
        )

    def objective(z):
        beta, tau, j, eps = unpack(z)
        params = replace(init, beta=beta, tau=tau, j=j, eps=eps)
        ll = fit_log_likelihood(params, data)
        trace.append(ll)
        return -ll if math.isfinite(ll) else 1e12

    z0 = np.array(
        [
            math.log(clamp("beta", init.beta)),
            math.log(clamp("tau", init.tau)),
            clamp("j", init.j),
            math.log(clamp("eps", init.eps)),
        ]
    )
    result = minimize(
        objective,
        z0,
        method="Nelder-Mead",
        options={
            "maxfev": max_evals,
            "xatol": 1e-4,
            "fatol": 1e-6,
            "adaptive": True,
        },
    )
    beta, tau, j, eps = unpack(result.x)
    return FitResult(
        beta=beta,
        tau=tau,
        j=j,
        eps=eps,
        loglik=-float(result.fun),
        n_evals=int(result.nfev),
        converged=bool(result.success),
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# File formats: cases.csv (t, count), serial.csv (interval), fit report JSON.


def write_cases_csv(path, obs_times, cases):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "count"])
        for t, c in zip(obs_times, cases):
            writer.writerow([f"{t:.17g}", int(c)])


def read_cases_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    times = tuple(float(r["t"]) for r in rows)
    cases = tuple(int(r["count"]) for r in rows)
    return times, cases


def write_serial_csv(path, serial):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["interval"])
        for t in serial:
            writer.writerow([f"{t:.17g}"])


def read_serial_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return tuple(float(r["interval"]) for r in rows)


def write_fit_report(path, result):
    with open(path, "w") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
