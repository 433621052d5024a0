"""Probability kernels for distributed delays.

Gamma kernels (Erlang for integer shape, exponential for shape 1) and
hypoexponential kernels (sums of independent exponentials with possibly
distinct rates), with densities, survival functions, moment generating
functions, moments, and seeded sampling.  All kernel objects are immutable
and safe to share; ``Rng`` instances are single-owner.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaincc


@dataclass(frozen=True)
class GammaKernel:
    """Gamma density g(s) = a^j s^(j-1) exp(-a s) / Gamma(j)."""

    shape: float  # j
    rate: float  # a

    def __post_init__(self):
        if not (self.shape > 0 and math.isfinite(self.shape)):
            raise ValueError(f"shape must be positive, got {self.shape}")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be positive, got {self.rate}")

    @property
    def mean(self):
        return self.shape / self.rate

    @property
    def variance(self):
        return self.shape / self.rate**2


@dataclass(frozen=True)
class HypoexpKernel:
    """Sum of independent exponentials with the given stage rates."""

    rates: tuple

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        if len(rates) < 1:
            raise ValueError("need at least one stage rate")
        if any(not (r > 0 and math.isfinite(r)) for r in rates):
            raise ValueError(f"all rates must be positive, got {rates}")
        object.__setattr__(self, "rates", rates)

    @property
    def mean(self):
        return sum(1.0 / r for r in self.rates)

    @property
    def variance(self):
        return sum(1.0 / r**2 for r in self.rates)


class Rng:
    """Seeded counter-based generator (Philox); same seed, same stream."""

    def __init__(self, seed=0):
        self.seed = int(seed)
        self.generator = np.random.Generator(np.random.Philox(self.seed))


# ---------------------------------------------------------------------------
# Gamma kernel operations.


def gamma_survival(kernel, t):
    """P(T >= t) for the gamma kernel, Q(j, a t) (vectorized)."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be nonnegative")
    with np.errstate(over="ignore"):  # a time past the float range reads 0
        out = gammaincc(kernel.shape, kernel.rate * t_arr)
    return out if out.ndim else float(out)


def gamma_mgf(kernel, theta):
    """E[exp(theta T)] = (1 - theta/a)^(-j), defined for theta < a."""
    j, a = kernel.shape, kernel.rate
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(theta_arr >= a):
        raise ValueError(f"mgf requires theta < rate ({a})")
    out = (1.0 - theta_arr / a) ** (-j)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Hypoexponential kernel operations.


def hypoexp_mgf(kernel, theta):
    """E[exp(theta T)] = prod r_i / (r_i - theta) for theta < min rate."""
    rates = np.asarray(kernel.rates)
    theta_arr = np.asarray(theta, dtype=float)
    if np.any(theta_arr >= rates.min()):
        raise ValueError(f"mgf requires theta < min rate ({rates.min()})")
    out = np.prod(rates / (rates - theta_arr[..., None]), axis=-1)
    out = out.reshape(theta_arr.shape)
    return out if out.ndim else float(out)


def stage_generator(rates):
    """Generator Q of a chain of exponential stages, the Markov chain that
    moves stage i on to stage i + 1 at rate r_i and absorbs from the last:
    upper bidiagonal, Q[i, i] = -r_i and Q[i, i + 1] = r_i."""
    n = len(rates)
    q = np.zeros((n, n))
    for i, r in enumerate(rates):
        q[i, i] = -r
        if i + 1 < n:
            q[i, i + 1] = r
    return q


#: Most entries, stages^2 x times, of one call's occupancies: it bounds the
#: propagation's work and the stack of exponentials over the distinct time
#: steps, which holds at most one matrix per time.  The benchmark's largest
#: call has 98,049 (7 stages at 2,001 times), the tests' 540, and at the
#: budget, with every step distinct, scipy's ``expm`` holds up to 256 MB.
MAX_EXPM_ENTRIES = 2**22


#: Bound on the 1-norm of the generator times a time step: scipy's ``expm``
#: returns nan from 2^128 on, which rates spanning 1e38 reach in ten time units.
EXPM_NORM_LIMIT = 2.0**127


def _occupancies(kernel, t):
    """Stage-occupancy row vectors p(t) = e1 exp(Q t), one row per time.

    p is carried through the sorted times, p <- p exp(Q dt), with one
    exponential per distinct step dt: a linspace grid rounds to about a
    dozen distinct steps, however many times it has.

    The survival is bounded by that of Erlang(n, r_min), every stage being
    at least as fast as the slowest.  Where that bound underflows to 0 in
    ``gammaincc`` (below about 1e-308; at t = +inf, and from t of about
    1e38 on, where the exponentials overflow) all mass counts as absorbed
    and the row is zero.
    """
    t_arr = np.asarray(t, dtype=float).ravel()
    if np.any(t_arr < 0):
        raise ValueError("time must be nonnegative")
    n = len(kernel.rates)
    if n**2 * t_arr.size > MAX_EXPM_ENTRIES:
        raise ValueError(
            f"{t_arr.size} times of a {n}-stage chain exceed the budget "
            f"of {MAX_EXPM_ENTRIES} matrix entries: ask for fewer times"
        )
    order = np.argsort(t_arr, kind="stable")
    with np.errstate(over="ignore"):
        tail = gammaincc(n, min(kernel.rates) * t_arr[order])
    order = order[tail > 0]
    steps, step_of = np.unique(np.diff(t_arr[order], prepend=0.0), return_inverse=True)
    generator, step = stage_generator(kernel.rates), steps.max(initial=0.0)
    with np.errstate(over="ignore"):  # an infinite norm is refused
        norm = np.abs(generator * step).sum(axis=0).max()
    if not norm < EXPM_NORM_LIMIT:
        raise ValueError(
            f"stage rates from {min(kernel.rates):.3g} to {max(kernel.rates):.3g} span too "
            f"much for a time step of {step:.3g}, where the matrix exponential fails"
        )
    propagators = expm(generator * steps[:, None, None])
    out = np.zeros((t_arr.size, n))
    p = np.zeros(n)
    p[0] = 1.0
    for at, k in zip(order.tolist(), step_of.tolist()):
        p = p @ propagators[k]
        out[at] = p
    return out


def hypoexp_survival(kernel, t):
    """Mass not yet absorbed at time t: integrates the generator from
    unit mass in stage 1.  Robust to repeated and widely separated rates.
    """
    t_arr = np.asarray(t, dtype=float)
    out = np.clip(_occupancies(kernel, t_arr).sum(axis=1), 0.0, 1.0)
    out = out.reshape(t_arr.shape)
    return out if out.ndim else float(out)


def hypoexp_pdf(kernel, t):
    """Absorption-time density: outflow of the final stage, r_n p_n(t)."""
    t_arr = np.asarray(t, dtype=float)
    out = kernel.rates[-1] * _occupancies(kernel, t_arr)[:, -1]
    out = out.reshape(t_arr.shape)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Sampling.


def sample_equilibrium_gamma(rng, kernel, size=None):
    """Variates with density survival(t)/mean (stationary forward recurrence
    time).  Size-bias construction: U * G with U uniform on (0,1) and G
    gamma with shape j+1 at the same rate.
    """
    u = rng.generator.uniform(size=size)
    g = rng.generator.gamma(shape=kernel.shape + 1.0, scale=1.0 / kernel.rate, size=size)
    return u * g
