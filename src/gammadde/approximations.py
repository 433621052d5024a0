"""Finite chains of exponentials approximating a gamma kernel.

Four variants, all parameterized by the gamma shape j and mean tau:

* ``erlang``: round j to the nearest integer, match the mean only.
* ``fixed``: n = max(ceil(j), 2) stages; n-2 stages at rate n/tau plus two
  free rates chosen so the first two moments match exactly.  The common
  rate jumps as j crosses integers.
* ``smoothed``: common rate j/tau varies continuously in j; the two free
  rates again match both moments exactly.
* ``smoothed_regularized``: smoothed rates nudged by (eps, hbar) so they
  stay bounded and differentiable near integer j, trading a controlled
  O(eps + hbar^2) variance error for bounded, optimizer-friendly chains.

``chain_params(variant, j, tau)`` builds any of them by name.
"""

import math
from dataclasses import dataclass, replace

from .distributions import HypoexpKernel

#: Most stages a chain may have.  The largest chain the tests build has 20
#: stages and the benchmark's 7; the SIR fitter's bounds allow 13.  At the
#: budget a chain's generator matrix takes 8 MB.
MAX_STAGES = 1000


@dataclass(frozen=True)
class ChainParams:
    """Stage count and rates of one chain approximation.

    Stages 1..n-2 share ``common_rate``; the last two run at ``nu`` then
    ``mu``.  For ``erlang`` (and integer shapes generally) all three
    coincide.  Convolution commutes, so the order of the two tail stages
    does not affect the distribution.
    """

    n: int
    common_rate: float
    nu: float
    mu: float
    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 1 <= self.n <= MAX_STAGES:
            raise ValueError(f"a chain takes 1 to {MAX_STAGES} stages, got {self.n:.6g}")
        for name in ("common_rate", "nu", "mu"):
            r = getattr(self, name)
            if not (r > 0 and math.isfinite(r)):
                raise ValueError(f"{name} must be positive and finite, got {r}")

    def rates(self):
        """Stage rates in chain order."""
        if self.n == 1:
            return (self.mu,)
        return (self.common_rate,) * (self.n - 2) + (self.nu, self.mu)

    def kernel(self):
        """The chain's kernel, which carries its mean and variance."""
        return HypoexpKernel(self.rates())


@dataclass(frozen=True)
class ApproxConfig:
    """Regularization offsets of the ``smoothed_regularized`` chain: ``eps``
    pulls the two tail residence times together and ``hbar`` regularizes
    the square root, bounding the fastest rate near integer shapes.  The
    other variants take no configuration."""

    eps: float = 1e-3
    hbar: float = 1e-3

    def __post_init__(self):
        if not (0 <= self.eps < 1):
            raise ValueError("eps must lie in [0, 1)")
        if self.hbar < 0:
            raise ValueError("hbar must be nonnegative")


def nearest_shape(j):
    """Nearest integer to j, rounding halves up and never below 1."""
    return max(1, math.floor(j + 0.5))


def _is_integer(j):
    return float(j).is_integer()


def _check_positive(j, tau):
    if not (j > 0 and math.isfinite(j)):
        raise ValueError(f"shape must be positive, got {j}")
    if not (tau > 0 and math.isfinite(tau)):
        raise ValueError(f"mean must be positive, got {tau}")


def erlang_approx(j, tau):
    """Erlang chain with shape [j] and rate [j]/tau; mean matched, variance
    generally not."""
    _check_positive(j, tau)
    n = nearest_shape(j)
    b = n / tau
    return ChainParams(n=n, common_rate=b, nu=b, mu=b, variant="erlang")


def fixed_hypoexp(j, tau):
    """Two-moment chain with n = max(ceil(j), 2) and common rate n/tau.

    The two tail residence times are the roots of a quadratic fixed by the
    moment equations; the smaller root degenerates to zero as j drops
    to 1, which is rejected (the chain turns stiff before that).
    """
    _check_positive(j, tau)
    n = max(math.ceil(j), 2)
    # n - j equals 1 - frac(j) for non-integer j and vanishes at integers,
    # where the construction reduces to the exact Erlang chain.
    disc = math.sqrt(n * (n - j) / (2.0 * j))
    inv_nu = (tau / n) * (1.0 + disc)
    inv_mu = (tau / n) * (1.0 - disc)
    if inv_mu <= 0:
        raise ValueError(
            f"two-moment chain infeasible for shape {j}: tail residence time "
            f"{inv_mu:.3g} is non-positive (occurs as shape approaches 1)"
        )
    return ChainParams(
        n=n, common_rate=n / tau, nu=1.0 / inv_nu, mu=1.0 / inv_mu, variant="fixed"
    )


def smoothed_hypoexp(j, tau):
    """Two-moment chain whose common rate j/tau varies continuously in j.

    At integer j every rate equals j/tau and the chain is the exact Erlang
    reduction.  Requires j >= 1: no sum of independent exponentials has
    coefficient of variation above 1.
    """
    _check_positive(j, tau)
    if _is_integer(j):
        b = j / tau
        return ChainParams(n=int(j), common_rate=b, nu=b, mu=b, variant="smoothed")
    if j < 1:
        raise ValueError(
            f"two-moment chain infeasible for shape {j} < 1 "
            "(target coefficient of variation exceeds 1)"
        )
    # Away from integers it is the regularized chain without its offsets.
    params = regularized_smoothed(j, tau, ApproxConfig(eps=0.0, hbar=0.0))
    return replace(params, variant="smoothed")


def regularized_smoothed(j, tau, cfg=None):
    """Smoothed chain with the square root regularized by hbar and the two
    tail residence times pulled together by eps.

    The mean identity survives exactly (the eps terms cancel); the variance
    picks up an O(eps + hbar^2) error.  Rates stay bounded by about
    2 j / (eps tau) near integer j, which bounds the chain's stiffness and
    keeps the rates continuously differentiable in j on each open interval.
    """
    _check_positive(j, tau)
    cfg = cfg or ApproxConfig()
    if j < 1:
        raise ValueError(f"two-moment chain infeasible for shape {j} < 1")
    # floor(j) + 1 stages throughout: at integer j this is the limit of the
    # construction from above, which keeps the formulas (and the mean
    # identity) valid without a special case, at the price of one
    # near-instantaneous stage whose rate the eps offset caps.
    n = math.floor(j) + 1
    frac = j - math.floor(j)
    root = math.sqrt(1.0 - frac * frac + cfg.hbar**2)
    inv_mu = (tau / (2.0 * j)) * (1.0 + frac + root - cfg.eps)
    inv_nu = (tau / (2.0 * j)) * (1.0 + frac - root + cfg.eps)
    if inv_nu <= 0 or inv_mu <= 0:
        raise ValueError(
            f"regularized residence times non-positive for shape {j} "
            f"(eps={cfg.eps}, hbar={cfg.hbar})"
        )
    return ChainParams(
        n=n,
        common_rate=j / tau,
        nu=1.0 / inv_nu,
        mu=1.0 / inv_mu,
        variant="smoothed_regularized",
    )


_BUILDERS = {
    "erlang": lambda j, tau, cfg: erlang_approx(j, tau),
    "fixed": lambda j, tau, cfg: fixed_hypoexp(j, tau),
    "smoothed": lambda j, tau, cfg: smoothed_hypoexp(j, tau),
    "smoothed_regularized": regularized_smoothed,
}

#: Names accepted by :func:`chain_params`, one per chain construction.
VARIANTS = tuple(_BUILDERS)


def chain_params(variant, j, tau, cfg=None):
    """The named variant's chain for shape j and mean tau.

    ``cfg`` reaches only ``smoothed_regularized``; an unknown name raises
    ValueError.
    """
    if variant not in _BUILDERS:
        raise ValueError(f"unknown chain variant {variant!r} (choose from {VARIANTS})")
    return _BUILDERS[variant](j, tau, cfg)

