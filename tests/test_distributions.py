import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import mpmath
from scipy.integrate import quad
from scipy.linalg import expm

from gammadde import distributions
from gammadde.approximations import fixed_hypoexp, smoothed_hypoexp
from gammadde.distributions import (
    GammaKernel,
    HypoexpKernel,
    Rng,
    gamma_mgf,
    gamma_survival,
    hypoexp_mgf,
    hypoexp_survival,
    sample_equilibrium_gamma,
    stage_generator,
)

# High-precision values computed with mpmath (30 digits) from the defining
# formulas and integrals.
SURV_2p5_2p5_AT_1 = 0.41588018699550792
MGF_2p15_AT_M0p1 = 0.65643375296817665


def test_kernel_validation():
    with pytest.raises(ValueError):
        GammaKernel(shape=0.0, rate=1.0)
    with pytest.raises(ValueError):
        GammaKernel(shape=1.0, rate=-2.0)
    with pytest.raises(ValueError):
        HypoexpKernel(rates=())
    with pytest.raises(ValueError):
        HypoexpKernel(rates=(1.0, 0.0))


def test_gamma_moments():
    k = GammaKernel(shape=2.5, rate=0.5)
    assert k.mean == 5.0
    assert k.variance == 10.0


def test_gamma_survival_values():
    assert gamma_survival(GammaKernel(3.7, 0.2), 0.0) == 1.0
    assert gamma_survival(GammaKernel(1.0, 1.0), 1.0) == pytest.approx(math.exp(-1), rel=1e-13)
    assert gamma_survival(GammaKernel(2.5, 2.5), 1.0) == pytest.approx(SURV_2p5_2p5_AT_1, rel=1e-12)
    with pytest.raises(ValueError):
        gamma_survival(GammaKernel(1.0, 1.0), -1.0)


def test_gamma_survival_monotone():
    k = GammaKernel(2.2, 1.7)
    t = np.linspace(0.0, 12.0, 200)
    s = gamma_survival(k, t)
    assert np.all(np.diff(s) <= 1e-15)
    assert np.all((0.0 <= s) & (s <= 1.0))


def test_incomplete_gamma_against_scipy():
    # Dual route: gamma_survival (scipy's gammaincc) against mpmath's
    # regularized upper incomplete gamma at 40 digits, on both sides of
    # the x = s + 1 line where the series and continued-fraction regimes
    # meet.
    rng = np.random.default_rng(5)
    with mpmath.workdps(40):
        for _ in range(200):
            s = rng.uniform(0.05, 30.0)
            x = rng.uniform(0.0, 60.0)
            oracle = float(mpmath.gammainc(s, x, mpmath.inf, regularized=True))
            assert gamma_survival(GammaKernel(s, 1.0), x) == pytest.approx(
                oracle, rel=1e-12, abs=1e-300
            )


def test_gamma_mgf():
    assert gamma_mgf(GammaKernel(1.0, 1.0), -1.0) == pytest.approx(0.5, rel=1e-15)
    assert gamma_mgf(GammaKernel(5.3, 0.7), 0.0) == 1.0
    assert gamma_mgf(GammaKernel(2.15, 0.4624), -0.1) == pytest.approx(
        MGF_2p15_AT_M0p1, rel=1e-13
    )
    with pytest.raises(ValueError):
        gamma_mgf(GammaKernel(2.0, 1.0), 1.0)


def test_hypoexp_mgf_and_moments():
    k = HypoexpKernel((1.0, 2.0))
    assert hypoexp_mgf(k, 0.0) == 1.0
    assert k.mean == 1.5
    assert k.variance == 1.25
    with pytest.raises(ValueError):
        hypoexp_mgf(k, 1.0)


def test_hypoexp_moments_match_mgf_derivatives():
    k = HypoexpKernel((0.8, 2.5, 4.0))
    h = 1e-5
    vals = hypoexp_mgf(k, np.array([-2 * h, -h, 0.0, h, 2 * h]))
    d1 = (vals[3] - vals[1]) / (2 * h)
    d2 = (vals[3] - 2 * vals[2] + vals[1]) / h**2
    assert d1 == pytest.approx(k.mean, rel=1e-6)
    assert d2 - k.mean**2 == pytest.approx(k.variance, rel=1e-4)


def test_hypoexp_survival_values():
    assert hypoexp_survival(HypoexpKernel((2.0, 3.0)), 0.0) == 1.0
    t = np.linspace(0.0, 3.0, 7)
    single = hypoexp_survival(HypoexpKernel((1.7,)), t)
    assert np.allclose(single, np.exp(-1.7 * t), atol=1e-12)
    # Distinct rates (1, 2): partial fractions give 2 e^-t - e^-2t.
    assert hypoexp_survival(HypoexpKernel((1.0, 2.0)), 1.0) == pytest.approx(
        2 * math.exp(-1) - math.exp(-2), abs=1e-10
    )


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(0.2, 8.0), min_size=2, max_size=5, unique=True),
    st.floats(0.05, 4.0),
)
def test_hypoexp_survival_matches_partial_fractions(rates, t):
    # The closed form is only a trustworthy oracle away from coalescing
    # poles, where its weights cancel catastrophically.
    gaps = np.diff(np.sort(rates))
    assume(gaps.size and gaps.min() > 0.1)
    k = HypoexpKernel(tuple(rates))
    r = np.asarray(rates)
    weights = []
    for i in range(len(r)):
        others = np.delete(r, i)
        weights.append(np.prod(others / (others - r[i])))
    closed = float(np.sum(np.asarray(weights) * np.exp(-r * t)))
    assert hypoexp_survival(k, t) == pytest.approx(closed, abs=1e-8)


def test_hypoexp_survival_repeated_rates():
    # Repeated rates coalesce partial-fraction poles; the generator path
    # must still agree with the Erlang closed form.
    k = HypoexpKernel((2.0, 2.0, 2.0))
    g = GammaKernel(3.0, 2.0)
    t = np.array([0.3, 1.0, 2.7])
    assert np.allclose(hypoexp_survival(k, t), gamma_survival(g, t), atol=1e-10)


PROPAGATION_KERNEL = HypoexpKernel((2.9, 2.9, 2.9, 2.9, 2.9, 1.6, 7.4))
# Unsorted, repeated and unevenly spaced, with 0 in the middle.
PROPAGATION_TIMES = np.array([3.7, 0.25, 0.0, 11.0, 0.25, 1e-9, 3.7, 6.02, 0.0, 0.5, 2.0, 19.5])


def _per_time_occupancies(kernel, t):
    q = stage_generator(kernel.rates)
    return np.array([expm(q * s)[0] for s in np.ravel(t)]).reshape(np.shape(t) + (len(q),))


@pytest.mark.parametrize(
    "t",
    [PROPAGATION_TIMES, PROPAGATION_TIMES.reshape(3, 4), 3.7, 0.0],
    ids=["1-D", "2-D", "scalar", "zero"],
)
def test_propagated_occupancies_match_per_time_expm(t):
    k = PROPAGATION_KERNEL
    occ = _per_time_occupancies(k, t)
    surv = hypoexp_survival(k, t)
    assert np.shape(surv) == np.shape(t)
    assert isinstance(surv, float) == np.isscalar(t)
    assert np.max(np.abs(surv - np.clip(occ.sum(axis=-1), 0.0, 1.0))) < 1e-14


@pytest.mark.parametrize(
    "fn, kernel",
    [
        (gamma_survival, GammaKernel(2.5, 2.5)),
        (hypoexp_survival, HypoexpKernel((1.0, 2.0, 3.0))),
    ],
    ids=["gamma_survival", "hypoexp_survival"],
)
def test_kernel_functions_vanish_at_infinity(fn, kernel):
    # All mass is absorbed at t = +inf; the finite times keep their values.
    vals = fn(kernel, np.array([0.5, np.inf, 1.0]))
    assert vals[1] == 0.0
    assert np.array_equal(vals[[0, 2]], fn(kernel, np.array([0.5, 1.0])))
    assert fn(kernel, np.inf) == 0.0


@pytest.mark.parametrize("t", [1e38, 1e100, 1e300, 1.7e308])
@pytest.mark.parametrize("fn", [hypoexp_survival], ids=["survival"])
@pytest.mark.parametrize(
    "params", [fixed_hypoexp(2.5, 3.0), smoothed_hypoexp(7.2, 3.0)], ids=["fixed", "smoothed"]
)
def test_far_tail_reads_zero(params, fn, t):
    # From t of about 1e38 on the chain's exponentials overflow; the mass
    # is absorbed there to far below the float range, as at t = +inf.
    kernel = params.kernel()
    assert fn(kernel, t) == 0.0
    vals = fn(kernel, np.array([0.5, t, 1.0]))
    assert vals[1] == 0.0
    assert np.array_equal(vals[[0, 2]], fn(kernel, np.array([0.5, 1.0])))


@pytest.mark.parametrize("fn", [hypoexp_survival], ids=["survival"])
@pytest.mark.parametrize("fast, t", [(1e35, 10.0), (1e38, 1.0)])
def test_wide_rate_span_below_the_expm_limit(fn, fast, t):
    # Rates 1 and r: survival (r e^-t - e^-rt) / (r - 1), e^-t to double
    # precision here.
    assert fn(HypoexpKernel((1.0, fast)), np.array([0.0, 0.5, t]))[1:] == pytest.approx(
        np.exp(-np.array([0.5, t])), rel=1e-14
    )


@pytest.mark.parametrize("fn", [hypoexp_survival], ids=["survival"])
@pytest.mark.parametrize("fast, t", [(1e38, 10.0), (1e40, 0.5), (1e300, 1e-3)])
def test_wide_rate_span_past_the_expm_limit_refused(fn, fast, t):
    # scipy's expm returns nan from a generator step of 1-norm 2^128 on.
    named = re.escape(f"stage rates from 1 to {fast:.3g} span too much")
    with pytest.raises(ValueError, match=named):
        fn(HypoexpKernel((1.0, fast)), np.array([0.0, t]))


def test_deep_tail_above_the_float_floor_is_kept():
    # Rates 1, 2, 3: the survival is 3 e^-t - 3 e^-2t + e^-3t, about
    # 3e-248 at t = 570, where the Erlang(3, 1) bound is still positive.
    t = 570.0
    closed = 3 * math.exp(-t) - 3 * math.exp(-2 * t) + math.exp(-3 * t)
    assert hypoexp_survival(HypoexpKernel((1.0, 2.0, 3.0)), t) == pytest.approx(closed, rel=1e-9)


def test_survival_on_a_sorted_grid_starts_at_one_and_never_increases():
    surv = hypoexp_survival(PROPAGATION_KERNEL, np.linspace(0.0, 40.0, 2001))
    assert surv[0] == 1.0
    assert np.all(np.diff(surv) <= 0.0)


def test_linspace_curve_needs_few_exponentials(monkeypatch):
    # One exponential per distinct step of the grid, not one per time.
    stacks = []

    def counting_expm(a):
        stacks.append(len(a))
        return expm(a)

    monkeypatch.setattr(distributions, "expm", counting_expm)
    hypoexp_survival(PROPAGATION_KERNEL, np.linspace(0.0, 45.0, 2001))
    assert len(stacks) == 1 and stacks[0] <= 20


def test_rng_reproducible():
    k = GammaKernel(2.0, 1.0)
    a = sample_equilibrium_gamma(Rng(7), k, size=100)
    b = sample_equilibrium_gamma(Rng(7), k, size=100)
    c = sample_equilibrium_gamma(Rng(8), k, size=100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_equilibrium_sampler_distribution():
    # Kolmogorov distance against the quadrature CDF of survival(t)/mean.
    k = GammaKernel(4.0, 0.8)
    draws = np.sort(sample_equilibrium_gamma(Rng(13), k, size=100_000))
    grid = np.linspace(0.0, draws[-1], 400)
    dens = gamma_survival(k, grid) / k.mean
    cdf_grid = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
    cdf_at_draws = np.interp(draws, grid, cdf_grid)
    ecdf = np.arange(1, draws.size + 1) / draws.size
    ks = np.max(np.abs(cdf_at_draws - ecdf))
    assert ks < 0.01


def test_equilibrium_sampler_mean():
    # E[T] = (mean/2)(1 + 1/shape) for the stationary recurrence time,
    # confirmed by quadrature of t * survival(t) / mean.
    k = GammaKernel(4.0, 0.8)
    expected, _ = quad(lambda t: t * gamma_survival(k, t) / k.mean, 0.0, np.inf)
    assert expected == pytest.approx((k.mean / 2) * (1 + 1 / k.shape), rel=1e-9)
    draws = sample_equilibrium_gamma(Rng(17), k, size=100_000)
    var, _ = quad(lambda t: t * t * gamma_survival(k, t) / k.mean, 0.0, np.inf)
    se = math.sqrt((var - expected**2) / draws.size)
    assert abs(draws.mean() - expected) < 3 * se


@settings(max_examples=30, deadline=None)
@given(st.floats(0.3, 15.0), st.floats(0.1, 6.0))
def test_kernel_invariants(j, a):
    gk = GammaKernel(j, a)
    assert gamma_survival(gk, 0.0) == 1.0
    assert gamma_mgf(gk, 0.0) == 1.0
    hk = HypoexpKernel((a, 2 * a))
    assert hypoexp_survival(hk, 0.0) == 1.0
    assert hypoexp_mgf(hk, 0.0) == 1.0


@pytest.mark.parametrize("t", [-1.0, [0.0, 1.0, -1e-300]], ids=["scalar", "array"])
def test_hypoexp_survival_refuses_a_negative_time(t):
    with pytest.raises(ValueError, match="time must be nonnegative"):
        hypoexp_survival(HypoexpKernel((1.0, 2.0)), t)
