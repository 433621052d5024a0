import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammadde import analysis
from gammadde.approximations import erlang_approx, fixed_hypoexp, smoothed_hypoexp
from gammadde.distributions import GammaKernel, gamma_survival, hypoexp_survival


def test_estimate_order_synthetic():
    hs = [0.1, 0.05, 0.025]
    slope, _ = analysis.estimate_order(hs, [h**4 for h in hs])
    assert slope == pytest.approx(4.0, abs=1e-12)
    slope, intercept = analysis.estimate_order(hs, [3 * h**2 for h in hs])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(math.log10(3.0), abs=1e-12)


def test_estimate_order_floor_handling():
    hs = [0.1, 0.05, 0.025, 0.0125]
    errs = [1e-4, 1e-8, 1e-15, 1e-15]  # last two below the floor
    slope, _ = analysis.estimate_order(hs, errs)
    assert slope == pytest.approx(
        (math.log10(1e-4) - math.log10(1e-8)) / (math.log10(0.1) - math.log10(0.05)),
        rel=1e-12,
    )
    with pytest.raises(ValueError):
        analysis.estimate_order(hs, [1e-15] * 4)
    with pytest.raises(ValueError):
        analysis.estimate_order([0.1, 0.05], [1.0, 0.5])


@pytest.mark.parametrize(
    "hs, errs",
    [
        ([0.1, 0.1, 0.1], [1e-4, 1e-4, 1e-4]),
        ([0.1, 0.05, 0.05], [1e-4, 1e-5, 1e-5]),
        # Three distinct steps, but only one above the precision floor.
        ([0.1, 0.1, 0.05, 0.025], [1e-4, 1e-4, 1e-15, 1e-15]),
    ],
)
def test_estimate_order_refuses_repeated_steps(hs, errs):
    # No line through points at fewer than two distinct steps (numpy would
    # warn of a rank-deficient fit and return a slope anyway).
    with pytest.raises(ValueError, match="distinct steps|precision floor"):
        analysis.estimate_order(hs, errs)


def test_linear_reference_initial_values():
    assert analysis.linear_test_reference(1, 0.0) == 1.0
    with pytest.raises(ValueError):
        analysis.linear_test_reference(2.5, 1.0)


def test_linear_reference_closed_form_satisfies_ode():
    # The damped cosine must solve x'' + 0.2 x' + 0.3 x = 0 with
    # x(0) = 1, x'(0) = -0.3 (slope fixed by the delayed term at zero).
    t = np.linspace(0.0, 6.0, 25)
    h = 1e-5
    x = analysis.linear_test_reference(1, t)
    xp = (analysis.linear_test_reference(1, t + h) - analysis.linear_test_reference(1, t - h)) / (2 * h)
    xpp = (
        analysis.linear_test_reference(1, t + h)
        - 2 * x
        + analysis.linear_test_reference(1, t - h)
    ) / h**2
    assert np.max(np.abs(xpp + 0.2 * xp + 0.3 * x)) < 1e-5
    slope0 = (analysis.linear_test_reference(1, h) - analysis.linear_test_reference(1, 0.0)) / h
    assert slope0 == pytest.approx(-0.3, abs=1e-4)


def test_integer_shape_reference_builds_its_chain_when_called():
    # Above the chain budget the problem still builds; only its reference,
    # an Erlang chain of 2000 stages, is refused.
    problem, reference = analysis.dde_problem("linear", 2000)
    assert problem.kernel.shape == 2000
    with pytest.raises(ValueError, match="a chain takes 1 to 1000 stages"):
        reference(1.0)


def test_linear_reference_chain_consistent_with_closed_form():
    # Integer-shape chain integration path against the closed form at j=1.
    t = np.linspace(0.0, 10.0, 21)
    prob, closed = analysis.dde_problem("linear", 1)
    states, labels = analysis.chain_trajectory(
        prob.rhs, erlang_approx(1, 1.0), prob.history, t, rtol=1e-12
    )
    assert labels == ("Y", "B1")
    assert np.max(np.abs(states[:, 0] - closed(t))) < 1e-10


def test_char_root():
    # beta = a collapses the root to zero.
    assert analysis.char_root(2.0, 1.5, 0.75) == pytest.approx(0.0, abs=1e-15)
    lam = analysis.char_root(4.65, 2.15, 0.5)
    assert lam == pytest.approx(0.011629927947367058, rel=1e-12)
    # j = 1: lambda = sqrt(beta a) - a.
    a = 1.0 / 0.8
    assert analysis.char_root(0.8, 1.0, 0.9) == pytest.approx(
        math.sqrt(0.9 * a) - a, rel=1e-14
    )
    with pytest.raises(ValueError):
        analysis.char_root(1.0, 2.0, -0.5)
    with pytest.raises(ValueError):
        analysis.char_root(1.0, 1.0, 100.0)


@pytest.mark.parametrize("tau, j", [(4.0, 1e100), (4.0, 2000.0), (4000.0, 2000.0)])
def test_char_root_refuses_powers_out_of_range(tau, j):
    # (j/tau)^j overflows (the first two) or underflows to 0 (the last),
    # and 2^(j+1) overflows at the first: a ValueError, not an
    # OverflowError or a root of -a.
    with pytest.raises(ValueError, match="float range"):
        analysis.char_root(tau, j, 0.5)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.5, 8.0), st.floats(0.5, 6.0), st.floats(0.01, 0.9))
def test_char_root_residual(tau, j, beta_frac):
    beta = beta_frac * 2.0 ** (j + 1) * (j / tau)
    lam = analysis.char_root(tau, j, beta)
    # Delta(lambda) = lambda - alpha - beta a^j / (a + lambda)^j, alpha = -a.
    a = j / tau
    assert abs(lam + a - beta * a**j / (a + lam) ** j) < 1e-12


def test_mgf_error_orders():
    assert analysis.mgf_error_order(2.5, 1.0, "erlang") == pytest.approx(2.0, abs=0.2)
    assert analysis.mgf_error_order(2.5, 1.0, "fixed") == pytest.approx(3.0, abs=0.2)
    assert analysis.mgf_error_order(2.5, 1.0, "smoothed") == pytest.approx(3.0, abs=0.2)
    with pytest.raises(ValueError):
        analysis.mgf_error_order(3.0, 1.0, "erlang")


@pytest.mark.parametrize("j", [100.5, 999.5])
def test_mgf_error_order_refuses_a_window_past_small_phi(j):
    # At large shapes the errors over phi/a in [1e-3, 1e-1] stop growing,
    # and a fitted slope (about -14 at j = 999.5) would mean nothing.
    for variant in ("erlang", "fixed", "smoothed"):
        with pytest.raises(ValueError, match="small-phi regime"):
            analysis.mgf_error_order(j, 1.0, variant)


def test_mgf_error_vanishes_at_integer_shape():
    phis = np.logspace(-3, -1, 10) * 3.0 / 2.0
    for variant in ("erlang", "fixed", "smoothed"):
        errs = analysis.mgf_error(3.0, 2.0, variant, phis)
        assert np.max(errs) < 1e-14


@settings(max_examples=25, deadline=None)
@given(st.floats(1.1, 9.9))
def test_hypoexp_beats_erlang_in_mgf_order(j):
    if abs(j - round(j)) < 0.05:
        return
    erl = analysis.mgf_error_order(j, 1.3, "erlang")
    assert analysis.mgf_error_order(j, 1.3, "fixed") > erl
    assert analysis.mgf_error_order(j, 1.3, "smoothed") > erl


def _survivals(j, tau, t):
    """(gamma, fixed-chain, smoothed-chain) survival values at time t."""
    return (
        gamma_survival(GammaKernel(j, j / tau), t),
        hypoexp_survival(fixed_hypoexp(j, tau).kernel(), t),
        hypoexp_survival(smoothed_hypoexp(j, tau).kernel(), t),
    )


def test_survival_compare():
    u, yf, ys = _survivals(2.5, 1.0, 0.0)
    assert (u, yf, ys) == (1.0, 1.0, 1.0)
    for t in (0.5, 1.0, 3.0):
        u, yf, ys = _survivals(3.0, 1.0, t)
        assert abs(u - yf) < 1e-8 and abs(u - ys) < 1e-8


def test_integer_jump_ordering():
    jump_fixed, jump_smoothed = analysis.integer_jump(3, 1.0, 4.0)
    assert jump_smoothed <= jump_fixed
    with pytest.raises(ValueError):
        analysis.integer_jump(2.5, 1.0, 4.0)


def test_dominant_eigenvalue_decoupled():
    params = fixed_hypoexp(2.5, 1.0)
    lam = analysis.dominant_eigenvalue(0.3, 0.0, params)
    assert lam.real == pytest.approx(0.3, abs=1e-12)
    assert lam.imag == pytest.approx(0.0, abs=1e-12)


def test_dominant_eigenvalue_matches_characteristic_root():
    # Integer shape, alpha = -a: the chain spectrum contains the principal
    # characteristic root as its rightmost point.
    tau, j, beta = 1.0, 3.0, 1.0
    a = j / tau
    lam_root = analysis.char_root(tau, j, beta)
    lam_chain = analysis.dominant_eigenvalue(-a, beta, erlang_approx(j, tau))
    assert lam_chain.real == pytest.approx(lam_root, abs=1e-8)


def test_dominant_eigenvalue_integer_chains_agree():
    for j in (2, 4):
        lam_f = analysis.dominant_eigenvalue(0.89, -1.15, fixed_hypoexp(j, 1.0))
        lam_e = analysis.dominant_eigenvalue(0.89, -1.15, erlang_approx(j, 1.0))
        assert abs(lam_f - lam_e) < 1e-10


def test_growth_rate_synthetic():
    t = np.linspace(0.0, 60.0, 4001)
    x = np.exp(0.02 * t) * np.cos(2.0 * t)
    assert analysis.growth_rate(t, x) == pytest.approx(0.02, abs=1e-3)
    x = np.exp(-0.015 * t) * np.sin(1.3 * t)
    assert analysis.growth_rate(t, x) == pytest.approx(-0.015, abs=1e-3)
    with pytest.raises(ValueError):
        analysis.growth_rate(t[:200], np.exp(0.1 * t[:200]))  # no peaks


def test_fm_polynomial_basics():
    poly = analysis.fm_polynomial(1, 0.4)
    assert poly == pytest.approx((1.0, -0.4))
    assert analysis.real_roots(poly) == pytest.approx([0.4])

    poly = analysis.fm_polynomial(2, 0.5)
    assert poly == pytest.approx((1.0, -1.5, 0.375))
    roots = analysis.real_roots(poly)
    assert roots == pytest.approx([0.3169872981077807, 1.1830127018922192], rel=1e-10)
    with pytest.raises(ValueError):
        analysis.fm_polynomial(0, 0.5)
    with pytest.raises(ValueError):
        analysis.fm_polynomial(2, 1.5)


def test_fm_roots_match_smoothed_rates():
    # Normalized residence times at unit kernel rate are the quadratic's
    # roots: smoothed chain at tau = j has rate parameter 1.
    poly = analysis.fm_polynomial(2, 0.5)
    roots = analysis.real_roots(poly)
    p = smoothed_hypoexp(2.5, 2.5)
    assert sorted([1 / p.nu, 1 / p.mu]) == pytest.approx(list(roots), rel=1e-12)


def test_fm_constant_term():
    m, frac = 5, 0.37
    poly = analysis.fm_polynomial(m, frac)
    # (z)_m = z (z-1) ... (z-m+1) at z = m - 1 + frac.
    falling = math.prod(m - 1 + frac - i for i in range(m))
    expected = (-1) ** m * falling / math.factorial(m)
    assert poly[-1] == pytest.approx(expected, rel=1e-14)
    assert poly[0] == 1.0


def test_fm_real_root_counts():
    rng = np.random.default_rng(7)
    for m in range(1, 9):
        for _ in range(25):
            poly = analysis.fm_polynomial(m, rng.uniform(0.01, 0.99))
            roots = analysis.real_roots(poly)
            assert 1 <= len(roots) <= 2
            assert np.all(roots > 0)


def test_gm_values_and_checks():
    assert analysis.gm_value(1, 0.3, 1.0) == pytest.approx(0.7, rel=1e-14)
    assert analysis.gm_value(2, 0.5, 1.0) == pytest.approx(-0.125, rel=1e-13)
    for m in (1, 2, 4, 7, 17):
        record = analysis.gm_checks(m, 0.37)
        assert record["all_passed"], record


@pytest.mark.parametrize("frac", [1e-12, 0.005, 0.37, 0.5, 0.995, 1.0 - 1e-12])
def test_gm_derivative_recurrence_up_to_the_largest_degree(frac):
    # The identity g_m' = -(m-1+f) g_(m-1) holds at every degree, and with
    # f within 1e-12 of 0 or 1, where the other checks of gm_checks fail.
    for m in range(1, analysis.MAX_DEGREE + 1):
        assert analysis.gm_checks(m, frac)["derivative_recurrence"], m
