import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammadde import analysis, cli, epi
from gammadde.approximations import (
    VARIANTS,
    ApproxConfig,
    ChainParams,
    chain_params,
    erlang_approx,
    fixed_hypoexp,
    nearest_shape,
    regularized_smoothed,
    smoothed_hypoexp,
)
from gammadde.distributions import (
    GammaKernel,
    HypoexpKernel,
    gamma_mgf,
    hypoexp_mgf,
    hypoexp_survival,
)

# mpmath 30-digit evaluations of the closed-form residence times.
FIXED_2p5_INV_NU = 0.5159075191683887
FIXED_2p5_INV_MU = 0.15075914749827796
FIXED_1p3_INV_NU = 0.8668996928526714
FIXED_1p3_INV_MU = 0.1331003071473286
SMOOTH_2p5_INV_MU = 0.47320508075688773
SMOOTH_2p5_INV_NU = 0.12679491924311227


def test_nearest_shape_convention():
    assert nearest_shape(2.57) == 3
    assert nearest_shape(2.5) == 3  # halves round up
    assert nearest_shape(2.49) == 2
    assert nearest_shape(0.5) == 1
    assert nearest_shape(0.4) == 1  # never rounds to zero


def test_erlang_examples():
    p = erlang_approx(2.57, 1.0)
    assert p.n == 3 and p.rates() == (3.0, 3.0, 3.0)
    p = erlang_approx(3.0, 2.0)
    assert p.rates() == (1.5, 1.5, 1.5)
    p = erlang_approx(0.4, 1.0)
    assert p.n == 1 and p.rates() == (1.0,)
    assert p.kernel().mean == 1.0  # mean always matched


def test_fixed_examples():
    p = fixed_hypoexp(2.5, 1.0)
    assert p.n == 3 and p.common_rate == 3.0
    assert 1 / p.nu == pytest.approx(FIXED_2p5_INV_NU, rel=1e-14)
    assert 1 / p.mu == pytest.approx(FIXED_2p5_INV_MU, rel=1e-14)
    assert p.kernel().mean == pytest.approx(1.0, rel=1e-12)
    assert p.kernel().variance == pytest.approx(0.4, rel=1e-12)

    p = fixed_hypoexp(3.0, 2.0)
    assert p.rates() == (1.5, 1.5, 1.5)

    p = fixed_hypoexp(1.3, 1.0)
    assert p.n == 2
    assert p.rates() == (p.nu, p.mu)  # no common stages
    assert 1 / p.nu == pytest.approx(FIXED_1p3_INV_NU, rel=1e-14)
    assert 1 / p.mu == pytest.approx(FIXED_1p3_INV_MU, rel=1e-14)
    assert p.kernel().mean == pytest.approx(1.0, rel=1e-12)
    assert p.kernel().variance == pytest.approx(1 / 1.3, rel=1e-12)


def test_fixed_infeasible_near_one():
    with pytest.raises(ValueError):
        fixed_hypoexp(1.0, 1.0)
    with pytest.raises(ValueError):
        fixed_hypoexp(0.9, 2.0)


def test_smoothed_examples():
    p = smoothed_hypoexp(2.5, 1.0)
    assert p.common_rate == 2.5
    assert 1 / p.mu == pytest.approx(SMOOTH_2p5_INV_MU, rel=1e-14)
    assert 1 / p.nu == pytest.approx(SMOOTH_2p5_INV_NU, rel=1e-14)
    assert p.kernel().mean == pytest.approx(1.0, rel=1e-12)
    assert p.kernel().variance == pytest.approx(0.4, rel=1e-12)

    p = smoothed_hypoexp(4.0, 5.0)
    assert p.rates() == (0.8, 0.8, 0.8, 0.8)

    with pytest.raises(ValueError):
        smoothed_hypoexp(0.7, 1.0)


def test_smoothed_stiff_just_above_integer():
    # One residence time collapses as the fractional part vanishes from
    # above, so the fastest rate diverges like 1/frac.
    p = smoothed_hypoexp(2.001, 1.0)
    assert max(p.rates()) > 1000 * p.common_rate
    assert _stiffness_ratio(p) > 100.0


def test_integer_collapse_exact():
    for j in (1, 2, 3, 7):
        expected = (j / 2.0,) * j
        assert erlang_approx(j, 2.0).rates() == expected
        assert smoothed_hypoexp(j, 2.0).rates() == expected
        if j >= 2:
            assert fixed_hypoexp(j, 2.0).rates() == expected


@settings(max_examples=200, deadline=None)
@given(st.floats(1.01, 20.0), st.floats(0.1, 10.0))
def test_two_moment_identities(j, tau):
    for builder in (fixed_hypoexp, smoothed_hypoexp):
        k = builder(j, tau).kernel()
        assert abs(k.mean - tau) <= 1e-12 * tau
        target = tau * tau / j
        assert abs(k.variance - target) <= 1e-12 * target


def test_smoothed_continuous_fixed_jumps():
    delta = 1e-9
    for j0 in (2.4, 3.7):
        below = smoothed_hypoexp(j0 - delta, 1.0)
        above = smoothed_hypoexp(j0 + delta, 1.0)
        assert np.allclose(below.rates(), above.rates(), rtol=1e-5)
    # The fixed common rate is ceil(j)/tau and jumps at integers.
    assert fixed_hypoexp(3.0 - 1e-9, 1.0).common_rate == pytest.approx(3.0)
    assert fixed_hypoexp(3.0 + 1e-9, 1.0).common_rate == pytest.approx(4.0)


def test_rate_order_is_immaterial():
    p = fixed_hypoexp(2.5, 1.0)
    rates = p.rates()
    shuffled = (rates[2], rates[0], rates[1])
    t = np.array([0.2, 0.9, 2.3])
    assert np.allclose(
        hypoexp_survival(HypoexpKernel(rates), t),
        hypoexp_survival(HypoexpKernel(shuffled), t),
        atol=1e-8,
    )


def test_regularized_reduces_to_smoothed():
    base = smoothed_hypoexp(2.5, 1.0)
    reg = regularized_smoothed(2.5, 1.0, ApproxConfig(eps=0.0, hbar=0.0))
    assert np.allclose(reg.rates(), base.rates(), rtol=1e-15)


def test_regularized_mean_exact_for_any_eps():
    for eps in (0.0, 1e-3, 1e-2, 0.3):
        for j in (2.3, 3.0, 4.999):
            if eps == 0.0 and float(j).is_integer():
                # Singular without regularization: one residence time is 0.
                with pytest.raises(ValueError):
                    regularized_smoothed(j, 1.7, ApproxConfig(eps=eps, hbar=eps))
                continue
            p = regularized_smoothed(j, 1.7, ApproxConfig(eps=eps, hbar=eps))
            assert p.kernel().mean == pytest.approx(1.7, rel=1e-13)


def test_regularized_bounds_rates_near_integer():
    cfg = ApproxConfig(eps=1e-2, hbar=1e-2)
    p = regularized_smoothed(2.999, 1.0, cfg)
    j = 2.999
    # Residence time floor eps*tau/(2j) keeps the fastest rate near 2j/(eps*tau).
    assert 1 / p.nu >= 0.5 * cfg.eps / (2 * j)
    assert max(p.rates()) <= 1.2 * 2 * j / cfg.eps
    p = regularized_smoothed(3.001, 1.0, cfg)
    assert max(p.rates()) <= 1.2 * 2 * 3.001 / cfg.eps


def test_regularized_variance_bound():
    # |variance - tau^2/j| <= 2 (eps + hbar^2) tau^2 / j, frozen after a
    # parameter sweep; the slack covers the cross term in the square root.
    rng = np.random.default_rng(3)
    for _ in range(300):
        j = rng.uniform(1.05, 12.0)
        tau = rng.uniform(0.2, 8.0)
        eps = rng.uniform(0.0, 0.1)
        hbar = rng.uniform(0.0, 0.1)
        p = regularized_smoothed(j, tau, ApproxConfig(eps=eps, hbar=hbar))
        target = tau * tau / j
        assert abs(p.kernel().variance - target) <= 2.0 * (eps + hbar**2) * target + 1e-12


def test_regularized_at_shape_one():
    p = regularized_smoothed(1.0, 2.0, ApproxConfig(eps=1e-2, hbar=1e-2))
    assert p.n == 2  # one near-instantaneous stage plus the bulk stage
    assert p.kernel().mean == pytest.approx(2.0, rel=1e-13)
    assert min(p.rates()) == pytest.approx(0.5, rel=2e-2)


def test_regularized_integer_shape_mean_exact():
    for j in (2.0, 3.0, 5.0):
        p = regularized_smoothed(j, 1.7, ApproxConfig(eps=1e-3, hbar=1e-3))
        assert p.n == int(j) + 1
        assert p.kernel().mean == pytest.approx(1.7, rel=1e-13)


def _stiffness_ratio(params):
    """Fastest stage rate over the mean stage rate n / mean."""
    rates = params.rates()
    return max(rates) * params.kernel().mean / len(rates)


def test_stiffness_check():
    assert _stiffness_ratio(fixed_hypoexp(2.5, 1.0)) <= 50.0
    # Fastest rate blows up as the shape drops toward 1.
    assert _stiffness_ratio(fixed_hypoexp(1.05, 1.0)) > 15.0
    assert _stiffness_ratio(fixed_hypoexp(1.005, 1.0)) > 100.0
    for j in (2, 5):
        assert _stiffness_ratio(erlang_approx(j, 1.0)) == pytest.approx(1.0, rel=1e-15)


def test_chain_params_validation():
    with pytest.raises(ValueError):
        ChainParams(n=2, common_rate=1.0, nu=1.0, mu=1.0, variant="bogus")
    with pytest.raises(ValueError):
        ChainParams(n=2, common_rate=-1.0, nu=1.0, mu=1.0, variant="fixed")
    with pytest.raises(ValueError):
        ApproxConfig(eps=1.5)


BUILDERS = {
    "erlang": erlang_approx,
    "fixed": fixed_hypoexp,
    "smoothed": smoothed_hypoexp,
    "smoothed_regularized": regularized_smoothed,
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_chain_params_reaches_the_variant_builder(variant, capsys):
    # The library, the CLI, the MGF analysis and the SIR chain all build
    # the named chain through chain_params.
    j, tau = 2.57, 1.3
    expected = BUILDERS[variant](j, tau)
    assert chain_params(variant, j, tau) == expected

    # CLI: with unit constant history the compartments start at 1/r_i.
    code = cli.main(
        ["solve", "--method", "chain", "--variant", variant, "--j", repr(j),
         "--tau", repr(tau), "--history", "const:1", "--h", "1", "--t-end", "1"]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0].split(",") == ["t", "x"] + [f"B{i + 1}" for i in range(expected.n)]
    first = np.array([float(tok) for tok in lines[1].split(",")])
    np.testing.assert_allclose(first[2:], 1.0 / np.asarray(expected.rates()), rtol=1e-15)

    phi = np.array([0.01, 0.1])
    direct = np.abs(
        gamma_mgf(GammaKernel(j, j / tau), -phi) - hypoexp_mgf(expected.kernel(), -phi)
    )
    assert np.array_equal(analysis.mgf_error(j, tau, variant, phi), direct)

    cfg = epi.FIT_APPROX_CFG
    params = epi.SirParams(beta=0.5, tau=tau, j=j, eps=1e-3, M=1000.0)
    chain = epi.build_sir_chain(params, variant, cfg).params
    if variant == "smoothed_regularized":
        assert chain == regularized_smoothed(j, tau, cfg)
    else:
        assert chain == expected


def test_unknown_variant_rejected(capsys):
    with pytest.raises(ValueError, match="unknown chain variant"):
        chain_params("bogus", 2.5, 1.0)
    with pytest.raises(ValueError, match="unknown chain variant"):
        analysis.mgf_error(2.5, 1.0, "bogus", 0.1)
    params = epi.SirParams(beta=0.5, tau=5.0, j=2.5, eps=1e-3, M=1000.0)
    with pytest.raises(ValueError, match="unknown chain variant"):
        epi.build_sir_chain(params, "bogus")
    code = cli.main(["solve", "--method", "chain", "--variant", "bogus", "--j", "2.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: unknown chain variant")
