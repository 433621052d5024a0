import math
import warnings

import numpy as np
import pytest

from gammadde.distributions import GammaKernel
from gammadde.quadrature import (
    QuadConfig,
    _log_weight,
    _open_simpson_grid,
    _transform_params,
    convolution_integral,
)


def _open_simpson_unit(panels):
    """Nodes and weights of the composite open rule on [0, 1]: the grid of
    one row."""
    return _open_simpson_grid(np.array([0.0]), np.array([1.0]), np.array([panels]))


def _open_simpson(f, panels):
    """Composite open Simpson integral of f on [0, 1]."""
    nodes, weights = _open_simpson_unit(panels)
    return float(weights @ f(nodes))


def _kernel_integral(t, accessor, kern, panels):
    """The solver's convolution at t of a history-only accessor, on
    ``panels`` open-Simpson panels over the whole of (0, 1)."""
    quad = QuadConfig(h_int=1.0 / (4 * panels))
    return convolution_integral(t, accessor, kern, quad, 0.1, t)


def test_transform_params_from_kernel():
    assert _transform_params(GammaKernel(1.0, 1.0)) == (2.0, 6.0)
    assert _transform_params(GammaKernel(5.0, 1.0)) == (6.0, 2.0)
    alpha, beta = _transform_params(GammaKernel(2.5, 2.5))
    assert beta == pytest.approx(3.0, rel=1e-15)
    assert alpha == pytest.approx(3.5 / 2.5 ** (1 / 3), rel=1e-15)


def test_open_simpson_exactness():
    assert _open_simpson(lambda x: np.ones_like(x), 7) == pytest.approx(1.0, abs=1e-15)
    # The 3-point open rule integrates cubics exactly.
    assert _open_simpson(lambda x: x**3, 1) == pytest.approx(0.25, abs=1e-15)
    assert _open_simpson(lambda x: x**3 - 2 * x + 1, 5) == pytest.approx(
        0.25 - 1.0 + 1.0, abs=1e-14
    )


def test_open_simpson_never_touches_endpoints():
    nodes, weights = _open_simpson_unit(4)
    assert nodes.min() > 0.0 and nodes.max() < 1.0
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_open_simpson_quartic_refinement_order():
    exact = 0.2
    panels = [4, 8, 16, 32]
    errs = [abs(_open_simpson(lambda x: x**4, p) - exact) for p in panels]
    h_int = [1.0 / (4 * p) for p in panels]
    slope = np.polyfit(np.log10(h_int), np.log10(errs), 1)[0]
    assert abs(slope - 4.0) < 0.1


def test_quad_config():
    # The coupling h_int^4 = xi h^4, unless h_int is pinned.
    assert QuadConfig(xi=16.0).step(0.1) == pytest.approx(0.2, rel=1e-14)
    assert QuadConfig(xi=1.0).step(0.05) == pytest.approx(0.05, rel=1e-14)
    assert QuadConfig(h_int=0.01).step(0.1) == 0.01
    with pytest.raises(ValueError):
        QuadConfig(xi=0.0)
    # An infinite step would put all of (0, 1) on one panel.
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            QuadConfig(xi=bad)
        with pytest.raises(ValueError, match="finite"):
            QuadConfig(h_int=bad)


def test_transformed_integrand_vanishes_at_origin():
    # The kernel weight of the transformed integrand vanishes towards both
    # ends of (0, 1), so the open rule may skip them.
    kern = GammaKernel(1.0, 1.0)
    log_w, _ = _log_weight(np.array([1e-12, 1.0 - 1e-12]), kern, *_transform_params(kern))
    assert np.all(np.exp(log_w) < 1e-6)


def test_transformed_integrand_normalization():
    # Constant solution: the transformed integral is the kernel mass, 1.
    for j, a in [(1.0, 1.0), (2.5, 2.5), (6.0, 0.7)]:
        kern = GammaKernel(j, a)
        val = _kernel_integral(3.0, lambda s: np.ones_like(s), kern, 64)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_kernel_normalization_at_16_panels():
    # Frozen regression set: shapes below ~1.5 steepen the transformed
    # weight beyond what 16 panels resolve, so the set starts there.
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        j = rng.uniform(1.5, 8.0)
        a = rng.uniform(0.2, 5.0)
        kern = GammaKernel(j, a)
        val = _kernel_integral(2.0, lambda s: np.ones_like(s), kern, 16)
        worst = max(worst, abs(val - 1.0))
    assert worst < 1e-4


def test_exponential_solution_closed_form():
    # x(s) = e^{0.1 s} convolved with a unit-rate exponential kernel gives
    # e^{0.1 t} / 1.1 exactly.
    kern = GammaKernel(1.0, 1.0)
    accessor = lambda s: np.exp(0.1 * np.asarray(s))
    for t in (0.5, 3.0):
        val = _kernel_integral(t, accessor, kern, 128)
        assert val == pytest.approx(math.exp(0.1 * t) / 1.1, rel=1e-9)


def _vector_accessor(fn):
    return lambda s: np.asarray(fn(np.asarray(s)))[:, None]


def test_convolution_split_matches_unsplit():
    # For a globally smooth solution the domain split at the history
    # boundary is a no-op up to roundoff-level quadrature differences.
    kern = GammaKernel(2.5, 2.5)
    acc = _vector_accessor(lambda s: np.cos(0.3 * s))
    cfg = QuadConfig(h_int=1e-3)
    t = 4.0
    split = convolution_integral(t, acc, kern, cfg, 0.1, 0.0)
    unsplit = convolution_integral(t, acc, kern, cfg, 0.1, t)
    assert abs(float(split[0]) - float(unsplit[0])) < 1e-10


@pytest.mark.parametrize("shape", [0.01, 1e-100])
def test_small_shape_plans_without_warning(shape):
    # At a small shape the substitution's exponent beta = 5/j + 1 is huge,
    # and sigma overflows where the kernel weight underflows to zero.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = convolution_integral(
            1.0, _vector_accessor(np.ones_like), GammaKernel(shape, shape), QuadConfig(), 0.1, 0.0
        )
    assert 0.9 < float(val[0]) <= 1.0


def test_convolution_history_overflow_is_masked():
    # Histories growing into the past slower than the kernel decay must
    # not poison the quadrature even where the weight underflows.
    kern = GammaKernel(3.7, 0.984)
    acc = _vector_accessor(lambda s: np.exp(-0.194 * s))
    val = convolution_integral(
        5.0, acc, kern, QuadConfig(h_int=1e-3), 0.1, 0.0
    )
    expected = math.exp(-0.194 * 5.0) * (0.984 / (0.984 - 0.194)) ** 3.7
    assert float(val[0]) == pytest.approx(expected, rel=1e-6)
