import math

import numpy as np
import pytest

from gammadde.distributions import GammaKernel
from gammadde.quadrature import (
    QuadConfig,
    convolution_integral,
    open_simpson,
    quadrature_step,
    select_transform_params,
    transformed_integrand,
)


def test_select_transform_params():
    p = select_transform_params(1.0, 1.0, 4)
    assert p.beta == 6.0 and p.alpha == 2.0
    p = select_transform_params(5.0, 1.0, 4)
    assert p.beta == 2.0 and p.alpha == 6.0
    p = select_transform_params(2.5, 2.5, 4)
    assert p.beta == pytest.approx(3.0, rel=1e-15)
    assert p.alpha == pytest.approx(3.5 / 2.5 ** (1 / 3), rel=1e-15)
    with pytest.raises(ValueError):
        select_transform_params(-1.0, 1.0)


def test_open_simpson_exactness():
    assert open_simpson(lambda x: np.ones_like(x), 7) == pytest.approx(1.0, abs=1e-15)
    # The 3-point open rule integrates cubics exactly.
    assert open_simpson(lambda x: x**3, 1) == pytest.approx(0.25, abs=1e-15)
    assert open_simpson(lambda x: x**3 - 2 * x + 1, 5) == pytest.approx(
        0.25 - 1.0 + 1.0, abs=1e-14
    )


def test_open_simpson_never_touches_endpoints():
    seen = []

    def f(x):
        seen.append(x)
        return np.ones_like(x)

    open_simpson(f, 4)
    nodes = np.concatenate(seen)
    assert nodes.min() > 0.0 and nodes.max() < 1.0


def test_open_simpson_quartic_refinement_order():
    exact = 0.2
    panels = [4, 8, 16, 32]
    errs = [abs(open_simpson(lambda x: x**4, p) - exact) for p in panels]
    h_int = [1.0 / (4 * p) for p in panels]
    slope = np.polyfit(np.log10(h_int), np.log10(errs), 1)[0]
    assert abs(slope - 4.0) < 0.1


def test_couple_stepsizes():
    # The coupling h_int^q = xi h^p.
    assert quadrature_step(0.1, 16.0) == pytest.approx(0.2, rel=1e-14)
    assert quadrature_step(0.05, 1.0) == pytest.approx(0.05, rel=1e-14)
    assert quadrature_step(0.1, 1.0, p=4, q=2) == pytest.approx(0.01, rel=1e-14)


def test_quad_config():
    cfg = QuadConfig(xi=16.0)
    assert cfg.step(0.1) == pytest.approx(0.2)
    assert QuadConfig(h_int=0.01).step(0.1) == 0.01
    with pytest.raises(ValueError):
        QuadConfig(xi=0.0)


def test_transformed_integrand_vanishes_at_origin():
    kern = GammaKernel(1.0, 1.0)
    params = select_transform_params(1.0, 1.0, 4)
    accessor = lambda s: np.ones_like(np.asarray(s))
    assert abs(transformed_integrand(5.0, 1e-12, accessor, kern, params)) < 1e-6
    with pytest.raises(ValueError):
        transformed_integrand(5.0, 0.0, accessor, kern, params)
    with pytest.raises(ValueError):
        transformed_integrand(5.0, 1.0, accessor, kern, params)


def test_transformed_integrand_normalization():
    # Constant solution: the transformed integral is the kernel mass, 1.
    for j, a in [(1.0, 1.0), (2.5, 2.5), (6.0, 0.7)]:
        kern = GammaKernel(j, a)
        params = select_transform_params(j, a, 4)
        val = open_simpson(
            lambda w: transformed_integrand(3.0, w, lambda s: np.ones_like(s), kern, params),
            64,
        )
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
        params = select_transform_params(j, a, 4)
        val = open_simpson(
            lambda w: transformed_integrand(2.0, w, lambda s: np.ones_like(s), kern, params),
            16,
        )
        worst = max(worst, abs(val - 1.0))
    assert worst < 1e-4


def test_exponential_solution_closed_form():
    # x(s) = e^{0.1 s} convolved with a unit-rate exponential kernel gives
    # e^{0.1 t} / 1.1 exactly.
    kern = GammaKernel(1.0, 1.0)
    params = select_transform_params(1.0, 1.0, 4)
    accessor = lambda s: np.exp(0.1 * np.asarray(s))
    for t in (0.5, 3.0):
        val = open_simpson(
            lambda w: transformed_integrand(t, w, accessor, kern, params), 128
        )
        assert val == pytest.approx(math.exp(0.1 * t) / 1.1, rel=1e-9)


def _vector_accessor(fn):
    return lambda s: np.asarray(fn(np.asarray(s)))[:, None]


def test_convolution_split_matches_unsplit():
    # For a globally smooth solution the domain split at the history
    # boundary is a no-op up to roundoff-level quadrature differences.
    kern = GammaKernel(2.5, 2.5)
    params = select_transform_params(2.5, 2.5, 4)
    acc = _vector_accessor(lambda s: np.cos(0.3 * s))
    cfg = QuadConfig(h_int=1e-3, node_jitter=0.0)
    t = 4.0
    split = convolution_integral(t, acc, kern, params, cfg, 0.1, 0.0)
    unsplit = convolution_integral(t, acc, kern, params, cfg, 0.1, t)
    assert abs(float(split[0]) - float(unsplit[0])) < 1e-10


def test_node_jitter_perturbs_little():
    kern = GammaKernel(2.5, 2.5)
    params = select_transform_params(2.5, 2.5, 4)
    acc = _vector_accessor(lambda s: np.cos(0.3 * s))
    base = convolution_integral(
        4.0, acc, kern, params, QuadConfig(h_int=1e-3, node_jitter=0.0), 0.1, 0.0
    )
    jit = convolution_integral(
        4.0, acc, kern, params, QuadConfig(h_int=1e-3, node_jitter=1e-9), 0.1, 0.0
    )
    assert abs(float(base[0]) - float(jit[0])) < 1e-8


def test_convolution_history_overflow_is_masked():
    # Histories growing into the past slower than the kernel decay must
    # not poison the quadrature even where the weight underflows.
    kern = GammaKernel(3.7, 0.984)
    params = select_transform_params(3.7, 0.984, 4)
    acc = _vector_accessor(lambda s: np.exp(-0.194 * s))
    val = convolution_integral(
        5.0, acc, kern, params, QuadConfig(h_int=1e-3), 0.1, 0.0
    )
    expected = math.exp(-0.194 * 5.0) * (0.984 / (0.984 - 0.194)) ** 3.7
    assert float(val[0]) == pytest.approx(expected, rel=1e-6)
