import math
import warnings

import numpy as np
import pytest

from gammadde import analysis
from gammadde.chain_reduction import HistoryFunction
from gammadde.distributions import GammaKernel
from gammadde.fcrk import TABLEAU4, DdeProblem, fcrk4_solve
from gammadde.quadrature import QuadConfig

XI = (1 / 8) ** 4


def test_tableau_structure():
    assert np.array_equal(TABLEAU4.a_at(0.0), np.zeros((6, 6)))
    assert np.array_equal(TABLEAU4.b_at(0.0), np.zeros(6))
    assert TABLEAU4.b_at(1.0).sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(TABLEAU4.c >= 0.0)
    # Lower triangular: stage i only sees earlier stages.
    a1 = TABLEAU4.a_at(1.0)
    assert np.allclose(a1, np.tril(a1, -1))
    # Row sums at theta equal theta (consistency of the stage interpolants).
    for theta in (0.25, 0.5, 1.0):
        rows = TABLEAU4.a_at(theta)[1:].sum(axis=1)
        assert np.allclose(rows, theta)
    assert TABLEAU4.b_at(1.0) == pytest.approx([1 / 6, 0, 0, 0, 2 / 3, 1 / 6])


def _problem(rhs, j=1.0, tau=1.0, t_end=1.0, history=None):
    return DdeProblem(
        rhs=rhs,
        kernel=GammaKernel(shape=j, rate=j / tau),
        history=history or HistoryFunction.constant(1.0),
        t0=0.0,
        t_end=t_end,
    )


def test_zero_rhs_keeps_history_value():
    sol = fcrk4_solve(_problem(lambda x, conv: 0.0), 0.1)
    assert np.all(sol.mesh_values == 1.0)
    assert sol.query(0.55) == 1.0


def test_plain_ode_reduces_to_classical_rk():
    errs = []
    hs = [0.1, 0.05, 0.025]
    for h in hs:
        sol = fcrk4_solve(_problem(lambda x, conv: -x), h)
        errs.append(abs(sol.query(1.0) - math.exp(-1)))
    assert errs[0] < 1e-6
    slope = np.polyfit(np.log10(hs), np.log10(errs), 1)[0]
    assert abs(slope - 4.0) < 0.2


def test_query_contract():
    sol = fcrk4_solve(_problem(lambda x, conv: -x + conv, t_end=2.0), 0.1)
    assert sol.query(0.0) == 1.0  # history value at the junction
    assert sol.query(-3.7) == 1.0
    assert np.array_equal(sol.query(sol.mesh), sol.mesh_values)
    with pytest.raises(ValueError):
        sol.query(2.5)
    assert sol(1.0) == sol.query(1.0)


def test_interpolant_agrees_with_refined_solve():
    prob = _problem(analysis.linear_rhs(), t_end=4.0)
    coarse = fcrk4_solve(prob, 0.1, quad=QuadConfig(xi=XI))
    fine = fcrk4_solve(prob, 0.05, quad=QuadConfig(xi=XI))
    mids = fine.mesh[1::2]  # half-step points of the coarse mesh
    gap = np.max(np.abs(coarse.query(mids) - fine.query(mids)))
    assert gap < 2e-3  # O(h^4)-scale agreement at h = 0.1


def test_linear_test_problem_order():
    prob = _problem(analysis.linear_rhs(), t_end=10.0)
    ref_t = np.linspace(0.0, 10.0, 501)
    ref = analysis.linear_test_reference(1, ref_t)
    hs = [0.1, 0.05, 0.025, 0.0125]
    errs = []
    for h in hs:
        sol = fcrk4_solve(prob, h, quad=QuadConfig(xi=(1 / 16) ** 4))
        errs.append(np.max(np.abs(sol.query(ref_t) - ref)))
    slope = np.polyfit(np.log10(hs), np.log10(errs), 1)[0]
    assert 3.7 <= slope <= 4.3
    # Halving the step cuts the error by about 2^4.
    assert 16 * 0.7 <= errs[2] / errs[3] <= 16 * 1.3


def test_discrete_and_global_order_both_fourth():
    # Discrete order: max error over the mesh points themselves; global
    # order: max over a dense sampling of the interpolant.
    prob = _problem(analysis.linear_rhs(), t_end=10.0)
    dense = np.linspace(0.0, 10.0, 501)
    ref_dense = analysis.linear_test_reference(1, dense)
    hs = [0.1, 0.05, 0.025, 0.0125]
    discrete, global_ = [], []
    for h in hs:
        sol = fcrk4_solve(prob, h, quad=QuadConfig(xi=(1 / 16) ** 4))
        discrete.append(np.max(np.abs(
            sol.mesh_values - analysis.linear_test_reference(1, sol.mesh))))
        global_.append(np.max(np.abs(sol.query(dense) - ref_dense)))
    for errs in (discrete, global_):
        slope = np.polyfit(np.log10(hs), np.log10(errs), 1)[0]
        assert 3.7 <= slope <= 4.3


def test_error_halves_by_sixteen_at_unit_coupling():
    # With the bare coupling (xi = 1) the small-step end of the range is
    # asymptotic: halving h cuts the error by 2^4 within 30 percent.
    prob = _problem(analysis.linear_rhs(), t_end=10.0)
    dense = np.linspace(0.0, 10.0, 501)
    ref = analysis.linear_test_reference(1, dense)
    errs = [
        np.max(np.abs(fcrk4_solve(prob, h, quad=QuadConfig(xi=1.0)).query(dense) - ref))
        for h in (0.025, 0.0125)
    ]
    assert 16 * 0.7 <= errs[0] / errs[1] <= 16 * 1.3


def test_solution_query_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    sol = fcrk4_solve(_problem(analysis.linear_rhs(), t_end=5.0), 0.1,
                      quad=QuadConfig(xi=XI))
    times = np.linspace(-1.0, 5.0, 357)
    expected = sol.query(times)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: sol.query(times), range(16)))
    for got in results:
        assert np.array_equal(got, expected)


def test_step_count_handles_inexact_span():
    sol = fcrk4_solve(_problem(lambda x, conv: -x, t_end=1.0), 0.3)
    assert sol.t_end >= 1.0 - 1e-12
    assert sol.n_steps == 4


def test_vector_state():
    hist = HistoryFunction.custom(lambda s: np.stack([np.ones_like(s), 2 * np.ones_like(s)], axis=-1))
    prob = DdeProblem(
        rhs=lambda x, conv: -x,
        kernel=GammaKernel(1.0, 1.0),
        history=hist,
        t0=0.0,
        t_end=1.0,
    )
    sol = fcrk4_solve(prob, 0.05)
    val = sol.query(1.0)
    assert val.shape == (2,)
    assert np.allclose(val, [math.exp(-1), 2 * math.exp(-1)], atol=1e-7)


def test_nonfinite_stage_raises():
    prob = _problem(lambda x, conv: 10.0 * x, t_end=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="stage"):
            fcrk4_solve(prob, 0.1)


def test_bad_step_rejected():
    with pytest.raises(ValueError):
        fcrk4_solve(_problem(lambda x, conv: -x), -0.1)


def test_divergent_exponential_history_rejected():
    # psi(s) = e^(-3 s) grows into the past faster than the kernel (rate
    # 2.5) decays, so the delayed convolution does not exist.
    hist = HistoryFunction.exponential(1.0, -3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="diverges"):
            fcrk4_solve(_problem(lambda x, conv: -x, j=2.5, history=hist), 0.05)
        # At the boundary too; just inside it the solve runs.
        with pytest.raises(ValueError, match="diverges"):
            fcrk4_solve(
                _problem(lambda x, conv: -x, j=2.5, history=HistoryFunction.exponential(1.0, -2.5)),
                0.05,
            )
        hist = HistoryFunction.exponential(1.0, -2.0)
        sol = fcrk4_solve(_problem(lambda x, conv: -x, j=2.5, history=hist), 0.05)
        assert np.isfinite(sol.query(1.0))
