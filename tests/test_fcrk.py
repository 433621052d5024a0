import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammadde import analysis, fcrk
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


def _mesh(sol):
    """Mesh times of a solve and its (scalar) values there."""
    return sol.t0 + sol.h * np.arange(sol.n_steps + 1), sol.x[:, 0]


def test_zero_rhs_keeps_history_value():
    sol = fcrk4_solve(_problem(lambda x, conv: 0.0), 0.1)
    assert np.all(sol.x == 1.0)
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
    times, values = _mesh(sol)
    assert np.array_equal(sol.query(times), values)
    with pytest.raises(ValueError):
        sol.query(2.5)
    assert sol(1.0) == sol.query(1.0)


def test_interpolant_agrees_with_refined_solve():
    prob = analysis.dde_problem("linear", 1.0, t_end=4.0)[0]
    coarse = fcrk4_solve(prob, 0.1, quad=QuadConfig(xi=XI))
    fine = fcrk4_solve(prob, 0.05, quad=QuadConfig(xi=XI))
    mids = _mesh(fine)[0][1::2]  # half-step points of the coarse mesh
    gap = np.max(np.abs(coarse.query(mids) - fine.query(mids)))
    assert gap < 2e-3  # O(h^4)-scale agreement at h = 0.1


def test_linear_test_problem_order():
    prob = analysis.dde_problem("linear", 1.0, t_end=10.0)[0]
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
    prob = analysis.dde_problem("linear", 1.0, t_end=10.0)[0]
    dense = np.linspace(0.0, 10.0, 501)
    ref_dense = analysis.linear_test_reference(1, dense)
    hs = [0.1, 0.05, 0.025, 0.0125]
    discrete, global_ = [], []
    for h in hs:
        sol = fcrk4_solve(prob, h, quad=QuadConfig(xi=(1 / 16) ** 4))
        times, values = _mesh(sol)
        discrete.append(np.max(np.abs(values - analysis.linear_test_reference(1, times))))
        global_.append(np.max(np.abs(sol.query(dense) - ref_dense)))
    for errs in (discrete, global_):
        slope = np.polyfit(np.log10(hs), np.log10(errs), 1)[0]
        assert 3.7 <= slope <= 4.3


def test_error_halves_by_sixteen_at_unit_coupling():
    # With the bare coupling (xi = 1) the small-step end of the range is
    # asymptotic: halving h cuts the error by 2^4 within 30 percent.
    prob = analysis.dde_problem("linear", 1.0, t_end=10.0)[0]
    dense = np.linspace(0.0, 10.0, 501)
    ref = analysis.linear_test_reference(1, dense)
    errs = [
        np.max(np.abs(fcrk4_solve(prob, h, quad=QuadConfig(xi=1.0)).query(dense) - ref))
        for h in (0.025, 0.0125)
    ]
    assert 16 * 0.7 <= errs[0] / errs[1] <= 16 * 1.3


def test_solution_query_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    sol = fcrk4_solve(analysis.dde_problem("linear", 1.0, t_end=5.0)[0], 0.1,
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


def _vector_problem():
    hist = HistoryFunction.custom(lambda s: np.stack([np.ones_like(s), 2 * np.ones_like(s)], axis=-1))
    return DdeProblem(
        rhs=lambda x, conv: -x,
        kernel=GammaKernel(1.0, 1.0),
        history=hist,
        t0=0.0,
        t_end=1.0,
    )


def test_vector_state():
    sol = fcrk4_solve(_vector_problem(), 0.05)
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
    for h in (-0.1, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="step size"):
            fcrk4_solve(_problem(lambda x, conv: -x), h)


def test_nonfinite_horizon_rejected():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            _problem(lambda x, conv: -x, t_end=bad)
        with pytest.raises(ValueError, match="finite"):
            DdeProblem(lambda x, conv: -x, GammaKernel(1.0, 1.0), HistoryFunction.constant(1.0),
                       t0=-bad, t_end=1.0)


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


@pytest.mark.parametrize(
    "problem",
    [_problem(lambda x, conv: -x + conv, j=2.5, t_end=1.0), _vector_problem()],
    ids=["scalar", "vector"],
)
def test_one_quadrature_per_distinct_abscissa(problem, monkeypatch):
    # The tableau has three distinct abscissae (0, 1/2, 1), and the plan at
    # t_n + h also serves stage 0 of the next step: one plan at t0, then
    # two per step.
    quadrature = fcrk.convolution_integral
    times = []

    def counted(t, *args):
        times.append(t)
        return quadrature(t, *args)

    monkeypatch.setattr(fcrk, "convolution_integral", counted)
    sol = fcrk4_solve(problem, 0.05)
    assert sol.n_steps == 20
    assert len(times) == 2 * sol.n_steps + 1
    expected = [0.0] + [t + d for t in _mesh(sol)[0][:-1] for d in (0.05, 0.025)]
    assert times == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("name", analysis.PROBLEMS)
def test_stage_zero_sees_the_solutions_own_convolution(name):
    # Stage 0 of step n + 1 is the plan at t_n + h applied to the finished
    # step n; it must equal the returned solution's own convolution at that
    # mesh point.
    coefficients = {"alpha": -0.9, "beta": 0.5} if name == "linear_gamma" else {}
    prob = analysis.dde_problem(name, 2.57, t_end=2.0, **coefficients)[0]
    convs = []

    def recording(x, conv):
        convs.append(conv)
        return prob.rhs(x, conv)

    quad = QuadConfig()
    sol = fcrk4_solve(dataclasses.replace(prob, rhs=recording), 0.1, quad=quad)
    stage_zero = np.array(convs[:: TABLEAU4.stages])
    assert len(stage_zero) == sol.n_steps
    times = _mesh(sol)[0][:-1]
    expected = np.array([
        fcrk.convolution_integral(t, sol.query, prob.kernel, quad, sol.h, sol.t0) for t in times
    ])
    assert np.all(np.abs(stage_zero - expected) <= 1e-13 * np.abs(expected))


def test_panel_budget_checked_before_allocation():
    # h_int = 1e-7 needs 2.5 million panels, 7.5 million nodes: 60 MB per
    # array if it were allocated.
    prob = _problem(lambda x, conv: -x + conv, j=2.5)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            fcrk4_solve(prob, 0.1, quad=QuadConfig(h_int=1e-7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # A step so small that the panel count overflows a float is refused too.
    with pytest.raises(ValueError, match="budget"):
        fcrk4_solve(prob, 0.1, quad=QuadConfig(h_int=5e-324))


_AMPLITUDES = st.floats(-2.0, 2.0)
_HISTORIES = st.one_of(
    st.builds(HistoryFunction.constant, _AMPLITUDES),
    # Kernel rates below are at least 0.25, so growth -0.2 keeps the
    # delayed convolution finite.
    st.builds(HistoryFunction.exponential, _AMPLITUDES, st.floats(-0.2, 1.0)),
    st.builds(
        lambda a, w: HistoryFunction.custom(lambda s: 1.0 + a * np.cos(w * s)),
        _AMPLITUDES,
        st.floats(0.1, 3.0),
    ),
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    h1=_HISTORIES,
    h2=_HISTORIES,
    c1=_AMPLITUDES,
    c2=_AMPLITUDES,
    alpha=st.floats(-2.0, 0.5),
    beta=st.floats(-2.0, 2.0),
    j=st.floats(1.0, 6.0),
    tau=st.floats(0.5, 4.0),
)
def test_linear_in_the_history(h1, h2, c1, c2, alpha, beta, j, tau):
    # For x' = alpha x + beta conv the whole scheme, quadrature included,
    # is linear in the history.
    rhs = lambda x, conv: alpha * x + beta * conv  # noqa: E731
    combined = HistoryFunction.custom(lambda s: c1 * h1(s) + c2 * h2(s))
    sols = [
        fcrk4_solve(_problem(rhs, j=j, tau=tau, t_end=2.0, history=hist), 0.1).x[:, 0]
        for hist in (h1, h2, combined)
    ]
    parts = np.abs(c1 * sols[0]) + np.abs(c2 * sols[1])
    gap = np.abs(sols[2] - (c1 * sols[0] + c2 * sols[1]))
    assert np.all(gap <= 1e-12 * np.max(parts))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    c=st.floats(-10.0, 10.0),
    j=st.floats(1.0, 20.0),
    tau=st.floats(0.5, 5.0),
)
def test_constant_solution_preserved_at_default_coupling(c, j, tau):
    # x = c solves x' = -x + conv; the default quadrature coupling keeps
    # the scheme on it at an everyday step (worst over a grid of j and tau:
    # 3.8e-5 relative, at j = tau = 1).  With xi = 1 this fails.
    prob = _problem(lambda x, conv: -x + conv, j=j, tau=tau, t_end=3.0,
                    history=HistoryFunction.constant(c))
    sol = fcrk4_solve(prob, 0.1)
    assert np.max(np.abs(sol.x - c)) <= 1e-4 * max(1.0, abs(c))


# Worst of acceptance criterion 01's errors at h = 0.05 (j = 1, against the
# closed form, with xi = (1/16)^4).  The default xi = (1/8)^4 doubles the
# quadrature step, which costs the fourth-order rule up to 2^4 = 16 in
# error; over 240 draws of the test below the worst error was 7.0e-5.
CRITERION_01_ERROR_AT_H005 = 9.7e-6


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(analysis.PROBLEMS),
    j=st.integers(1, 8),
    tau=st.floats(0.5, 2.0),
    c=st.floats(0.25, 2.0),
    growth=st.one_of(st.none(), st.floats(-0.25, 0.5)),
    alpha=st.floats(-1.0, 0.5),
    beta=st.floats(-1.0, 1.0),
)
def test_fcrk_matches_the_erlang_chain_at_integer_shape(name, j, tau, c, growth, alpha, beta):
    # At integer j the Erlang chain is the exact reduction of the gamma DDE,
    # so every registry entry's chain reference is its exact solution.
    hist = (
        HistoryFunction.constant(c) if growth is None
        else HistoryFunction.exponential(c, growth)
    )
    coefficients = {"alpha": alpha, "beta": beta} if name == "linear_gamma" else {}
    prob, reference = analysis.dde_problem(
        name, j, tau, history=hist, t_end=3.0, **coefficients
    )
    times = np.linspace(0.0, 3.0, 101)
    exact = reference(times)
    err = np.max(np.abs(fcrk4_solve(prob, 0.05).query(times) - exact))
    assert err <= 16 * CRITERION_01_ERROR_AT_H005 * max(1.0, np.max(np.abs(exact)))
