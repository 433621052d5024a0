import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammadde import analysis, fcrk, quadrature
from gammadde.approximations import erlang_approx
from gammadde.chain_reduction import HistoryFunction
from gammadde.distributions import GammaKernel
from gammadde.fcrk import DdeProblem, fcrk4_solve
from gammadde.ode_solver import rk45_adaptive
from gammadde.quadrature import QuadConfig

XI = (1 / 8) ** 4


@pytest.mark.parametrize(
    "sweep, at_one",
    [(fcrk.EULER, [1.0]), (fcrk.TRAPEZOID, [0.5, 0.5]), (fcrk.SIMPSON, [1 / 6, 2 / 3, 1 / 6])],
    ids=["euler", "trapezoid", "simpson"],
)
def test_sweep_structure(sweep, at_one):
    # A sweep's weights on its stages h K at theta, from its coefficients of
    # (1, theta, theta^2, theta^3).
    def weights_at(theta):
        return np.array([1.0, theta, theta**2, theta**3]) @ sweep

    # Its row is x_n at theta = 0.
    x_n, hk = 0.7, np.array([0.3, -1.1, 2.9])[: sweep.shape[1]]
    assert np.polyval(fcrk._row(sweep, x_n, hk)[::-1], 0.0) == x_n
    assert np.array_equal(weights_at(0.0), np.zeros(sweep.shape[1]))
    # Its weights summed over stages give theta (consistency).
    for theta in (0.25, 0.5, 1.0):
        assert weights_at(theta).sum() == pytest.approx(theta, abs=1e-15)
    # Euler, the trapezoid and Simpson's rule at theta = 1.
    assert weights_at(1.0) == pytest.approx(at_one, abs=1e-15)


def _problem(rhs, j=1.0, tau=1.0, t_end=1.0, history=None):
    return DdeProblem(
        rhs=rhs,
        kernel=GammaKernel(shape=j, rate=j / tau),
        history=history or HistoryFunction.constant(1.0),
        t0=0.0,
        t_end=t_end,
    )


def _mesh(sol):
    """Mesh times of a solve and its values there."""
    return sol.t0 + sol.h * np.arange(sol.n_steps + 1), sol.x


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
    assert sol.query(0.0) == 1.0  # x0, by default the history's value there
    assert sol.query(-3.7) == 1.0
    times, values = _mesh(sol)
    assert np.array_equal(sol.query(times), values)
    with pytest.raises(ValueError):
        sol.query(2.5)
    assert sol(1.0) == sol.query(1.0)


def test_query_reads_x0_at_t0_and_the_history_before_it():
    # x(t0) = x0 apart from the history: the mesh value x[0], read by every
    # query at t0; only earlier times read the history.
    prob = DdeProblem(
        rhs=lambda x, conv: -x + conv,
        kernel=GammaKernel(shape=2.0, rate=2.0),
        history=HistoryFunction.constant(1.0),
        t0=0.5,
        t_end=2.0,
        x0=0.25,
    )
    sol = fcrk4_solve(prob, 0.1)
    assert sol.x[0] == 0.25
    assert sol.query(0.5) == 0.25
    assert np.array_equal(sol.query([-3.7, 0.5 - 1e-12, 0.5]), [1.0, 1.0, 0.25])


def test_a_copy_with_another_history_starts_from_it():
    # x0 = None is read off the history when a solve starts, so a copy of
    # the problem with another history does not keep the old start.
    prob = _problem(lambda x, conv: 0.0)
    copy = dataclasses.replace(prob, history=HistoryFunction.constant(2.0))
    assert (prob.initial_value(), copy.initial_value()) == (1.0, 2.0)
    assert np.all(fcrk4_solve(copy, 0.1).x == 2.0)
    assert analysis.chain_system(copy, erlang_approx(1, 1.0)).y0[0] == 2.0


def test_query_refuses_nan():
    sol = fcrk4_solve(_problem(lambda x, conv: -x + conv, t_end=2.0), 0.1)
    for t in (np.nan, [0.5, np.nan]):
        with pytest.raises(ValueError, match="nan"):
            sol.query(t)


def test_constant_history_at_minus_infinity():
    # c e^(0 s) is c * nan at s = -inf; a constant history is c there too.
    hist = HistoryFunction.constant(1.5)
    assert hist(-np.inf) == 1.5
    assert np.array_equal(hist(np.array([-np.inf, -1.0, 0.0])), [1.5, 1.5, 1.5])
    sol = fcrk4_solve(_problem(lambda x, conv: -x + conv, history=hist), 0.1)
    assert sol.query(-np.inf) == 1.5


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


def test_history_with_several_values_per_time_is_refused(monkeypatch):
    # The state is one number: a history returning a vector per time is
    # refused by name before any plan block is built.
    def no_block(*args):
        raise AssertionError("a plan block was built")

    monkeypatch.setattr(fcrk, "_PlanBlock", no_block)
    hist = HistoryFunction.custom(lambda s: np.stack([np.ones_like(s), 2 * np.ones_like(s)], axis=-1))
    with pytest.raises(ValueError, match="history must return one value per time"):
        fcrk4_solve(_problem(lambda x, conv: -x, history=hist), 0.05)


def test_nonfinite_stage_raises():
    prob = _problem(lambda x, conv: 10.0 * x, t_end=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="stage"):
            fcrk4_solve(prob, 0.1)


def test_nonfinite_stage_named_by_step_and_stage():
    # The rhs turns infinite on its 15th call, stage 2 of step 2; the step's
    # later stages still run before the step is checked, and the error names
    # the first non-finite stage.
    calls = []

    def rhs(x, conv):
        calls.append(len(calls) + 1)
        return math.inf if len(calls) == 15 else -x + conv

    with pytest.raises(FloatingPointError, match="at step 2, stage 2$"):
        fcrk4_solve(_problem(rhs, t_end=1.0), 0.1)
    # Six stages per step, three steps.
    assert len(calls) == 3 * 6


def test_overflow_in_the_rhs_is_named_by_step_and_stage():
    # x' = x^3 from x = 1 blows up at t = 1/2.  The rhs sees numpy scalars,
    # so x^3 overflows to inf under the step's errstate instead of raising
    # OverflowError, and the stage check names where it first appeared.
    prob = DdeProblem(lambda x, conv: x**3, GammaKernel(2.0, 2.0), HistoryFunction.constant(1.0),
                      t0=0.0, t_end=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError,
                           match="^non-finite stage value at step 6, stage 2$"):
            fcrk4_solve(prob, 0.1)


@pytest.mark.parametrize("x0", [None, 0.5])
def test_the_rhs_receives_numpy_scalars_at_every_stage(x0):
    # All six stages of every step, stage 0 included, hand the rhs x and
    # conv as numpy float64 scalars, over three plan blocks and whether x0
    # is the history's value or a Python float: the overflow test above
    # relies on it, since x**3 of a Python float raises OverflowError.
    seen = []

    def rhs(x, conv):
        seen.append((type(x), type(conv)))
        return -x + conv

    prob = dataclasses.replace(_problem(rhs, j=2.5, t_end=10.0), x0=x0)
    sol = fcrk4_solve(prob, 0.1)
    assert len(seen) == 6 * sol.n_steps == 600
    assert set(seen) == {(np.float64, np.float64)}


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


def test_empty_horizon_rejected():
    with pytest.raises(ValueError, match="t_end must exceed t0"):
        _problem(lambda x, conv: -x, t_end=0.0)


def test_history_returning_one_number_is_broadcast():
    # A history that returns one number for an array of times solves as the
    # one that returns that number at each time.
    rhs = lambda x, conv: -x + conv
    scalar = fcrk4_solve(_problem(rhs, j=2.5, history=HistoryFunction.custom(lambda s: 1.0)), 0.1)
    array = fcrk4_solve(_problem(rhs, j=2.5, history=HistoryFunction.custom(np.ones_like)), 0.1)
    assert np.array_equal(scalar.x, array.x)


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
    [_problem(lambda x, conv: -x + conv, j=2.5, t_end=1.0)],
    ids=["scalar"],
)
def test_one_quadrature_per_distinct_abscissa(problem, monkeypatch):
    # A step's stages read at three distinct abscissae (0, 1/2, 1), and the
    # plan at t_n + h also serves stage 0 of the next step: one plan at t0,
    # then two per step, each built once.
    build = quadrature.plan_nodes
    times = []

    def counted(plan_times, *args):
        times.extend(np.atleast_1d(plan_times).tolist())
        return build(plan_times, *args)

    monkeypatch.setattr(quadrature, "plan_nodes", counted)
    monkeypatch.setattr(fcrk, "plan_nodes", counted)
    sol = fcrk4_solve(problem, 0.05)
    assert sol.n_steps == 20
    assert len(times) == 2 * sol.n_steps + 1
    expected = [0.0] + [t + d for t in _mesh(sol)[0][:-1] for d in (0.025, 0.05)]
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
    # Each step calls the rhs six times, stage 0 first.
    stage_zero = np.array(convs[::6])
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


def test_plans_wholly_in_the_history():
    # At a mean delay of 1e100 every node of every plan lies in the
    # history, so the recent side of each block is empty; x' = -x + conv
    # with history 1 then keeps its constant solution, up to the rule's
    # kernel-mass error.
    sol = fcrk4_solve(_problem(lambda x, conv: -x + conv, j=2.5, tau=1e100, t_end=0.5), 0.1)
    assert np.allclose(sol.x, 1.0, rtol=0.0, atol=1e-7)


@pytest.mark.parametrize("t_end, h", [(1e12, 1.0), (1.0, 5e-324), (9.0, 1e-5)])
def test_step_budget_checked_before_allocation(t_end, h):
    # 1e12 steps would take 32 TB of step coefficients; at h = 5e-324 the
    # step count overflows a float.  At h = 1e-5 each plan takes 200,000
    # panels, so 900,000 steps over [0, 9] bound 1.1e12 quadrature nodes,
    # about nine hours of work, under every budget but MAX_NODES.
    prob = _problem(lambda x, conv: -x + conv, j=2.5, t_end=t_end)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            fcrk4_solve(prob, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_node_budget_bounds_six_panels_plus_one_per_step(monkeypatch):
    # Ten steps at h = 0.1 take plans of 20 panels: 10 x 6 x 21 = 1,260
    # bounding nodes, admitted at a budget of exactly that and refused one
    # node below it.
    prob = _problem(lambda x, conv: -x + conv, j=2.5)
    monkeypatch.setattr(fcrk, "MAX_NODES", 1260)
    assert fcrk4_solve(prob, 0.1).n_steps == 10
    monkeypatch.setattr(fcrk, "MAX_NODES", 1259)
    with pytest.raises(ValueError, match=r"1\.26e\+03 quadrature nodes"):
        fcrk4_solve(prob, 0.1)


def test_node_budget_keeps_its_margin_over_the_largest_solves():
    # Criterion 03's floor, 2,000 steps at h = 0.005 and xi = (1/16)^4, is
    # the largest solve in the tests, and 800 steps at h = 0.0125 the
    # largest in the benchmark; MAX_STEPS steps at h = 0.0125 fit too.
    def nodes(steps, h, quad):
        return steps * 6 * (quadrature.plan_panels(quad, h) + 1)

    assert nodes(2000, 0.005, QuadConfig(xi=(1 / 16) ** 4)) * 100 <= fcrk.MAX_NODES
    assert nodes(800, 0.0125, QuadConfig()) * 1000 <= fcrk.MAX_NODES
    assert nodes(fcrk.MAX_STEPS, 0.0125, QuadConfig()) <= fcrk.MAX_NODES


@pytest.mark.parametrize(
    "problem, h, quad",
    [
        # Criterion 03's first eigenfunction problem: exponential history.
        # Its 100 steps take three blocks.
        (
            analysis.dde_problem("linear_gamma", 2.15, 4.65, beta=0.5, t_end=5.0)[0],
            0.05,
            QuadConfig(xi=(1 / 16) ** 4),
        ),
        (_problem(lambda x, conv: x - x * conv / 2.0, j=3.0, tau=2.25, t_end=2.0), 0.025, None),
        (
            _problem(
                lambda x, conv: 0.8 * x - 1.1 * conv,
                j=2.57,
                t_end=1.0,
                history=HistoryFunction.custom(lambda s: 1.0 + 0.5 * np.cos(s)),
            ),
            0.0125,
            QuadConfig(xi=(1 / 16) ** 4),
        ),
    ],
    ids=["exponential", "constant", "custom"],
)
def test_block_boundaries_leave_the_solution_unchanged(problem, h, quad, monkeypatch):
    # A plan's nodes in the steps before its block read those steps'
    # interpolants when the block is built; its moments in the block's own
    # steps are contracted as each step runs.  With one step per block
    # every completed step takes the first path.
    build = fcrk._PlanBlock
    sizes = []

    def recording(sol, kernel, quad, n0, n1):
        sizes.append(n1 - n0)
        return build(sol, kernel, quad, n0, n1)

    monkeypatch.setattr(fcrk, "_PlanBlock", recording)
    default = fcrk4_solve(problem, h, quad=quad).x
    assert len(sizes) > 1 and min(sizes[:-1]) >= 4
    sizes.clear()
    monkeypatch.setattr(fcrk, "BLOCK_NODES", 1)
    single = fcrk4_solve(problem, h, quad=quad).x
    assert set(sizes) == {1}
    assert np.all(np.abs(single - default) <= 1e-14 * np.max(np.abs(default)))


@pytest.mark.parametrize("t0, h", [(0.0, 0.1), (-1.3, 0.07), (2.0, 1.0 / 3.0)])
def test_nodes_on_a_plans_own_time_read_its_own_step(t0, h, monkeypatch):
    # Row 2 (n - n0) + 1 of a block is step n's plan at t_n + h.  Its nodes
    # at t_n + h, exactly and 1e-12 h below, read step n at theta = 1,
    # never the next step, which is unfinished when the plan is used.
    n0, n1 = 2, 7
    # A custom history: the block asks for no tail cut, which needs a kernel.
    sol = fcrk.Solution(HistoryFunction.custom(np.ones_like), t0, h, n1)
    steps = np.arange(n0, n1)
    at = t0 + steps * h + h
    counts = np.zeros(2 * len(steps), dtype=int)
    counts[1::2] = 2
    s = np.column_stack([at - 1e-12 * h, at]).ravel()
    history = (np.zeros(0), np.zeros(0), np.zeros_like(counts))

    def nodes(times, kernel, quad, h, t0, tail, growth):
        yield history
        yield np.ones(len(s)), s, counts

    monkeypatch.setattr(fcrk, "plan_nodes", nodes)
    block = fcrk._PlanBlock(sol, None, None, n0, n1)
    assert np.array_equal(block.values, np.zeros(len(counts)))
    # Two nodes at theta = 1 each: every moment in step n's columns is 2.
    expected = np.zeros((len(counts), n1 - n0, 4))
    expected[1::2][np.arange(len(steps)), np.arange(len(steps))] = 2.0
    assert np.allclose(block.table, expected.reshape(len(counts), -1), rtol=0.0, atol=1e-10)


@pytest.mark.parametrize(
    "name, j, tau, coefficients, t_end, h, quad",
    [
        # The stability command's solve at criterion 07's first point.
        ("linear_gamma", 2.5, 1.0, {"alpha": 0.89, "beta": -1.15}, 80.0, 0.05, QuadConfig()),
        # Criterion 03's floor solve: 2,400 quadrature nodes per plan.
        ("linear_gamma", 3.70, 3.76, {"beta": 0.35}, 10.0, 0.005, QuadConfig(xi=(1 / 16) ** 4)),
    ],
    ids=["stability", "criterion_03_floor"],
)
def test_solve_memory_stays_small(name, j, tau, coefficients, t_end, h, quad):
    # A plan block holds at most fcrk.BLOCK_NODES nodes and half as many
    # moment table entries, and reduces its history side before it builds
    # the rest, so a long or node-heavy solve holds little beyond its own
    # mesh and step coefficients.  Peaks at 32768: 0.77 MB and 1.33 MB.
    prob = analysis.dde_problem(name, j, tau, t_end=t_end, **coefficients)[0]
    tracemalloc.start()
    try:
        fcrk4_solve(prob, h, quad=quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


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


# At h = 0.1 one default block holds all 20 steps of the solve, so every
# earlier step is read through the block's moment table; with one step per
# block every earlier step is read through its interpolant.
@pytest.mark.parametrize("block_nodes", [fcrk.BLOCK_NODES, 1], ids=["default_blocks", "one_step_blocks"])
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
def test_linear_in_the_history(block_nodes, h1, h2, c1, c2, alpha, beta, j, tau):
    # For x' = alpha x + beta conv the whole scheme, quadrature included,
    # is linear in the history.
    rhs = lambda x, conv: alpha * x + beta * conv  # noqa: E731
    combined = HistoryFunction.custom(lambda s: c1 * h1(s) + c2 * h2(s))
    with mock.patch.object(fcrk, "BLOCK_NODES", block_nodes):
        sols = [
            fcrk4_solve(_problem(rhs, j=j, tau=tau, t_end=2.0, history=hist), 0.1).x
            for hist in (h1, h2, combined)
        ]
    parts = np.abs(c1 * sols[0]) + np.abs(c2 * sols[1])
    gap = np.abs(sols[2] - (c1 * sols[0] + c2 * sols[1]))
    assert np.all(gap <= 1e-12 * np.max(parts))


def _rescaled_history(history, k):
    """The history s -> history(s / k): m(s / k) e^((rho / k) s), exponential
    where history is."""
    fn = history.fn
    return dataclasses.replace(
        history, growth=history.growth / k, fn=None if fn is None else lambda s: fn(s / k)
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    history=_HISTORIES,
    alpha=st.floats(-2.0, 0.5),
    beta=st.floats(-2.0, 2.0),
    j=st.floats(1.0, 6.0),
    tau=st.floats(0.5, 4.0),
    k=st.floats(0.2, 8.0),
)
def test_time_rescaling_covariance_at_a_pinned_quadrature_step(history, alpha, beta, j, tau, k):
    # Written in time units k times as long, the problem has kernel mean
    # k tau, rhs F / k, history psi(s / k), step k h and horizon k T, and
    # its mesh values are the original's.  The quadrature works in omega,
    # which has no unit, so this holds with h_int pinned; the default
    # coupling h_int^4 = xi h^4 ties h_int to the time unit and breaks it:
    # on the eigen problem (j 2.15, tau 4.65, beta 0.35, h 0.05, T 5) the
    # default-coupled solves at k = 1 and k = 5 differ by 4.5e-3.  Worst
    # gap with h_int pinned, over 200 draws: 7.9e-15 of max |x|.
    F = lambda x, conv: alpha * x + beta * x * conv  # noqa: E731
    quad = QuadConfig(h_int=0.0125)
    original = fcrk4_solve(_problem(F, j=j, tau=tau, t_end=1.0, history=history), 0.1, quad=quad)
    rescaled = fcrk4_solve(
        _problem(lambda x, conv: F(x, conv) / k, j=j, tau=k * tau, t_end=k * 1.0,
                 history=_rescaled_history(history, k)),
        k * 0.1,
        quad=quad,
    )
    assert rescaled.n_steps == original.n_steps
    assert np.max(np.abs(rescaled.x - original.x)) <= 1e-13 * np.max(np.abs(original.x))


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
    x0=st.one_of(st.none(), st.floats(0.25, 2.0)),
)
def test_fcrk_matches_the_erlang_chain_at_integer_shape(
    name, j, tau, c, growth, alpha, beta, x0
):
    # At integer j the Erlang chain is the exact reduction of the gamma DDE,
    # from any history and x0, so the chain of the same problem is its
    # exact solution.  A negative x0 blows the nonlinear problem up within
    # [0, 3]: x0 is drawn from the range of c.
    hist = (
        HistoryFunction.constant(c) if growth is None
        else HistoryFunction.exponential(c, growth)
    )
    coefficients = {"alpha": alpha, "beta": beta} if name == "linear_gamma" else {}
    prob, _ = analysis.dde_problem(name, j, tau, history=hist, t_end=3.0, **coefficients)
    prob = dataclasses.replace(prob, x0=x0)
    times = np.linspace(0.0, 3.0, 101)
    chain = analysis.chain_system(prob, erlang_approx(j, tau))
    exact = rk45_adaptive(chain.rhs, chain.y0, times)[:, 0]
    err = np.max(np.abs(fcrk4_solve(prob, 0.05).query(times) - exact))
    assert err <= 16 * CRITERION_01_ERROR_AT_H005 * max(1.0, np.max(np.abs(exact)))


@pytest.mark.parametrize("j", [2, 3, 5])
@pytest.mark.parametrize("f", [0.9, 0.99])
def test_fcrk_keeps_the_far_tail_of_a_history_growing_into_the_past(j, f):
    # psi(s) = e^(rho s) with rho = -f a.  Far in the past the kernel weight
    # underflows while e^(rho s) overflows, and their product still matters:
    # read apart, the terms are inf or lost.  Against the exact Erlang chain
    # the gaps at f = 0.99 were 2.9e-5 (j = 2), 1.9e-5 (j = 3) and 8.0e-4
    # (j = 5), and at most 2.6e-5 at f = 0.9.  Forming e^(rho s) apart from
    # the kernel weight fails at step 0 for j = 2 and misses by 1.9e-2 and
    # 2.8e-1 for j = 3 and 5.
    prob = analysis.dde_problem("linear", j, t_end=5.0,
                                history=HistoryFunction.exponential(1.0, -f * j))[0]
    times = np.linspace(0.0, 5.0, 101)
    chain = analysis.chain_system(prob, erlang_approx(j, 1.0))
    exact = rk45_adaptive(chain.rhs, chain.y0, times)[:, 0]
    err = np.max(np.abs(fcrk4_solve(prob, 0.05).query(times) - exact))
    assert err <= 2e-3 * np.max(np.abs(exact))


@pytest.mark.parametrize("j", [1.3, 2.57, 3.0])
@pytest.mark.parametrize("f", [0.99, 0.999])
def test_a_custom_history_that_states_its_growth_keeps_its_far_tail(j, f):
    # psi(s) = e^(rho s) with rho = -f a, given as m = 1 and growth rho: its
    # plans carry e^(rho s) in log space as an exponential history's do,
    # and the solve matches the exponential one (gaps 0 to 6.7e-18 of max
    # |x|).  Read as the plain callable e^(rho s) it misses by 1.6e-2 to
    # 0.96, or stops at step 0 (j = 1.3).
    prob = analysis.dde_problem("linear", j, t_end=5.0,
                                history=HistoryFunction.exponential(1.0, -f * j))[0]
    exact = fcrk4_solve(prob, 0.05).x
    custom = HistoryFunction.custom(np.ones_like, growth=-f * j)
    assert _gap(fcrk4_solve(dataclasses.replace(prob, history=custom), 0.05).x, exact) <= 1e-15


@pytest.mark.parametrize("c, rho", [(1.5, 0.0), (-0.7, 0.8), (2.0, -1.2)])
def test_a_custom_constant_m_is_the_exponential_history(c, rho):
    # fn = c with growth rho is c e^(rho s): the same values before t0, and
    # after it the same solve up to the exponential one's certified tail cut.
    prob = _problem(lambda x, conv: 0.8 * x - 1.1 * conv, j=2.57, t_end=3.0,
                    history=HistoryFunction.exponential(c, rho))
    custom = dataclasses.replace(prob, history=HistoryFunction.custom(lambda s: c, growth=rho))
    exact, sol = fcrk4_solve(prob, 0.05), fcrk4_solve(custom, 0.05)
    past = np.linspace(-40.0, -1e-3, 201)
    assert np.array_equal(sol.query(past), exact.query(past))
    times = np.linspace(0.0, 3.0, 201)
    assert _gap(sol.query(times), exact.query(times)) <= 1e-15


def test_a_problem_takes_a_history_function_only():
    # A bare callable has no growth to fold into the plans: refused by name
    # where the problem is made.
    with pytest.raises(TypeError, match="a function history is not a HistoryFunction"):
        _problem(lambda x, conv: -x, history=lambda s: np.ones_like(s))


def test_plans_never_call_an_exponential_history(monkeypatch):
    # An exponential history's growth is in its plans' factors and its m is
    # c, so the solve calls it once, for x0 = psi(t0), and not at all when
    # x0 is given.  A custom copy's fn, the same history, is called by every
    # plan block.
    call = HistoryFunction.__call__
    calls = []

    def counted(self, s):
        calls.append(self)
        return call(self, s)

    monkeypatch.setattr(HistoryFunction, "__call__", counted)
    rhs = lambda x, conv: 0.8 * x - 1.1 * conv  # noqa: E731
    for hist in (HistoryFunction.constant(1.5), HistoryFunction.exponential(1.0, -0.5)):
        prob = _problem(rhs, j=2.0, t_end=2.0, history=hist)
        calls.clear()
        fcrk4_solve(prob, 0.05)
        assert calls == [hist]
        calls.clear()
        fcrk4_solve(dataclasses.replace(prob, x0=1.0), 0.05)
        assert calls == []
        fcrk4_solve(dataclasses.replace(prob, x0=1.0, history=_custom(hist)), 0.05)
        assert len(calls) > 1


def _custom(history):
    """The same history as a custom one, which keeps every quadrature panel."""
    return HistoryFunction.custom(history)


def _counting_plans(monkeypatch):
    """Patch plan_nodes to record the counts of each side it yields; returns
    {"history": [...], "recent": [...]} of per-plan count arrays."""
    build = quadrature.plan_nodes
    counts = {"history": [], "recent": []}

    def counted(*args):
        for side, part in zip(counts, build(*args)):
            counts[side].append(part[2])
            yield part

    monkeypatch.setattr(quadrature, "plan_nodes", counted)
    monkeypatch.setattr(fcrk, "plan_nodes", counted)
    return counts


def _gap(cut, full):
    return np.max(np.abs(cut - full)) / np.max(np.abs(full))


@pytest.mark.parametrize("j", [2.57, 6.3])
@pytest.mark.parametrize("f", [0.5, 0.9, 0.99])
def test_tail_cut_is_certified_for_a_history_growing_into_the_past(j, f, monkeypatch):
    # psi(s) = e^(rho s) with rho = -f a: the further past, the larger the
    # history, so far-tail nodes that carry a negligible share of the kernel
    # still matter.  A cut on the kernel alone moves these solutions by
    # 4.9e-11 to 1.0 of their maximum; the certified cut by rounding only.
    # The uncut solve is the same exponential history with no tail: the
    # custom copy loses the far tail where the kernel factor underflows.
    prob = analysis.dde_problem("linear", j, t_end=5.0,
                                history=HistoryFunction.exponential(1.0, -f * j))[0]
    cut = fcrk4_solve(prob, 0.05).x
    monkeypatch.setattr(fcrk, "_tails", lambda *args: None)
    full = fcrk4_solve(prob, 0.05).x
    assert _gap(cut, full) <= 1e-15


def test_zero_history_drops_its_whole_side(monkeypatch):
    # A zero history contributes nothing, and the cut knows it exactly: no
    # plan builds a history node, and the solution is the uncut one.
    counts = _counting_plans(monkeypatch)
    prob = _problem(lambda x, conv: 0.8 * x - 1.1 * conv + 1.0, j=2.57, t_end=5.0,
                    history=HistoryFunction.constant(0.0))
    cut = fcrk4_solve(prob, 0.05).x
    assert sum(c.sum() for c in counts["history"]) == 0
    counts["history"].clear()
    full = fcrk4_solve(dataclasses.replace(prob, history=_custom(prob.history)), 0.05).x
    assert sum(c.sum() for c in counts["history"]) > 0
    assert np.array_equal(cut, full)


def test_tail_cut_on_the_recent_side(monkeypatch):
    # Criterion 07's first stability solve runs 80 time units at mean delay
    # 1, so late plans drop nodes in long-finished steps too: 247,044
    # recent-side nodes against 272,820 uncut.
    counts = _counting_plans(monkeypatch)
    prob = analysis.dde_problem("linear_gamma", 2.5, 1.0, alpha=0.89, beta=-1.15, t_end=80.0)[0]
    cut = fcrk4_solve(prob, 0.05).x
    recent_cut = sum(c.sum() for c in counts["recent"])
    counts["recent"].clear()
    full = fcrk4_solve(dataclasses.replace(prob, history=_custom(prob.history)), 0.05).x
    assert recent_cut < 0.95 * sum(c.sum() for c in counts["recent"])
    assert _gap(cut, full) <= 1e-15


def test_tail_cut_builds_a_third_fewer_nodes(monkeypatch):
    # The fcrk_solve benchmark's eigenfunction case at j = 2.15, h = 0.0125.
    counts = _counting_plans(monkeypatch)
    prob = analysis.dde_problem("linear_gamma", 2.15, 4.65, beta=0.5, t_end=5.0)[0]
    quad = QuadConfig(xi=(1 / 16) ** 4)
    nodes = []
    for history in (prob.history, _custom(prob.history)):
        fcrk4_solve(dataclasses.replace(prob, history=history), 0.0125, quad=quad)
        nodes.append(sum(c.sum() for side in counts.values() for c in side))
        for side in counts.values():
            side.clear()
    assert nodes[0] <= 0.75 * nodes[1]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    c=st.floats(0.25, 2.0),
    growth=st.floats(-0.9, 1.0),
    scale=st.floats(-12.0, 12.0),
    j=st.floats(1.0, 8.0),
)
def test_tail_cut_is_scale_free(c, growth, scale, j):
    # The cut compares the dropped part with the solution's own size, so an
    # amplitude k c gives k times the solution for c, to rounding.
    k = 10.0**scale
    rhs = lambda x, conv: -0.5 * x + 0.8 * conv  # noqa: E731
    histories = [HistoryFunction.exponential(amp, growth * j) for amp in (c, k * c)]
    sols = [fcrk4_solve(_problem(rhs, j=j, t_end=3.0, history=hist), 0.1).x
            for hist in histories]
    assert np.all(np.abs(sols[1] - k * sols[0]) <= 1e-14 * np.max(np.abs(sols[1])))
