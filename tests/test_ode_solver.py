import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from gammadde import analysis, ode_solver
from gammadde.approximations import erlang_approx
from gammadde.chain_reduction import HistoryFunction, build_erlang_system
from gammadde.epi import FIT_APPROX_CFG, SirParams, build_sir_chain, simulate_incidence
from gammadde.ode_solver import OdeFailure, rk45_adaptive


def test_rk45_decay_tight_tolerance():
    y = rk45_adaptive(lambda t, y: -y, 1.0, [1.0])
    assert abs(y[-1, 0] - math.exp(-1)) < 1e-10


def test_rk45_oscillator_energy():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    t_end = 10 * 2 * math.pi
    times = np.linspace(0.0, t_end, 201)
    y = rk45_adaptive(rhs, np.array([1.0, 0.0]), times)
    energy = y[:, 0] ** 2 + y[:, 1] ** 2
    assert np.max(np.abs(energy - 1.0)) < 1e-8


def test_rk45_hits_requested_times():
    times = np.array([0.0, 0.3, 0.77, 1.0, 1.5])
    out_y = rk45_adaptive(lambda t, y: -y, 1.0, times)
    assert np.allclose(out_y[:, 0], np.exp(-times), atol=1e-9)


def test_rk45_output_times_after_start():
    # 0 is not an output time: it is integrated from but not returned.
    times = np.array([0.3, 0.77, 1.5])
    out_y = rk45_adaptive(lambda t, y: -y, 1.0, times)
    assert out_y.shape == (3, 1)
    assert np.allclose(out_y[:, 0], np.exp(-times), atol=1e-9)


def test_rk45_output_times_validated():
    with pytest.raises(TypeError):
        rk45_adaptive(lambda t, y: -y, 1.0)
    with pytest.raises(ValueError, match="before 0"):
        rk45_adaptive(lambda t, y: -y, 1.0, [-0.5, 1.0])
    with pytest.raises(ValueError, match="after 0"):
        rk45_adaptive(lambda t, y: -y, 1.0, [0.0])


def test_rk45_logistic_chain_equilibrium():
    # Delayed-logistic chain settles at the capacity.
    _, reference = analysis.dde_problem("nonlinear", 3)
    assert abs(reference(600.0) - 2.0) < 1e-6


def test_rk45_budget_exceeded(monkeypatch):
    # MAX_STEPS bounds the steps between consecutive output times.
    monkeypatch.setattr(ode_solver, "MAX_STEPS", 10)
    with pytest.raises(OdeFailure, match="Excess work"):
        rk45_adaptive(lambda t, y: np.array([math.cos(20 * t)]), 0.0, [0.0, 50.0])


def test_rk45_blowup_fails():
    # y' = y^2 from y(0) = 2 blows up at t = 1/2.
    with pytest.raises(OdeFailure, match="overflow"):
        rk45_adaptive(lambda t, y: y * y, 2.0, [0.0, 1.0, 2.0])


def test_rk45_non_finite_state_fails():
    with pytest.raises(OdeFailure):
        rk45_adaptive(lambda t, y: np.array([np.nan]), 1.0, [0.0, 1.0])


def test_rk45_tolerance_consistency():
    from gammadde.approximations import fixed_hypoexp
    from gammadde.chain_reduction import build_hypoexp_system

    problems = [
        build_hypoexp_system(
            lambda y, conv: 0.8 * y - 1.1 * conv,
            fixed_hypoexp(2.5, 1.0),
            HistoryFunction.constant(1.0),
        ),
        build_hypoexp_system(
            lambda y, conv: y - y * conv / 2.0,
            fixed_hypoexp(3.4, 2.25),
            HistoryFunction.constant(1.0),
        ),
    ]
    times = np.linspace(0.0, 10.0, 51)
    for prob in problems:
        tight = rk45_adaptive(prob.rhs, prob.y0, times, rtol=1e-12)
        loose = rk45_adaptive(prob.rhs, prob.y0, times)
        assert np.max(np.abs(tight - loose)) < 1e-8


def test_config_validation():
    for bad in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError, match="rtol must be positive and finite"):
            rk45_adaptive(lambda t, y: -y, 1.0, [1.0], rtol=bad)


# ---------------------------------------------------------------------------
# Work precision: the error of each production use of the solver against a
# DOP853 solve at rtol = 2.3e-14.  The bounds come from the errors of the
# explicit Dormand-Prince 5(4) integrator LSODA replaced on the same uses
# (see CHANGES.md for the full table).


def _dop853(rhs, y0, times):
    ref = solve_ivp(
        rhs, (0.0, times[-1]), y0, method="DOP853", rtol=2.3e-14, atol=1e-20, t_eval=times
    )
    assert ref.success
    return ref.y.T


@pytest.mark.parametrize("j", [4.000001, 2.6])
def test_work_precision_sir_chain(j):
    # The fitter's settings.  Just above an integer the regularized chain
    # is stiff and the explicit pair's stability-bound steps took its error
    # down to 2e-15 there; the larger of its errors at these two points,
    # 4.85e-11 at j = 2.6, is the bound for both.
    params = SirParams(beta=0.5, tau=5.0, j=j, eps=1e-3, M=1000.0)
    ds = simulate_incidence(params, "smoothed_regularized", FIT_APPROX_CFG, rtol=1e-8)
    problem = build_sir_chain(params, "smoothed_regularized", FIT_APPROX_CFG)
    times = np.concatenate([[0.0], params.obs_times])
    ref = np.diff(_dop853(problem.rhs, problem.y0, times)[:, 0])
    assert np.max(np.abs(ds - ref)) < 4.9e-11


def test_work_precision_erlang_reference():
    # The integer-shape reference of acceptance criterion 02 at j = 14
    # (the default rtol 1e-10, so LSODA receives rtol 1e-13 and atol 1e-15).
    # LSODA's relative tolerance floor of 1e-13 holds it at 5.7e-13 here,
    # against 2.0e-14 for the explicit pair: the one use with a bound above
    # the old error, still 1400 times below the smallest FCRK error the
    # reference is compared with (8e-10).
    times = np.linspace(0.0, 10.0, 1001)
    dde, reference = analysis.dde_problem("nonlinear", 14)
    problem = build_erlang_system(dde.rhs, erlang_approx(14, 2.25), dde.history)
    ref = _dop853(problem.rhs, problem.y0, times)[:, 0]
    assert np.max(np.abs(reference(times) - ref)) < 1e-12


def test_lsoda_receives_the_package_tolerances(monkeypatch, tmp_path, capsys):
    # What LSODA itself is handed by each production path: the requested
    # rtol over 1000, floored at 1e-13, and atol = rtol * 1e-2 over 1000.
    from gammadde.cli import main
    from gammadde.epi import fit_log_likelihood, EpiData

    seen = []
    real = ode_solver.odeint

    def spy(*args, **kwargs):
        seen.append((kwargs["rtol"], kwargs["atol"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(ode_solver, "odeint", spy)

    def received(run):
        seen.clear()
        run()
        return set(seen)

    out = str(tmp_path / "out.csv")
    chain = ["solve", "--method", "chain", "--j", "2.5", "--h", "0.5", "--t-end", "1"]
    assert received(lambda: main(chain + ["--out", out])) == {(1e-13, 1e-15)}
    compare = ["compare", "--j", "2.5", "--t-end", "1", "--n-out", "3", "--rtol", "1e-11"]
    assert received(lambda: main(compare + ["--out", out])) == {(1e-13, 1e-11 * 1e-2 / 1000)}
    capsys.readouterr()
    params = SirParams(beta=0.5, tau=5.0, j=2.6, eps=1e-3, M=1000.0, obs_times=(1.0, 2.0))
    data = EpiData(cases=(3, 4), serial=())
    assert received(lambda: fit_log_likelihood(params, data)) == {
        (1e-8 / 1000, 1e-8 * 1e-2 / 1000)
    }
    _, reference = analysis.dde_problem("nonlinear", 3)
    assert received(lambda: reference(1.0)) == {(1e-13, 1e-15)}
