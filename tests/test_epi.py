import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gammadde import fcrk, quadrature
from gammadde.approximations import VARIANTS, chain_params
from gammadde.chain_reduction import HistoryFunction
from gammadde.distributions import Rng
from gammadde.epi import (
    DEFAULT_BOUNDS,
    FIT_APPROX_CFG,
    MAX_POPULATION,
    EpiData,
    SirParams,
    build_sir_chain,
    log_likelihood,
    mle_fit,
    sample_serial,
    serial_density,
    simulate_dataset,
    simulate_incidence,
    sir_dde,
)
from gammadde.epi import _poisson_loglik
from gammadde.fcrk import fcrk4_solve
from gammadde.ode_solver import DEFAULT_RTOL, MAX_RATE, rk45_adaptive

TRUTH = SirParams(beta=0.5, tau=5.0, j=4.0, eps=1e-3, M=1000.0)

# Incidence at the ground truth (rtol 1e-10), frozen after a verified run.
PEAK_INDEX = 15
PEAK_VALUE = 0.08440638177544879
TOTAL_DEPLETION = 0.8917914279235304


def test_params_validation():
    with pytest.raises(ValueError):
        SirParams(beta=0.5, tau=5.0, j=4.0, eps=1.0, M=1000.0)
    with pytest.raises(ValueError):
        SirParams(beta=0.5, tau=5.0, j=4.0, eps=1e-3, M=1000.0, obs_times=(2.0, 1.0))
    with pytest.raises(ValueError):
        EpiData(cases=(1, -2), serial=())
    with pytest.raises(ValueError, match="population scale"):
        replace(TRUTH, M=2 * MAX_POPULATION)


@pytest.mark.parametrize("name", ["beta", "tau", "j", "M"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_refuse_non_finite_values(name, value):
    with pytest.raises(ValueError, match="must be finite"):
        replace(TRUTH, **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_refuse_non_finite_observation_times(value):
    with pytest.raises(ValueError, match="observation times must be finite"):
        replace(TRUTH, obs_times=(1.0, value))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_data_refuse_non_finite_serial_intervals(value):
    with pytest.raises(ValueError, match="serial intervals must be positive and finite"):
        EpiData(cases=(), serial=(2.5, value))


@pytest.mark.parametrize("max_evals", [0, -5])
def test_mle_fit_refuses_an_empty_budget(max_evals):
    data = EpiData(cases=(), serial=(2.5,))
    with pytest.raises(ValueError, match="max_evals"):
        mle_fit(data, TRUTH, max_evals=max_evals)


def _i_stage_chain(params, rates):
    """The SIR chain in the infected stages, state (S, I_1..I_n):
    S' = -beta S I with I = I_1 + ... + I_n, I_1' = beta S I - r_1 I_1 and
    I_i' = r_{i-1} I_{i-1} - r_i I_i, from S(0) = 1 - eps, I_1(0) = eps."""

    def rhs(t, y):
        s, stages = y[0], y[1:]
        force = params.beta * s * stages.sum()
        inflow = np.concatenate([[force], rates[:-1] * stages[:-1]])
        return np.concatenate([[-force], inflow - rates * stages])

    y0 = np.zeros(len(rates) + 1)
    y0[0], y0[1] = 1.0 - params.eps, params.eps
    return rhs, y0


@pytest.mark.parametrize("variant", VARIANTS)
def test_sir_rhs_is_the_chain_model(variant):
    # The C-DDE's chain reproduces the I-stage chain: S = 1 - C, I_i = B_i'
    # and R = r_n B_n, at rtol 1e-12 on both.
    params = replace(TRUTH, beta=0.7, j=3.3)
    problem = build_sir_chain(params, variant)
    rates = np.asarray(problem.params.rates())
    times = np.linspace(0.0, 120.0, 61)
    states = rk45_adaptive(problem.rhs, problem.y0, times, rtol=1e-12)
    ref = rk45_adaptive(*_i_stage_chain(params, rates), times, rtol=1e-12)
    infected = np.array([problem.rhs(0.0, y)[1:] for y in states])
    assert np.max(np.abs(1.0 - states[:, 0] - ref[:, 0])) < 1e-11
    assert np.max(np.abs(infected - ref[:, 1:])) < 1e-11


def test_disease_free_limit():
    params = replace(TRUTH, eps=0.0)
    ds = simulate_incidence(params)
    assert np.all(ds == 0.0)


def test_mass_conservation():
    # S = 1 - C, I_i = B_i' and R = r_n B_n sum to 1 by the chain's
    # structure, so the sum checks the read-off; the signs check the solve.
    problem = build_sir_chain(TRUTH)
    rates = np.asarray(problem.params.rates())
    times = np.linspace(0.0, 120.0, 61)
    states = rk45_adaptive(problem.rhs, problem.y0, times, rtol=1e-12)
    s = 1.0 - states[:, 0]
    infected = np.array([problem.rhs(0.0, y)[1:] for y in states])
    recovered = rates[-1] * states[:, -1]
    totals = s + infected.sum(axis=1) + recovered
    assert np.max(np.abs(totals - 1.0)) < 1e-10
    assert np.all(states >= -1e-12)
    assert np.all(infected >= -1e-12)


def test_final_size_relation():
    params = replace(TRUTH, obs_times=tuple(float(t) for t in range(1, 401)))
    problem = build_sir_chain(params)
    states = rk45_adaptive(problem.rhs, problem.y0, [400.0])
    s_inf = 1.0 - states[-1, 0]
    s0 = 1.0 - params.eps
    residual = (1.0 - s_inf) + math.log(s_inf / s0) / (params.beta * params.tau)
    assert abs(residual) < 1e-3


def test_incidence_regression():
    ds = simulate_incidence(TRUTH)
    assert len(ds) == 120
    assert np.all(ds >= 0.0)
    assert ds.sum() <= 1.0
    assert int(np.argmax(ds)) == PEAK_INDEX
    assert ds[PEAK_INDEX] == pytest.approx(PEAK_VALUE, rel=1e-8)
    assert ds.sum() == pytest.approx(TOTAL_DEPLETION, rel=1e-8)


def test_integer_shape_equals_erlang_chain():
    fixed = build_sir_chain(TRUTH, rate_variant="fixed")
    erl = build_sir_chain(TRUTH, rate_variant="erlang")
    times = np.linspace(0.0, 120.0, 41)
    yf = rk45_adaptive(fixed.rhs, fixed.y0, times, rtol=1e-12)
    ye = rk45_adaptive(erl.rhs, erl.y0, times, rtol=1e-12)
    assert np.max(np.abs(yf - ye)) < 1e-10


def test_fcrk_on_the_c_dde_converges_to_the_erlang_chain(monkeypatch):
    # At integer shape the Erlang chain is the gamma model itself, so FCRK
    # on the chain's own C-DDE, C' = beta (1 - C) (C - C * g) from C = 0
    # before t = 0 and eps at it, closes on the chain at fourth order:
    # about 16x per halving of h.
    dde = sir_dde(TRUTH)
    assert dde.history == HistoryFunction.constant(0.0) and dde.x0 == TRUTH.eps
    assert (dde.t0, dde.t_end) == (0.0, 120.0)
    problem = build_sir_chain(TRUTH, "erlang")
    times = np.linspace(0.0, 120.0, 241)
    states = rk45_adaptive(problem.rhs, problem.y0, times, rtol=1e-12)
    # The zero history certifies a tail cut of every history-side node.
    history_nodes = []
    build = quadrature.plan_nodes

    def counted(*args):
        sides = build(*args)
        past = next(sides)
        history_nodes.append(past[1].size)
        yield past
        yield from sides

    monkeypatch.setattr(quadrature, "plan_nodes", counted)
    monkeypatch.setattr(fcrk, "plan_nodes", counted)
    gaps = [
        np.max(np.abs(fcrk4_solve(dde, h).query(times) - states[:, 0]))
        for h in (0.1, 0.05, 0.025)
    ]
    assert history_nodes and sum(history_nodes) == 0
    assert gaps[0] / gaps[1] > 12 and gaps[1] / gaps[2] > 12
    assert gaps[2] < 2e-8


def test_an_empty_observation_grid_is_refused():
    # The C-DDE's window ends at the last observation time.
    with pytest.raises(ValueError, match="needs an observation time"):
        simulate_incidence(replace(TRUTH, obs_times=()))


def test_serial_density():
    assert serial_density(4.0, 5.0, 0.0) == pytest.approx(1 / 5.0, rel=1e-14)
    # mpmath quadrature of the defining integral at t = 5.
    assert serial_density(4.0, 5.0, 5.0) == pytest.approx(0.086694024073341787, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.floats(1.2, 9.0), st.floats(0.8, 8.0))
def test_serial_density_normalizes(j, tau):
    val, _ = quad(lambda t: serial_density(j, tau, t), 0.0, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_sample_serial_mean():
    draws = sample_serial(Rng(3), 4.0, 5.0, size=200_000)
    assert draws.mean() == pytest.approx((5.0 / 2) * (1 + 1 / 4.0), abs=0.02)


def test_poisson_loglik_edge_cases():
    vals = _poisson_loglik(np.array([0, 2, 0, 3]), np.array([0.0, 0.0, 2.0, 2.0]))
    assert vals[0] == 0.0
    assert vals[1] == -np.inf
    assert vals[2] == pytest.approx(-2.0)
    assert vals[3] == pytest.approx(3 * math.log(2.0) - 2.0 - math.log(6.0))


def test_log_likelihood_contracts():
    empty = EpiData(cases=(), serial=())
    assert log_likelihood(TRUTH, empty) == 0.0
    one = SirParams(beta=0.5, tau=5.0, j=4.0, eps=1e-3, M=1000.0, obs_times=(1.0,))
    val = log_likelihood(one, EpiData(cases=(0,), serial=()))
    mu = 1000.0 * simulate_incidence(one)[0]
    assert val == pytest.approx(-mu, rel=1e-8)


def test_log_likelihood_zero_incidence_with_cases():
    # Observed cases against a disease-free model: -inf, not an exception.
    silent = replace(TRUTH, eps=0.0)
    data = EpiData(cases=(0,) * 119 + (3,), serial=())
    assert log_likelihood(silent, data) == -np.inf


def test_log_likelihood_serial_permutation_invariant():
    rng = Rng(5)
    data = simulate_dataset(rng, TRUTH, n_serial=50)
    shuffled = EpiData(cases=data.cases, serial=tuple(reversed(data.serial)))
    assert log_likelihood(TRUTH, data) == pytest.approx(
        log_likelihood(TRUTH, shuffled), rel=1e-12
    )


def test_loglik_peaks_near_truth():
    data = simulate_dataset(Rng(20260811), TRUTH, n_serial=100)
    at_truth = log_likelihood(TRUTH, data)
    assert math.isfinite(at_truth)
    assert at_truth > log_likelihood(replace(TRUTH, beta=0.75), data)
    assert at_truth > log_likelihood(replace(TRUTH, tau=8.0), data)


def test_mle_selfconsistency_noiseless():
    # Deterministic counts (round of the expectation) and a fixed serial
    # sample: the optimizer must come back to the generating point.
    params = SirParams(
        beta=0.5, tau=5.0, j=4.0, eps=1e-3, M=100_000.0,
        obs_times=tuple(float(t) for t in range(1, 81)),
    )
    cases = tuple(int(round(c)) for c in params.M * simulate_incidence(params))
    serial = tuple(sample_serial(Rng(9), params.j, params.tau, size=300))
    data = EpiData(cases=cases, serial=serial)
    init = replace(params, beta=0.42, tau=4.2, j=3.4, eps=8e-4)
    fit = mle_fit(data, init, max_evals=400)
    assert abs(fit.beta - 0.5) / 0.5 < 0.02
    assert abs(fit.tau - 5.0) / 5.0 < 0.02
    assert fit.n_evals <= 400


def test_mle_fit_leaves_a_start_outside_the_box():
    # The start is clipped to j = 12; the search must still move off that
    # face to the interior optimum of criterion 10's data.
    data = simulate_dataset(Rng(20260811), TRUTH, n_serial=100)
    fit = mle_fit(data, replace(TRUTH, beta=0.4, tau=4.0, j=20.0, eps=5e-4))
    assert abs(fit.j - 4.0) < 0.1
    assert fit.loglik >= -305.22


@pytest.mark.parametrize("name, start", [("eps", 0.0), ("beta", 0.02)])
def test_mle_fit_moves_off_a_lower_face(name, start):
    # A start on the lower face of a log coordinate, whose search bound is
    # negative: a first simplex clipped to that face would be flat in the
    # coordinate and pin it there for the whole search.
    data = simulate_dataset(Rng(20260811), TRUTH, n_serial=100)
    init = replace(TRUTH, beta=0.4, tau=4.0, j=3.0, eps=5e-4)
    fit = mle_fit(data, replace(init, **{name: start}))
    assert getattr(fit, name) > 2 * DEFAULT_BOUNDS[name][0]
    if name == "eps":
        assert fit.loglik >= -305.22


def test_mle_fit_clips_the_start_into_the_box():
    # One evaluation: the result is the start, clipped into DEFAULT_BOUNDS
    # (an eps of 0 included) without scipy's out-of-bounds warning, and read
    # back inside the box although exp(log(30)) exceeds 30.
    data = EpiData(cases=(), serial=(2.5, 3.0))
    init = replace(TRUTH, beta=1e-9, tau=50.0, j=50.0, eps=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = mle_fit(data, init, max_evals=1)
    assert fit.n_evals == 1
    assert (fit.beta, fit.tau, fit.j, fit.eps) == pytest.approx((0.02, 30.0, 12.0, 1e-6), rel=1e-14)
    for name, (lo, hi) in DEFAULT_BOUNDS.items():
        assert lo <= getattr(fit, name) <= hi


def test_mle_degenerate_no_serial_converges():
    # Without serial intervals the shape is weakly identified; the fit
    # must still return without error.
    params = SirParams(
        beta=0.5, tau=5.0, j=4.0, eps=1e-3, M=1000.0,
        obs_times=tuple(float(t) for t in range(1, 61)),
    )
    data = EpiData(
        cases=tuple(int(c) for c in simulate_dataset(Rng(2), params, n_serial=1).cases[:60]),
        serial=(),
    )
    fit = mle_fit(data, replace(params, j=2.5), max_evals=150)
    assert math.isfinite(fit.loglik)


@pytest.mark.parametrize(
    "data, outcome",
    [
        # Two observation times, one case count.
        (EpiData(cases=(1,), serial=()), "case series and observation grid differ in length"),
        # The serial density underflows to 0 at an interval of 1e4.
        (EpiData(cases=(), serial=(2.5, 1e4)), -np.inf),
    ],
    ids=["case_count", "serial_underflow"],
)
def test_log_likelihood_edges(data, outcome):
    params = replace(TRUTH, obs_times=(1.0, 2.0))
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=outcome):
            log_likelihood(params, data)
    else:
        assert serial_density(params.j, params.tau, np.array(data.serial[-1:]))[0] == 0.0
        assert log_likelihood(params, data) == outcome


@pytest.mark.parametrize("j", [1.3, 2.5, 6.3, 13.0])
def test_the_sir_chain_solves_at_the_largest_rate(j):
    # MAX_RATE sits under every LSODA failure measured (beta from 3.0e6,
    # stage rates from 1.6e8): with beta and the fastest stage rate both at
    # the bound, the fixed chain and the fitter's chain at its rtol solve.
    # Just above it, beta is refused by name.
    for variant, cfg, rtol in (
        ("fixed", None, DEFAULT_RTOL), ("smoothed_regularized", FIT_APPROX_CFG, 1e-8)
    ):
        tau = 1.001 * max(chain_params(variant, j, 1.0, cfg).rates()) / MAX_RATE
        params = SirParams(beta=MAX_RATE, tau=tau, j=j, eps=1e-3, M=1000.0)
        assert np.isfinite(simulate_incidence(params, variant, cfg, rtol)).all()
    with pytest.raises(ValueError, match="beta = 1.5e\\+06 is above the largest rate, 1e\\+06"):
        build_sir_chain(replace(params, beta=1.5 * MAX_RATE))
