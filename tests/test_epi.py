import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gammadde.distributions import Rng
from gammadde.epi import (
    DEFAULT_BOUNDS,
    EpiData,
    SirParams,
    build_sir_chain,
    log_likelihood,
    mle_fit,
    read_cases_csv,
    read_serial_csv,
    sample_serial,
    serial_density,
    simulate_dataset,
    simulate_incidence,
    write_cases_csv,
    write_serial_csv,
)
from gammadde.epi import _poisson_loglik
from gammadde.ode_solver import OdeConfig, rk45_adaptive

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
    assert TRUTH.r0 == pytest.approx(2.5)


def test_disease_free_limit():
    params = replace(TRUTH, eps=0.0)
    ds = simulate_incidence(params)
    assert np.all(ds == 0.0)


def test_mass_conservation():
    problem = build_sir_chain(TRUTH)
    rates = np.asarray(problem.params.rates())

    def augmented(t, state):
        core = problem.rhs(t, state[:-1])
        return np.append(core, rates[-1] * state[-2])

    y0 = np.append(problem.y0, 0.0)
    times = np.linspace(0.0, 120.0, 61)
    _, states = rk45_adaptive(
        augmented, y0, 0.0, 120.0, OdeConfig(rtol=1e-12, atol=1e-14), t_eval=times
    )
    totals = states.sum(axis=1)
    assert np.max(np.abs(totals - 1.0)) < 1e-10
    assert np.all(states >= -1e-12)


def test_final_size_relation():
    params = replace(TRUTH, obs_times=tuple(float(t) for t in range(1, 401)))
    problem = build_sir_chain(params)
    _, states = rk45_adaptive(
        problem.rhs, problem.y0, 0.0, 400.0, OdeConfig(rtol=1e-10, atol=1e-12), t_eval=[400.0]
    )
    s_inf = states[-1, 0]
    s0 = 1.0 - params.eps
    residual = (1.0 - s_inf) + math.log(s_inf / s0) / params.r0
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
    cfg = OdeConfig(rtol=1e-12, atol=1e-14)
    _, yf = rk45_adaptive(fixed.rhs, fixed.y0, 0.0, 120.0, cfg, t_eval=times)
    _, ye = rk45_adaptive(erl.rhs, erl.y0, 0.0, 120.0, cfg, t_eval=times)
    assert np.max(np.abs(yf - ye)) < 1e-10


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
    assert fit.trace  # objective evaluations were recorded


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


def test_mle_rejects_low_shape_bound():
    with pytest.raises(ValueError):
        mle_fit(EpiData(cases=(), serial=()), TRUTH, bounds={"j": (1.0, 5.0)})
    assert DEFAULT_BOUNDS["j"][0] > 1.01


def test_csv_roundtrip(tmp_path):
    cases_path = tmp_path / "cases.csv"
    serial_path = tmp_path / "serial.csv"
    write_cases_csv(cases_path, (1.0, 2.0, 3.0), (4, 0, 2))
    write_serial_csv(serial_path, (1.25, 0.5))
    times, cases = read_cases_csv(cases_path)
    assert times == (1.0, 2.0, 3.0)
    assert cases == (4, 0, 2)
    assert read_serial_csv(serial_path) == (1.25, 0.5)
