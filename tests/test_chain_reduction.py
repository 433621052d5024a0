import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from gammadde.approximations import (
    VARIANTS,
    chain_params,
    erlang_approx,
    fixed_hypoexp,
    smoothed_hypoexp,
)
from gammadde.chain_reduction import (
    HistoryFunction,
    build_erlang_system,
    build_hypoexp_system,
    chain_initial_state,
)
from gammadde.ode_solver import rk45_adaptive

TIGHT = 1e-12  # rtol


def _partial_fraction_density(rates, t):
    """Density of a sum of exponentials with distinct rates r_i:
    sum_i r_i w_i e^(-r_i t) with weights w_i = prod_(k != i) r_k / (r_k - r_i)."""
    r = np.asarray(rates, dtype=float)
    weights = [np.prod(np.delete(r, i) / (np.delete(r, i) - r[i])) for i in range(r.size)]
    return np.exp(-np.multiply.outer(t, r)) @ (r * np.asarray(weights))


def test_history_kinds():
    h = HistoryFunction.constant(0.5)
    assert h(-3.0) == 0.5
    assert np.array_equal(h(np.array([-1.0, 0.0])), [0.5, 0.5])
    assert h == HistoryFunction.exponential(0.5, 0.0)
    h = HistoryFunction.exponential(0.1, 0.1)
    assert h(-2.0) == pytest.approx(0.1 * math.exp(-0.2), rel=1e-15)
    h = HistoryFunction.custom(lambda s: np.cos(s))
    assert h(0.0) == 1.0


def test_constant_history_inits():
    params = erlang_approx(2.8, 1.0)  # b = 3
    init = chain_initial_state(HistoryFunction.constant(1.0), params)
    assert np.allclose(init, 1.0 / 3.0, rtol=1e-15)
    params = fixed_hypoexp(2.5, 1.0)
    init = chain_initial_state(HistoryFunction.constant(2.0), params)
    assert np.allclose(init, 2.0 / np.asarray(params.rates()), rtol=1e-15)


def test_zero_history_inits():
    params = fixed_hypoexp(2.5, 1.0)
    init = chain_initial_state(HistoryFunction.constant(0.0), params)
    assert np.all(init == 0.0)


def test_exponential_history_erlang_closed_form():
    # psi(s) = 0.1 e^{0.1 s}: compartment means are geometric in the
    # per-stage transform value lam/(lam+rho).
    params = erlang_approx(2.8, 1.0)
    lam = 3.0
    init = chain_initial_state(HistoryFunction.exponential(0.1, 0.1), params)
    for i, val in enumerate(init, start=1):
        assert val == pytest.approx((0.1 / lam) * (lam / 3.1) ** i, rel=1e-14)


def test_exponential_history_against_quadrature():
    params = fixed_hypoexp(2.5, 1.0)
    rates = params.rates()
    rho, c = 0.1, 0.1
    init = chain_initial_state(HistoryFunction.exponential(c, rho), params)

    def oracle(i):
        # Defining integral psi(-s)/r_i * kappa_i(s), kappa_i the density of
        # the first i+1 stages in sequence.
        dens = lambda s: float(_partial_fraction_density(rates[: i + 1], s))
        val, _ = quad(lambda s: c * math.exp(-rho * s) / rates[i] * dens(s), 0, np.inf)
        return val

    for i in range(params.n):
        assert init[i] == pytest.approx(oracle(i), rel=1e-8)


def test_custom_history_matches_closed_form():
    for params in (chain_params(v, j, 1.0) for v in VARIANTS for j in (2.5, 6.3)):
        closed = chain_initial_state(HistoryFunction.exponential(0.1, 0.1), params)
        custom = chain_initial_state(
            HistoryFunction.custom(lambda s: 0.1 * np.exp(0.1 * s)), params
        )
        assert np.allclose(custom, closed, rtol=1e-7)


def test_divergent_history_rejected():
    params = fixed_hypoexp(2.5, 1.0)  # min rate 1.938
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            chain_initial_state(HistoryFunction.exponential(1.0, -5.0), params)
        with pytest.raises(ValueError, match="diverges"):
            chain_initial_state(HistoryFunction.custom(lambda s: np.exp(-5.0 * s)), params)


def test_variant_guards():
    hist = HistoryFunction.constant(1.0)
    with pytest.raises(ValueError):
        build_erlang_system(lambda y, c: 0.0, fixed_hypoexp(2.5, 1.0), hist)
    with pytest.raises(ValueError):
        build_hypoexp_system(lambda y, c: 0.0, erlang_approx(2.5, 1.0), hist)


def test_integer_shape_chains_coincide():
    # At integer shape the two-moment chain is the Erlang chain; constant
    # history must then give identical trajectories.
    F = lambda y, conv: 0.8 * y - 1.1 * conv
    hist = HistoryFunction.constant(1.0)
    erl = build_erlang_system(F, erlang_approx(3, 1.0), hist)
    hyp = build_hypoexp_system(F, fixed_hypoexp(3, 1.0), hist)
    times = np.linspace(0.0, 10.0, 101)
    ye = rk45_adaptive(erl.rhs, erl.y0, times, TIGHT)
    yh = rk45_adaptive(hyp.rhs, hyp.y0, times, TIGHT)
    assert np.max(np.abs(ye - yh)) < 1e-10


def _unit_mass_in_stage_1(prob):
    """Initial state with Y = 0 and all mass in the first stage."""
    y0 = np.zeros_like(prob.y0)
    y0[1] = 1.0
    return y0


def test_impulse_response_reproduces_kernel_density():
    # Unit mass in stage 1 with no feedback: the final-stage outflow is the
    # chain kernel's density, equivalently -d/dt of its survival.
    params = fixed_hypoexp(2.5, 1.0)
    rates = params.rates()
    prob = build_hypoexp_system(lambda y, conv: 0.0, params, HistoryFunction.constant(0.0))
    times = np.linspace(0.05, 6.0, 60)
    states = rk45_adaptive(prob.rhs, _unit_mass_in_stage_1(prob), times, TIGHT)
    outflow = rates[-1] * states[:, -1]
    assert np.max(np.abs(outflow - _partial_fraction_density(rates, times))) < 1e-6


def test_pure_transit_conserves_mass():
    params = smoothed_hypoexp(3.4, 2.0)
    rates = np.asarray(params.rates())
    prob = build_hypoexp_system(lambda y, conv: 0.0, params, HistoryFunction.constant(0.0))

    def augmented(t, state):
        core = prob.rhs(t, state[:-1])
        return np.append(core, rates[-1] * state[-2])

    y0 = np.append(_unit_mass_in_stage_1(prob), 0.0)
    times = np.linspace(0.0, 10.0, 30)
    states = rk45_adaptive(augmented, y0, times, TIGHT)
    totals = states[:, 1:].sum(axis=1)  # stages + absorbed (Y stays 0)
    assert np.max(np.abs(totals - 1.0)) < 1e-10


def test_delayed_term_tracks_equilibrium():
    # Y driven to a constant: the chain relaxes until the delayed term
    # reproduces that constant.
    target = 1.7
    params = fixed_hypoexp(2.5, 1.0)
    prob = build_hypoexp_system(
        lambda y, conv: 5.0 * (target - y),
        params,
        HistoryFunction.constant(0.0),
    )
    states = rk45_adaptive(prob.rhs, prob.y0, [40.0], TIGHT)
    assert params.rates()[-1] * states[-1][-1] == pytest.approx(target, abs=1e-6)


@pytest.mark.parametrize("builder", [fixed_hypoexp, smoothed_hypoexp])
def test_integer_shape_exponential_history_matches_erlang(builder):
    # At integer shape every two-moment chain is the Erlang chain, so it
    # must reproduce the Erlang reduction for a non-constant history as
    # well.
    F = lambda y, conv: 0.8 * y - 1.1 * conv
    hist = HistoryFunction.exponential(1.0, 0.5)
    erl = build_erlang_system(F, erlang_approx(3, 1.0), hist)
    hyp = build_hypoexp_system(F, builder(3, 1.0), hist)
    times = np.linspace(0.0, 10.0, 201)
    ye = rk45_adaptive(erl.rhs, erl.y0, times, TIGHT)
    yh = rk45_adaptive(hyp.rhs, hyp.y0, times, TIGHT)
    assert np.max(np.abs(yh[:, 0] - ye[:, 0])) < 1e-8
