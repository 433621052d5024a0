import ast
import math
import re
import warnings
from pathlib import Path

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
from gammadde.analysis import chain_system, dde_problem
from gammadde.distributions import GammaKernel, stage_generator
from gammadde.fcrk import DdeProblem
from gammadde.ode_solver import MAX_CHAIN_STAGES, OdeFailure, rk45_adaptive

TIGHT = 1e-12  # rtol


def _dde(F, history, t0=0.0, tau=1.0):
    """The gamma DDE x' = F(x, conv) from ``history``, with kernel shape 2.5
    and mean ``tau``; a chain of that mean replaces its kernel and reads the
    rest."""
    return DdeProblem(
        rhs=F, kernel=GammaKernel(shape=2.5, rate=2.5 / tau), history=history, t0=t0,
        t_end=t0 + 1.0,
    )


def _partial_fraction_density(rates, t):
    """Density of a sum of exponentials with distinct rates r_i:
    sum_i r_i w_i e^(-r_i t) with weights w_i = prod_(k != i) r_k / (r_k - r_i)."""
    r = np.asarray(rates, dtype=float)
    weights = [np.prod(np.delete(r, i) / (np.delete(r, i) - r[i])) for i in range(r.size)]
    return np.exp(-np.multiply.outer(t, r)) @ (r * np.asarray(weights))


def test_history_kinds():
    # One form, m(s) e^(rho s): m is c without fn, fn(s) with it.
    h = HistoryFunction.constant(0.5)
    assert h(-3.0) == 0.5
    assert np.array_equal(h(np.array([-1.0, 0.0])), [0.5, 0.5])
    assert h == HistoryFunction.exponential(0.5, 0.0) == HistoryFunction(value=0.5)
    h = HistoryFunction.exponential(0.1, 0.1)
    assert h(-2.0) == pytest.approx(0.1 * math.exp(-0.2), rel=1e-15)
    assert np.array_equal(h.amplitude(np.array([-2.0, 0.0])), [0.1, 0.1])
    h = HistoryFunction.custom(lambda s: np.cos(s))
    assert h(0.0) == 1.0
    h = HistoryFunction.custom(np.cos, growth=-0.5)
    assert h(-2.0) == pytest.approx(math.cos(-2.0) * math.exp(1.0), rel=1e-15)
    assert np.array_equal(h.amplitude(np.array([-2.0])), [math.cos(-2.0)])


@pytest.mark.parametrize(
    "fields, named",
    [
        (dict(value=1.0, growth=math.nan), "growth rate must be finite"),
        (dict(growth=-math.inf), "growth rate must be finite"),
        (dict(fn=1.0), "a custom history needs a callable fn, got 1.0"),
        (dict(fn="cos"), "a custom history needs a callable fn, got 'cos'"),
        # A value beside fn would be accepted and then ignored.
        (dict(value=2.0, fn=np.cos), "a custom history takes no value, got 2.0"),
        (dict(fn=np.cos, growth=math.nan), "growth rate must be finite"),
    ],
)
def test_a_history_checks_its_fields_when_built(fields, named):
    # Refused where the history is made, not at its first call or in a solve.
    with pytest.raises(ValueError, match=re.escape(named)):
        HistoryFunction(**fields)


@pytest.mark.parametrize("fn", [None, 1.0], ids=["none", "number"])
def test_a_custom_history_needs_a_callable(fn):
    # custom(None) is not the zero history, nor custom(1.0) a constant one.
    with pytest.raises(ValueError, match=re.escape(f"needs a callable fn, got {fn!r}")):
        HistoryFunction.custom(fn)


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


def test_divergent_history_rejected():
    params = fixed_hypoexp(2.5, 1.0)  # min rate 1.938
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            chain_initial_state(HistoryFunction.exponential(1.0, -5.0), params)
        # A custom history is refused by its kind, whether or not it
        # outgrows the chain, in the library and where a chain is built.
        with pytest.raises(ValueError, match="exponential"):
            chain_initial_state(HistoryFunction.custom(lambda s: np.exp(-5.0 * s)), params)
        with pytest.raises(ValueError, match="exponential"):
            chain_system(
                _dde(lambda x, conv: -x + conv, HistoryFunction.custom(np.ones_like)), params
            )


def test_a_chain_starting_after_0_is_refused_by_name():
    # A chain starts at t0 = 0; FCRK takes any t0.  Refused in the builder
    # and where any variant's chain is built.
    problem = _dde(lambda x, conv: -x + conv, HistoryFunction.constant(1.0), t0=1.5)
    named = "a chain starts at t0 = 0, not at t0 = 1.5"
    with pytest.raises(ValueError, match=re.escape(named)):
        build_hypoexp_system(problem, fixed_hypoexp(2.5, 1.0))
    with pytest.raises(ValueError, match=re.escape(named)):
        chain_system(problem, erlang_approx(2.5, 1.0))


def test_a_chain_of_another_mean_is_refused_by_name():
    # A 7-stage chain of mean 3 is not a reduction of the DDE whose kernel
    # is Gamma(2.5, rate 2.5), of mean 1.
    problem = dde_problem("linear", 2.5)[0]
    named = "the erlang chain's mean 3 is not the mean 1 of the problem's kernel"
    with pytest.raises(ValueError, match=re.escape(named)):
        chain_system(problem, erlang_approx(7, 3.0))
    # A chain of the kernel's own mean is built.
    assert chain_system(problem, erlang_approx(7, 1.0)).y0.shape == (8,)


@pytest.mark.parametrize("variant", VARIANTS)
def test_divergence_names_the_variant_and_its_slowest_rate(variant):
    # Refused from the slowest stage's rate on, and named by it; just
    # inside, the closed form is finite.
    params = chain_params(variant, 2.5, 1.0)
    slowest = min(params.rates())
    named = f"the {variant} chain's slowest stage rate {slowest:g}"
    for rho in (-slowest, -2.0 * slowest):
        with pytest.raises(ValueError, match=re.escape(named)):
            chain_initial_state(HistoryFunction.exponential(1.0, rho), params)
    init = chain_initial_state(HistoryFunction.exponential(1.0, -0.99 * slowest), params)
    assert np.all(np.isfinite(init))


def test_chain_reduction_imports_no_scipy():
    # Chains start from exponential histories in closed form: no quadrature
    # and no matrix exponential.
    path = Path(__file__).resolve().parent.parent / "src" / "gammadde" / "chain_reduction.py"
    modules = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert not [m for m in modules if m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_rhs_is_the_row_block_product(variant):
    # The rhs is the product of the (n+1, n) row block with the stages:
    # row 0 is r_n e_n, rows 1..n are Q^T.  Every chain length up to the
    # budget gives the same bits as the matmul of that block.
    F = lambda x, conv: 0.8 * x - 1.1 * x * conv
    rng = np.random.default_rng(7)
    lengths = []
    for j in (1.5, 2.5, 12.6, 199.5):
        params = chain_params(variant, j, 2.0)
        rates = params.rates()
        lengths.append(params.n)
        rows = np.vstack([np.zeros(params.n), stage_generator(rates).T])
        rows[0, -1] = rates[-1]
        rhs = chain_system(_dde(F, HistoryFunction.constant(1.0), tau=2.0), params).rhs
        for _ in range(5):
            state = rng.normal(size=params.n + 1)
            expected = rows @ state[1:]
            expected[0] = F(state[0], expected[0])
            expected[1] += state[0]
            assert np.array_equal(rhs(0.0, state), expected)
    assert max(lengths) == MAX_CHAIN_STAGES


def test_rhs_returns_a_fresh_array_per_call():
    rhs = build_hypoexp_system(
        _dde(lambda x, conv: x - conv, HistoryFunction.constant(1.0)), fixed_hypoexp(2.5, 1.0)
    ).rhs
    state = np.linspace(1.0, 2.0, 4)
    first, second = rhs(0.0, state), rhs(0.0, state)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, second)


def test_overflowing_chain_head_fails_by_name():
    # x' = x^2 from x(0) = 2 blows up at t = 1/2, inside the chain's rhs.
    prob = build_hypoexp_system(
        _dde(lambda x, conv: x * x, HistoryFunction.constant(2.0)), fixed_hypoexp(2.5, 1.0)
    )
    with pytest.raises(OdeFailure, match="overflow"):
        rk45_adaptive(prob.rhs, prob.y0, [0.0, 1.0, 2.0])


def test_variant_guards():
    problem = _dde(lambda y, c: 0.0, HistoryFunction.constant(1.0))
    with pytest.raises(ValueError):
        build_erlang_system(problem, fixed_hypoexp(2.5, 1.0))
    with pytest.raises(ValueError):
        build_hypoexp_system(problem, erlang_approx(2.5, 1.0))


def test_integer_shape_chains_coincide():
    # At integer shape the two-moment chain is the Erlang chain; constant
    # history must then give identical trajectories.
    F = lambda y, conv: 0.8 * y - 1.1 * conv
    problem = _dde(F, HistoryFunction.constant(1.0))
    erl = build_erlang_system(problem, erlang_approx(3, 1.0))
    hyp = build_hypoexp_system(problem, fixed_hypoexp(3, 1.0))
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
    prob = build_hypoexp_system(_dde(lambda y, conv: 0.0, HistoryFunction.constant(0.0)), params)
    times = np.linspace(0.05, 6.0, 60)
    states = rk45_adaptive(prob.rhs, _unit_mass_in_stage_1(prob), times, TIGHT)
    outflow = rates[-1] * states[:, -1]
    assert np.max(np.abs(outflow - _partial_fraction_density(rates, times))) < 1e-6


def test_pure_transit_conserves_mass():
    params = smoothed_hypoexp(3.4, 2.0)
    rates = np.asarray(params.rates())
    prob = build_hypoexp_system(
        _dde(lambda y, conv: 0.0, HistoryFunction.constant(0.0), tau=2.0), params
    )

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
        _dde(lambda y, conv: 5.0 * (target - y), HistoryFunction.constant(0.0)), params
    )
    states = rk45_adaptive(prob.rhs, prob.y0, [40.0], TIGHT)
    assert params.rates()[-1] * states[-1][-1] == pytest.approx(target, abs=1e-6)


@pytest.mark.parametrize("builder", [fixed_hypoexp, smoothed_hypoexp])
def test_integer_shape_exponential_history_matches_erlang(builder):
    # At integer shape every two-moment chain is the Erlang chain, so it
    # must reproduce the Erlang reduction for a non-constant history as
    # well.
    F = lambda y, conv: 0.8 * y - 1.1 * conv
    problem = _dde(F, HistoryFunction.exponential(1.0, 0.5))
    erl = build_erlang_system(problem, erlang_approx(3, 1.0))
    hyp = build_hypoexp_system(problem, builder(3, 1.0))
    times = np.linspace(0.0, 10.0, 201)
    ye = rk45_adaptive(erl.rhs, erl.y0, times, TIGHT)
    yh = rk45_adaptive(hyp.rhs, hyp.y0, times, TIGHT)
    assert np.max(np.abs(yh[:, 0] - ye[:, 0])) < 1e-8
