"""Workload ``epi_loglik``: SIR log-likelihood evaluations at the fitter's settings.

Almost all of its time is spent in ``ode_solver`` and ``epi``, with a
little in ``distributions`` (the serial-interval density).  It never calls
``quadrature`` or ``fcrk``, so an FCRK change predicts no change here.  A
change to the ODE backend shows mostly on the stiff points just above an
integer shape.

An operation is one call of ``epi.log_likelihood`` with the settings
``mle_fit`` uses: the ``smoothed_regularized`` chain, ``FIT_APPROX_CFG`` and
``rtol = 1e-8``.  A fixed, seeded point set stands in for a fit: a recorded
``mle_fit`` from acceptance criterion 10's start point spent 80% of its time
on the 45% of evaluations with j within 0.02 of an integer, and replaying a
fixed set keeps the work identical across commits, where a Nelder-Mead path
moves whenever the likelihood changes in its last digits.
"""

from dataclasses import dataclass

import numpy as np

from gammadde import approximations, epi
from gammadde.distributions import Rng

import reference

# Acceptance criterion 10's truth and data set.
TRUTH = dict(beta=0.5, tau=5.0, j=4.0, eps=1e-3, M=1000.0)
DATA_SEED = 20260811
N_SERIAL = 100
N_POINTS = 36
RATE_VARIANT = "smoothed_regularized"
RTOL = 1e-8  # mle_fit's default

# Point ranges around the fit's path from (0.4, 4, 3, 5e-4) to the truth.
BETA_RANGE = (0.4, 0.6)
TAU_RANGE = (4.0, 6.0)
EPS_RANGE = (5e-4, 2e-3)  # log-uniform
AWAY_INTEGERS = (2, 3, 4, 5)  # j = n + f, f in [0.05, 0.95]
NEAR_INTEGERS = (4, 3, 4, 5)  # j = n + d, d log-uniform in [1e-6, 0.02]
NEAR_OFFSET_RANGE = (1e-6, 0.02)
# Fixed Latin-hypercube order of the (beta, tau, eps) strata; the run's seed
# only places each point inside its cell, so every seed does the same work.
DESIGN_SEED = 2104

# Agreement with the independent recomputation, 1e5 * RTOL (README).
LOGLIK_TOL = 1e-3
MEAN_TOL = 1e-12  # relative, sum of 1/r_i against tau


@dataclass(frozen=True)
class Inputs:
    data: object
    points: tuple  # SirParams
    near: tuple  # bool per point: just above an integer
    approx_cfg: object


def _cells(order, rng):
    """One uniform draw inside each of the strata listed in ``order``."""
    return (order + rng.uniform(size=len(order))) / len(order)


def build(seed, small):
    """Criterion 10's data set and a seeded point set on a fixed design.

    Two thirds of the points have j at least 0.05 from an integer; one third
    sit just above one.  Every coordinate of every point has a fixed stratum;
    the seed draws the point's place inside it.
    """
    truth = epi.SirParams(**TRUTH)
    data = epi.simulate_dataset(Rng(DATA_SEED), truth, n_serial=N_SERIAL)
    rng = np.random.default_rng(seed)
    n = 6 if small else N_POINTS
    n_near = n // 3
    n_away = n - n_near
    design = np.random.default_rng(DESIGN_SEED)
    u_beta, u_tau, u_eps = (_cells(design.permutation(n), rng) for _ in range(3))
    shapes = []
    for i in range(n_away):
        frac = 0.05 + 0.9 * (i + rng.uniform()) / n_away
        shapes.append(AWAY_INTEGERS[i % len(AWAY_INTEGERS)] + frac)
    lo, hi = np.log(NEAR_OFFSET_RANGE)
    for i in range(n_near):
        offset = np.exp(lo + (hi - lo) * (i + rng.uniform()) / n_near)
        shapes.append(NEAR_INTEGERS[i % len(NEAR_INTEGERS)] + offset)
    points = []
    for i, j in enumerate(shapes):
        points.append(
            epi.SirParams(
                beta=BETA_RANGE[0] + (BETA_RANGE[1] - BETA_RANGE[0]) * u_beta[i],
                tau=TAU_RANGE[0] + (TAU_RANGE[1] - TAU_RANGE[0]) * u_tau[i],
                j=float(j),
                eps=float(np.exp(np.log(EPS_RANGE[0]) + np.log(EPS_RANGE[1] / EPS_RANGE[0]) * u_eps[i])),
                M=TRUTH["M"],
            )
        )
    near = tuple(i >= n_away for i in range(n))
    return Inputs(data=data, points=tuple(points), near=near, approx_cfg=epi.FIT_APPROX_CFG)


def _loglik(inputs, params):
    return epi.log_likelihood(params, inputs.data, RATE_VARIANT, inputs.approx_cfg, rtol=RTOL)


def operations(inputs):
    return [
        (f"point{i}", "near_integer" if near else "away", lambda p=p: _loglik(inputs, p))
        for i, (p, near) in enumerate(zip(inputs.points, inputs.near))
    ]


def warmup(inputs):
    _loglik(inputs, inputs.points[0])


def details(inputs, outputs, op_seconds):
    """Evaluations per second, and median milliseconds per evaluation over
    all points and over the points just above an integer."""
    seconds = list(op_seconds.values())
    near = [s for s, is_near in zip(seconds, inputs.near) if is_near]
    return {
        "loglik_per_s": len(seconds) / sum(seconds),
        "loglik_ms_p50": 1e3 * float(np.median(seconds)),
        "loglik_near_integer_ms_p50": 1e3 * float(np.median(near)),
    }


def check(inputs, outputs):
    """Each likelihood against an independent recomputation from the chain
    rates, and the mean identity of those rates."""
    failures = []
    worst_ll = worst_mean = 0.0
    for i, params in enumerate(inputs.points):
        rates = approximations.regularized_smoothed(params.j, params.tau, inputs.approx_cfg).rates()
        mean_err = abs(sum(1.0 / r for r in rates) - params.tau) / params.tau
        worst_mean = max(worst_mean, mean_err)
        if not mean_err <= MEAN_TOL:
            failures.append(f"point{i}: sum 1/r_i misses tau by {mean_err:.2e} (relative)")
        expected, _ = reference.sir_log_likelihood(
            params.beta,
            params.tau,
            params.j,
            params.eps,
            params.M,
            rates,
            params.obs_times,
            inputs.data.cases,
            inputs.data.serial,
        )
        diff = abs(outputs[f"point{i}"] - expected)
        worst_ll = max(worst_ll, diff)
        if not diff <= LOGLIK_TOL:
            failures.append(
                f"point{i} (j={params.j!r}): loglik {outputs[f'point{i}']!r} vs reference "
                f"{expected!r}, difference {diff:.2e} > {LOGLIK_TOL}"
            )
    return failures, {"worst_loglik_diff": worst_ll, "worst_mean_rel_err": worst_mean}
