"""Workload ``fcrk_solve``: FCRK solves of the paper's test problems.

Almost all of its time is spent in ``quadrature`` and ``fcrk``; it never
calls the program's ODE solver.  It uses every kind of history (exponential,
constant, custom), so a change to how quadrature is planned or to the
history term shows here, and the custom-history case shows no change when a
closed-form-history change does not apply to it.

An operation is one solve plus a query of the solution at 1001 points.
"""

from dataclasses import dataclass

import numpy as np

from gammadde import fcrk
from gammadde.chain_reduction import HistoryFunction
from gammadde.distributions import GammaKernel
from gammadde.quadrature import QuadConfig

import reference

# The three (tau, j, beta) eigenfunction problems of acceptance criterion 03:
# exponential history, non-integer shape, exact solution c e^(lambda t).
EIGEN_TRIPLES = ((4.65, 2.15, 0.5), (3.76, 3.70, 0.35), (4.25, 2.25, 0.71))
LOGISTIC_SHAPES = (3, 8)
LOGISTIC_TAU = 2.25
LOGISTIC_CAPACITY = 2.0
CUSTOM_SHAPE = 2.57
COUPLED_H = (0.05, 0.025, 0.0125)
SHORT_H = (0.1, 0.05, 0.025)  # logistic and custom: half the steps of COUPLED_H
PINNED_H = (0.5, 0.25, 0.125, 0.0625)
XI = (1.0 / 16.0) ** 4
H_INT = 1.0 / 2048.0
N_QUERY = 1001
T_END = 5.0  # half of criterion 03's horizon, so three passes fit a run

# Error bounds C h^4 of a 4th-order method; the constants and their
# margins over measured errors are given in the README.
EIGEN_ERROR_CONST = 1e-2  # relative to the history amplitude c
LOGISTIC_ERROR_CONST = 1.0
ORDER_RANGE = (3.7, 4.3)
RICHARDSON_RANGE = (3.5, 4.5)


@dataclass(frozen=True)
class Case:
    name: str
    group: str  # eigen_coupled | eigen_pinned | logistic | custom
    problem: object
    h: float
    quad: object
    key: tuple  # cases sharing a key form one convergence study
    exact: tuple = ()  # (c, lambda) for the eigenfunction problems


@dataclass(frozen=True)
class Inputs:
    cases: tuple
    times: np.ndarray


def _linear_gamma(alpha, beta):
    return lambda x, conv: alpha * x + beta * conv


def _logistic(x, conv):
    return x - x * conv / LOGISTIC_CAPACITY


def _linear(x, conv):
    return 0.8 * x - 1.1 * conv


def _cosine_history(amplitude, omega):
    return lambda s: 1.0 + amplitude * np.cos(omega * s)


def build(seed, small):
    """The solve cases; the seed draws the history amplitudes.

    Costs depend on the kernels and step sizes only, so every seed does the
    same work.  ``small`` keeps one problem of each kind on a short horizon.
    """
    rng = np.random.default_rng(seed)
    t_end = 2.0 if small else T_END
    cases = []
    for tau, j, beta in EIGEN_TRIPLES[:1] if small else EIGEN_TRIPLES:
        a = j / tau
        lam = (beta * a**j) ** (1.0 / (j + 1.0)) - a  # checked by reference.eigen_root
        c = float(rng.uniform(0.5, 2.0))
        problem = fcrk.DdeProblem(
            rhs=_linear_gamma(-a, beta),
            kernel=GammaKernel(shape=j, rate=a),
            history=HistoryFunction.exponential(c, lam),
            t0=0.0,
            t_end=t_end,
        )
        for group, h_values, quad in (
            ("eigen_coupled", COUPLED_H, QuadConfig(xi=XI)),
            ("eigen_pinned", PINNED_H, QuadConfig(h_int=H_INT)),
        ):
            for h in h_values:
                cases.append(
                    Case(f"{group}_j{j}_h{h}", group, problem, h, quad, (group, j), (c, lam))
                )
    for j in LOGISTIC_SHAPES[:1] if small else LOGISTIC_SHAPES:
        problem = fcrk.DdeProblem(
            rhs=_logistic,
            kernel=GammaKernel(shape=j, rate=j / LOGISTIC_TAU),
            history=HistoryFunction.constant(1.0),
            t0=0.0,
            t_end=t_end,
        )
        for h in SHORT_H:
            cases.append(
                Case(f"logistic_j{j}_h{h}", "logistic", problem, h, QuadConfig(xi=XI), ("logistic", j))
            )
    history = HistoryFunction.custom(
        _cosine_history(float(rng.uniform(0.25, 0.75)), float(rng.uniform(0.5, 1.5)))
    )
    problem = fcrk.DdeProblem(
        rhs=_linear,
        kernel=GammaKernel(shape=CUSTOM_SHAPE, rate=CUSTOM_SHAPE),
        history=history,
        t0=0.0,
        t_end=t_end,
    )
    for h in SHORT_H:
        cases.append(
            Case(f"custom_j{CUSTOM_SHAPE}_h{h}", "custom", problem, h, QuadConfig(xi=XI), ("custom",))
        )
    return Inputs(cases=tuple(cases), times=np.linspace(0.0, t_end, N_QUERY))


def _solve(case, times):
    solution = fcrk.fcrk4_solve(case.problem, case.h, quad=case.quad)
    return np.asarray(solution.query(times), dtype=float), solution.n_steps


def operations(inputs):
    """(name, group, callable) per operation, in run order."""
    return [
        (case.name, case.group, lambda case=case: _solve(case, inputs.times))
        for case in inputs.cases
    ]


def warmup(inputs):
    case = inputs.cases[0]
    short = fcrk.DdeProblem(
        rhs=case.problem.rhs,
        kernel=case.problem.kernel,
        history=case.problem.history,
        t0=0.0,
        t_end=0.5,
    )
    fcrk.fcrk4_solve(short, 0.1, quad=case.quad).query(0.25)


def details(inputs, outputs, op_seconds):
    """Workload figures beside the gated metrics: FCRK steps per second of
    solve-and-query time, and time per case group."""
    steps = sum(outputs[case.name][1] for case in inputs.cases)
    figures = {"fcrk_steps_per_s": steps / sum(op_seconds.values())}
    for case in inputs.cases:
        key = case.group + "_s"
        figures[key] = figures.get(key, 0.0) + op_seconds[case.name]
    return figures


def check(inputs, outputs):
    """(failure messages, figures) from the outputs of one pass."""
    failures, figures = [], {}
    times = inputs.times
    studies = {}
    for case in inputs.cases:
        studies.setdefault(case.key, []).append(case)
    for key, cases in studies.items():
        group = cases[0].group
        tag = "_".join(str(k) for k in key)
        values = [outputs[case.name][0] for case in cases]
        h_values = [case.h for case in cases]
        if group == "custom":
            order = reference.richardson_order(*values)
            figures[tag + "_order"] = order
            if not RICHARDSON_RANGE[0] <= order <= RICHARDSON_RANGE[1]:
                failures.append(f"{tag}: Richardson order {order:.3f} outside {RICHARDSON_RANGE}")
            continue
        if group == "logistic":
            j = key[1]
            exact = reference.erlang_chain_trajectory(
                _logistic, j, LOGISTIC_TAU, 1.0, 0.0, times
            )
            scale, const = 1.0, LOGISTIC_ERROR_CONST
        else:
            c, lam = cases[0].exact
            tau, j, beta = next(t for t in EIGEN_TRIPLES if t[1] == key[1])
            root = reference.eigen_root(tau, j, beta)
            if not abs(root - lam) <= 1e-12 * max(1.0, abs(root)):
                failures.append(f"{tag}: history rate {lam!r} is not the characteristic root {root!r}")
            exact = c * np.exp(root * times)
            scale, const = c, EIGEN_ERROR_CONST
        errors = [float(np.max(np.abs(v - exact))) / scale for v in values]
        figures[tag + "_errors"] = errors
        if group != "eigen_pinned":
            for h, err in zip(h_values, errors):
                if not err <= const * h**4:
                    failures.append(f"{tag} h={h}: error {err:.3e} above {const * h**4:.3e}")
        if group != "eigen_coupled":
            order = reference.fitted_order(h_values, errors)
            figures[tag + "_order"] = order
            if not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
                failures.append(f"{tag}: fitted order {order:.3f} outside {ORDER_RANGE}")
    return failures, figures
