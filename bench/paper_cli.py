"""Workload ``paper_cli``: the paper's comparison workflow through the CLI.

Every command runs in-process through ``gammadde.cli.main(argv)``; stdout
is captured and ``--out`` files go to a temporary directory.  It uses the
layers differently from the other two workloads: FCRK with a coarse
``h = 0.05`` over a long horizon (``t_end = 80``), the ODE solver on
non-stiff linear chains with 501-1001 output times, ``distributions`` in
``hypoexp_survival`` rather than ``gamma_survival``, and the CLI's CSV/JSON
writers.

An operation is one CLI command.
"""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gammadde import approximations, cli

import reference

# Acceptance criterion 07's two near-bifurcation points (j, tau, alpha, beta).
STABILITY_POINTS = ((2.5, 1.0, 0.89, -1.15), (4.495, 1.0, 0.825, -1.175))
DOMINANCE_FACTOR = 5.0
INTEGER_CHAIN_TOL = 1e-9  # chain columns equal to each other at integer shape
INTEGER_FCRK_TOL = 1e-4  # ... and close to the FCRK column
CHAIN_REF_TOL = 1e-8  # chain columns against the scipy Erlang chain
CHAR_TOL = 1e-9
SURVIVAL_TOL = 1e-12
ORDER_RANGE = (3.7, 4.3)
MGF_SLOPES = {"erlang": 2.0, "fixed": 3.0, "smoothed": 3.0}
MGF_TOL = 0.2


class CommandFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class Command:
    name: str
    group: str  # compare | stability | convergence | survival | mgf-order
    argv: tuple
    out: Path | None
    spec: dict  # what the checks need to know about the command


@dataclass(frozen=True)
class Inputs:
    commands: tuple


def build(seed, small, workdir):
    """The command list; the seed draws the exponential-history amplitudes.

    The linear problem is linear in its history, so the amplitude scales
    every deviation alike and leaves the work unchanged.  ``small`` keeps
    one command of each kind at reduced sizes.
    """
    rng = np.random.default_rng(seed)
    c_linear = float(rng.uniform(0.05, 0.2))
    c_integer = float(rng.uniform(0.5, 1.5))
    workdir = Path(workdir)
    commands = []

    def add(name, group, argv, out_suffix=None, **spec):
        out = workdir / f"{name}.{out_suffix}" if out_suffix else None
        full = list(argv) + (["--out", str(out)] if out else [])
        commands.append(Command(name, group, tuple(full), out, spec))

    t_end_compare = 5.0 if small else 10.0  # 10 is the CLI default
    short = ["--t-end", "5"] if small else []
    add(
        "compare_linear_j2.57", "compare",
        ["compare", "--problem", "linear", "--j", "2.57", "--history", f"exp:{c_linear!r}:0.1"] + short,
        "csv", j=2.57, t_end=t_end_compare, n_out=501,
    )
    if not small:
        add(
            "compare_nonlinear_j4.72", "compare",
            ["compare", "--problem", "nonlinear", "--j", "4.72", "--history", "const:0.5",
             "--t-end", "5", "--h", "0.02"],
            "csv", j=4.72, t_end=5.0, n_out=501,
        )
    add(
        "compare_linear_j3", "compare",
        ["compare", "--problem", "linear", "--j", "3", "--history", f"exp:{c_integer!r}:0.5"] + short,
        "csv", j=3, t_end=t_end_compare, n_out=501, history=(c_integer, 0.5),
    )
    for j, tau, alpha, beta in STABILITY_POINTS[:1] if small else STABILITY_POINTS:
        add(
            f"stability_j{j}", "stability",
            ["stability", "--j", repr(j), "--tau", repr(tau), "--alpha", repr(alpha),
             "--beta", repr(beta)],
            j=j, tau=tau, alpha=alpha, beta=beta,
        )
    add(
        "convergence_linear_j1", "convergence",
        ["convergence", "--problem", "linear", "--j", "1", "--h-list", "0.1,0.05,0.025,0.0125"]
        + short,
        "csv",
    )
    n_out = 201 if small else 2001
    surv = [(2.57, 1.0, 20.0)] if small else [(2.57, 1.0, 20.0), (6.45, 2.25, 45.0)]
    for j, tau, t_max in surv:
        add(
            f"survival_j{j}", "survival",
            ["survival", "--j", repr(j), "--tau", repr(tau), "--t-max", repr(t_max),
             "--n-out", str(n_out)],
            "csv", j=j, tau=tau, t_max=t_max, n_out=n_out,
        )
    for j0 in (2,) if small else (2, 3, 4):
        add(f"survival_jump{j0}", "survival", ["survival", "--jump-at", str(j0), "--t", "4"], jump=j0)
    for j in (1.5,) if small else (1.5, 6.7):
        add(f"mgf_order_j{j}", "mgf-order", ["mgf-order", "--j", repr(j)], j=j)
    return Inputs(commands=tuple(commands))


def _run(command):
    """(stdout, --out file text) of one command; raises on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(command.argv))
    except SystemExit as exc:  # argparse rejects a flag
        code = exc.code
    if code != 0:
        raise CommandFailed(f"exit code {code}: {err.getvalue().strip()}")
    text = command.out.read_text() if command.out else None
    return out.getvalue(), text


def operations(inputs):
    return [(c.name, c.group, lambda c=c: _run(c)) for c in inputs.commands]


def warmup(inputs):
    _run(Command("warmup", "mgf-order", ("mgf-order", "--j", "2.5"), None, {}))


def details(inputs, outputs, op_seconds):
    """Seconds spent in each command kind."""
    figures = {}
    for command in inputs.commands:
        key = command.group.replace("-", "_") + "_s"
        figures[key] = figures.get(key, 0.0) + op_seconds[command.name]
    return figures


def _table(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    return {name: body[:, i] for i, name in enumerate(header)}


def _linear(x, conv):
    return 0.8 * x - 1.1 * conv


def _check_compare(command, stdout, text, failures, figures):
    spec = command.spec
    summary = json.loads(stdout)
    cols = _table(text)
    name = command.name
    times = np.linspace(0.0, spec["t_end"], spec["n_out"])
    if not np.allclose(cols["t"], times, rtol=0, atol=1e-12 * spec["t_end"]):
        failures.append(f"{name}: t column is not linspace(0, {spec['t_end']}, {spec['n_out']})")
    gamma = cols["gamma_dde"]
    for variant in ("fixed", "smoothed", "erlang"):
        dev = float(np.max(np.abs(cols[variant] - gamma)))
        reported = summary[f"max_dev_{variant}"]
        if abs(dev - reported) > 1e-12 * max(1.0, dev):
            failures.append(f"{name}: max_dev_{variant} {reported!r} differs from the CSV's {dev!r}")
    if float(spec["j"]).is_integer():
        spread = max(
            float(np.max(np.abs(cols[a] - cols[b])))
            for a, b in (("fixed", "smoothed"), ("fixed", "erlang"), ("smoothed", "erlang"))
        )
        figures[name + "_chain_spread"] = spread
        if not spread <= INTEGER_CHAIN_TOL:
            failures.append(f"{name}: chain columns differ by {spread:.2e} at integer shape")
        for variant in ("fixed", "smoothed", "erlang"):
            dev = summary[f"max_dev_{variant}"]
            if not dev <= INTEGER_FCRK_TOL:
                failures.append(f"{name}: {variant} deviates from FCRK by {dev:.2e}")
        c, rho = spec["history"]
        exact = reference.erlang_chain_trajectory(_linear, int(spec["j"]), 1.0, c, rho, times)
        chain_err = max(float(np.max(np.abs(cols[v] - exact))) for v in ("fixed", "smoothed", "erlang"))
        fcrk_err = float(np.max(np.abs(gamma - exact)))
        figures[name + "_chain_vs_reference"] = chain_err
        figures[name + "_fcrk_vs_reference"] = fcrk_err
        if not chain_err <= CHAIN_REF_TOL:
            failures.append(f"{name}: chain columns miss the scipy Erlang chain by {chain_err:.2e}")
        if not fcrk_err <= INTEGER_FCRK_TOL:
            failures.append(f"{name}: FCRK column misses the scipy Erlang chain by {fcrk_err:.2e}")
    else:
        erlang = summary["max_dev_erlang"]
        for variant in ("fixed", "smoothed"):
            ratio = erlang / summary[f"max_dev_{variant}"]
            figures[f"{name}_{variant}_ratio"] = ratio
            if not ratio >= DOMINANCE_FACTOR:
                failures.append(f"{name}: Erlang/{variant} deviation ratio {ratio:.2f} < {DOMINANCE_FACTOR}")


def _check_stability(command, stdout, failures, figures):
    spec = command.spec
    report = json.loads(stdout)
    name = command.name
    if not report["gamma_sign"] == report["hypoexp_sign"] != report["erlang_sign"]:
        failures.append(
            f"{name}: signs gamma {report['gamma_sign']}, hypoexp {report['hypoexp_sign']}, "
            f"erlang {report['erlang_sign']}"
        )
    j, tau = spec["j"], spec["tau"]
    for label, params in (
        ("hypoexp", approximations.fixed_hypoexp(j, tau)),
        ("erlang", approximations.erlang_approx(j, tau)),
    ):
        lam = complex(report[f"{label}_eig_real"], report[f"{label}_eig_imag"])
        resid = reference.char_residual(lam, spec["alpha"], spec["beta"], params.rates())
        figures[f"{name}_{label}_residual"] = resid
        if not resid <= CHAR_TOL:
            failures.append(f"{name}: {label} eigenvalue {lam} has residual {resid:.2e}")


def _check_survival_curve(command, text, failures, figures):
    spec = command.spec
    cols = _table(text)
    name = command.name
    j, tau = spec["j"], spec["tau"]
    times = np.linspace(0.0, spec["t_max"], spec["n_out"])
    if not np.allclose(cols["t"], times, rtol=0, atol=1e-12 * spec["t_max"]):
        failures.append(f"{name}: t column is not the expected grid")
    expected = {
        "gamma": reference.gamma_survival(j, tau, times),
        "fixed": reference.chain_survival_uniform(
            approximations.fixed_hypoexp(j, tau).rates(), spec["t_max"], spec["n_out"]
        ),
        "smoothed": reference.chain_survival_uniform(
            approximations.smoothed_hypoexp(j, tau).rates(), spec["t_max"], spec["n_out"]
        ),
    }
    for column, exact in expected.items():
        values = cols[column]
        err = float(np.max(np.abs(values - exact)))
        figures[f"{name}_{column}_err"] = err
        if not err <= SURVIVAL_TOL:
            failures.append(f"{name}: {column} column misses its reference by {err:.2e}")
        if values[0] != 1.0 or np.any(np.diff(values) > 0) or values.min() < 0 or values.max() > 1:
            failures.append(f"{name}: {column} column does not fall from 1 within [0, 1]")


def check(inputs, outputs):
    failures, figures = [], {}
    for command in inputs.commands:
        stdout, text = outputs[command.name]
        spec = command.spec
        if command.group == "compare":
            _check_compare(command, stdout, text, failures, figures)
        elif command.group == "stability":
            _check_stability(command, stdout, failures, figures)
        elif command.group == "convergence":
            slope = json.loads(stdout)["slope"]
            figures[command.name + "_slope"] = slope
            if not ORDER_RANGE[0] <= slope <= ORDER_RANGE[1]:
                failures.append(f"{command.name}: slope {slope:.3f} outside {ORDER_RANGE}")
        elif command.group == "survival" and "jump" in spec:
            report = json.loads(stdout)
            if not 0.0 <= report["jump_smoothed"] <= report["jump_fixed"]:
                failures.append(
                    f"{command.name}: jump smoothed {report['jump_smoothed']:.3e} "
                    f"> fixed {report['jump_fixed']:.3e}"
                )
        elif command.group == "survival":
            _check_survival_curve(command, text, failures, figures)
        else:
            report = json.loads(stdout)
            slopes = report["slopes"]
            for variant, target in MGF_SLOPES.items():
                figures[f"{command.name}_{variant}"] = slopes[variant]
                if not abs(slopes[variant] - target) <= MGF_TOL:
                    failures.append(f"{command.name}: {variant} slope {slopes[variant]:.3f} not {target} +- {MGF_TOL}")
    return failures, figures
