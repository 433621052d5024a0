"""Self-tests of the benchmark: its references, its checks and its runs.

    python3 -m pytest bench -q

The references must reproduce known closed forms, the checks must accept
what they should and reject what they should not, and every workload must
run at a reduced size with every check on, printing exactly the metrics
BENCHMARK.json names.  The traced run must repeat its counts exactly and
survive a layer function that has gone missing.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layer_trace  # noqa: E402
import reference  # noqa: E402
from gammadde import analysis, approximations  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_chain_reference_reproduces_closed_form():
    times = np.linspace(0.0, 10.0, 1001)
    chain = reference.erlang_chain_trajectory(
        lambda x, conv: 0.8 * x - 1.1 * conv, 1, 1.0, 1.0, 0.0, times
    )
    assert np.max(np.abs(chain - analysis.linear_test_reference(1, times))) < 1e-10


def _chain_matrix(alpha, beta, rates):
    """x' = alpha x + beta r_n B_n, B_1' = x - r_1 B_1, B_i' = r_(i-1) B_(i-1) - r_i B_i."""
    n = len(rates)
    m = np.zeros((n + 1, n + 1))
    m[0, 0], m[0, n] = alpha, beta * rates[-1]
    m[1, 0] = 1.0
    for i in range(n):
        m[i + 1, i + 1] = -rates[i]
        if i > 0:
            m[i + 1, i] = rates[i - 1]
    return m


@pytest.mark.parametrize("j", [2.5, 4.495])
def test_characteristic_check_accepts_eigenvalues(j):
    alpha, beta = 0.89, -1.15
    rates = approximations.fixed_hypoexp(j, 1.0).rates()
    for lam in np.linalg.eigvals(_chain_matrix(alpha, beta, rates)):
        assert reference.char_residual(lam, alpha, beta, rates) < 1e-9
        assert reference.char_residual(lam + 1e-6, alpha, beta, rates) > 1e-9


def test_eigen_root_solves_characteristic_equation():
    for tau, j, beta in ((4.65, 2.15, 0.5), (3.76, 3.70, 0.35)):
        a = j / tau
        lam = reference.eigen_root(tau, j, beta)
        assert abs(lam + a - beta * a**j / (a + lam) ** j) < 1e-14


def test_chain_survival_reference_against_closed_forms():
    from scipy.special import gammaincc

    times = np.linspace(0.0, 6.0, 601)
    single = reference.chain_survival_uniform((1.7,), 6.0, 601)
    assert np.max(np.abs(single - np.exp(-1.7 * times))) < 1e-13
    erlang = reference.chain_survival_uniform((3.0,) * 4, 6.0, 601)
    assert np.max(np.abs(erlang - gammaincc(4, 3.0 * times))) < 1e-13


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "small"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_small_with_every_check(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())

    first, second = _run(workload, 1), _run(workload, 1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, entry in first["metrics"].items():
        if entry["unit"] == "count":
            assert entry["value"] == second["metrics"][name]["value"], name


def test_trace_marks_metrics_of_a_missing_hook_absent(monkeypatch):
    import gammadde.fcrk

    monkeypatch.delattr(gammadde.fcrk, "convolution_integral")
    tracer = layer_trace.install(layer_trace.Tracer())
    try:
        assert not hasattr(gammadde.fcrk, "convolution_integral")
    finally:
        tracer.uninstall()
    present, absent = layer_trace.layer_metrics(tracer)
    assert {"quadrature.calls", "quadrature.nodes", "fcrk.accessor_s", "fcrk.stages"} <= set(absent)
    assert "fcrk.solves" in present and "ode_solver.rhs_calls" in present
    assert not set(present) & set(absent)
