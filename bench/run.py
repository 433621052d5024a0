"""Benchmark of gammadde: three workloads, checked outputs, a traced run.

    python3 bench/run.py --workload fcrk_solve --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in one process with BLAS limited to one thread.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  Workload figures that are not gated go to
stderr.  See bench/README.md.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# Before numpy loads: one BLAS thread, so a process never uses more
# threads than the machine's cores and timings do not depend on them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("fcrk_solve", "epi_loglik", "paper_cli")
SETUP_SAMPLES = 5
# Every operation is timed in at least this many passes and counted at
# its fastest: contention from other processes only ever adds time, and
# passes lie far enough apart that a burst rarely hits all of them.
MIN_PASSES = 3
SUBPROCESS_TIMEOUT = 170


def _import_program():
    """Put the checkout's src/ first and make sure that is what loads."""
    sys.path[:0] = [str(BENCH), str(SRC)]
    import gammadde

    if Path(gammadde.__file__).resolve().parent != SRC / "gammadde":
        raise ImportError(f"gammadde loaded from {gammadde.__file__}, not from {SRC}")


def _build(name, seed, small, workdir):
    """Import the program and the workload, and build its inputs."""
    _import_program()
    module = importlib.import_module(name)
    if name == "paper_cli":
        return module, module.build(seed, small, workdir)
    return module, module.build(seed, small)


def _setup_probe(args):
    """One set-up, timed in a fresh interpreter: prints its seconds."""
    OUT.mkdir(exist_ok=True)
    start = perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        _build(args.workload, args.seed, args.size == "small", workdir)
    print(repr(perf_counter() - start))


def _setup_seconds(args):
    """Median over fresh interpreters of importing gammadde and building the
    workload's inputs through the program."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _timed_pass(ops):
    """Run every operation once: (wall seconds, outputs, seconds per op,
    names of failed ops)."""
    outputs, seconds, failed = {}, {}, []
    start = perf_counter()
    for name, _group, fn in ops:
        t = perf_counter()
        try:
            outputs[name] = fn()
        except Exception as exc:  # an operation's failure is counted, not fatal
            failed.append(name)
            outputs[name] = None
            print(f"operation {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        seconds[name] = perf_counter() - t
    return perf_counter() - start, outputs, seconds, failed


def _identical(a, b):
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_identical(x, y) for x, y in zip(a, b))
    if hasattr(a, "shape") or hasattr(b, "shape"):
        import numpy as np

        return np.array_equal(a, b)
    return a == b


def run_workload(args):
    OUT.mkdir(exist_ok=True)
    small = args.size == "small"
    setup_s = None if args.trace else _setup_seconds(args)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        module, inputs = _build(args.workload, args.seed, small, workdir)
        ops = module.operations(inputs)
        module.warmup(inputs)

        passes = []
        start = perf_counter()
        while True:
            passes.append(_timed_pass(ops))
            if args.trace or (
                len(passes) >= MIN_PASSES and perf_counter() - start >= args.seconds
            ):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        tracer = None
        if args.trace:
            import layer_trace

            tracer = layer_trace.install(layer_trace.Tracer())
            try:
                passes.append(_timed_pass(ops))
            finally:
                tracer.uninstall()

        untraced = passes[:-1] if args.trace else passes
        fastest = {name: min(p[2][name] for p in untraced) for name, _, _ in ops}
        failures = []
        _, first, _, first_failed = passes[0]
        for _, outputs, _, _ in passes[1:]:
            for name, value in outputs.items():
                if name not in first_failed and not _identical(value, first[name]):
                    failures.append(f"{name}: output differs between passes")
        if not first_failed:
            check_failures, figures = module.check(inputs, first)
            failures += check_failures
            print("check figures: " + json.dumps(figures), file=sys.stderr)
            details = module.details(inputs, first, fastest)
            print("workload figures: " + json.dumps(details), file=sys.stderr)
        else:
            failures.append("outputs not checked: operations failed in the first pass")
    for message in failures:
        print("CHECK FAILED: " + message, file=sys.stderr)

    attempted = len(ops) * len(passes)
    failed = sum(len(p[3]) for p in passes)
    if args.trace:
        metrics, absent = layer_trace.layer_metrics(tracer)
        metrics["trace.overhead_s"] = {
            "value": passes[-1][0] - passes[0][0],
            "unit": "s",
        }
        if absent:
            print("absent per-layer metrics: " + ", ".join(absent), file=sys.stderr)
        path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        tracer.dump(path)
        print(f"spans written to {path}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(fastest.values()), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args):
    """Each workload in its own process, one after another, with a summary."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        figures = [
            line.split(": ", 1)[1]
            for line in proc.stderr.splitlines()
            if line.startswith("workload figures: ")
        ]
        result = results[name]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        for line in figures:
            for metric, value in json.loads(line).items():
                print(f"  ({metric} = {value:.6g})")
    print(json.dumps(results))
    ok = all(r["correct"] and not r["failed"] for r in results.values())
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: reduced inputs with every check, for the self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
