"""Spans and counters recorded around calls into the program's layers.

The tracer replaces a layer's public function at the place its caller
looks it up (a module attribute such as ``gammadde.fcrk.convolution_integral``
or a class attribute such as ``gammadde.fcrk.Solution.query``) with a
wrapper that records a span: name, start, end and parent.  Hot callables
handed to a layer (an rhs, the quadrature's solution accessor) are wrapped
as *leaves*: their calls and time are added to the enclosing span instead
of becoming spans of their own, which keeps a traced run's memory bounded.

A layer's self time is the time its spans cover minus the time covered by
their child spans and leaves.  Spans live in memory and are written out
once, when the run ends.

Nothing in the program is changed.  A hook whose target no longer exists
(a function renamed or removed) is skipped, and every metric that reads
its spans is reported absent instead of failing the run.
"""

import importlib
import inspect
import json
from collections import Counter
from dataclasses import replace
from time import perf_counter

import numpy as np


BOOKKEEPING = "trace.bookkeeping"


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "leaves")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.leaves = None  # {leaf name: seconds}, filled lazily

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        leaf = sum(self.leaves.values()) if self.leaves else 0.0
        return self.duration - self.child_s - leaf

    def layer(self):
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.leaf_s = Counter()
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self.missing = set()  # span names with at least one hook site gone

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, prepare=None, finish=None):
        """A callable recording one span per call of ``fn``.

        ``prepare(args, kwargs)`` may return substitute arguments (used to
        wrap an rhs or accessor); ``finish(result, args, kwargs)`` may read
        counts off the result.
        """
        stack = self._stack
        spans = self.spans
        book = self._book

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if prepare is not None:
                start = perf_counter()
                args, kwargs = prepare(args, kwargs)
                book(parent, start)
            span = Span(name, parent)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                spans.append(span)
                if parent is not None:
                    parent.child_s += span.duration
            if finish is not None:
                start = perf_counter()
                finish(result, args, kwargs)
                book(parent, start)
            return result

        return traced

    def leaf(self, name, fn, timed=True, on_call=None):
        """A callable whose calls are counted and, if ``timed``, timed into
        the enclosing span."""
        stack = self._stack
        counts = self.counts
        calls_key = name + ".calls"
        if not timed:

            def counted(*args):
                counts[calls_key] += 1
                return fn(*args)

            return counted

        def leaf_call(*args):
            counts[calls_key] += 1
            if on_call is not None:
                start = perf_counter()
                on_call(*args)
                self._book(stack[-1] if stack else None, start)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - start
                self.leaf_s[name] += elapsed
                if stack:
                    span = stack[-1]
                    if span.leaves is None:
                        span.leaves = {}
                    span.leaves[name] = span.leaves.get(name, 0.0) + elapsed

        return leaf_call

    @staticmethod
    def _book(span, start):
        """Charge the tracer's own counting since ``start`` to a leaf of
        ``span``, so it is not counted as the layer's self time."""
        if span is not None:
            if span.leaves is None:
                span.leaves = {}
            span.leaves[BOOKKEEPING] = span.leaves.get(BOOKKEEPING, 0.0) + perf_counter() - start

    # -- installation ----------------------------------------------------

    def patch(self, module_name, attr_path, name, **hooks):
        """Wrap ``module.attr_path`` in place; record it missing if absent."""
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = attr_path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.add(name)
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading ---------------------------------------------------------

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def outer_total(self, prefix):
        """Summed duration of spans named ``prefix*`` with no ancestor
        that also matches, so nested calls are not counted twice."""
        total = 0.0
        for span in self.spans:
            if not span.name.startswith(prefix):
                continue
            parent = span.parent
            while parent is not None and not parent.name.startswith(prefix):
                parent = parent.parent
            if parent is None:
                total += span.duration
        return total

    def self_total(self, layer):
        return sum(s.self_s for s in self.spans if s.layer() == layer)

    def dump(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        records = [
            {
                "name": s.name,
                "parent": index.get(id(s.parent)) if s.parent is not None else None,
                "start": s.start,
                "end": s.end,
                **({"leaves": s.leaves} if s.leaves else {}),
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {"spans": records, "counts": dict(self.counts), "missing": sorted(self.missing)},
                fh,
            )


# ---------------------------------------------------------------------------
# The hooks: where each layer's public functions are looked up by their
# callers in the three workloads.

FCRK_SOLVE = "fcrk.fcrk4_solve"
CONVOLUTION = "quadrature.convolution_integral"
QUERY = "fcrk.query"
ODE_SOLVE = "ode_solver.rk45_adaptive"
CHAIN_BUILD = "chain_reduction.build"
GAMMA_SURV = "distributions.gamma_survival"
HYPO_SURV = "distributions.hypoexp_survival"
LOGLIK = "epi.log_likelihood"
SIM_INC = "epi.simulate_incidence"
SERIAL = "epi.serial_density"
CLI_MAIN = "cli.main"


def install(tracer):
    """Patch every hook site; returns the tracer for chaining."""
    t = tracer

    def fcrk_prepare(args, kwargs):
        problem, *rest = args
        try:
            problem = replace(problem, rhs=t.leaf("fcrk.rhs", problem.rhs, timed=False))
        except (TypeError, AttributeError):
            t.missing.add("fcrk.rhs")
        return (problem, *rest), kwargs

    def fcrk_finish(solution, args, kwargs):
        try:
            t.counts["fcrk.steps"] += solution.n_steps
        except AttributeError:
            t.missing.add("fcrk.steps")

    for module in ("gammadde.fcrk", "gammadde.cli"):
        t.patch(module, "fcrk4_solve", FCRK_SOLVE, prepare=fcrk_prepare, finish=fcrk_finish)

    conv_signature = _signature("gammadde.fcrk", "convolution_integral")

    def conv_prepare(args, kwargs):
        bound = conv_signature.bind(*args, **kwargs)
        t0 = bound.arguments["t0"]
        stack = t._stack
        if stack and stack[-1].name == FCRK_SOLVE:
            t.counts["fcrk.stages"] += 1

        def count_nodes(times):
            times = np.asarray(times)
            t.counts["quadrature.nodes"] += times.size
            t.counts["quadrature.history_nodes"] += int(np.count_nonzero(times <= t0))

        bound.arguments["accessor"] = t.leaf(
            "fcrk.accessor", bound.arguments["accessor"], on_call=count_nodes
        )
        return bound.args, bound.kwargs

    if conv_signature is not None and {"accessor", "t0"} <= set(conv_signature.parameters):
        t.patch("gammadde.fcrk", "convolution_integral", CONVOLUTION, prepare=conv_prepare)
    else:
        t.missing.add(CONVOLUTION)
    t.patch("gammadde.fcrk", "Solution.query", QUERY)
    t.patch("gammadde.fcrk", "Solution.__call__", QUERY)

    def ode_prepare(args, kwargs):
        rhs, *rest = args
        return (t.leaf("ode_solver.rhs", rhs), *rest), kwargs

    for module in ("gammadde.epi", "gammadde.cli", "gammadde.analysis"):
        t.patch(module, "rk45_adaptive", ODE_SOLVE, prepare=ode_prepare)

    for module, attr in (
        ("gammadde.cli", "build_erlang_system"),
        ("gammadde.cli", "build_hypoexp_system"),
        ("gammadde.analysis", "build_erlang_system"),
    ):
        t.patch(module, attr, CHAIN_BUILD)

    def points(key):
        def count(args, kwargs):
            t.counts[key] += int(np.size(args[1]))
            return args, kwargs

        return count

    for module in ("gammadde.epi", "gammadde.cli", "gammadde.analysis"):
        t.patch(module, "gamma_survival", GAMMA_SURV, prepare=points(GAMMA_SURV + ".points"))
    for module in ("gammadde.cli", "gammadde.analysis"):
        t.patch(module, "hypoexp_survival", HYPO_SURV, prepare=points(HYPO_SURV + ".points"))

    t.patch("gammadde.epi", "log_likelihood", LOGLIK)
    t.patch("gammadde.epi", "simulate_incidence", SIM_INC)
    t.patch("gammadde.epi", "serial_density", SERIAL)
    t.patch("gammadde.cli", "main", CLI_MAIN)

    # Every public function of the analysis module, looked up through the
    # module by the CLI and by analysis itself.
    try:
        analysis = importlib.import_module("gammadde.analysis")
    except ImportError:
        t.missing.add("analysis")
    else:
        for attr, fn in sorted(vars(analysis).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(fn)
                and fn.__module__ == analysis.__name__
            ):
                t.patch("gammadde.analysis", attr, "analysis." + attr)
    return t


def _signature(module_name, attr):
    try:
        return inspect.signature(getattr(importlib.import_module(module_name), attr))
    except (ImportError, AttributeError):
        return None


# ---------------------------------------------------------------------------
# Per-layer metrics: (name, unit, span names it reads, how to compute it).

def _count(key):
    return lambda t: t.counts[key]


def _spans(name):
    return lambda t: len(t.named(name))


def _total(prefix):
    return lambda t: t.outer_total(prefix)


def _self(layer):
    return lambda t: t.self_total(layer)


def _leaf(name):
    return lambda t: t.leaf_s[name]


LAYER_METRICS = (
    ("quadrature.calls", "count", (CONVOLUTION,), _spans(CONVOLUTION)),
    ("quadrature.nodes", "count", (CONVOLUTION,), _count("quadrature.nodes")),
    ("quadrature.history_nodes", "count", (CONVOLUTION,), _count("quadrature.history_nodes")),
    ("quadrature.self_s", "s", (CONVOLUTION,), _self("quadrature")),
    ("fcrk.solves", "count", (FCRK_SOLVE,), _spans(FCRK_SOLVE)),
    ("fcrk.steps", "count", (FCRK_SOLVE, "fcrk.steps"), _count("fcrk.steps")),
    ("fcrk.stages", "count", (FCRK_SOLVE, CONVOLUTION), _count("fcrk.stages")),
    ("fcrk.rhs_calls", "count", (FCRK_SOLVE, "fcrk.rhs"), _count("fcrk.rhs.calls")),
    ("fcrk.solve_s", "s", (FCRK_SOLVE,), _total(FCRK_SOLVE)),
    ("fcrk.accessor_s", "s", (CONVOLUTION,), _leaf("fcrk.accessor")),
    ("fcrk.query_s", "s", (QUERY,), _total(QUERY)),
    ("fcrk.self_s", "s", (FCRK_SOLVE, CONVOLUTION, QUERY), _self("fcrk")),
    ("ode_solver.solves", "count", (ODE_SOLVE,), _spans(ODE_SOLVE)),
    ("ode_solver.rhs_calls", "count", (ODE_SOLVE,), _count("ode_solver.rhs.calls")),
    ("ode_solver.solve_s", "s", (ODE_SOLVE,), _total(ODE_SOLVE)),
    ("ode_solver.rhs_s", "s", (ODE_SOLVE,), _leaf("ode_solver.rhs")),
    ("ode_solver.self_s", "s", (ODE_SOLVE,), _self("ode_solver")),
    ("chain_reduction.build_s", "s", (CHAIN_BUILD,), _total(CHAIN_BUILD)),
    ("distributions.gamma_survival.points", "count", (GAMMA_SURV,), _count(GAMMA_SURV + ".points")),
    ("distributions.gamma_survival.s", "s", (GAMMA_SURV,), _total(GAMMA_SURV)),
    ("distributions.hypoexp_survival.points", "count", (HYPO_SURV,), _count(HYPO_SURV + ".points")),
    ("distributions.hypoexp_survival.s", "s", (HYPO_SURV,), _total(HYPO_SURV)),
    ("epi.log_likelihood.calls", "count", (LOGLIK,), _spans(LOGLIK)),
    ("epi.simulate_incidence.s", "s", (SIM_INC,), _total(SIM_INC)),
    ("epi.serial_density.s", "s", (SERIAL,), _total(SERIAL)),
    ("epi.self_s", "s", (LOGLIK, SIM_INC, SERIAL), _self("epi")),
    ("analysis.s", "s", ("analysis",), _total("analysis.")),
    ("cli.commands", "count", (CLI_MAIN,), _spans(CLI_MAIN)),
    ("cli.self_s", "s", (CLI_MAIN,), _self("cli")),
)


def layer_metrics(tracer):
    """({name: {"value", "unit"}} for present metrics, [absent names])."""
    present, absent = {}, []
    for name, unit, needs, compute in LAYER_METRICS:
        if any(n in tracer.missing for n in needs):
            absent.append(name)
        else:
            value = compute(tracer)
            present[name] = {"value": float(value) if unit == "s" else int(value), "unit": unit}
    return present, absent
