"""Every public top-level function or class of the package has a caller
outside the tests: in the package itself or the benchmark.  Every private
one has a caller in the package itself.

A name counts as used where Python code refers to it (a name, an attribute,
an import, or a string naming it, as the benchmark's hooks do), apart from
inside its own definition.  A mention in the README's prose is not a call.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gammadde"


def _referenced(tree):
    """Names a syntax tree refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _uncalled_in_package(private):
    """Top-level functions and classes of the package, public or private,
    that no other top-level statement of the package refers to."""
    # Each top-level statement of the package with the names it refers to,
    # so a definition's references to itself can be left out.
    statements = []
    for path in sorted(SRC.glob("*.py")):
        statements += [(path, node, _referenced(node)) for node in ast.parse(path.read_text()).body]
    return [
        (path.name, node.name)
        for path, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]


def test_every_public_name_has_a_caller_outside_the_tests():
    bench = sorted((ROOT / "bench").glob("*.py"))
    outside = set().union(*(_referenced(ast.parse(path.read_text())) for path in bench))
    test_only = [
        f"{module}: {name}" for module, name in _uncalled_in_package(False) if name not in outside
    ]
    assert not test_only, f"public names without a caller outside tests/: {test_only}"


def test_every_private_name_has_a_caller_in_the_package():
    test_only = [f"{module}: {name}" for module, name in _uncalled_in_package(True)]
    assert not test_only, f"private names without a caller in the package: {test_only}"


def test_exports_are_the_names_the_package_imports():
    # __all__ lists each public name that __init__ imports, once, and every
    # name it lists resolves: dropping a name from one but not the other fails.
    import gammadde

    imported = {
        alias.asname or alias.name
        for node in ast.parse((SRC / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert all(hasattr(gammadde, name) for name in gammadde.__all__)
    assert len(set(gammadde.__all__)) == len(gammadde.__all__)
    assert set(gammadde.__all__) == {name for name in imported if not name.startswith("_")}


def test_benchmark_trace_finds_every_hook(monkeypatch):
    # bench/layer_trace.py finds the functions it times by name and reports
    # a metric absent when a name is gone; a refactor must not blank one.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layer_trace

    tracer = layer_trace.install(layer_trace.Tracer())
    try:
        assert not tracer.missing
        present, absent = layer_trace.layer_metrics(tracer)
    finally:
        tracer.uninstall()
    assert not absent
    assert len(present) == len(layer_trace.LAYER_METRICS)
