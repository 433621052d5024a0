"""The README's CLI examples and a record of what each one writes.

    PYTHONPATH=src python tests/readme_outputs.py

runs every ``gamma-dde`` command of README.md's code blocks in README order,
in-process through ``cli.main`` and in one scratch directory (the ``epi
fit`` examples read the tables that ``epi simulate`` writes), and writes
``tests/readme_outputs.json``.  Per example the record holds the argv, the
exit code, the sha256 of stdout and of each file the example wrote, and
per column of each CSV output its max |x| and sum (each number of a JSON
output counts as a column of one row), so a mismatch can report its size.
``test_cli::test_readme_examples_match_the_record`` compares a fresh run
with the record; a change that moves the numbers regenerates it with this
script.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

from gammadde.cli import main

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "readme_outputs.json"


def readme_commands():
    """The argv of every ``gamma-dde`` command in README.md's code blocks,
    in order; the usage line <...> is not a command."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("gamma-dde ") and "<" not in line:
                commands.append(shlex.split(line)[1:])
    return commands


def _columns(text):
    """Per column of a CSV table, its max |x| and its sum; each number of a
    JSON object counts as a column of one row.  None for any other text."""
    lines = text.splitlines()
    try:
        header = lines[0].split(",")
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except (ValueError, IndexError):
        try:
            obj = json.loads(text)
        except ValueError:
            return None
        return {
            key: {"max_abs": abs(float(v)), "sum": float(v)}
            for key, v in obj.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
    if not rows or any(len(row) != len(header) for row in rows):
        return None
    return {
        name: {"max_abs": max(map(abs, col)), "sum": math.fsum(col)}
        for name, col in zip(header, zip(*rows))
    }


def _summary(data):
    """The sha256 of some output and, for a CSV table or JSON, its column
    figures."""
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    columns = _columns(data.decode())
    if columns is not None:
        entry["columns"] = columns
    return entry


def _files(workdir):
    return {p.name: p.read_bytes() for p in sorted(Path(workdir).iterdir()) if p.is_file()}


def run_examples(workdir):
    """One record entry per README example, each run in ``workdir``."""
    record = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in readme_commands():
            before = _files(workdir)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            written = {
                name: _summary(data)
                for name, data in _files(workdir).items()
                if before.get(name) != data
            }
            record.append(
                {"argv": argv, "exit": code, "stdout": _summary(stdout.getvalue().encode()),
                 "files": written}
            )
    finally:
        os.chdir(cwd)
    return record


def _gap(old, new):
    """How far a column figure moved, relative to the recorded one."""
    return abs(new - old) / max(abs(old), 1e-300)


def mismatches(recorded, fresh):
    """Lines naming each example whose outputs differ from the record, with
    the size of each difference where the output is a CSV table or JSON."""
    lines = []
    if [e["argv"] for e in recorded] != [e["argv"] for e in fresh]:
        return ["the README examples are not the recorded ones: regenerate the record"]
    for old, new in zip(recorded, fresh):
        name = " ".join(old["argv"])
        if old["exit"] != new["exit"]:
            lines.append(f"{name}: exit {new['exit']}, recorded {old['exit']}")
        if set(old["files"]) != set(new["files"]):
            lines.append(f"{name}: wrote {sorted(new['files'])}, recorded {sorted(old['files'])}")
        both = [f for f in old["files"] if f in new["files"]]
        outputs = [("stdout", old["stdout"], new["stdout"])]
        outputs += [(f, old["files"][f], new["files"][f]) for f in both]
        for label, was, now in outputs:
            if was["sha256"] == now["sha256"]:
                continue
            sizes = []
            for col, fig in was.get("columns", {}).items():
                if col in now.get("columns", {}):
                    peak = _gap(fig["max_abs"], now["columns"][col]["max_abs"])
                    total = _gap(fig["sum"], now["columns"][col]["sum"])
                    if peak or total:
                        sizes.append(f"{col} max|x| moved {peak:.3g}, sum {total:.3g}")
            lines.append(f"{name}: {label} differs" + (f" ({'; '.join(sizes)})" if sizes else ""))
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        entries = run_examples(workdir)
    RECORD.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} examples to {RECORD}", file=sys.stderr)
