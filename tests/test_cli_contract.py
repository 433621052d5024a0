"""The CLI's contract on generated command lines: exit code 0, 2 or 3, no
traceback and no warning, whatever edge values the flags take.

Commands and their flags come from the CLI's own command table and flag
declarations.  Every command that takes ``--t-end`` gets one of at most 1,
and ``epi fit`` at most two likelihood evaluations, so each example runs
in a fraction of a second.
"""

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammadde import approximations, cli

EDGE_FLOATS = ("0", "-1", "nan", "inf", "1e-300", "1e300")
EDGE_COUNTS = ("0", "-1", "1000000000000")
# Flags whose values are drawn from their own sets.
VALUES = {
    "--t-end": ("0", "-1", "nan", "1e-300", "1"),
    "--max-evals": ("0", "-1", "1", "2"),
    "--history": ("const:nan", "exp:1:1e300", "exp:1e-300:-1", "eigen"),
    "--h-list": ("0,-1,nan", "1e-300,1e-300,1e-300", "1e300,1,0.5"),
    "--variant": approximations.VARIANTS + ("junk",),
}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    (path / "cases.csv").write_text("t,count\n1,3\n2,4\n")
    (path / "serial.csv").write_text("interval\n2.5\n")
    return path


def _values(flag):
    if flag in VALUES:
        return VALUES[flag]
    spec = cli._FLAGS[flag]
    if "choices" in spec:
        return tuple(spec["choices"])
    return EDGE_COUNTS if spec.get("type") is int else EDGE_FLOATS


@st.composite
def command_lines(draw):
    """(command words, {flag: value}, whether to pass --out); the file
    flags are set by the test."""
    words, _, _, flags, required, _ = draw(st.sampled_from(cli._COMMANDS))
    drawn = [f for f in flags if f not in ("--cases", "--serial", "--out")]
    chosen = set(draw(st.lists(st.sampled_from(drawn), unique=True, max_size=3)))
    chosen |= {f for f in flags if f in required or cli._FLAGS[f].get("required")}
    chosen |= {"--t-end"} & set(flags)
    values = {flag: draw(st.sampled_from(_values(flag))) for flag in sorted(chosen)}
    return words, values, draw(st.booleans()) and "--out" in flags


@settings(max_examples=60, derandomize=True, deadline=None)
@given(line=command_lines())
def test_cli_contract_on_edge_values(line, data_dir):
    words, values, out = line
    argv = list(words) + [f"{flag}={value}" for flag, value in values.items()]
    if words[0] == "epi":
        # simulate writes its files; loglik and fit read the prepared ones.
        prefix = "sim_" if words[1] == "simulate" else ""
        argv += ["--cases", str(data_dir / f"{prefix}cases.csv")]
        argv += ["--serial", str(data_dir / f"{prefix}serial.csv")]
    if out:
        argv += ["--out", str(data_dir / "out")]
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses a value
                code = exc.code
    assert code in (0, 2, 3), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue(), argv
    assert [str(w.message) for w in caught] == [], argv
