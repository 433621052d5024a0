import json
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from gammadde import cli
from gammadde.cli import build_parser, main
from gammadde.distributions import Rng
from gammadde.epi import SirParams, simulate_dataset


CASES = "t,count\n1,3\n2,4\n"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_data(path):
    """Two case counts and one serial interval, as cases.csv and serial.csv."""
    (path / "cases.csv").write_text(CASES)
    (path / "serial.csv").write_text("interval\n2.5\n")


def test_solve_row_count(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        capsys, "solve", "--problem", "linear", "--j", "1", "--h", "0.05",
        "--t-end", "10", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x"
    assert len(lines) == 202  # header + 201 samples
    # 17 significant digits: every printed float round-trips exactly.
    for line in lines[1:]:
        for tok in line.split(","):
            assert format(float(tok), ".17g") == tok


def test_solve_chain_header(tmp_path, capsys):
    out = tmp_path / "chain.csv"
    code, _, _ = run_cli(
        capsys, "solve", "--problem", "linear", "--j", "2.57", "--method", "chain",
        "--variant", "fixed", "--h", "0.5", "--t-end", "5", "--out", str(out),
    )
    assert code == 0
    header = out.read_text().split("\n", 1)[0]
    assert header == "t,x,B1,B2,B3"


def test_solve_methods_share_a_grid_that_overshoots_t_end(capsys):
    # With --h not dividing --t-end the last output time lies past --t-end;
    # the chain integrates up to it as FCRK does.
    columns = {}
    for method in ("fcrk4", "chain"):
        code, out, err = run_cli(
            capsys, "solve", "--j", "2", "--method", method, "--t-end", "1", "--h", "0.6",
        )
        assert code == 0, err
        columns[method] = [row.split(",")[0] for row in out.strip().split("\n")]
    assert columns["chain"] == columns["fcrk4"]
    assert [float(t) for t in columns["chain"][1:]] == [0.0, 0.6, 1.2]


def test_solve_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["solve", "--problem", "linear", "--j", "1", "--h", "0.1", "--t-end", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_convergence_real_small(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code, stdout, _ = run_cli(
        capsys, "convergence", "--problem", "linear", "--j", "1",
        "--h-list", "0.2,0.1,0.05", "--xi", "0.000244140625", "--out", str(out),
    )
    assert code == 0
    slope = json.loads(stdout)["slope"]
    assert 3.5 <= slope <= 4.5


def test_convergence_reference_follows_the_history(tmp_path, capsys):
    # At integer j the reference is the exact Erlang chain started from the
    # problem's own history, not from the default one.
    code, stdout, _ = run_cli(
        capsys, "convergence", "--problem", "linear", "--j", "2", "--history", "exp:1:0.5",
        "--t-end", "5", "--h-list", "0.2,0.1,0.05", "--xi", "1.52587890625e-05",
        "--out", str(tmp_path / "conv.csv"),
    )
    assert code == 0
    assert 3.7 <= json.loads(stdout)["slope"] <= 4.3


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--j", "2.5", "--n-out", "1"],
        ["compare", "--j", "2.5", "--n-out", "0"],
        ["survival", "--j", "2.5", "--n-out", "1"],
    ],
)
def test_n_out_checked_before_solving(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("solved before validating --n-out")

    monkeypatch.setattr("gammadde.cli.fcrk4_solve", refuse)
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: --n-out") and err.count("\n") == 1


_BAD_H_LISTS = [
    "0.01", "0.1,0.05", "0.1,-0.05,0.025", "0.1,0,0.025", "0.1,nan,0.025", "inf,0.1,0.05",
    # Repeated steps: fewer than three distinct ones leave no line to fit,
    # and a repeat weighs its step twice in the fit.
    "0.1,0.1,0.1", "0.1,0.05,0.05", "0.1,0.05,0.025,0.1",
]


@pytest.mark.parametrize("h_list", _BAD_H_LISTS)
def test_h_list_checked_before_solving(h_list, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("built the reference or solved before validating --h-list")

    monkeypatch.setattr("gammadde.cli.fcrk4_solve", refuse)
    monkeypatch.setattr("gammadde.analysis.dde_problem", refuse)
    code, stdout, err = run_cli(capsys, "convergence", "--j", "1", "--h-list", h_list)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: --h-list") and err.count("\n") == 1


def test_compare_integer_shape_agrees(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    code, stdout, _ = run_cli(
        capsys, "compare", "--problem", "linear", "--j", "3", "--h", "0.05",
        "--t-end", "6", "--out", str(out),
    )
    assert code == 0
    summary = json.loads(stdout)
    # All chains are exact at integer shape; deviations are solver error.
    for key in ("max_dev_fixed", "max_dev_smoothed", "max_dev_erlang"):
        assert summary[key] < 1e-4
    assert out.read_text().splitlines()[0] == "t,gamma_dde,fixed,smoothed,erlang"


def test_mgf_order_integer(capsys):
    code, stdout, _ = run_cli(capsys, "mgf-order", "--j", "3")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["identically_zero"] is True
    assert max(payload["max_abs_error"].values()) < 1e-14


def test_survival_jump(capsys):
    code, stdout, _ = run_cli(
        capsys, "survival", "--jump-at", "3", "--tau", "1", "--t", "4"
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["jump_smoothed"] <= payload["jump_fixed"]


def test_moment_poly(capsys):
    code, stdout, _ = run_cli(capsys, "moment-poly", "--m", "5", "--fj", "0.37")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["real_roots"] in (1, 2)
    assert payload["gm_checks"]["all_passed"] is True


def test_stability_signs(capsys):
    code, stdout, _ = run_cli(
        capsys, "stability", "--j", "2.5", "--tau", "1",
        "--alpha", "0.89", "--beta", "-1.15", "--t-end", "60", "--xi", "0.000244140625",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["gamma_sign"] == payload["hypoexp_sign"]
    assert payload["gamma_sign"] != payload["erlang_sign"]


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j": 1.0, "h": 0.1, "t_end": 2.0}))
    out = tmp_path / "t.csv"
    code, _, _ = run_cli(
        capsys, "--config", str(cfg), "solve", "--problem", "linear", "--out", str(out)
    )
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 22  # header + 21

    # Flags override the file.
    out2 = tmp_path / "t2.csv"
    code, _, _ = run_cli(
        capsys, "--config", str(cfg), "solve", "--problem", "linear",
        "--t-end", "1.0", "--out", str(out2),
    )
    assert code == 0
    assert len(out2.read_text().strip().split("\n")) == 12


@pytest.mark.parametrize(
    "config, argv",
    [
        # A value of the wrong type for its flag.
        ({"h": "0.1"}, ["solve", "--j", "1"]),
        ({"n_out": "5"}, ["survival", "--j", "2.5"]),
        ({"j": "abc"}, ["solve"]),
        ({"history": 5}, ["solve", "--j", "1"]),
        # A flag the command does not take, no flag at all, and a value of
        # no flag's type.
        ({"rtol": 1e-3}, ["stability", "--j", "2.5", "--alpha", "0.9", "--beta", "-1.1"]),
        ({"func": 1}, ["solve", "--j", "1"]),
        ({"j": [1.0]}, ["solve"]),
        ({"n_out": 5.5}, ["compare", "--j", "2.5"]),
    ],
)
def test_bad_config_file_is_a_usage_error(config, argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg)] + argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err and "error:" in captured.err
    assert not out.exists()


def test_config_file_reaches_epi_actions(tmp_path, capsys):
    data = ["--cases", str(tmp_path / "c.csv"), "--serial", str(tmp_path / "s.csv")]
    assert main(["epi", "simulate", "--K", "30", "--L", "5"] + data) == 0
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j": 3.5, "tau": 4}))
    _, flags, _ = run_cli(capsys, "epi", "loglik", "--j", "3.5", "--tau", "4", *data)
    _, merged, _ = run_cli(capsys, "--config", str(cfg), "epi", "loglik", *data)
    assert merged == flags


@pytest.mark.parametrize(
    "argv",
    [
        # stability always solves linear_gamma from history 1, with no chain.
        ["stability", "--j", "2.5", "--alpha", "0.89", "--beta", "-1.15", "--problem", "nonlinear"],
        ["stability", "--j", "2.5", "--alpha", "0.89", "--beta", "-1.15", "--history", "exp:5:0.3"],
        ["stability", "--j", "2.5", "--alpha", "0.89", "--beta", "-1.15", "--rtol", "1e-3"],
        # convergence takes its steps from --h-list and solves no chain.
        ["convergence", "--j", "1", "--h", "0.3"],
        ["convergence", "--j", "1", "--rtol", "1e-3"],
        ["convergence", "--h-list", "0.1,0.05", "--inject-errors", "1,2,3"],
        # Each epi action takes only its own flags.
        ["epi", "loglik", "--cases", "{tmp}/c.csv", "--out", "{tmp}/o.json"],
        ["epi", "fit", "--cases", "{tmp}/c.csv", "--seed", "3"],
        ["epi", "simulate", "--cases", "{tmp}/c.csv", "--serial", "{tmp}/s.csv",
         "--max-evals", "3"],
    ],
)
def test_flag_the_command_does_not_read_is_rejected(argv, tmp_path, capsys):
    argv = [tok.format(tmp=tmp_path) for tok in argv]
    if "--out" not in argv and argv[0] != "epi":
        argv += ["--out", str(tmp_path / "o.csv")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not any(tmp_path.iterdir())


def test_readme_commands_parse():
    # Every gamma-dde command in README.md's code blocks names only flags
    # its command takes; the usage line <...> is not a command.
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("gamma-dde ") and "<" not in line:
                commands.append(shlex.split(line)[1:])
    assert len(commands) >= 17
    for argv in commands:
        build_parser().parse_args(argv)


def test_exit_code_config_error(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--problem", "linear", "--j", "1", "--history", "junk:1"
    )
    assert code == 2
    assert "history" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["survival"],
        ["stability", "--alpha", "0.9", "--beta", "-1.1"],
        ["solve", "--j", "2.5", "--h", "0"],
        ["survival", "--j", "2.5", "--tau", "0"],
        ["epi", "loglik", "--cases", "{tmp}/missing.csv"],
        # An empty output grid is a usage error, not a numerical failure.
        ["epi", "simulate", "--K", "0", "--cases", "{tmp}/c.csv", "--serial", "{tmp}/s.csv"],
        ["compare", "--j", "2.5", "--n-out", "1"],
        # Over the quadrature's panel budget; refused before allocating
        # (unguarded, 2.5 million panels: 60 MB per array).
        ["solve", "--j", "2.5", "--quad-step", "1e-7"],
        # No reference: alpha != -a leaves no closed form, and j is not an
        # integer, so there is no exact Erlang chain either.
        ["convergence", "--problem", "linear_gamma", "--j", "2.5", "--beta", "0.5",
         "--alpha", "0.3"],
        ["convergence", "--problem", "linear_gamma", "--j", "2.5", "--beta", "0.5",
         "--history", "const:1"],
        # Too few steps, and a step that is not positive.
        ["convergence", "--j", "1", "--h-list", "0.01"],
        ["convergence", "--j", "1", "--h-list", "0.1,-0.05,0.025"],
        # Steps, horizons and survival times that are not finite.
        ["stability", "--j", "2.5", "--alpha", "0.89", "--beta", "-1.15", "--h", "inf"],
        ["compare", "--j", "2.5", "--h", "inf", "--t-end", "1"],
        ["compare", "--j", "2.5", "--t-end", "inf"],
        ["stability", "--j", "2.5", "--alpha", "0.89", "--beta", "-1.15", "--t-end", "inf"],
        ["survival", "--j", "2.5", "--t-max", "inf", "--n-out", "3"],
        ["survival", "--jump-at", "3", "--t", "inf"],
        ["solve", "--j", "2.5", "--h", "nan"],
        ["survival", "--j", "2.5", "--t-max", "nan", "--n-out", "3"],
        # An infinite quadrature step or coupling would put the whole
        # convolution on one panel.
        ["solve", "--j", "2.5", "--t-end", "1", "--xi", "inf"],
        ["solve", "--j", "2.5", "--t-end", "1", "--quad-step", "inf"],
        ["compare", "--j", "2.5", "--t-end", "1", "--xi", "inf"],
        ["compare", "--j", "2.5", "--t-end", "1", "--quad-step", "inf"],
        ["stability", "--j", "2.5", "--alpha", "0.89", "--beta", "-1.15", "--xi", "inf"],
        ["stability", "--j", "2.5", "--alpha", "0.89", "--beta", "-1.15", "--quad-step", "inf"],
        ["convergence", "--j", "1", "--t-end", "1", "--xi", "inf"],
        ["convergence", "--j", "1", "--t-end", "1", "--quad-step", "inf"],
        # Over the chain-stage budget, refused before any rates exist (at
        # 1e300 stages the rates tuple cannot be built, at a million the
        # generator would take 8 TB).
        ["mgf-order", "--j", "1e300"],
        ["survival", "--j", "1e300"],
        ["survival", "--j", "1e6", "--tau", "7"],
        # 201 times of a 301-stage chain: over the occupancy budget.
        ["survival", "--j", "300.5"],
        # An infeasible chain, refused before the FCRK solve.
        ["compare", "--j", "1e-300", "--t-end", "1"],
        ["stability", "--j", "1e-300", "--alpha", "0.89", "--beta", "-1.15"],
        # The MGF fit window has left the small-phi regime.
        ["mgf-order", "--j", "100.5"],
        ["mgf-order", "--j", "999.5"],
        # Non-finite SIR parameters, observation times and fit budgets are
        # refused before any solve ({tmp}/cases.csv holds two counts).
        ["epi", "loglik", "--cases", "{tmp}/cases.csv", "--serial", "{tmp}/serial.csv",
         "--M", "nan"],
        ["epi", "loglik", "--cases", "{tmp}/cases.csv", "--serial", "{tmp}/serial.csv",
         "--beta", "nan"],
        ["epi", "loglik", "--cases", "{tmp}/cases.csv", "--serial", "{tmp}/serial.csv",
         "--beta", "inf"],
        ["epi", "simulate", "--obs-dt", "nan", "--cases", "{tmp}/c.csv",
         "--serial", "{tmp}/s.csv"],
        ["epi", "fit", "--cases", "{tmp}/cases.csv", "--serial", "{tmp}/serial.csv",
         "--max-evals", "0"],
        ["epi", "fit", "--cases", "{tmp}/cases.csv", "--serial", "{tmp}/serial.csv",
         "--max-evals", "-5"],
        # Over the output-table budget, refused before the grid exists.
        ["compare", "--j", "2.5", "--t-end", "1", "--n-out", "1000000000000"],
        ["survival", "--j", "2.5", "--n-out", "1000000000000"],
        ["solve", "--j", "2.5", "--t-end", "1e12", "--h", "1"],
        ["solve", "--j", "2.5", "--t-end", "1e15", "--h", "1", "--method", "chain"],
        ["epi", "simulate", "--K", "1000000000000", "--cases", "{tmp}/c.csv",
         "--serial", "{tmp}/s.csv"],
        ["epi", "simulate", "--L", "1000000000000", "--cases", "{tmp}/c.csv",
         "--serial", "{tmp}/s.csv"],
        # A quadrature step that underflows to 0 (xi^(1/4) h): refused by the
        # panel budget, whose message divided by it.
        ["compare", "--j", "2.5", "--t-end", "1e-300", "--h", "1e-300", "--xi", "1e-300"],
        # Coefficients and tolerances that are not finite.
        ["stability", "--j", "2.5", "--alpha", "0.89", "--beta", "nan"],
        ["solve", "--problem", "linear_gamma", "--j", "2.5", "--alpha", "nan", "--beta", "0.5",
         "--t-end", "1"],
        ["compare", "--j", "2.5", "--t-end", "1", "--rtol", "nan"],
        # (j/tau)^j of the eigenfunction's growth rate overflows.
        ["solve", "--problem", "linear_gamma", "--j", "1e100", "--beta", "0.5", "--t-end", "1"],
        # A quadrature step of 0, refused before the reference (a 1000-stage
        # Erlang chain, over 5 s of LSODA) is solved.
        ["convergence", "--j", "1000", "--t-end", "0.5", "--quad-step", "0"],
        # Over the FCRK step budget, refused before the solution is allocated.
        ["stability", "--j", "2.5", "--alpha", "0.89", "--beta", "-1.15", "--t-end", "1e13",
         "--h", "1"],
        ["convergence", "--j", "1", "--t-end", "1e13", "--h-list", "1,0.5,0.25"],
        # Moment polynomials whose coefficients overflow (at degree 100000
        # the companion matrix would take 74.5 GiB).
        ["moment-poly", "--m", "100000", "--fj", "0.5"],
        ["moment-poly", "--m", "200", "--fj", "0.5"],
        # SIR rates LSODA rejects as illegal input, refused by name.
        ["epi", "loglik", "--cases", "{tmp}/cases.csv", "--serial", "{tmp}/serial.csv",
         "--tau", "1e-150"],
        ["epi", "loglik", "--cases", "{tmp}/cases.csv", "--serial", "{tmp}/serial.csv",
         "--tau", "1e-300"],
        ["epi", "simulate", "--K", "5", "--beta", "1e150", "--cases", "{tmp}/c.csv",
         "--serial", "{tmp}/s.csv"],
        ["epi", "simulate", "--K", "5", "--beta", "1e300", "--cases", "{tmp}/c.csv",
         "--serial", "{tmp}/s.csv"],
        ["epi", "simulate", "--L", "-1", "--cases", "{tmp}/c.csv", "--serial", "{tmp}/s.csv"],
        # A population whose expected counts numpy cannot draw from.
        ["epi", "simulate", "--K", "3", "--M", "1e300", "--cases", "{tmp}/c.csv",
         "--serial", "{tmp}/s.csv"],
        # Chains above the stage budget of an ODE solve, refused before it.
        ["compare", "--j", "201", "--t-end", "0.5"],
        ["solve", "--method", "chain", "--j", "250.5", "--h", "0.1", "--t-end", "1"],
        ["convergence", "--j", "1000", "--t-end", "0.5"],
        ["epi", "simulate", "--j", "1000", "--cases", "{tmp}/c.csv", "--serial", "{tmp}/s.csv"],
        # Shape offsets of the survival jump that are not positive and finite.
        ["survival", "--jump-at", "2", "--delta", "nan"],
        ["survival", "--jump-at", "2", "--delta", "inf"],
        ["survival", "--jump-at", "2", "--delta", "0"],
        ["survival", "--jump-at", "2", "--delta=-1e-6"],
    ],
)
def test_exit_code_bad_input(argv, tmp_path, capsys):
    write_data(tmp_path)
    argv = [tok.format(tmp=tmp_path) for tok in argv]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, named",
    [
        (["epi", "loglik", "--tau", "1e-150"], "tau = 1e-150"),
        (["epi", "simulate", "--K", "5", "--beta", "1e300"], "beta = 1e+300"),
        (["epi", "simulate", "--K", "0"], "--K"),
        (["moment-poly", "--m", "200", "--fj", "0.5"], "degree 200"),
        (["survival", "--j", "2.5", "--n-out", "1000000000000"], "--n-out"),
        (["solve", "--j", "2.5", "--t-end", "1e12", "--h", "1"], "--t-end 1e+12 at --h 1"),
        (["convergence", "--j", "1", "--t-end", "1e13", "--h-list", "1,0.5,0.25"], "1e+13 steps"),
        (["epi", "simulate", "--K", "3", "--M", "1e300"], "M = 1e+300"),
        (["compare", "--j", "201", "--t-end", "0.5"], "j = 201 takes a chain of 201 stages"),
        (["epi", "loglik", "--j", "500"], "j = 500 takes a chain of 501 stages"),
        (["survival", "--jump-at", "2", "--delta", "nan"], "--delta must be finite"),
        (["survival", "--jump-at", "2", "--delta", "inf"], "--delta must be finite"),
        (["survival", "--jump-at", "2", "--delta", "0"], "--delta must be positive"),
        (["survival", "--jump-at", "2", "--delta=-1e-6"], "--delta must be positive"),
        # Shape offsets that take a chain below the jump to shape 1 or under.
        (["survival", "--jump-at", "2", "--delta", "5"], "--delta 5 must be below --jump-at 2"),
        (["survival", "--jump-at", "2", "--delta", "1"], "--delta 1 must be below --jump-at 2"),
        (["survival", "--jump-at", "0"], "--delta 1e-06 must be below --jump-at 0"),
        (["survival", "--jump-at", "nan"], "--jump-at must be finite"),
        (["survival", "--jump-at", "2.5"], "--jump-at 2.5 must be an integer shape"),
        # A chain tolerance that is not positive and finite, refused before
        # the FCRK solve.
        (["compare", "--j", "2.5", "--t-end", "1", "--rtol", "nan"], "--rtol must be finite"),
        (["compare", "--j", "2.5", "--t-end", "1", "--rtol", "0"], "--rtol must be positive"),
        (["convergence", "--h-list", "0.1,,0.05"], "--h-list takes comma-separated numbers"),
        (["survival", "--j", "2.5", "--t-max", "-1"], "--t-max must be nonnegative"),
        (["epi", "simulate", "--obs-dt", "0"], "--obs-dt must be positive"),
        (["epi", "simulate", "--obs-dt", "nan"], "--obs-dt must be finite"),
        (["moment-poly", "--m", "3", "--fj", "1.5"], "--fj must lie in (0, 1)"),
        # At an integer shape above the chain budget only the reference,
        # which convergence reads, refuses; solve reads none.
        (["convergence", "--j", "2000", "--t-end", "0.2"], "a chain takes 1 to 1000 stages"),
    ],
)
def test_refusal_names_its_cause(argv, named, tmp_path, capsys):
    write_data(tmp_path)
    if argv[0] == "epi":
        argv = argv + [
            "--cases", str(tmp_path / "cases.csv"), "--serial", str(tmp_path / "serial.csv")
        ]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2 and stdout == ""
    assert named in err


def test_fcrk_solve_builds_no_chain_at_a_large_integer_shape(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code, _, err = run_cli(capsys, "solve", "--j", "2000", "--t-end", "0.2", "--out", str(out))
    assert code == 0, err
    assert len(out.read_text().strip().split("\n")) == 6  # header + 5


def test_non_finite_observation_spacing_refused_by_name(tmp_path, capsys):
    code, stdout, err = run_cli(
        capsys, "epi", "simulate", "--obs-dt", "nan",
        "--cases", str(tmp_path / "c.csv"), "--serial", str(tmp_path / "s.csv"),
    )
    assert code == 2 and stdout == ""
    assert err == "error: --obs-dt must be finite, got nan\n"


@pytest.mark.parametrize("interval", ["nan", "inf"])
def test_non_finite_serial_interval_refused(interval, tmp_path, capsys):
    cases, serial = tmp_path / "cases.csv", tmp_path / "serial.csv"
    cases.write_text(CASES)
    serial.write_text(f"interval\n2.5\n{interval}\n")
    code, stdout, err = run_cli(
        capsys, "epi", "loglik", "--cases", str(cases), "--serial", str(serial)
    )
    assert code == 2 and stdout == ""
    assert err == "error: serial intervals must be positive and finite\n"


@pytest.mark.parametrize(
    "flag, text, named",
    [
        ("--cases", "time,count\n1,3\n", "has no column 't'"),
        ("--cases", "t\n1\n", "has no column 'count'"),
        ("--cases", "", "has no column 't'"),
        ("--cases", "t,count\n1,3\n2\n", "column 'count': invalid literal for int()"),
        ("--cases", "t,count\n1,3\n2,\n", "column 'count': invalid literal for int()"),
        ("--cases", "t,count\n1,3\n2,4.5\n", "column 'count': invalid literal for int()"),
        ("--cases", "t,count\none,3\n", "column 't': could not convert string to float: 'one'"),
        ("--serial", "delay\n2.5\n", "has no column 'interval'"),
        ("--serial", "interval\n2.5\nx\n", "column 'interval': could not convert string"),
        ("--serial", "interval,note\n2.5,a\n,b\n", "column 'interval': could not convert"),
        ("--serial", "interval\n" + "1" * 200_000 + "\n", "field larger than field limit"),
    ],
)
def test_malformed_data_file_refused_by_file_and_column(flag, text, named, tmp_path, capsys):
    write_data(tmp_path)
    path = tmp_path / ("cases.csv" if flag == "--cases" else "serial.csv")
    path.write_text(text)
    code, stdout, err = run_cli(
        capsys, "epi", "loglik", "--cases", str(tmp_path / "cases.csv"),
        "--serial", str(tmp_path / "serial.csv"),
    )
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: {path}") and err.count("\n") == 1
    assert named in err


def test_crlf_data_files_read_as_their_lf_copies(tmp_path, capsys):
    lf, crlf = tmp_path / "lf", tmp_path / "crlf"
    lf.mkdir()
    crlf.mkdir()
    sim = ["epi", "simulate", "--K", "6", "--L", "5", "--seed", "4"]
    code, _, err = run_cli(
        capsys, *sim, "--cases", str(lf / "cases.csv"), "--serial", str(lf / "serial.csv")
    )
    assert code == 0, err
    for name in ("cases.csv", "serial.csv"):
        text = (lf / name).read_bytes()
        assert b"\r" not in text
        (crlf / name).write_bytes(text.replace(b"\n", b"\r\n"))
    outputs = []
    for folder in (lf, crlf):
        code, stdout, err = run_cli(
            capsys, "epi", "loglik", "--cases", str(folder / "cases.csv"),
            "--serial", str(folder / "serial.csv"),
        )
        assert code == 0, err
        outputs.append(stdout)
    assert outputs[0] == outputs[1]


def test_epi_simulate_roundtrip(tmp_path, capsys):
    # The files epi simulate writes hold the dataset, one row per line,
    # and read back through the CLI's reader unchanged.
    cases, serial = tmp_path / "cases.csv", tmp_path / "serial.csv"
    code, stdout, err = run_cli(
        capsys, "epi", "simulate", "--seed", "7", "--K", "15", "--L", "12", "--obs-dt", "0.7",
        "--cases", str(cases), "--serial", str(serial),
    )
    assert code == 0, err
    params = SirParams(
        beta=0.5, tau=5.0, j=4.0, eps=1e-3, M=1000.0,
        obs_times=tuple(0.7 * (i + 1) for i in range(15)),
    )
    data = simulate_dataset(Rng(7), params, 12)
    assert json.loads(stdout)["total_cases"] == sum(data.cases)
    assert cases.read_text().split("\n") == ["t,count"] + [
        f"{t:.17g},{c}" for t, c in zip(params.obs_times, data.cases)
    ] + [""]
    assert serial.read_text().split("\n") == ["interval"] + [
        f"{t:.17g}" for t in data.serial
    ] + [""]
    assert cli._read_csv(cases, {"t": float, "count": int}) == [params.obs_times, data.cases]
    assert cli._read_csv(serial, {"interval": float}) == [data.serial]


def _no_nan(token):
    raise AssertionError(f"{token} is not JSON")


@pytest.mark.parametrize(
    "argv",
    [
        ["survival", "--jump-at", "2", "--t", "1e200"],
        ["survival", "--j", "2.5", "--t-max", "1e308", "--n-out", "3"],
    ],
)
def test_survival_far_tail_reads_zero(argv, capsys):
    # The exponentials of the chains overflow from t of about 1e38 on.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert [str(w.message) for w in caught] == []
    if "--jump-at" in argv:
        report = json.loads(stdout, parse_constant=_no_nan)
        assert report["jump_fixed"] == report["jump_smoothed"] == 0.0
    else:
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        assert [float(v) for v in rows[0][1:]] == [1.0, 1.0, 1.0]
        assert all(float(v) == 0.0 for row in rows[1:] for v in row[1:])


def test_infeasible_chain_refused_before_any_error_is_fitted(capsys):
    # The Erlang chain exists at j = 1e-300 and its MGF error is 0, whose
    # log would warn; the fixed chain does not exist, and is refused first.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(capsys, "mgf-order", "--j", "1e-300")
    assert code == 2
    assert stdout == "" and err.startswith("error: two-moment chain infeasible")
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--j", "1e-300", "--t-end", "1"],
        ["stability", "--j", "1e-300", "--alpha", "0.89", "--beta", "-1.15"],
    ],
)
def test_infeasible_chain_refused_before_the_solve(argv, capsys, monkeypatch):
    # The fixed chain does not exist at j = 1e-300, where the solve's
    # quadrature substitution would overflow; it is refused first.
    def no_solve(*args, **kwargs):
        raise AssertionError("the FCRK solve ran")

    monkeypatch.setattr(cli, "fcrk4_solve", no_solve)
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == "" and err.startswith("error: two-moment chain infeasible")


def test_removed_initial_condition_flag_rejected(capsys):
    # Chain initial conditions have one convention; the old flag is a usage
    # error like any unknown flag.
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--j", "2.5", "--method", "chain", "--init-mode", "cumulative"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_divergent_history_rejected_without_warning(capsys):
    for method in ("fcrk4", "chain"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(
                capsys, "solve", "--j", "2.5", "--history", "exp:1:-3", "--method", method
            )
        assert code == 2
        assert err.startswith("error: ")


def test_exit_code_numerical_failure(capsys):
    # The overflow is reported with its step and stage, not by a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(
            capsys, "solve", "--problem", "linear_gamma", "--j", "1",
            "--alpha", "10", "--beta", "1", "--h", "0.1", "--t-end", "100",
        )
    assert code == 3
    assert stdout == ""
    assert "numerical" in err and "non-finite stage value at step" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--t-end", "2", "--method", "chain", "--xi", "5"],
         "--xi is not read by solve --method chain"),
        (["solve", "--t-end", "2", "--method", "chain", "--quad-step", "0.3"],
         "--quad-step is not read by solve --method chain"),
        (["solve", "--t-end", "2", "--variant", "smoothed"],
         "--variant is not read by solve --method fcrk4"),
        (["solve", "--t-end", "2", "--method", "fcrk4", "--rtol", "1e-8"],
         "--rtol is not read by solve --method fcrk4"),
        (["survival", "--t", "3"], "--t is not read by survival without --jump-at"),
        (["survival", "--delta", "1e-3"], "--delta is not read by survival without --jump-at"),
        (["survival", "--jump-at", "3", "--t-max", "5"], "--t-max is not read by survival --jump-at"),
        (["survival", "--jump-at", "3", "--n-out", "7"], "--n-out is not read by survival --jump-at"),
        # Every case here is given --j 2.5.
        (["survival", "--jump-at", "3"], "--j is not read by survival --jump-at"),
    ],
)
def test_flag_the_mode_does_not_read_is_refused(argv, message, tmp_path, capsys):
    # Each of these commands takes the flag, but only in its other mode.
    out = tmp_path / "o.csv"
    code, stdout, err = run_cli(capsys, *argv, "--j", "2.5", "--out", str(out))
    assert code == 2
    assert stdout == "" and not out.exists()
    assert err == f"error: {message}\n"


def test_non_finite_history_is_a_numerical_failure_without_warning(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(
            capsys, "solve", "--j", "2.5", "--t-end", "1", "--history", "const:inf"
        )
    assert code == 3
    assert stdout == ""
    assert err == "numerical failure: non-finite stage value at step 0, stage 0\n"
    assert [str(w.message) for w in caught] == []


def test_exit_code_numerical_failure_chain(capsys):
    # The chain path overflows too; the solver stops at the first overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(
            capsys, "solve", "--problem", "linear_gamma", "--j", "1.5", "--method", "chain",
            "--alpha", "10", "--beta", "1", "--h", "0.1", "--t-end", "100",
        )
    assert code == 3
    assert stdout == ""
    assert "numerical" in err


def test_epi_pipeline(tmp_path, capsys):
    cases = tmp_path / "cases.csv"
    serial = tmp_path / "serial.csv"
    code, stdout, _ = run_cli(
        capsys, "epi", "simulate", "--seed", "7", "--K", "40", "--L", "10",
        "--cases", str(cases), "--serial", str(serial),
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["total_cases"] > 0
    assert cases.read_text().splitlines()[0] == "t,count"
    assert serial.read_text().splitlines()[0] == "interval"

    code, stdout, _ = run_cli(
        capsys, "epi", "loglik", "--cases", str(cases), "--serial", str(serial),
        "--beta", "0.5", "--tau", "5", "--j", "4", "--eps", "1e-3", "--M", "1000",
    )
    assert code == 0
    assert np.isfinite(json.loads(stdout)["loglik"])


def test_epi_fit_report(tmp_path, capsys):
    cases = tmp_path / "cases.csv"
    serial = tmp_path / "serial.csv"
    assert main(
        ["epi", "simulate", "--seed", "1", "--K", "40", "--L", "20",
         "--cases", str(cases), "--serial", str(serial)]
    ) == 0
    capsys.readouterr()
    report = tmp_path / "fit.json"
    code, stdout, _ = run_cli(
        capsys, "epi", "fit", "--cases", str(cases), "--serial", str(serial),
        "--beta", "0.45", "--tau", "4.5", "--j", "3.0", "--eps", "1e-3",
        "--M", "1000", "--max-evals", "40", "--out", str(report),
    )
    assert code == 0
    assert report.read_text() == stdout
    payload = json.loads(stdout)
    assert set(payload) == {"beta", "tau", "j", "eps", "loglik", "n_evals", "converged"}
    assert payload["n_evals"] <= 40


def test_epi_loglik_reproduces_fit(tmp_path, capsys):
    # epi loglik evaluates the likelihood the fitter maximizes, so at the
    # reported optimum it prints the fit's loglik.
    cases = tmp_path / "cases.csv"
    serial = tmp_path / "serial.csv"
    data = ["--cases", str(cases), "--serial", str(serial), "--M", "1000"]
    assert main(["epi", "simulate", "--seed", "0", "--K", "60", "--L", "30"] + data) == 0
    capsys.readouterr()
    code, stdout, _ = run_cli(
        capsys, "epi", "fit", *data, "--beta", "0.45", "--tau", "4.5", "--j", "3.5",
        "--eps", "1e-3", "--max-evals", "20",
    )
    assert code == 0
    fit = json.loads(stdout)
    code, stdout, _ = run_cli(
        capsys, "epi", "loglik", *data, "--beta", repr(fit["beta"]),
        "--tau", repr(fit["tau"]), "--j", repr(fit["j"]), "--eps", repr(fit["eps"]),
    )
    assert code == 0
    assert json.loads(stdout)["loglik"] == pytest.approx(fit["loglik"], rel=0, abs=1e-9)


def test_epi_simulate_deterministic(tmp_path, capsys):
    paths = [(tmp_path / f"c{i}.csv", tmp_path / f"s{i}.csv") for i in (0, 1)]
    for c, s in paths:
        assert main(
            ["epi", "simulate", "--seed", "3", "--K", "30", "--L", "5",
             "--cases", str(c), "--serial", str(s)]
        ) == 0
    capsys.readouterr()
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
