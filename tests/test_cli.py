import json
import warnings

import numpy as np
import pytest

from gammadde.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_solve_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["solve", "--problem", "linear", "--j", "1", "--h", "0.1", "--t-end", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_convergence_injected_errors(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code, stdout, _ = run_cli(
        capsys, "convergence", "--h-list", "0.1,0.05,0.025",
        "--inject-errors", "1e-4,6.25e-6,3.90625e-7", "--out", str(out),
    )
    assert code == 0
    assert json.loads(stdout)["slope"] == pytest.approx(4.0, abs=1e-9)
    assert out.read_text().splitlines()[0] == "h,max_error"


def test_convergence_real_small(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code, stdout, _ = run_cli(
        capsys, "convergence", "--problem", "linear", "--j", "1",
        "--h-list", "0.2,0.1,0.05", "--xi", "0.000244140625", "--out", str(out),
    )
    assert code == 0
    slope = json.loads(stdout)["slope"]
    assert 3.5 <= slope <= 4.5


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
    ],
)
def test_exit_code_bad_input(argv, tmp_path, capsys):
    argv = [tok.format(tmp=tmp_path) for tok in argv]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
            capsys, "solve", "--problem", "custom-linear", "--j", "1",
            "--alpha", "10", "--beta", "1", "--h", "0.1", "--t-end", "100",
        )
    assert code == 3
    assert stdout == ""
    assert "numerical" in err and "non-finite stage value at step" in err


def test_exit_code_numerical_failure_chain(capsys):
    # The chain path overflows too; the solver stops at the first overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run_cli(
            capsys, "solve", "--problem", "custom-linear", "--j", "1.5", "--method", "chain",
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
    report = tmp_path / "fit.json"
    code = main(
        ["epi", "fit", "--cases", str(cases), "--serial", str(serial),
         "--beta", "0.45", "--tau", "4.5", "--j", "3.0", "--eps", "1e-3",
         "--M", "1000", "--max-evals", "40", "--out", str(report)]
    )
    capsys.readouterr()
    assert code == 0
    payload = json.loads(report.read_text())
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
