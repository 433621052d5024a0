"""Command-line front end.

    gamma-dde <solve|convergence|compare|stability|mgf-order|survival|
               moment-poly|epi> [flags]

Every command is deterministic given its flags and --seed.  Output tables
are CSV with a header row and 17-significant-digit floats (round-trip
exact); scalar results are printed as JSON on stdout.  Exit codes:
0 success, 2 usage or configuration error, 3 numerical failure.
"""

import argparse
import json
import sys

import numpy as np

from . import analysis
from . import approximations as approx
from .chain_reduction import HistoryFunction
from .distributions import GammaKernel, Rng, gamma_survival, hypoexp_survival
from .epi import (
    EpiData,
    SirParams,
    fit_log_likelihood,
    mle_fit,
    read_cases_csv,
    read_serial_csv,
    simulate_dataset,
    write_cases_csv,
    write_fit_report,
    write_serial_csv,
)
from .fcrk import fcrk4_solve
from .ode_solver import OdeConfig, OdeFailure
from .quadrature import QuadConfig

# Not called here: bench/layer_trace.py looks these names up on this module
# and reports a layer's metrics absent when one is missing.
from .chain_reduction import build_erlang_system, build_hypoexp_system  # noqa: F401
from .ode_solver import rk45_adaptive  # noqa: F401

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


def _fmt(x):
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _parse_history(spec):
    """History specs: 'const:c', 'exp:c:rho' (c e^(rho s)), 'eigen'."""
    if spec is None or spec == "eigen":
        return spec
    parts = spec.split(":")
    try:
        if parts[0] in ("const", "constant") and len(parts) == 2:
            return HistoryFunction.constant(float(parts[1]))
        if parts[0] in ("exp", "exponential") and len(parts) == 3:
            return HistoryFunction.exponential(float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"bad history spec {spec!r}: {exc}") from exc
    raise ConfigError(f"bad history spec {spec!r} (use const:c or exp:c:rho)")


def _positive(args, flag, default=None):
    """A numeric flag's value, or ``default`` when unset; must be positive."""
    value = getattr(args, flag)
    if value is None:
        value = default
    name = "--" + flag.replace("_", "-")
    if value is None:
        raise ConfigError(f"{name} is required")
    if not value > 0:
        raise ConfigError(f"{name} must be positive, got {value}")
    return value


def _problem(args, t_end):
    """(problem, reference, tau) of the built-in problem ``--problem``."""
    j = _positive(args, "j")
    tau = _positive(args, "tau", analysis.default_tau(args.problem))
    problem, reference = analysis.dde_problem(
        args.problem,
        j,
        tau,
        alpha=args.alpha,
        beta=args.beta,
        history=_parse_history(args.history),
        t_end=t_end,
    )
    return problem, reference, tau


def _n_out(args):
    if args.n_out < 2:
        raise ConfigError(f"--n-out must be at least 2, got {args.n_out}")
    return args.n_out


def _quad_config(args):
    kwargs = {}
    if getattr(args, "xi", None) is not None:
        kwargs["xi"] = args.xi
    if getattr(args, "quad_step", None) is not None:
        kwargs["h_int"] = args.quad_step
    return QuadConfig(**kwargs)


def _chain_cfg(args):
    return OdeConfig(rtol=args.rtol, atol=args.rtol * 1e-2)


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_solve(args):
    t_end = _positive(args, "t_end", 10.0)
    problem, _, tau = _problem(args, t_end)
    h = _positive(args, "h", 0.05)
    times = np.arange(0.0, t_end + 0.5 * h, h)
    if args.method == "fcrk4":
        sol = fcrk4_solve(problem, h, quad=_quad_config(args))
        values = np.asarray(sol.query(times), dtype=float)
        rows = [(float(t), float(v)) for t, v in zip(times, values)]
        _write_csv(args.out, ["t", "x"], rows)
    elif args.method == "chain":
        params = approx.chain_params(args.variant, args.j, tau)
        states, labels = analysis.chain_trajectory(
            problem.rhs, params, problem.history, t_end, times, _chain_cfg(args)
        )
        header = ["t", "x"] + list(labels[1:])
        rows = [
            tuple([float(t)] + [float(v) for v in row]) for t, row in zip(times, states)
        ]
        _write_csv(args.out, header, rows)
    else:
        raise ConfigError(f"unknown method {args.method!r}")
    return 0


def cmd_convergence(args):
    h_list = [float(tok) for tok in args.h_list.split(",")]
    if args.inject_errors:
        errors = [float(tok) for tok in args.inject_errors.split(",")]
        if len(errors) != len(h_list):
            raise ConfigError("--inject-errors must match --h-list in length")
    else:
        t_end = _positive(args, "t_end", 10.0)
        problem, reference, _ = _problem(args, t_end)
        if reference is None:
            raise ConfigError(
                f"no reference solution for problem {args.problem} at --j {args.j:g} "
                "with these flags: see the README for when convergence has one"
            )
        times = np.linspace(0.0, t_end, 1001)
        ref_values = reference(times)
        errors = []
        for h in h_list:
            sol = fcrk4_solve(problem, h, quad=_quad_config(args))
            errors.append(float(np.max(np.abs(sol.query(times) - ref_values))))
    report = analysis.estimate_order(h_list, errors)
    _write_csv(args.out, ["h", "max_error"], list(zip(h_list, errors)))
    _emit_json({"slope": report.slope, "intercept": report.intercept})
    return 0


def cmd_compare(args):
    n_out = _n_out(args)
    t_end = _positive(args, "t_end", 10.0)
    problem, _, tau = _problem(args, t_end)
    h = _positive(args, "h", 0.05)
    times = np.linspace(0.0, t_end, n_out)
    sol = fcrk4_solve(problem, h, quad=_quad_config(args))
    gamma_traj = np.asarray(sol.query(times), dtype=float)
    columns = {"gamma_dde": gamma_traj}
    for variant in ("fixed", "smoothed", "erlang"):
        params = approx.chain_params(variant, args.j, tau)
        states, _ = analysis.chain_trajectory(
            problem.rhs, params, problem.history, t_end, times, _chain_cfg(args)
        )
        columns[variant] = states[:, 0]
    rows = [
        (float(t),) + tuple(float(columns[k][i]) for k in ("gamma_dde", "fixed", "smoothed", "erlang"))
        for i, t in enumerate(times)
    ]
    _write_csv(args.out, ["t", "gamma_dde", "fixed", "smoothed", "erlang"], rows)
    summary = {
        f"max_dev_{k}": float(np.max(np.abs(columns[k] - gamma_traj)))
        for k in ("fixed", "smoothed", "erlang")
    }
    _emit_json(summary)
    return 0


def cmd_stability(args):
    j = _positive(args, "j")
    tau = _positive(args, "tau", analysis.default_tau("linear_gamma"))
    alpha, beta = args.alpha, args.beta
    if alpha is None or beta is None:
        raise ConfigError("stability needs --alpha and --beta")
    t_end = _positive(args, "t_end", 80.0)
    h = _positive(args, "h", 0.05)
    problem, _ = analysis.dde_problem(
        "linear_gamma",
        j,
        tau,
        alpha=alpha,
        beta=beta,
        history=HistoryFunction.constant(1.0),
        t_end=t_end,
    )
    sol = fcrk4_solve(problem, h, quad=_quad_config(args))
    times = np.linspace(0.0, t_end, 4001)
    gamma_growth = analysis.growth_rate(times, sol.query(times))
    lam_hypo = analysis.dominant_eigenvalue(alpha, beta, approx.fixed_hypoexp(j, tau))
    lam_erl = analysis.dominant_eigenvalue(alpha, beta, approx.erlang_approx(j, tau))
    _emit_json(
        {
            "gamma_growth_rate": gamma_growth,
            "hypoexp_eig_real": float(lam_hypo.real),
            "hypoexp_eig_imag": float(lam_hypo.imag),
            "erlang_eig_real": float(lam_erl.real),
            "erlang_eig_imag": float(lam_erl.imag),
            "gamma_sign": int(np.sign(gamma_growth)),
            "hypoexp_sign": int(np.sign(lam_hypo.real)),
            "erlang_sign": int(np.sign(lam_erl.real)),
        },
        args.out,
    )
    return 0


def cmd_mgf_order(args):
    tau = _positive(args, "tau", 1.0)
    if float(args.j).is_integer():
        phis = np.logspace(-3, -1, 10) * args.j / tau
        zeros = {
            variant: float(np.max(analysis.mgf_error(args.j, tau, variant, phis)))
            for variant in ("erlang", "fixed", "smoothed")
        }
        _emit_json({"identically_zero": True, "max_abs_error": zeros}, args.out)
        return 0
    slopes = {
        variant: analysis.mgf_error_order(args.j, tau, variant)
        for variant in ("erlang", "fixed", "smoothed")
    }
    _emit_json({"identically_zero": False, "slopes": slopes}, args.out)
    return 0


def cmd_survival(args):
    tau = _positive(args, "tau", 1.0)
    if args.jump_at is not None:
        jump_fixed, jump_smoothed = analysis.integer_jump(
            args.jump_at, tau, args.t, delta=args.delta
        )
        _emit_json(
            {
                "jump_fixed": float(jump_fixed),
                "jump_smoothed": float(jump_smoothed),
                "t": args.t,
                "delta": args.delta,
            },
            args.out,
        )
        return 0
    j = _positive(args, "j")
    n_out = _n_out(args)
    t_max = args.t_max if args.t_max is not None else 4.0 * tau
    times = np.linspace(0.0, t_max, n_out)
    gamma_kernel = GammaKernel(shape=j, rate=j / tau)
    fixed_kernel = approx.fixed_hypoexp(j, tau).kernel()
    smooth_kernel = approx.smoothed_hypoexp(j, tau).kernel()
    rows = zip(
        times.tolist(),
        gamma_survival(gamma_kernel, times).tolist(),
        hypoexp_survival(fixed_kernel, times).tolist(),
        hypoexp_survival(smooth_kernel, times).tolist(),
    )
    _write_csv(args.out, ["t", "gamma", "fixed", "smoothed"], rows)
    return 0


def cmd_moment_poly(args):
    poly = analysis.fm_polynomial(args.m, args.fj)
    roots = analysis.real_roots(poly)
    record = analysis.gm_checks(args.m, args.fj)
    _emit_json(
        {
            "m": args.m,
            "fj": args.fj,
            "coefficients": [float(c) for c in poly.coefficients],
            "real_roots": analysis.real_root_count(poly),
            "roots": [float(r) for r in roots],
            "gm_checks": {k: bool(v) for k, v in record.items()},
        },
        args.out,
    )
    return 0


def _epi_params(args, obs_times=None):
    if obs_times is None:
        k = args.K if args.K is not None else 120
        dt = args.obs_dt if args.obs_dt is not None else 1.0
        obs_times = tuple(dt * (i + 1) for i in range(k))
    return SirParams(
        beta=args.beta if args.beta is not None else 0.5,
        tau=args.tau if args.tau is not None else 5.0,
        j=args.j if args.j is not None else 4.0,
        eps=args.eps if args.eps is not None else 1e-3,
        M=args.M if args.M is not None else 1000.0,
        obs_times=obs_times,
    )


def cmd_epi(args):
    if args.epi_action == "simulate":
        params = _epi_params(args)
        rng = Rng(args.seed)
        n_serial = args.L if args.L is not None else 100
        data = simulate_dataset(rng, params, n_serial)
        write_cases_csv(args.cases, params.obs_times, data.cases)
        write_serial_csv(args.serial, data.serial)
        _emit_json(
            {
                "total_cases": int(sum(data.cases)),
                "n_serial": len(data.serial),
                "cases_path": args.cases,
                "serial_path": args.serial,
                "seed": args.seed,
            }
        )
        return 0
    obs_times, cases = read_cases_csv(args.cases)
    serial = read_serial_csv(args.serial) if args.serial else ()
    data = EpiData(cases=cases, serial=serial)
    params = _epi_params(args, obs_times=obs_times)
    if args.epi_action == "loglik":
        value = fit_log_likelihood(params, data)
        _emit_json(
            {
                "loglik": value,
                "beta": params.beta,
                "tau": params.tau,
                "j": params.j,
                "eps": params.eps,
                "M": params.M,
                "n_obs": len(obs_times),
                "n_serial": len(serial),
            }
        )
        return 0
    if args.epi_action == "fit":
        result = mle_fit(data, params, max_evals=args.max_evals)
        if args.out:
            write_fit_report(args.out, result)
        _emit_json(result.to_dict())
        return 0
    raise ConfigError(f"unknown epi action {args.epi_action!r}")


# ---------------------------------------------------------------------------
# Parser assembly.


def _add_common_problem_flags(sub):
    sub.add_argument("--problem", default="linear", choices=analysis.PROBLEMS)
    sub.add_argument("--j", type=float)
    sub.add_argument("--tau", type=float)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--history", help="const:c or exp:c:rho")
    sub.add_argument("--t-end", dest="t_end", type=float)
    sub.add_argument("--h", type=float)
    sub.add_argument("--xi", type=float)
    sub.add_argument("--quad-step", dest="quad_step", type=float)
    sub.add_argument("--rtol", type=float, default=1e-10)
    sub.add_argument("--out", default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gamma-dde",
        description="Gamma-distributed DDE solver and chain approximations",
    )
    parser.add_argument("--config", help="JSON file of flag defaults")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("solve", help="integrate one problem, write trajectory CSV")
    _add_common_problem_flags(sub)
    sub.add_argument("--method", default="fcrk4", choices=("fcrk4", "chain"))
    sub.add_argument("--variant", default="fixed", help=", ".join(approx.VARIANTS))
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("convergence", help="step-size sweep and fitted order")
    _add_common_problem_flags(sub)
    sub.add_argument("--h-list", dest="h_list", default="0.1,0.05,0.025,0.0125")
    sub.add_argument("--inject-errors", dest="inject_errors",
                     help="skip solving, fit the given errors")
    sub.set_defaults(func=cmd_convergence)

    sub = subs.add_parser("compare", help="gamma DDE against its three chains")
    _add_common_problem_flags(sub)
    sub.add_argument("--n-out", dest="n_out", type=int, default=501)
    sub.set_defaults(func=cmd_compare)

    sub = subs.add_parser("stability", help="growth-rate and spectrum comparison")
    _add_common_problem_flags(sub)
    sub.set_defaults(func=cmd_stability)

    sub = subs.add_parser("mgf-order", help="kernel-replacement MGF error slopes")
    sub.add_argument("--j", type=float, required=True)
    sub.add_argument("--tau", type=float)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_mgf_order)

    sub = subs.add_parser("survival", help="survival curves or integer-jump sizes")
    sub.add_argument("--j", type=float)
    sub.add_argument("--tau", type=float)
    sub.add_argument("--t", type=float, default=4.0)
    sub.add_argument("--t-max", dest="t_max", type=float)
    sub.add_argument("--n-out", dest="n_out", type=int, default=201)
    sub.add_argument("--jump-at", dest="jump_at", type=float)
    sub.add_argument("--delta", type=float, default=1e-6)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_survival)

    sub = subs.add_parser("moment-poly", help="moment-matching polynomial roots")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--fj", type=float, required=True)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_moment_poly)

    sub = subs.add_parser("epi", help="SIR chain: simulate, loglik, fit")
    sub.add_argument("epi_action", choices=("simulate", "loglik", "fit"))
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--beta", type=float)
    sub.add_argument("--tau", type=float)
    sub.add_argument("--j", type=float)
    sub.add_argument("--eps", type=float)
    sub.add_argument("--M", type=float)
    sub.add_argument("--K", type=int)
    sub.add_argument("--L", type=int)
    sub.add_argument("--obs-dt", dest="obs_dt", type=float)
    sub.add_argument("--cases", default="cases.csv")
    sub.add_argument("--serial", default="serial.csv")
    sub.add_argument("--max-evals", dest="max_evals", type=int, default=500)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=cmd_epi)

    return parser


def _apply_config_file(args, argv):
    """Values from --config fill in flags the command line left unset."""
    with open(args.config) as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    explicit = {
        tok.split("=")[0].lstrip("-").replace("-", "_")
        for tok in argv
        if tok.startswith("--")
    }
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"config key {key!r} is not a known flag")
        if attr not in explicit:
            setattr(args, attr, value)
    return args


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = _apply_config_file(args, argv)
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        # Parameter validation raises ValueError throughout the library;
        # OSError covers unreadable inputs and unwritable outputs.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OdeFailure, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
