"""Command-line front end.

    gamma-dde [--config FILE] <solve|convergence|compare|stability|mgf-order|
                               survival|moment-poly|epi {simulate,loglik,fit}> [flags]

Each command takes exactly the flags it reads: ``_FLAGS`` declares every
flag's type and help once, and each command lists the flags it takes with
its own defaults.  A flag that only one mode of a command reads (``solve
--method``, ``survival --jump-at``) is refused in the other mode.  Flags
are matched by their full names only.  A --config
file is a JSON object keyed by the command's flag names; its entries are
parsed by the command's parser ahead of the explicit flags, so they are
validated like flags and explicit flags win.

Every command is deterministic given its flags and --seed.  Output tables
are CSV with a header row, LF line endings and 17-significant-digit
floats (round-trip exact); scalar results are printed as JSON on stdout.
``--out -`` writes to stdout alone, for every command.
The epi commands read their case and serial-interval tables back in the
same format.  Exit codes: 0 success, 2 usage or configuration error, 3
numerical failure.
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import analysis
from . import approximations as approx
from .chain_reduction import HistoryFunction
from .distributions import GammaKernel, Rng, gamma_survival, hypoexp_survival
from .epi import EpiData, SirParams, fit_log_likelihood, mle_fit, simulate_dataset
from .fcrk import fcrk4_solve
from .ode_solver import DEFAULT_RTOL, OdeFailure, check_chain, rk45_adaptive
from .quadrature import QuadConfig

# Not called here: bench/layer_trace.py looks these names up on this module
# and reports a layer's metrics absent when one is missing.
from .chain_reduction import build_erlang_system, build_hypoexp_system  # noqa: F401

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
#: Most rows of one output table: the times of a trajectory or survival
#: curve, the case counts and the serial intervals.  The largest table in
#: the tests has 1,001 rows and in the benchmark 2,001 (a survival curve);
#: at the budget a five-column table is about 120 MB of CSV text, written a
#: row at a time.
MAX_ROWS = 1_000_000


class ConfigError(Exception):
    pass


def _write_csv(path, header, columns):
    """A CSV table to ``path``, or to stdout for None or ``-``: one sequence
    of ``columns`` per header name, all of one length.  Floats get 17
    significant digits, so they read back exactly; integers (case counts up
    to ``epi.MAX_POPULATION``) stay exact.

    A column is formatted by its type, through one row format per table, and
    rows are written as they are formatted: no text of the whole table is
    ever held.
    """
    columns = [np.asarray(c) for c in columns]
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"CSV columns of unequal lengths {[len(c) for c in columns]}")
    row = ",".join("{:.17g}" if c.dtype.kind == "f" else "{}" for c in columns) + "\n"
    rows = map(row.format, *(c.tolist() for c in columns))
    stdout = path is None or path == "-"
    with contextlib.nullcontext(sys.stdout) if stdout else open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(rows)


def _emit_json(obj, path=None):
    """``obj`` as indented JSON on stdout, and also to the file ``path``
    unless that is None or ``-``, which mean stdout alone."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path not in (None, "-"):
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
        raise ConfigError(f"bad --history {spec!r}: {exc}") from exc
    raise ConfigError(f"bad --history {spec!r} (use const:c or exp:c:rho)")


def _finite(args, flag):
    """A numeric flag's value, which must be set and finite."""
    value = getattr(args, flag)
    name = "--" + flag.replace("_", "-")
    if value is None:
        raise ConfigError(f"{name} is required")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def _positive(args, flag):
    """A numeric flag's value, which must be set, finite and positive."""
    value = _finite(args, flag)
    if not value > 0:
        raise ConfigError(f"--{flag.replace('_', '-')} must be positive, got {value}")
    return value


def _problem(args, t_end):
    """(problem, reference, tau) of the built-in problem ``--problem``."""
    j = _positive(args, "j")
    tau = analysis.default_tau(args.problem) if args.tau is None else _positive(args, "tau")
    problem, reference = analysis.dde_problem(
        args.problem,
        j,
        tau,
        alpha=None if args.alpha is None else _finite(args, "alpha"),
        beta=None if args.beta is None else _finite(args, "beta"),
        history=_parse_history(args.history),
        t_end=t_end,
    )
    return problem, reference, tau


def _rows(count, what):
    """Refuse a table of ``count`` rows over ``MAX_ROWS``, before it exists."""
    if not count <= MAX_ROWS:
        raise ConfigError(f"{what} asks for {count:.3g} rows, above the budget of {MAX_ROWS}")
    return count


def _count(args, flag, least):
    """An integer flag's value that sizes an output table: at least
    ``least``, and at most ``MAX_ROWS``."""
    value, name = getattr(args, flag), "--" + flag.replace("_", "-")
    if value < least:
        raise ConfigError(f"{name} must be at least {least}, got {value}")
    return _rows(value, name)


def _quad_config(args):
    if args.xi is not None and args.quad_step is not None:
        raise ConfigError("--xi is not read with --quad-step")
    return QuadConfig(xi=QuadConfig.xi if args.xi is None else args.xi, h_int=args.quad_step)


def _chains(args, problem, tau, variants):
    """The chain reductions of ``problem`` on ``variants``, by variant, each
    built and checked before any solve.  A history a chain cannot start
    from, the one cause of a CLI problem's refusal in ``chain_system``, is
    refused naming the flag, or the default, that set it."""
    chains = {}
    for variant in variants:
        params = approx.chain_params(variant, args.j, tau)
        check_chain(args.j, tau, params)
        try:
            chains[variant] = analysis.chain_system(problem, params)
        except ValueError as exc:
            spec = "the default history" if args.history is None else f"--history {args.history}"
            raise ConfigError(spec + str(exc).removeprefix("history")) from exc
    return chains


def _refuse_unread(args, mode, flags):
    """Refuse a flag that the command takes but ``mode`` does not read."""
    for flag in flags:
        if getattr(args, flag.lstrip("-").replace("-", "_")) is not None:
            raise ConfigError(f"{flag} is not read by {mode}")


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_solve(args):
    if args.method == "fcrk4":
        _refuse_unread(args, "solve --method fcrk4", ("--variant", "--rtol"))
    else:
        _refuse_unread(args, "solve --method chain", _QUAD)
    t_end = _positive(args, "t_end")
    problem, _, tau = _problem(args, t_end)
    h = _positive(args, "h")
    rtol = DEFAULT_RTOL if args.rtol is None else _positive(args, "rtol")
    _rows(t_end / h + 1.0, f"--t-end {t_end:g} at --h {h:g}")
    times = np.arange(0.0, t_end + 0.5 * h, h)
    if args.method == "fcrk4":
        sol = fcrk4_solve(problem, h, quad=_quad_config(args))
        _write_csv(args.out, ["t", "x"], [times, np.asarray(sol.query(times), dtype=float)])
    else:
        variant = CHAIN_VARIANT if args.variant is None else args.variant
        chain = _chains(args, problem, tau, [variant])[variant]
        states = rk45_adaptive(chain.rhs, chain.y0, times, rtol)
        _write_csv(args.out, ["t", "x"] + list(chain.labels[1:]), [times, *states.T])
    return 0


def cmd_convergence(args):
    try:
        h_list = [float(tok) for tok in args.h_list.split(",")]
    except ValueError:
        raise ConfigError(f"--h-list takes comma-separated numbers, got {args.h_list}") from None
    if len(h_list) < 3 or len(set(h_list)) < len(h_list):
        raise ConfigError(f"--h-list needs three or more steps, none repeated, got {args.h_list}")
    if not all(0 < h < float("inf") for h in h_list):
        raise ConfigError(f"--h-list steps must be positive and finite, got {args.h_list}")
    t_end = _positive(args, "t_end")
    problem, reference, _ = _problem(args, t_end)
    if reference is None:
        raise ConfigError(
            f"no reference solution for problem {args.problem} at --j {args.j:g} "
            "with these flags: see the README for when convergence has one"
        )
    times = np.linspace(0.0, t_end, 1001)
    # An Erlang chain reference is checked before the solves, which refuse
    # bad settings and oversized work before it is solved.
    if isinstance(reference, analysis.ErlangReference):
        reference.chain()
    quad = _quad_config(args)
    values = [fcrk4_solve(problem, h, quad=quad).query(times) for h in h_list]
    ref_values = reference(times)
    errors = [float(np.max(np.abs(v - ref_values))) for v in values]
    slope, intercept = analysis.estimate_order(h_list, errors)
    _write_csv(args.out, ["h", "max_error"], [h_list, errors])
    _emit_json({"slope": slope, "intercept": intercept})
    return 0


def cmd_compare(args):
    n_out = _count(args, "n_out", 2)
    t_end = _positive(args, "t_end")
    problem, _, tau = _problem(args, t_end)
    h = _positive(args, "h")
    rtol = DEFAULT_RTOL if args.rtol is None else _positive(args, "rtol")
    times = np.linspace(0.0, t_end, n_out)
    # Every chain is built first, so an infeasible one is refused before the solve.
    chains = _chains(args, problem, tau, ("fixed", "smoothed", "erlang"))
    sol = fcrk4_solve(problem, h, quad=_quad_config(args))
    gamma_traj = np.asarray(sol.query(times), dtype=float)
    columns = {"gamma_dde": gamma_traj}
    for variant, chain in chains.items():
        columns[variant] = rk45_adaptive(chain.rhs, chain.y0, times, rtol)[:, 0]
    _write_csv(args.out, ["t", *columns], [times, *columns.values()])
    summary = {
        f"max_dev_{k}": float(np.max(np.abs(columns[k] - gamma_traj)))
        for k in ("fixed", "smoothed", "erlang")
    }
    _emit_json(summary)
    return 0


def cmd_stability(args):
    j = _positive(args, "j")
    tau = _positive(args, "tau")
    alpha, beta = _finite(args, "alpha"), _finite(args, "beta")
    t_end = _positive(args, "t_end")
    h = _positive(args, "h")
    problem, _ = analysis.dde_problem(
        "linear_gamma",
        j,
        tau,
        alpha=alpha,
        beta=beta,
        history=HistoryFunction.constant(1.0),
        t_end=t_end,
    )
    # Both chains are built first, so an infeasible one is refused before the solve.
    hypo, erlang = approx.fixed_hypoexp(j, tau), approx.erlang_approx(j, tau)
    sol = fcrk4_solve(problem, h, quad=_quad_config(args))
    times = np.linspace(0.0, t_end, 4001)
    try:
        gamma_growth = analysis.growth_rate(times, sol.query(times))
    except ValueError as exc:
        raise ConfigError(
            f"the growth rate over --t-end {t_end:g} cannot be fitted: {exc} in its second half"
        ) from None
    lam_hypo = analysis.dominant_eigenvalue(problem, hypo)
    lam_erl = analysis.dominant_eigenvalue(problem, erlang)
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
    tau = _positive(args, "tau")
    variants = ("erlang", "fixed", "smoothed")
    # Every chain is built first, so an infeasible one is refused before any fit.
    for variant in variants:
        approx.chain_params(variant, args.j, tau)
    if float(args.j).is_integer():
        phis = np.logspace(-3, -1, 10) * args.j / tau
        zeros = {
            variant: float(np.max(analysis.mgf_error(args.j, tau, variant, phis)))
            for variant in variants
        }
        _emit_json({"identically_zero": True, "max_abs_error": zeros}, args.out)
        return 0
    slopes = {variant: analysis.mgf_error_order(args.j, tau, variant) for variant in variants}
    _emit_json({"identically_zero": False, "slopes": slopes}, args.out)
    return 0


def cmd_survival(args):
    tau = _positive(args, "tau")
    if args.jump_at is not None:
        _refuse_unread(args, "survival --jump-at", ("--t-max", "--n-out", "--j"))
        jump_at = _finite(args, "jump_at")
        if not jump_at.is_integer():
            raise ConfigError(f"--jump-at {jump_at:g} must be an integer shape")
        t = JUMP_T if args.t is None else _finite(args, "t")
        if not t >= 0:
            raise ConfigError(f"--t must be nonnegative, got {t:g}")
        delta = JUMP_DELTA if args.delta is None else _positive(args, "delta")
        if not delta < jump_at - 1:  # a two-moment chain needs a shape above 1
            raise ConfigError(f"--delta {delta:g} must be below --jump-at {jump_at:g} minus 1")
        jump_fixed, jump_smoothed = analysis.integer_jump(jump_at, tau, t, delta=delta)
        _emit_json(
            {
                "jump_fixed": float(jump_fixed),
                "jump_smoothed": float(jump_smoothed),
                "t": t,
                "delta": delta,
            },
            args.out,
        )
        return 0
    _refuse_unread(args, "survival without --jump-at", ("--t", "--delta"))
    j = _positive(args, "j")
    n_out = SURVIVAL_N_OUT if args.n_out is None else _count(args, "n_out", 2)
    t_max = _finite(args, "t_max") if args.t_max is not None else 4.0 * tau
    if not t_max >= 0:
        raise ConfigError(f"--t-max must be nonnegative, got {t_max:g}")
    times = np.linspace(0.0, t_max, n_out)
    gamma_kernel = GammaKernel(shape=j, rate=j / tau)
    fixed_kernel = approx.fixed_hypoexp(j, tau).kernel()
    smooth_kernel = approx.smoothed_hypoexp(j, tau).kernel()
    columns = [
        times,
        gamma_survival(gamma_kernel, times),
        hypoexp_survival(fixed_kernel, times),
        hypoexp_survival(smooth_kernel, times),
    ]
    _write_csv(args.out, ["t", "gamma", "fixed", "smoothed"], columns)
    return 0


def cmd_moment_poly(args):
    if not 1 <= args.m <= analysis.MAX_DEGREE:
        raise ConfigError(f"--m must lie in 1..{analysis.MAX_DEGREE}, got degree {args.m}")
    if not 0 < args.fj < 1:
        raise ConfigError(f"--fj must lie in (0, 1), got {args.fj:g}")
    poly = analysis.fm_polynomial(args.m, args.fj)
    roots = analysis.real_roots(poly)
    record = analysis.gm_checks(args.m, args.fj)
    _emit_json(
        {
            "m": args.m,
            "fj": args.fj,
            "coefficients": [float(c) for c in poly],
            "real_roots": len(roots),
            "roots": [float(r) for r in roots],
            "gm_checks": {k: bool(v) for k, v in record.items()},
        },
        args.out,
    )
    return 0


def _sir_params(args, obs_times):
    return SirParams(
        beta=args.beta, tau=args.tau, j=args.j, eps=args.eps, M=args.M, obs_times=obs_times
    )


def _read_csv(path, kinds):
    """The columns of the CSV table at ``path`` named by the keys of
    ``kinds``, each a tuple of values parsed by its ``int`` or ``float``.

    Other columns are ignored, and LF and CRLF line endings read alike.  A
    missing column, or a missing or unparsable value in one, is refused by
    file and column.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            rows, header = list(reader), reader.fieldnames or ()
        except csv.Error as exc:  # a field over the csv module's size limit
            raise ConfigError(f"{path}: {exc}") from None
    columns = []
    for name, kind in kinds.items():
        if name not in header:
            raise ConfigError(f"{path} has no column {name!r}")
        try:  # a row that ends early holds None
            columns.append(tuple(kind(row[name] or "") for row in rows))
        except ValueError as exc:
            raise ConfigError(f"{path}, column {name!r}: {exc}") from None
    return columns


def _read_data(args):
    """(observation times, EpiData) from --cases and --serial."""
    obs_times, cases = _read_csv(args.cases, {"t": float, "count": int})
    serial = _read_csv(args.serial, {"interval": float})[0] if args.serial else ()
    return obs_times, EpiData(cases=cases, serial=serial)


def cmd_epi_simulate(args):
    k, n_serial = _count(args, "K", 1), _count(args, "L", 0)
    obs_dt = _positive(args, "obs_dt")
    params = _sir_params(args, tuple(obs_dt * (i + 1) for i in range(k)))
    data = simulate_dataset(Rng(args.seed), params, n_serial)
    _write_csv(args.cases, ["t", "count"], [params.obs_times, data.cases])
    _write_csv(args.serial, ["interval"], [data.serial])
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


def cmd_epi_loglik(args):
    obs_times, data = _read_data(args)
    params = _sir_params(args, obs_times)
    _emit_json(
        {
            "loglik": fit_log_likelihood(params, data),
            "beta": params.beta,
            "tau": params.tau,
            "j": params.j,
            "eps": params.eps,
            "M": params.M,
            "n_obs": len(obs_times),
            "n_serial": len(data.serial),
        }
    )
    return 0


def cmd_epi_fit(args):
    obs_times, data = _read_data(args)
    result = mle_fit(data, _sir_params(args, obs_times), max_evals=args.max_evals)
    _emit_json(dataclasses.asdict(result), args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.

# Defaults of the flags that only one mode of a command reads.  These flags
# default to None, so a mode that does not read one can refuse it when given.
CHAIN_VARIANT = "fixed"
JUMP_T = 4.0
JUMP_DELTA = 1e-6
SURVIVAL_N_OUT = 201

# Every flag's argparse settings, declared once and shared by the commands
# that take it.  A default here holds wherever the flag is taken; a default
# that differs between commands is given where the command is declared.
_FLAGS = {
    "--problem": dict(default="linear", choices=analysis.PROBLEMS, help="built-in test problem"),
    "--j": dict(type=float, help="gamma shape"),
    "--tau": dict(type=float, help="mean delay (epi: mean infectious period)"),
    "--alpha": dict(type=float, help="coefficient of x(t) in linear_gamma"),
    "--beta": dict(type=float, help="coefficient of the delayed term (epi: transmission rate)"),
    "--history": dict(help="const:c, exp:c:rho or eigen"),
    "--t-end": dict(type=float, help="end of the time window"),
    "--h": dict(type=float, default=0.05, help="FCRK step"),
    "--h-list": dict(default="0.1,0.05,0.025,0.0125", help="comma-separated FCRK steps"),
    "--xi": dict(type=float, help="step coupling h_int^4 = xi h^4 (default (1/8)^4)"),
    "--quad-step": dict(type=float, help="quadrature step h_int, in place of --xi"),
    "--rtol": dict(type=float, help=f"chain ODE relative tolerance (default {DEFAULT_RTOL:g})"),
    "--method": dict(default="fcrk4", choices=("fcrk4", "chain")),
    "--variant": dict(
        help=f"chain variant (default {CHAIN_VARIANT}): " + ", ".join(approx.VARIANTS)
    ),
    "--n-out": dict(type=int, help="number of output times"),
    "--t": dict(type=float, help=f"time of the survival jump (default {JUMP_T:g})"),
    "--t-max": dict(type=float, help="end of the survival grid (default 4 tau)"),
    "--jump-at": dict(type=float, help="integer shape: print the survival jumps there"),
    "--delta": dict(
        type=float, help=f"shape offset either side of --jump-at (default {JUMP_DELTA:g})"
    ),
    "--m": dict(type=int, required=True, help="polynomial degree"),
    "--fj": dict(type=float, required=True, help="fractional part of the shape"),
    "--seed": dict(type=int, default=0),
    "--K": dict(type=int, default=120, help="number of case observations"),
    "--L": dict(type=int, default=100, help="number of serial intervals"),
    "--obs-dt": dict(type=float, default=1.0, help="spacing of the case observations"),
    "--eps": dict(type=float, default=1e-3, help="initial infected fraction"),
    "--M": dict(type=float, default=1000.0, help="population scale"),
    "--cases": dict(default="cases.csv", help="case-count CSV"),
    "--serial": dict(default="serial.csv", help="serial-interval CSV"),
    "--max-evals": dict(type=int, default=500, help="Nelder-Mead evaluation budget"),
    "--out": dict(help="output file"),
}

_PROBLEM = ("--problem", "--j", "--tau", "--alpha", "--beta", "--history", "--t-end")
_QUAD = ("--xi", "--quad-step")
_SIR = ("--beta", "--tau", "--j", "--eps", "--M", "--cases", "--serial")
_SIR_DEFAULTS = dict(beta=0.5, tau=5.0, j=4.0)


# The command table: per command, its words on the command line, its help,
# its function, the flags it takes, those it requires, and its own defaults.
_COMMANDS = (
    (("solve",), "integrate one problem, write trajectory CSV", cmd_solve,
     _PROBLEM + ("--h",) + _QUAD + ("--method", "--variant", "--rtol", "--out"), (),
     dict(t_end=10.0)),
    (("convergence",), "step-size sweep and fitted order", cmd_convergence,
     _PROBLEM + ("--h-list",) + _QUAD + ("--out",), (), dict(t_end=10.0)),
    (("compare",), "gamma DDE against its three chains", cmd_compare,
     _PROBLEM + ("--h",) + _QUAD + ("--n-out", "--rtol", "--out"), (),
     dict(t_end=10.0, n_out=501)),
    (("stability",), "growth-rate and spectrum comparison", cmd_stability,
     ("--j", "--tau", "--alpha", "--beta", "--t-end", "--h") + _QUAD + ("--out",), (),
     dict(t_end=80.0, tau=analysis.default_tau("linear_gamma"))),
    (("mgf-order",), "kernel-replacement MGF error slopes", cmd_mgf_order,
     ("--j", "--tau", "--out"), ("--j",), dict(tau=1.0)),
    (("survival",), "survival curves or integer-jump sizes", cmd_survival,
     ("--j", "--tau", "--t", "--t-max", "--n-out", "--jump-at", "--delta", "--out"), (),
     dict(tau=1.0)),
    (("moment-poly",), "moment-matching polynomial roots", cmd_moment_poly,
     ("--m", "--fj", "--out"), (), {}),
    (("epi", "simulate"), "seeded synthetic cases and serial intervals", cmd_epi_simulate,
     ("--seed", "--K", "--L", "--obs-dt") + _SIR, (), _SIR_DEFAULTS),
    (("epi", "loglik"), "log-likelihood of the data at one point", cmd_epi_loglik,
     _SIR, (), _SIR_DEFAULTS),
    (("epi", "fit"), "maximum-likelihood fit", cmd_epi_fit,
     _SIR + ("--max-evals", "--out"), (), _SIR_DEFAULTS),
)


@functools.cache
def build_parser():
    """The parser of every command, built at the first call and then reused.

    Parsing leaves a parser as it was: each call fills a new namespace, and
    no flag here collects into a default (no ``append`` action), so one
    parser serves every ``main`` call of a process.  Its callers share it,
    so none may change it.
    """
    parser = argparse.ArgumentParser(
        prog="gamma-dde",
        description="Gamma-distributed DDE solver and chain approximations",
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="JSON object of flag values; explicit flags win")
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, help, func, flags, required, defaults in _COMMANDS:
        if words[:-1] not in groups:  # the epi commands, after the others
            epi = groups[()].add_parser(
                "epi", help="SIR chain: simulate, loglik, fit", allow_abbrev=False
            )
            groups[words[:-1]] = epi.add_subparsers(dest="epi_action", required=True)
        sub = groups[words[:-1]].add_parser(words[-1], help=help, allow_abbrev=False)
        for flag in flags:
            extra = {"required": True} if flag in required else {}
            sub.add_argument(flag, **_FLAGS[flag], **extra)
        sub.set_defaults(func=func, **defaults)
    return parser


def _config_flags(parser, path):
    """The entries of the JSON object in ``path`` as ``--flag=value`` tokens.

    A key is a flag name without its dashes (``t_end`` or ``t-end``).  A
    numeric flag takes a JSON number and any other flag a JSON string; the
    command's parser then checks the value as it checks the flag, and
    rejects a key that is not one of the command's flags.
    """
    with open(path) as fh:
        entries = json.load(fh)
    if not isinstance(entries, dict):
        parser.error("config file must hold a JSON object")
    tokens = []
    for key, value in entries.items():
        flag = "--" + key.replace("_", "-")
        if flag in _FLAGS:
            numeric = _FLAGS[flag].get("type") in (int, float)
            if isinstance(value, bool) or not isinstance(value, (int, float) if numeric else str):
                kind = "number" if numeric else "string"
                parser.error(f"config key {key!r} takes a JSON {kind}, got {json.dumps(value)}")
        tokens.append(f"{flag}={value}")
    return tokens


def _with_config(parser, argv, args):
    """``argv`` with the --config entries spliced in right after the command
    name, so the command's parser reads them before the explicit flags."""
    at = 0
    while argv[at] != args.command:  # only --config comes before the command
        at += 1 if argv[at].startswith("--config=") else 2
    at += 2 if args.command == "epi" else 1
    return argv[:at] + _config_flags(parser, args.config) + argv[at:]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_with_config(parser, argv, args))
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
