"""Quantitative studies of the solver and the chain approximations.

* The built-in test problems, in one registry: ``dde_problem(name, j, ...)``
  returns a problem and its reference solution for each name in
  ``PROBLEMS``, and ``chain_trajectory`` integrates any chain reduction.
* Convergence-order estimation.
* MGF error orders and survival jumps of the kernel replacements.
* Linear-stability spectra of the chains and trajectory growth rates.
* The moment-matching polynomials with their root-count properties.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import approximations as approx
from .chain_reduction import HistoryFunction, build_erlang_system, build_hypoexp_system
from .distributions import GammaKernel, gamma_mgf, hypoexp_mgf, hypoexp_survival, stage_generator
# Not called here: bench/layer_trace.py times gamma_survival through this
# module and reports its metrics absent when the name is missing.
from .distributions import gamma_survival  # noqa: F401
from .fcrk import DdeProblem
from .ode_solver import OdeConfig, rk45_adaptive

#: Machine-precision floor used when fitting convergence slopes.
ERROR_FLOOR = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class ConvergenceReport:
    """(h, max error) samples plus the fitted log-log line."""

    h: tuple
    errors: tuple
    slope: float
    intercept: float


def estimate_order(h_values, errors):
    """Least-squares slope of log10(error) against log10(h).

    Points at or below the machine-precision floor are excluded so a
    saturated error curve does not drag the fitted order down.
    """
    h_arr = np.asarray(h_values, dtype=float)
    e_arr = np.asarray(errors, dtype=float)
    if h_arr.size < 3:
        raise ValueError("need at least three (h, error) pairs")
    if np.any(e_arr <= 0):
        raise ValueError("errors must be positive")
    keep = e_arr > ERROR_FLOOR
    if keep.sum() < 2:
        raise ValueError("all errors sit at the precision floor")
    slope, intercept = np.polyfit(np.log10(h_arr[keep]), np.log10(e_arr[keep]), 1)
    return ConvergenceReport(
        h=tuple(h_arr), errors=tuple(e_arr), slope=float(slope), intercept=float(intercept)
    )


# ---------------------------------------------------------------------------
# The built-in test problems and their references.
#
# linear:        x' = 4/5 x - 11/10 (x * g),  tau 1,    history 1
# nonlinear:     x' = x - x (x * g) / 2,      tau 9/4,  history 1
# linear_gamma:  x' = alpha x + beta (x * g), tau 1,    alpha -a by default
#                (a = j/tau); history e^(lambda s) along the principal
#                characteristic root when alpha = -a, else 1
#
# Each builder maps (j, tau, alpha, beta, history) to (rhs, history,
# closed form or None); a closed form holds only for the default history.


def _no_coefficients(name, alpha, beta, history):
    if alpha is not None or beta is not None:
        raise ValueError(f"problem {name} takes no alpha or beta")
    if history == "eigen":
        raise ValueError("history 'eigen' only applies to linear_gamma")
    return HistoryFunction.constant(1.0) if history is None else history


def _damped_cosine(t):
    """Linear problem at j = 1, tau = 1: exp(-t/10)(cos(sqrt(29) t / 10) +
    B sin(sqrt(29) t / 10)), with B = -2/sqrt(29) fixed by the initial slope
    x'(0) = 4/5 - 11/10 = -3/10 of the equivalent two-compartment ODE."""
    t_arr = np.asarray(t, dtype=float)
    omega = math.sqrt(29.0) / 10.0
    b_coef = -2.0 / math.sqrt(29.0)
    out = np.exp(-t_arr / 10.0) * (np.cos(omega * t_arr) + b_coef * np.sin(omega * t_arr))
    return out if out.ndim else float(out)


def _linear(j, tau, alpha, beta, history):
    closed = _damped_cosine if history is None and j == 1 and tau == 1.0 else None
    history = _no_coefficients("linear", alpha, beta, history)
    return (lambda x, conv: 0.8 * x - 1.1 * conv), history, closed


def _nonlinear(j, tau, alpha, beta, history):
    history = _no_coefficients("nonlinear", alpha, beta, history)
    return (lambda x, conv: x - x * conv / 2.0), history, None


def _linear_gamma(j, tau, alpha, beta, history):
    if beta is None:
        raise ValueError("problem linear_gamma needs beta")
    a = j / tau
    alpha = -a if alpha is None else alpha
    rhs = lambda x, conv: alpha * x + beta * conv
    if history not in (None, "eigen"):
        return rhs, history, None
    if alpha != -a:
        if history == "eigen":
            raise ValueError("history 'eigen' only applies to linear_gamma with alpha = -a")
        return rhs, HistoryFunction.constant(1.0), None
    lam = char_root(tau, j, beta)
    return rhs, HistoryFunction.exponential(1.0, lam), lambda t: np.exp(lam * t)


_PROBLEMS = {
    # name: (default tau, builder)
    "linear": (1.0, _linear),
    "nonlinear": (2.25, _nonlinear),
    "linear_gamma": (1.0, _linear_gamma),
}

#: Names accepted by :func:`dde_problem`.
PROBLEMS = tuple(_PROBLEMS)


def default_tau(name):
    """The named problem's mean delay when none is given."""
    if name not in _PROBLEMS:
        raise ValueError(f"unknown problem {name!r} (choose from {PROBLEMS})")
    return _PROBLEMS[name][0]


def dde_problem(name, j, tau=None, *, alpha=None, beta=None, history=None, t_end=10.0):
    """(DdeProblem, reference) for the named built-in problem.

    ``history`` is a :class:`HistoryFunction`, ``None`` for the problem's
    default, or ``"eigen"`` (``linear_gamma`` with alpha = -a only).  The
    reference maps times to exact solution values: the closed form where one
    holds, otherwise at integer j the exact Erlang chain of the problem's own
    rhs and history (integrated at tolerance 1e-12), otherwise it is None.
    """
    tau = default_tau(name) if tau is None else tau
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    kernel = GammaKernel(shape=j, rate=j / tau)
    rhs, history, closed = _PROBLEMS[name][1](j, tau, alpha, beta, history)
    problem = DdeProblem(rhs=rhs, kernel=kernel, history=history, t0=0.0, t_end=t_end)
    if closed is not None:
        return problem, closed
    if not float(j).is_integer():
        return problem, None
    params = approx.erlang_approx(int(j), tau)
    cfg = OdeConfig(rtol=1e-12, atol=1e-12)

    def chain_reference(t):
        t_arr = np.asarray(t, dtype=float)
        times = np.atleast_1d(t_arr)
        states, _ = chain_trajectory(rhs, params, history, float(times.max()), times, cfg)
        return states[:, 0].reshape(t_arr.shape) if t_arr.ndim else float(states[0, 0])

    return problem, chain_reference


def chain_trajectory(F, params, history, t_end, times, cfg):
    """(states, labels) of the chain reduction of x' = F(x, conv) with the
    given chain, started from ``history`` at t = 0 and sampled at ``times``
    with the ODE settings ``cfg``."""
    if params.variant == "erlang":
        problem = build_erlang_system(F, params, history)
    else:
        problem = build_hypoexp_system(F, params, history)
    _, states = rk45_adaptive(problem.rhs, problem.y0, 0.0, t_end, cfg, t_eval=times)
    return states, problem.labels


def linear_test_reference(j, t):
    """Solution of the linear test problem at integer j and its default tau
    and history (the closed form at j = 1)."""
    _, reference = dde_problem("linear", j)
    if reference is None:
        raise ValueError("reference defined for integer shapes only")
    return reference(t)


def char_root(tau, j, beta):
    """Principal real characteristic root lambda = (beta a^j)^(1/(j+1)) - a
    of the linear problem with alpha = -a, a = j/tau.

    ce^(lambda t) with history ce^(lambda s) then solves the problem
    exactly.  Requires 0 < beta < 2^(j+1) a.
    """
    if tau <= 0 or j <= 0:
        raise ValueError("tau and j must be positive")
    a = j / tau
    if not (0.0 < beta < 2.0 ** (j + 1) * a):
        raise ValueError(f"beta must lie in (0, {2.0 ** (j + 1) * a:.6g})")
    return (beta * a**j) ** (1.0 / (j + 1.0)) - a


# ---------------------------------------------------------------------------
# Kernel-replacement error in MGF form.


def mgf_error(j, tau, variant, phi):
    """|M_gamma(-phi) - M_approx(-phi)| at (arrays of) phi > 0."""
    gamma = GammaKernel(shape=j, rate=j / tau)
    kern = approx.chain_params(variant, j, tau).kernel()
    phi_arr = np.asarray(phi, dtype=float)
    return np.abs(gamma_mgf(gamma, -phi_arr) - hypoexp_mgf(kern, -phi_arr))


def mgf_error_order(j, tau, variant):
    """Fitted slope of log |MGF difference| against log(phi/a).

    Defined for non-integer shapes; at integer shapes the difference
    vanishes identically and there is nothing to fit.  Raises ValueError
    when the errors do not grow strictly over the window, which happens at
    large shapes once the window leaves the small-phi regime.
    """
    if float(j).is_integer():
        raise ValueError("MGF error vanishes identically at integer shapes")
    a = j / tau
    rel = np.logspace(-3, -1, 10)
    errs = mgf_error(j, tau, variant, rel * a)
    if not np.all(np.diff(errs) > 0):
        raise ValueError(
            f"{variant} chain's MGF errors at shape {j:g} do not grow over "
            "phi/a in [1e-3, 1e-1]: the window has left the small-phi regime"
        )
    slope, _ = np.polyfit(np.log10(rel), np.log10(errs), 1)
    return float(slope)


def integer_jump(j0, tau, t, delta=1e-6):
    """Survival jumps across an integer shape for both chain variants."""
    if not float(j0).is_integer():
        raise ValueError("jump is measured at integer shapes")
    jumps = []
    for builder in (approx.fixed_hypoexp, approx.smoothed_hypoexp):
        above = hypoexp_survival(builder(j0 + delta, tau).kernel(), t)
        below = hypoexp_survival(builder(j0 - delta, tau).kernel(), t)
        jumps.append(abs(above - below))
    return tuple(jumps)


# ---------------------------------------------------------------------------
# Linear stability of the chain reductions.


def chain_matrix(alpha, beta, params):
    """System matrix of the chain reduction of x' = alpha x + beta conv.

    The stages hold the transposed stage generator, fed by x into stage 1.
    """
    rates = params.rates()
    n = len(rates)
    m = np.zeros((n + 1, n + 1))
    m[0, 0] = alpha
    m[0, n] = beta * rates[-1]
    m[1, 0] = 1.0
    m[1:, 1:] = stage_generator(rates).T
    return m


def dominant_eigenvalue(alpha, beta, params):
    """Eigenvalue of the chain system matrix with the largest real part."""
    eig = np.linalg.eigvals(chain_matrix(alpha, beta, params))
    return eig[np.argmax(eig.real)]


def growth_rate(times, values):
    """Envelope growth rate of an oscillatory trajectory.

    Least-squares slope of log |peak| over the local maxima of |x| in the
    second half of the span; needs at least four of them.
    """
    t = np.asarray(times, dtype=float)
    x = np.abs(np.asarray(values, dtype=float))
    half = t >= t[0] + 0.5 * (t[-1] - t[0])
    t, x = t[half], x[half]
    interior = (x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:])
    idx = np.where(interior)[0] + 1
    idx = idx[x[idx] > 0]
    if idx.size < 4:
        raise ValueError(f"need at least 4 envelope peaks, found {idx.size}")
    slope, _ = np.polyfit(t[idx], np.log(x[idx]), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Moment-matching polynomials f_m and g_m.


@dataclass(frozen=True)
class MomentPolynomial:
    """f_m(x) = sum_k (-1)^k x^(m-k) (m-1+f)_k / k! with f the fractional
    part of the target shape; its real roots are the admissible free
    residence times when matching m moments."""

    degree: int
    frac: float
    coefficients: tuple  # descending powers, leading 1


def fm_polynomial(m, frac):
    """Moment-matching polynomial of degree m for fractional part frac."""
    if m < 1:
        raise ValueError("degree must be at least 1")
    if not (0.0 < frac < 1.0):
        raise ValueError("fractional part must lie in (0, 1)")
    coeffs = []
    poch = 1.0
    factorial = 1.0
    for k in range(m + 1):
        if k > 0:
            poch *= m - k + frac  # (m-1+frac)_k from (m-1+frac)_(k-1)
            factorial *= k
        coeffs.append((-1.0) ** k * poch / factorial)
    return MomentPolynomial(degree=m, frac=frac, coefficients=tuple(coeffs))


def real_roots(poly):
    """Sorted real parts of the roots (the companion-matrix eigenvalues)
    with |Im| < 1e-7 (1 + |Re|)."""
    roots = np.roots(np.asarray(poly.coefficients))
    keep = np.abs(roots.imag) < 1e-7 * (1.0 + np.abs(roots.real))
    return np.sort(roots[keep].real)


def gm_value(m, frac, x):
    """g_m(x) = x^m f_m(1/x) = sum_k (-1)^k x^k (m-1+frac)_k / k!."""
    x_arr = np.asarray(x, dtype=float)
    out = np.zeros_like(x_arr)
    poch = 1.0
    factorial = 1.0
    for k in range(m + 1):
        if k > 0:
            poch *= m - k + frac
            factorial *= k
        out = out + (-1.0) ** k * poch / factorial * x_arr**k
    return out if out.ndim else float(out)


def gm_checks(m, frac):
    """Structural identities of the g_m family, as a pass/fail record.

    Checks g_m(0) = 1, the sign of g_m(1) (negative for even m, positive
    for odd), the derivative recurrence g_m' = -(m-1+frac) g_(m-1) by
    central differences (step 1e-6, tolerance 1e-6 at 20 points), the odd-m
    lower bound g_m > (1-x)^m on (0, 1), and the even-m single sign change
    on [0, 1].
    """
    record = {}
    record["value_at_zero"] = abs(gm_value(m, frac, 0.0) - 1.0) < 1e-12
    g1 = gm_value(m, frac, 1.0)
    record["sign_at_one"] = (g1 < 0) if m % 2 == 0 else (g1 > 0)
    xs = np.linspace(0.05, 0.95, 20)
    if m >= 1:
        fd_step = 1e-6
        fd = (gm_value(m, frac, xs + fd_step) - gm_value(m, frac, xs - fd_step)) / (
            2 * fd_step
        )
        target = -(m - 1 + frac) * gm_value(m - 1, frac, xs)
        # Mixed tolerance: the target crosses zero inside (0, 1) for even
        # m-1, where a pure relative comparison is ill-posed.
        scale = np.maximum(np.abs(target), 1.0)
        record["derivative_recurrence"] = bool(
            np.all(np.abs(fd - target) / scale < 1e-6)
        )
    if m % 2 == 1:
        record["odd_lower_bound"] = bool(
            np.all(gm_value(m, frac, xs) > (1.0 - xs) ** m)
        )
    else:
        fine = np.linspace(0.0, 1.0, 2001)
        signs = np.sign(gm_value(m, frac, fine))
        changes = int(np.sum(signs[:-1] * signs[1:] < 0))
        record["even_single_root"] = changes == 1
    record["all_passed"] = all(record.values())
    return record
