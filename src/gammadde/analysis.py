"""Quantitative studies of the solver and the chain approximations:
convergence-order estimation, closed-form and chain reference solutions of
the built-in test problems, characteristic-root eigenfunction solutions,
MGF error orders, survival-function comparisons, linear-stability spectra,
and the moment-matching polynomials with their root-count properties.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import approximations as approx
from .chain_reduction import HistoryFunction, build_erlang_system
from .distributions import (
    GammaKernel,
    gamma_mgf,
    gamma_survival,
    hypoexp_mgf,
    hypoexp_survival,
)
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
# Built-in test problems.
#
# linear:     x' = 4/5 x - 11/10 (x * g),  history 1,    mean delay 1
# nonlinear:  x' = x - x (x * g) / K,      history 1,    K = 2, mean delay 9/4
# linear_gamma: x' = alpha x + beta (x * g)   (eigenfunction problem)


def linear_rhs():
    return lambda x, conv: 0.8 * x - 1.1 * conv


def nonlinear_rhs(capacity=2.0):
    return lambda x, conv: x - x * conv / capacity


def linear_gamma_rhs(alpha, beta):
    return lambda x, conv: alpha * x + beta * conv


def linear_dde_problem(j, tau=1.0, t_end=10.0, history=None):
    history = history or HistoryFunction.constant(1.0)
    return DdeProblem(
        rhs=linear_rhs(),
        kernel=GammaKernel(shape=j, rate=j / tau),
        history=history,
        t0=0.0,
        t_end=t_end,
    )


def nonlinear_dde_problem(j, tau=2.25, t_end=10.0, capacity=2.0, history=None):
    history = history or HistoryFunction.constant(1.0)
    return DdeProblem(
        rhs=nonlinear_rhs(capacity),
        kernel=GammaKernel(shape=j, rate=j / tau),
        history=history,
        t0=0.0,
        t_end=t_end,
    )


def eigenfunction_problem(tau, j, beta, t_end=10.0, amplitude=1.0):
    """Linear problem with alpha = -a whose exact solution is an
    exponential along the principal characteristic root."""
    a = j / tau
    lam = char_root(tau, j, beta)
    history = HistoryFunction.exponential(amplitude, lam)
    problem = DdeProblem(
        rhs=linear_gamma_rhs(-a, beta),
        kernel=GammaKernel(shape=j, rate=a),
        history=history,
        t0=0.0,
        t_end=t_end,
    )
    return problem, lam


def _chain_reference(F, j, tau, t_end, times, history):
    """Reference trajectory of the exact chain reduction for integer j."""
    if not float(j).is_integer():
        raise ValueError("chain references need an integer shape")
    params = approx.erlang_approx(j, tau)
    problem = build_erlang_system(F, params, history, 0.0, t_end)
    cfg = OdeConfig(rtol=1e-12, atol=1e-12)
    _, states = rk45_adaptive(problem.rhs, problem.y0, 0.0, t_end, cfg, t_eval=times)
    return states[:, 0]


def linear_test_reference(j, t, tau=1.0):
    """Solution of the linear test problem at integer j.

    j = 1 has the closed form exp(-t/10)(cos(sqrt(29) t / 10) +
    B sin(sqrt(29) t / 10)); the coefficient B = -2/sqrt(29) is fixed by
    the initial slope x'(0) = 4/5 - 11/10 = -3/10 and verified by
    substitution into the equivalent two-compartment ODE.  Other integer
    shapes are integrated from the exact chain at tolerance 1e-12.
    """
    if not float(j).is_integer():
        raise ValueError("reference defined for integer shapes only")
    t_arr = np.asarray(t, dtype=float)
    if int(j) == 1 and tau == 1.0:
        omega = math.sqrt(29.0) / 10.0
        b_coef = -2.0 / math.sqrt(29.0)
        out = np.exp(-t_arr / 10.0) * (
            np.cos(omega * t_arr) + b_coef * np.sin(omega * t_arr)
        )
        return out if out.ndim else float(out)
    times = np.atleast_1d(t_arr)
    vals = _chain_reference(
        linear_rhs(), int(j), tau, float(times.max()), times, HistoryFunction.constant(1.0)
    )
    return vals.reshape(t_arr.shape) if t_arr.ndim else float(vals[0])


def nonlinear_test_reference(j, t, tau=2.25, capacity=2.0):
    """Chain-integrated solution of the logistic test problem, integer j."""
    if not float(j).is_integer():
        raise ValueError("reference defined for integer shapes only")
    t_arr = np.asarray(t, dtype=float)
    times = np.atleast_1d(t_arr)
    vals = _chain_reference(
        nonlinear_rhs(capacity),
        int(j),
        tau,
        float(times.max()),
        times,
        HistoryFunction.constant(1.0),
    )
    return vals.reshape(t_arr.shape) if t_arr.ndim else float(vals[0])


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


def characteristic_residual(lam, tau, j, alpha, beta):
    """Delta(lambda) = lambda - alpha - beta a^j / (a + lambda)^j."""
    a = j / tau
    return lam - alpha - beta * a**j / (a + lam) ** j


# ---------------------------------------------------------------------------
# Kernel-replacement error in MGF form.


def mgf_error(j, tau, variant, phi):
    """|M_gamma(-phi) - M_approx(-phi)| at (arrays of) phi > 0."""
    gamma = GammaKernel(shape=j, rate=j / tau)
    kern = approx.chain_params(variant, j, tau).kernel()
    phi_arr = np.asarray(phi, dtype=float)
    return np.abs(gamma_mgf(gamma, -phi_arr) - hypoexp_mgf(kern, -phi_arr))


def mgf_error_order(j, tau, variant, rel_phi=None):
    """Fitted slope of log |MGF difference| against log(phi/a).

    Defined for non-integer shapes; at integer shapes the difference
    vanishes identically and there is nothing to fit.
    """
    if float(j).is_integer():
        raise ValueError("MGF error vanishes identically at integer shapes")
    a = j / tau
    rel = np.logspace(-3, -1, 10) if rel_phi is None else np.asarray(rel_phi)
    errs = mgf_error(j, tau, variant, rel * a)
    slope, _ = np.polyfit(np.log10(rel), np.log10(errs), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# Survival-function comparison between the gamma kernel and its chains.


def survival_compare(j, tau, t):
    """(gamma, fixed-chain, smoothed-chain) survival values at time t."""
    gamma = GammaKernel(shape=j, rate=j / tau)
    u = gamma_survival(gamma, t)
    y_fixed = hypoexp_survival(approx.fixed_hypoexp(j, tau).kernel(), t)
    y_smooth = hypoexp_survival(approx.smoothed_hypoexp(j, tau).kernel(), t)
    return u, y_fixed, y_smooth


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
    """System matrix of the chain reduction of x' = alpha x + beta conv."""
    rates = params.rates()
    n = len(rates)
    m = np.zeros((n + 1, n + 1))
    m[0, 0] = alpha
    m[0, n] = beta * rates[-1]
    m[1, 0] = 1.0
    m[1, 1] = -rates[0]
    for i in range(1, n):
        m[i + 1, i] = rates[i - 1]
        m[i + 1, i + 1] = -rates[i]
    return m


def dominant_eigenvalue(alpha, beta, params):
    """Eigenvalue of the chain system matrix with the largest real part."""
    eig = np.linalg.eigvals(chain_matrix(alpha, beta, params))
    return eig[np.argmax(eig.real)]


def growth_rate(times, values, min_peaks=4):
    """Envelope growth rate of an oscillatory trajectory.

    Least-squares slope of log |peak| over the local maxima of |x| in the
    second half of the span; needs at least ``min_peaks`` of them.
    """
    t = np.asarray(times, dtype=float)
    x = np.abs(np.asarray(values, dtype=float))
    half = t >= t[0] + 0.5 * (t[-1] - t[0])
    t, x = t[half], x[half]
    interior = (x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:])
    idx = np.where(interior)[0] + 1
    idx = idx[x[idx] > 0]
    if idx.size < min_peaks:
        raise ValueError(f"need at least {min_peaks} envelope peaks, found {idx.size}")
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


def falling_factorial(z, k):
    """(z)_k = z (z-1) ... (z-k+1) via the stable recurrence."""
    out = 1.0
    for i in range(k):
        out *= z - i
    return out


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


def polynomial_roots(poly):
    """All complex roots, via the companion-matrix eigenvalues."""
    return np.roots(np.asarray(poly.coefficients))


def real_root_count(poly, imag_tol=1e-7):
    """Number of roots with |Im| < imag_tol (1 + |Re|)."""
    roots = polynomial_roots(poly)
    real = np.abs(roots.imag) < imag_tol * (1.0 + np.abs(roots.real))
    return int(real.sum())


def real_roots(poly, imag_tol=1e-7):
    roots = polynomial_roots(poly)
    keep = np.abs(roots.imag) < imag_tol * (1.0 + np.abs(roots.real))
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


def gm_checks(m, frac, n_points=20, fd_step=1e-6, rel_tol=1e-6):
    """Structural identities of the g_m family, as a pass/fail record.

    Checks g_m(0) = 1, the sign of g_m(1) (negative for even m, positive
    for odd), the derivative recurrence g_m' = -(m-1+frac) g_(m-1) by
    central differences, the odd-m lower bound g_m > (1-x)^m on (0, 1),
    and the even-m single sign change on [0, 1].
    """
    record = {}
    record["value_at_zero"] = abs(gm_value(m, frac, 0.0) - 1.0) < 1e-12
    g1 = gm_value(m, frac, 1.0)
    record["sign_at_one"] = (g1 < 0) if m % 2 == 0 else (g1 > 0)
    xs = np.linspace(0.05, 0.95, n_points)
    if m >= 1:
        fd = (gm_value(m, frac, xs + fd_step) - gm_value(m, frac, xs - fd_step)) / (
            2 * fd_step
        )
        target = -(m - 1 + frac) * gm_value(m - 1, frac, xs)
        # Mixed tolerance: the target crosses zero inside (0, 1) for even
        # m-1, where a pure relative comparison is ill-posed.
        scale = np.maximum(np.abs(target), 1.0)
        record["derivative_recurrence"] = bool(
            np.all(np.abs(fd - target) / scale < rel_tol)
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
