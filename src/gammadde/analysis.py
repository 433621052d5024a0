"""Quantitative studies of the solver and the chain approximations.

* The built-in test problems, in one registry: ``dde_problem(name, j, ...)``
  returns a problem and its reference solution for each name in
  ``PROBLEMS``; ``chain_system`` builds any chain reduction, and
  ``ode_solver`` checks and integrates it.
* Convergence-order estimation.
* MGF error orders and survival jumps of the kernel replacements.
* Linear-stability spectra of the chains and trajectory growth rates.
* The moment-matching polynomials with their root-count properties.
"""

import math

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from . import approximations as approx
from .chain_reduction import HistoryFunction, build_erlang_system, build_hypoexp_system
from .distributions import GammaKernel, gamma_mgf, hypoexp_mgf, hypoexp_survival
# Not called here: bench/layer_trace.py times gamma_survival through this
# module and reports its metrics absent when the name is missing.
from .distributions import gamma_survival  # noqa: F401
from .fcrk import DdeProblem
from .ode_solver import check_chain, rk45_adaptive

#: Machine-precision floor used when fitting convergence slopes.
ERROR_FLOOR = 100 * np.finfo(float).eps


def estimate_order(h_values, errors):
    """(slope, intercept) of the least-squares line of log10(error) against
    log10(h), fitted to errors at three or more distinct steps.

    Points at or below the machine-precision floor are excluded so a
    saturated error curve does not drag the fitted order down.
    """
    h_arr = np.asarray(h_values, dtype=float)
    e_arr = np.asarray(errors, dtype=float)
    if np.unique(h_arr).size < 3:
        raise ValueError("need errors at three or more distinct steps")
    if np.any(e_arr <= 0):
        raise ValueError("errors must be positive")
    keep = e_arr > ERROR_FLOOR
    if np.unique(h_arr[keep]).size < 2:
        raise ValueError("the errors at all but one step sit at the precision floor")
    slope, intercept = np.polyfit(np.log10(h_arr[keep]), np.log10(e_arr[keep]), 1)
    return float(slope), float(intercept)


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
    holds, otherwise at integer j the exact Erlang chain of the problem
    itself (an :class:`ErlangReference`), otherwise it is None.
    """
    tau = default_tau(name) if tau is None else tau
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    kernel = GammaKernel(shape=j, rate=j / tau)
    rhs, history, reference = _PROBLEMS[name][1](j, tau, alpha, beta, history)
    problem = DdeProblem(rhs=rhs, kernel=kernel, history=history, t0=0.0, t_end=t_end)
    if reference is None and float(j).is_integer():
        reference = ErlangReference(problem, j, tau)
    return problem, reference


class ErlangReference:
    """The exact solution of ``problem`` at integer shape j: its Erlang chain,
    solved when called at the default rtol (LSODA receives rtol 1e-13 and
    atol 1e-15).  :meth:`chain` builds and checks the chain alone."""

    def __init__(self, problem, j, tau):
        self.problem, self.j, self.tau = problem, j, tau

    def chain(self):
        params = approx.erlang_approx(int(self.j), self.tau)
        check_chain(self.j, self.tau, params)
        return chain_system(self.problem, params)

    def __call__(self, t):
        chain = self.chain()
        t_arr = np.asarray(t, dtype=float)
        states = rk45_adaptive(chain.rhs, chain.y0, np.atleast_1d(t_arr))
        return states[:, 0].reshape(t_arr.shape) if t_arr.ndim else float(states[0, 0])


def chain_system(problem, params):
    """The chain reduction of the :class:`DdeProblem` ``problem`` on the
    chain ``params`` of any variant."""
    if params.variant == "erlang":
        return build_erlang_system(problem, params)
    return build_hypoexp_system(problem, params)


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
    # 2^(j+1) leaves the float range from j = 1023 on.
    bound = 2.0 ** (j + 1) * a if j < 1023 else math.inf
    if not (0.0 < beta < bound):
        raise ValueError(f"beta must lie in (0, {bound:.6g})")
    try:
        scaled = beta * a**j
    except OverflowError:
        scaled = math.inf
    if not 0.0 < scaled < math.inf:
        raise ValueError(f"beta (j/tau)^j leaves the float range at j = {j:g}, tau = {tau:g}")
    return scaled ** (1.0 / (j + 1.0)) - a


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


def dominant_eigenvalue(problem, params):
    """Eigenvalue with the largest real part of the system matrix of the
    chain reduction of the linear ``problem``, such as ``linear_gamma``'s
    x' = alpha x + beta conv, on the chain ``params``.  The rhs is linear,
    so the matrix is read off it one column per unit state."""
    chain = chain_system(problem, params)
    columns = [chain.rhs(0.0, unit) for unit in np.eye(len(chain.y0))]
    eig = np.linalg.eigvals(np.column_stack(columns))
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


#: Highest degree of a moment-matching polynomial.  Its coefficient
#: recurrence carries k! and the falling factorial (m-1+frac)_k, both finite
#: up to k = 170 (170! is 7.3e306); from degree 171 on they overflow and the
#: coefficients come out nan.  The tests go up to degree 8; the benchmark
#: builds none.
MAX_DEGREE = 170


def fm_polynomial(m, frac):
    """Coefficients, in descending powers with leading 1, of the
    moment-matching polynomial f_m(x) = sum_k (-1)^k x^(m-k) (m-1+f)_k / k!
    of degree m, with f the fractional part of the target shape; its real
    roots are the admissible free residence times when matching m moments."""
    if m < 1:
        raise ValueError("degree must be at least 1")
    if not (0.0 < frac < 1.0):
        raise ValueError("fractional part must lie in (0, 1)")
    return _moment_coefficients(m, frac)


def _moment_coefficients(m, frac):
    """c_k = (-1)^k (m-1+frac)_k / k! for k = 0..m, any m >= 0: f_m's
    coefficients in descending powers and g_m's in ascending ones."""
    if m > MAX_DEGREE:
        raise ValueError(
            f"degree {m} is above {MAX_DEGREE}, where the coefficients overflow"
        )
    coeffs = []
    poch = 1.0
    factorial = 1.0
    for k in range(m + 1):
        if k > 0:
            poch *= m - k + frac  # (m-1+frac)_k from (m-1+frac)_(k-1)
            factorial *= k
        coeffs.append((-1.0) ** k * poch / factorial)
    return tuple(coeffs)


def real_roots(coefficients):
    """Sorted real parts of the roots of the polynomial with the given
    coefficients in descending powers (the companion-matrix eigenvalues)
    with |Im| < 1e-7 (1 + |Re|)."""
    roots = np.roots(np.asarray(coefficients))
    keep = np.abs(roots.imag) < 1e-7 * (1.0 + np.abs(roots.real))
    return np.sort(roots[keep].real)


def gm_value(m, frac, x):
    """g_m(x) = x^m f_m(1/x) = sum_k (-1)^k x^k (m-1+frac)_k / k!."""
    out = polyval(np.asarray(x, dtype=float), _moment_coefficients(m, frac))
    return out if out.ndim else float(out)


def gm_checks(m, frac):
    """Structural identities of the g_m family, as a pass/fail record.

    Checks g_m(0) = 1, the sign of g_m(1) (negative for even m, positive
    for odd), the derivative recurrence g_m' = -(m-1+frac) g_(m-1) on the
    coefficients, the odd-m lower bound g_m > (1-x)^m on (0, 1), and the
    even-m single sign change on [0, 1].
    """
    record = {}
    record["value_at_zero"] = abs(gm_value(m, frac, 0.0) - 1.0) < 1e-12
    g1 = gm_value(m, frac, 1.0)
    record["sign_at_one"] = (g1 < 0) if m % 2 == 0 else (g1 > 0)
    if m >= 1:
        # Both sides multiply the same factors, rounded in another order: at
        # most 2 MAX_DEGREE roundings, so within 1e-13 of each coefficient.
        derivative = polyder(_moment_coefficients(m, frac))
        target = -(m - 1 + frac) * np.asarray(_moment_coefficients(m - 1, frac))
        record["derivative_recurrence"] = bool(
            np.allclose(derivative, target, rtol=1e-13, atol=0.0)
        )
    if m % 2 == 1:
        xs = np.linspace(0.05, 0.95, 20)
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
