"""Evaluation of the infinite-delay convolution integral.

The improper integral int_0^inf x(t - s) g(s) ds is mapped onto (0, 1) by
the substitution omega = exp(-s^(1/beta) / alpha), giving

    int_0^1 u(t, omega) d omega,
    u = C * x(t - sig) * exp(-a sig) * (-log omega)^(beta j - 1) / omega,
    sig = (-alpha log omega)^beta,   C = beta alpha^(beta j) a^j / Gamma(j).

With beta = 5/j + 1 and alpha = (j+1) / a^(1/beta) the transformed
integrand is 4 times differentiable with a bounded 4th derivative whenever
the solution is, so a composite open Simpson rule (which never touches the
endpoints, where u vanishes / is undefined) retains its full order.  Both
constants depend on the kernel alone, so the quadrature derives them
itself.  The quadrature step is tied to the solver step through
h_int^4 = xi * h^4 so neither side limits the other's accuracy.

A quadrature *plan* is the set of nodes of one convolution: per node, the
factor (rule weight times kernel weight) that multiplies the solution, and
the time where the solution is read.  It depends on the kernel, the
quadrature configuration, the solver step, t0 and the time of the
convolution, and on the solution only through the tail cut below, so
:func:`plan_nodes` builds the plans of many times at once;
:func:`convolution_integral` is its one-plan case.

A plan may skip the kernel's negligible tail.  Given a lag s_min per plan,
the panels whose omega lies wholly below omega(s_min) are never built, and
the panels kept are the uncut rule's own, bit for bit.  The caller picks
s_min from what it knows of the solution so that the skipped part is
certified to be negligible: for a history c e^(rho s), the part beyond
s_min is at most

    |c| e^(rho t) (a / (a + rho))^j Q(j, (a + rho) s_min),

with Q the regularized upper incomplete gamma function, and a stretch of
the solution bounded by M contributes at most M Q(j, a s_min).  These bound
the integral over the skipped panels; the rule's sum over them is of the
same size, since the integrand only grows towards the cut there.
:func:`tail_start` inverts the bounds through the Chernoff bound
Q(j, x) <= (e x / j)^j e^(-x), x >= j, so no special function is needed.
Nothing is known of a custom history, so its plans keep every panel.
"""

import math
from dataclasses import dataclass

import numpy as np


#: Most open-Simpson panels (three nodes each) one convolution may use.
#: The largest plan in the test suite has 801 panels (acceptance criterion
#: 03 at h = 0.005), in the benchmark 513; at the budget one plan's arrays
#: take 24 MB each.
MAX_PANELS = 1_000_000


@dataclass(frozen=True)
class QuadConfig:
    """Coupling constant xi, or a pinned quadrature step h_int.

    The default xi = (1/8)^4, i.e. h_int = h / 8, keeps the composite rule
    in its asymptotic regime at everyday step sizes.  The bare coupling
    xi = 1 is still pre-asymptotic there: at h = 0.1, x' = -x + conv with
    constant history 1.7 (shape 2.57, mean delay 2) misses its constant
    solution over [0, 10] by 1.39 at xi = 1 and by 1.5e-5 at the default.

    ``h_int`` pins the quadrature step outright, bypassing the coupling;
    useful when the solver error is being measured against references and
    the quadrature must sit at a fixed reference accuracy.
    """

    xi: float = (1.0 / 8.0) ** 4
    h_int: float | None = None

    def __post_init__(self):
        # An infinite step would put the whole of (0, 1) on one panel.
        if not 0 < self.xi < math.inf:
            raise ValueError(f"xi must be positive and finite, got {self.xi}")
        if self.h_int is not None and not 0 < self.h_int < math.inf:
            raise ValueError(f"h_int must be positive and finite, got {self.h_int}")

    def step(self, h):
        """Effective quadrature step for solver step h: the pinned h_int,
        else the coupling h_int^4 = xi h^4."""
        if self.h_int is not None:
            return self.h_int
        return self.xi**0.25 * h


def _transform_params(kernel):
    """Substitution constants (alpha, beta) keeping the transformed
    integrand of this kernel 4-smooth."""
    j, a = kernel.shape, kernel.rate
    beta = 5 / j + 1.0
    return (j + 1) / a ** (1.0 / beta), beta


def _open_simpson_grid(lo, hi, panels, first=0):
    """Nodes and weights of the composite 3-point open rule on [lo_r, hi_r]
    with panels_r panels, the rows r one after another in flat arrays.
    Only panels first_r .. panels_r - 1 of each row are built.

    Per panel of width w: nodes at the interior quarter points, weights
    (2w/3, -w/3, 2w/3).  Panel endpoints are never evaluated.
    """
    width = (hi - lo) / np.maximum(panels, 1)
    kept = panels - first
    # Per panel: its row's width, and its left edge lo + w * (its index in
    # the row).
    w = np.repeat(width, kept)
    edges = np.arange(len(w), dtype=float)
    edges -= np.repeat(np.cumsum(kept) - kept - first, kept)
    edges *= w
    edges += np.repeat(lo, kept)
    third = w / 3.0
    # Filled one quarter point at a time, so each operation runs over all
    # panels at once rather than over the three nodes of a panel.
    nodes = np.empty((len(w), 3))
    weights = np.empty((len(w), 3))
    for q, (offset, rule) in enumerate(((0.25, 2.0), (0.5, -1.0), (0.75, 2.0))):
        np.multiply(w, offset, out=nodes[:, q])
        nodes[:, q] += edges
        np.multiply(rule, third, out=weights[:, q])
    return nodes.ravel(), weights.ravel()


def _log_weight(omega, kernel, alpha, beta):
    """log of the solution-independent factor of u(t, omega).

    Computed in log space: the factor underflows to zero at both endpoints
    instead of overflowing through the 1/omega pole.
    """
    j, a = kernel.shape, kernel.rate
    log_c = (
        math.log(beta) + beta * j * math.log(alpha) + j * math.log(a) - math.lgamma(j)
    )
    big_l = np.log(omega)
    np.negative(big_l, out=big_l)
    sigma = alpha * big_l
    # At a small shape beta is large, and sigma overflows where the weight
    # underflows to zero anyway.
    with np.errstate(over="ignore"):
        sigma **= beta
    # log_c + (beta j - 1) log L - a sigma + L, without temporaries.
    with np.errstate(divide="ignore"):
        out = np.log(big_l)
    out *= beta * j - 1.0
    out += log_c
    out -= a * sigma
    out += big_l
    return out, sigma


def plan_panels(cfg, h):
    """Open-Simpson panels of the rule over the whole of (0, 1) at solver
    step h; a plan split at the image of t0 takes at most one more.

    Refuses more than ``MAX_PANELS``.  Checked in floating point before
    anything is allocated: a tiny quadrature step makes the panel count
    overflow an integer conversion, and one that underflows to 0 makes it
    infinite.
    """
    h_int = cfg.step(h)
    if not 4.0 * h_int * MAX_PANELS >= 1.0:
        raise ValueError(
            f"quadrature step {h_int:.3g} needs more panels per convolution than "
            f"the budget of {MAX_PANELS}: raise the quadrature step or xi"
        )
    return math.ceil(1.0 / (4.0 * h_int))


def tail_start(kernel, growth, log_bound):
    """A time s beyond which int_s^inf e^(-growth u) g(u) du is at most
    e^log_bound, close to the smallest such s.

    The integral is (a/b)^j Q(j, b s) with b = a + growth > 0, and the
    Chernoff bound Q(j, j y) <= e^(-j (y - log y - 1)), y >= 1, reduces the
    condition to y - log y - 1 >= log(a/b) - log_bound / j.  Newton's method
    on that convex, increasing function starts to the right of its root and
    stays there, so every iterate is a valid s.
    """
    j, b = kernel.shape, kernel.rate + growth
    excess = math.log(kernel.rate / b) - log_bound / j
    if excess <= 0.0:
        return 0.0  # the whole integral is below the bound
    if not excess < math.inf:
        return math.inf  # a zero or nan bound
    y = 2.0 * (excess + 1.0)
    for _ in range(100):
        step = (y - math.log(y) - 1.0 - excess) / (1.0 - 1.0 / y)
        y -= step
        if step <= 1e-12 * y:
            break
    return j * y / b


def _plan_part(times, lo, hi, panels, first, kernel, alpha, beta):
    """(factor, s, counts) of the nodes of one omega piece per plan."""
    omega, weights = _open_simpson_grid(lo, hi, panels, first)
    log_w, sigma = _log_weight(omega, kernel, alpha, beta)
    factor = np.exp(log_w, out=log_w)
    factor *= weights
    counts = 3 * (panels - first)
    s = np.repeat(times, counts)
    s -= sigma
    return factor, s, counts


def _panels_below(omega_min, lo, hi, panels):
    """Per row, the panels of the rule on [lo, hi] that lie wholly below
    omega_min."""
    # The share of the piece below omega_min is exactly 1 when it covers the
    # piece, and 0 for an empty piece.
    share = (np.minimum(omega_min, hi) - lo) / np.maximum(hi - lo, np.finfo(float).tiny)
    return np.maximum(np.floor(share * panels), 0.0).astype(int)


def plan_nodes(times, kernel, cfg, h, t0, tail=None):
    """Quadrature plans of int_0^inf x(t - s) g(s) ds at each t of ``times``.

    Yields the plans' nodes in two sides, each a triple ``(factor, s,
    counts)``: plan r owns ``counts[r]`` consecutive entries of the flat
    arrays ``factor`` and ``s``, and the quadrature value at t is the sum
    of ``factor * x(s)`` over its entries on both sides.  The omega domain
    is split at the image of t0, so the kink where the solution hands over
    to the history always sits on a panel boundary: the first side holds
    the nodes with s <= t0, the second those after t0.  Within a plan s
    ascends.  A kernel weight that underflows gives a zero factor; only
    nodes with a nonzero factor need x.  The second side is built when the
    first has been taken, so a caller that reduces the history side before
    asking for the next never holds both.

    ``tail``, if given, holds per plan a lag s_min (``inf`` for none): the
    panels of either side whose nodes all lie beyond it are not built, and
    the rest are the uncut plan's own.  The caller certifies that the
    dropped part is negligible (see the module docstring).  The panel
    budget is checked on the plans without the cut.
    """
    plan_panels(cfg, h)  # refuses an oversized plan before allocating it
    h_int = cfg.step(h)
    alpha, beta = _transform_params(kernel)
    times = np.asarray(times, dtype=float)
    # The image of t0: all of (0, 1) lies in the history when t <= t0.
    split = np.exp(-(np.maximum(times - t0, 0.0) ** (1.0 / beta)) / alpha)
    # Each piece present takes at least one panel.
    past_panels = np.maximum(np.ceil(split / (4.0 * h_int)), split > 0.0).astype(int)
    recent_panels = np.maximum(np.ceil((1.0 - split) / (4.0 * h_int)), split < 1.0).astype(int)
    past = (np.zeros_like(split), split, past_panels)
    recent = (split, np.ones_like(split), recent_panels)
    past_first = recent_first = 0
    if tail is not None:
        omega_min = np.exp(-(np.asarray(tail, dtype=float) ** (1.0 / beta)) / alpha)
        past_first = _panels_below(omega_min, *past)
        recent_first = _panels_below(omega_min, *recent)
    yield _plan_part(times, *past, past_first, kernel, alpha, beta)
    yield _plan_part(times, *recent, recent_first, kernel, alpha, beta)


def convolution_integral(t, accessor, kernel, cfg, h, t0, tail=None):
    """Quadrature value of int_0^inf x(t - s) g(s) ds at time t.

    The one-plan case of :func:`plan_nodes`, whose ``tail`` then holds one
    lag.  ``accessor`` is called once with the ascending times of the nodes
    whose factor is nonzero; it must accept an array of times and may
    return per-time vectors for multi-component states.
    """
    (past_f, past_s, _), (recent_f, recent_s, _) = plan_nodes([t], kernel, cfg, h, t0, tail)
    factor = np.concatenate([past_f, recent_f])
    live = factor != 0.0
    times = np.concatenate([past_s, recent_s])[live]
    # A history that overflows is reported by the caller's own checks.
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(accessor(times), dtype=float)
        out = factor[live] @ vals
    return float(out) if vals.ndim == 1 else out
