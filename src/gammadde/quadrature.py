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
constants depend on the kernel alone, so :func:`convolution_integral`
derives them itself.  The quadrature step is tied to the solver step
through h_int^4 = xi * h^4 so neither side limits the other's accuracy.
"""

import math
from dataclasses import dataclass

import numpy as np


#: Most open-Simpson panels (three nodes each) one convolution may use.
#: The largest plan in the test suite has 801 panels (acceptance criterion
#: 03 at h = 0.005), in the benchmark 513; at the budget one plan's arrays
#: take 24 MB each.
MAX_PANELS = 1_000_000
#: Quadrature nodes closer than this many solver steps to a mesh point are
#: moved that far off it, so no node sits on a step's kink.
NODE_JITTER = 1e-9


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
        if self.xi <= 0:
            raise ValueError("xi must be positive")
        if self.h_int is not None and self.h_int <= 0:
            raise ValueError("h_int must be positive")

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


def _open_simpson_nodes(a, b, panels):
    """Nodes and weights of the composite 3-point open rule on [a, b].

    Per panel of width w: nodes at the interior quarter points, weights
    (2w/3, -w/3, 2w/3).  Panel endpoints are never evaluated.
    """
    w = (b - a) / panels
    edges = a + w * np.arange(panels)[:, None]
    nodes = (edges + w * np.array([0.25, 0.5, 0.75])).ravel()
    weights = np.tile(np.array([2.0, -1.0, 2.0]) * (w / 3.0), panels)
    return nodes, weights


def _log_weight(omega, kernel, alpha, beta):
    """log of the solution-independent factor of u(t, omega).

    Computed in log space: the factor underflows to zero at both endpoints
    instead of overflowing through the 1/omega pole.
    """
    j, a = kernel.shape, kernel.rate
    big_l = -np.log(omega)
    log_c = (
        math.log(beta) + beta * j * math.log(alpha) + j * math.log(a) - math.lgamma(j)
    )
    sigma = (alpha * big_l) ** beta
    with np.errstate(divide="ignore"):
        out = log_c + (beta * j - 1.0) * np.log(big_l) - a * sigma + big_l
    return out, sigma


def _jitter_times(s, t0, h, delta):
    """Shift times lying within delta of a mesh point t0 + k h into the
    interior of their piece; the history side (s <= t0) is left alone."""
    k = np.round((s - t0) / h)
    mesh = t0 + k * h
    near = (np.abs(s - mesh) < delta) & (s > t0)
    below = near & (s <= mesh)
    above = near & (s > mesh)
    s = np.where(below, mesh - delta, s)
    s = np.where(above, mesh + delta, s)
    return s


def convolution_integral(t, accessor, kernel, cfg, h, t0):
    """Quadrature value of int_0^inf x(t - s) g(s) ds at time t.

    The substitution constants follow from ``kernel``.  The omega domain
    is split at the image of t0 whenever t > t0, so the kink where the
    interpolant hands over to the history always sits on a panel
    boundary.  Quadrature nodes falling within ``NODE_JITTER * h``
    of a solver mesh point are nudged off it before the accessor is called.
    ``accessor`` must accept an array of times and may return per-time
    vectors for multi-component states.
    """
    h_int = cfg.step(h)
    alpha, beta = _transform_params(kernel)
    split = math.exp(-((t - t0) ** (1.0 / beta)) / alpha) if t > t0 else 1.0
    pieces = [(0.0, split), (split, 1.0)] if 0.0 < split < 1.0 else [(0.0, 1.0)]

    # Checked in floating point before anything is allocated: a tiny h_int
    # makes the panel count overflow an integer conversion.
    widths = [(hi - lo) / (4.0 * h_int) for lo, hi in pieces]
    if not sum(widths) <= MAX_PANELS:
        raise ValueError(
            f"quadrature step {h_int:.3g} needs {sum(widths):.3g} panels per "
            f"convolution, above the budget of {MAX_PANELS}: raise the "
            "quadrature step or xi"
        )
    nodes = []
    weights = []
    for (lo, hi), width in zip(pieces, widths):
        nd, wt = _open_simpson_nodes(lo, hi, max(1, math.ceil(width)))
        nodes.append(nd)
        weights.append(wt)
    omega = np.concatenate(nodes)
    wts = np.concatenate(weights)

    log_w, sigma = _log_weight(omega, kernel, alpha, beta)
    factor = np.exp(log_w) * wts
    live = factor != 0.0
    s_times = _jitter_times(t - sigma[live], t0, h, NODE_JITTER * h)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(accessor(s_times), dtype=float)
    if vals.ndim == 1:
        return float(factor[live] @ vals)
    return factor[live] @ vals
