"""Evaluation of the infinite-delay convolution integral.

The improper integral int_0^inf x(t - s) g(s) ds is mapped onto (0, 1) by
the substitution omega = exp(-s^(1/beta) / alpha), giving

    int_0^1 u(t, omega) d omega,
    u = C * x(t - sig) * exp(-a sig) * (-log omega)^(beta j - 1) / omega,
    sig = (-alpha log omega)^beta,   C = beta alpha^(beta j) a^j / Gamma(j).

With beta = (k+1)/j + 1 and alpha = (j+1) / a^(1/beta) the transformed
integrand is k times differentiable with a bounded k-th derivative whenever
the solution is, so a composite open Simpson rule (which never touches the
endpoints, where u vanishes / is undefined) retains its full order.  The
quadrature step is tied to the solver step through h_int^q = xi * h^p so
neither side limits the other's accuracy.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TransformParams:
    """Substitution constants for one gamma kernel and smoothness order k."""

    alpha: float
    beta: float
    k: int = 4

    def __post_init__(self):
        if self.beta <= 1:
            raise ValueError("beta must exceed 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class QuadConfig:
    """Coupling constant xi and the mesh-avoidance jitter (relative to h).

    ``h_int`` pins the quadrature step outright, bypassing the coupling;
    useful when the solver error is being measured against references and
    the quadrature must sit at a fixed reference accuracy.
    """

    xi: float = 1.0
    node_jitter: float = 1e-9
    h_int: float | None = None

    def __post_init__(self):
        if self.xi <= 0:
            raise ValueError("xi must be positive")
        if self.node_jitter < 0:
            raise ValueError("node_jitter must be nonnegative")
        if self.h_int is not None and self.h_int <= 0:
            raise ValueError("h_int must be positive")

    def step(self, h):
        """Effective quadrature step for solver step h."""
        if self.h_int is not None:
            return self.h_int
        return quadrature_step(h, self.xi)


def select_transform_params(j, a, k=4):
    """Substitution constants keeping the transformed integrand k-smooth."""
    if j <= 0 or a <= 0:
        raise ValueError("kernel parameters must be positive")
    if k < 0:
        raise ValueError("smoothness order must be nonnegative")
    beta = (k + 1) / j + 1.0
    alpha = (j + 1) / a ** (1.0 / beta)
    return TransformParams(alpha=alpha, beta=beta, k=k)


def quadrature_step(h, xi=1.0, p=4, q=4):
    """Quadrature step h_int from the step coupling h_int^q = xi h^p."""
    return xi ** (1.0 / q) * h ** (p / q)


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


def open_simpson(f, panels, a=0.0, b=1.0):
    """Composite open Simpson integral of a vectorized callable on [a, b]."""
    if panels < 1:
        raise ValueError("need at least one panel")
    nodes, weights = _open_simpson_nodes(a, b, panels)
    return float(weights @ np.asarray(f(nodes), dtype=float))


def _log_weight(omega, kernel, params):
    """log of the solution-independent factor of u(t, omega).

    Computed in log space: the factor underflows to zero at both endpoints
    instead of overflowing through the 1/omega pole.
    """
    j, a = kernel.shape, kernel.rate
    alpha, beta = params.alpha, params.beta
    big_l = -np.log(omega)
    log_c = (
        math.log(beta) + beta * j * math.log(alpha) + j * math.log(a) - math.lgamma(j)
    )
    sigma = (alpha * big_l) ** beta
    with np.errstate(divide="ignore"):
        out = log_c + (beta * j - 1.0) * np.log(big_l) - a * sigma + big_l
    return out, sigma


def transformed_integrand(t, omega, solution_accessor, kernel, params):
    """u(t, omega) for omega in (0, 1); endpoints are rejected.

    ``solution_accessor`` maps (arrays of) times s <= t to solution values;
    the caller routes history versus interpolant lookups.
    """
    omega_arr = np.asarray(omega, dtype=float)
    if np.any((omega_arr <= 0.0) | (omega_arr >= 1.0)):
        raise ValueError("omega must lie strictly inside (0, 1)")
    log_w, sigma = _log_weight(omega_arr, kernel, params)
    weight = np.exp(log_w)
    vals = np.asarray(solution_accessor(t - sigma), dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.where(weight > 0.0, weight * vals, 0.0)
    return out if out.ndim else float(out)


def _jitter_times(s, t0, h, delta):
    """Shift times lying within delta of a mesh point t0 + k h into the
    interior of their piece; the history side (s <= t0) is left alone."""
    if delta <= 0:
        return s
    k = np.round((s - t0) / h)
    mesh = t0 + k * h
    near = (np.abs(s - mesh) < delta) & (s > t0)
    below = near & (s <= mesh)
    above = near & (s > mesh)
    s = np.where(below, mesh - delta, s)
    s = np.where(above, mesh + delta, s)
    return s


def omega_of_lag(lag, params):
    """Transform variable corresponding to a positive lag t - s."""
    return math.exp(-(lag ** (1.0 / params.beta)) / params.alpha)


def convolution_integral(t, accessor, kernel, params, cfg, h, t0):
    """Quadrature value of int_0^inf x(t - s) g(s) ds at time t.

    The omega domain is split at the image of t0 whenever t > t0, so the
    kink where the interpolant hands over to the history always sits on a
    panel boundary.  Quadrature nodes falling within the configured jitter
    of a solver mesh point are nudged off it before the accessor is called.
    ``accessor`` must accept an array of times and may return per-time
    vectors for multi-component states.
    """
    h_int = cfg.step(h)
    pieces = []
    if t > t0:
        split = omega_of_lag(t - t0, params)
        if split >= 1.0:
            split = None
    else:
        split = None
    if split is not None and 0.0 < split < 1.0:
        pieces.append((0.0, split))
        pieces.append((split, 1.0))
    else:
        pieces.append((0.0, 1.0))

    nodes = []
    weights = []
    for lo, hi in pieces:
        panels = max(1, math.ceil((hi - lo) / (4.0 * h_int)))
        nd, wt = _open_simpson_nodes(lo, hi, panels)
        nodes.append(nd)
        weights.append(wt)
    omega = np.concatenate(nodes)
    wts = np.concatenate(weights)

    log_w, sigma = _log_weight(omega, kernel, params)
    factor = np.exp(log_w) * wts
    live = factor != 0.0
    s_times = _jitter_times(t - sigma[live], t0, h, cfg.node_jitter * h)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(accessor(s_times), dtype=float)
    if vals.ndim == 1:
        return float(factor[live] @ vals)
    return factor[live] @ vals
