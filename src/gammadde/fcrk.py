"""4th-order functionally continuous Runge-Kutta method for DDEs with a
gamma-distributed delay over (0, inf).

A functionally continuous method carries polynomial weights b(theta) and
coefficients A(theta), so every stage owns a continuous interpolant.  That
is what makes the infinite-delay convolution computable: evaluating
int x(t - s) g(s) ds inside stage i needs x over the whole current step,
which is not finished yet ("overlapping").  The partial stage interpolant

    Y_i(theta) = x_n + h * sum_{j < i} A_ij(theta) K_j,   theta in [0, c_i]

covers exactly that stretch, completed steps are covered by their step
interpolants, and everything before t0 by the history function.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadConfig, convolution_integral, select_transform_params


@dataclass(frozen=True)
class FcrkTableau:
    """Polynomial Butcher tableau: A and b hold coefficients of
    (theta, theta^2, theta^3) per entry, so A(0) = 0 and b(0) = 0 by
    construction."""

    c: np.ndarray
    a_coef: np.ndarray  # (stages, stages, 3), strictly lower triangular
    b_coef: np.ndarray  # (stages, 3)

    @property
    def stages(self):
        return len(self.c)

    def a_at(self, theta):
        """A(theta) as a (stages, stages) matrix."""
        powers = np.array([theta, theta**2, theta**3])
        return self.a_coef @ powers

    def b_at(self, theta):
        """b(theta); theta may be an array, giving shape (..., stages)."""
        theta = np.asarray(theta, dtype=float)
        powers = np.stack([theta, theta**2, theta**3], axis=-1)
        return powers @ self.b_coef.T


def _tableau4():
    # Six stages: an Euler/trapezoid sweep builds a quadratic interpolant,
    # a second sweep upgrades it to the cubic that b(theta) propagates.
    # Stage pairs (3,4) and (5,6) reuse one polynomial row, evaluated at
    # theta = 1/2 and theta = 1 respectively.
    c = np.array([0.0, 1.0, 0.5, 1.0, 0.5, 1.0])
    a = np.zeros((6, 6, 3))
    a[1, 0] = (1.0, 0.0, 0.0)
    for row in (2, 3):
        a[row, 0] = (1.0, -0.5, 0.0)
        a[row, 1] = (0.0, 0.5, 0.0)
    for row in (4, 5):
        a[row, 0] = (1.0, -1.5, 2.0 / 3.0)
        a[row, 2] = (0.0, 2.0, -4.0 / 3.0)
        a[row, 3] = (0.0, -0.5, 2.0 / 3.0)
    b = np.zeros((6, 3))
    b[0] = (1.0, -1.5, 2.0 / 3.0)
    b[4] = (0.0, 2.0, -4.0 / 3.0)
    b[5] = (0.0, -0.5, 2.0 / 3.0)
    return FcrkTableau(c=c, a_coef=a, b_coef=b)


TABLEAU4 = _tableau4()


@dataclass(frozen=True)
class DdeProblem:
    """x'(t) = rhs(x(t), conv(t)) with conv the gamma-kernel convolution of
    x over (0, inf), and x = history on (-inf, t0]."""

    rhs: callable
    kernel: object
    history: object
    t0: float
    t_end: float

    def __post_init__(self):
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")


def _history_values(history, times, dim):
    vals = np.asarray(history(times), dtype=float)
    if vals.ndim == 0:
        vals = np.full(len(times), float(vals))
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[1] != dim:
        raise ValueError("history dimension does not match the state")
    return vals


class Solution:
    """Piecewise-polynomial interpolant produced by one FCRK solve.

    ``query(t)`` (or calling the object) is defined for every t <= t_end:
    history values for t <= t0, step interpolants beyond.  Continuity at
    mesh points holds by construction since b(0) = 0 and each step starts
    from the previous interpolant's endpoint.
    """

    def __init__(self, tableau, history, t0, h, x, k, scalar):
        self.tableau = tableau
        self.history = history
        self.t0 = t0
        self.h = h
        self.x = x  # (n_steps + 1, dim)
        self.k = k  # (n_steps, stages, dim)
        self.scalar = scalar
        self.n_steps = len(k)
        self.t_end = t0 + self.n_steps * h

    @property
    def mesh(self):
        return self.t0 + self.h * np.arange(self.n_steps + 1)

    @property
    def mesh_values(self):
        return self.x[:, 0] if self.scalar else self.x

    def _interp(self, times):
        """Interpolant values for times in (t0, t_end]."""
        theta_total = (times - self.t0) / self.h
        step = np.minimum(np.floor(theta_total), self.n_steps - 1).astype(int)
        theta = theta_total - step
        b_vals = self.tableau.b_at(theta)  # (m, stages)
        return self.x[step] + self.h * np.einsum(
            "ms,msd->md", b_vals, self.k[step]
        )

    def query(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr > self.t_end + 1e-9 * max(1.0, abs(self.t_end))):
            raise ValueError("query beyond the end of the solve")
        out = np.empty((t_arr.size, self.x.shape[1]))
        hist = t_arr <= self.t0
        if hist.any():
            out[hist] = _history_values(self.history, t_arr[hist], self.x.shape[1])
        if (~hist).any():
            out[~hist] = self._interp(t_arr[~hist])
        if self.scalar:
            out = out[:, 0]
        return out if np.ndim(t) else out[0]

    __call__ = query


class _StageAccessor:
    """Vectorized solution lookup used by the convolution quadrature while
    step n is in progress: history, completed step interpolants, and the
    partial interpolant of the stage currently being assembled."""

    def __init__(self, solve_state, step, stage, k_partial):
        self.s = solve_state
        self.step = step
        self.stage = stage
        self.k_partial = k_partial  # (stage, dim), rows already computed

    def __call__(self, times):
        s = self.s
        out = np.empty((len(times), s.dim))
        hist = times <= s.t0
        if hist.any():
            out[hist] = _history_values(s.history, times[hist], s.dim)
        rest = ~hist
        if rest.any():
            t_rest = times[rest]
            theta_total = (t_rest - s.t0) / s.h
            step_idx = np.floor(theta_total).astype(int)
            # Nodes inside the running step use the partial stage row.
            step_idx = np.minimum(step_idx, self.step)
            theta = theta_total - step_idx
            vals = np.empty((len(t_rest), s.dim))
            cur = step_idx == self.step
            done = ~cur
            if done.any():
                b_vals = s.tableau.b_at(theta[done])
                vals[done] = s.x[step_idx[done]] + s.h * np.einsum(
                    "ms,msd->md", b_vals, s.k[step_idx[done]]
                )
            if cur.any():
                vals[cur] = self._partial(theta[cur])
            out[rest] = vals
        return out

    def _partial(self, theta):
        s = self.s
        base = np.broadcast_to(s.x[self.step], (len(theta), s.dim)).copy()
        if self.stage == 0:
            return base
        powers = np.stack([theta, theta**2, theta**3], axis=-1)  # (m, 3)
        a_rows = s.tableau.a_coef[self.stage, : self.stage]  # (stage, 3)
        a_vals = powers @ a_rows.T  # (m, stage)
        return base + s.h * a_vals @ self.k_partial


class _SolveState:
    def __init__(self, tableau, history, kernel, t0, h, n_steps, dim):
        self.tableau = tableau
        self.history = history
        self.kernel = kernel
        self.t0 = t0
        self.h = h
        self.dim = dim
        self.x = np.empty((n_steps + 1, dim))
        self.k = np.empty((n_steps, tableau.stages, dim))


def fcrk4_solve(problem, h, quad=None, tableau=TABLEAU4, transform_k=4):
    """Integrate a gamma-distributed DDE with fixed step h.

    Each stage value is fed the quadrature approximation of the convolution
    at its own abscissa, built from the history, all completed step
    interpolants, and the lower-triangular portion of the current step.
    The returned :class:`Solution` is immutable and may be queried from
    multiple threads.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    history = problem.history
    if getattr(history, "kind", None) == "exponential" and (
        history.growth <= -problem.kernel.rate
    ):
        raise ValueError(
            f"history grows into the past at rate {-history.growth}, not "
            f"slower than the kernel decays ({problem.kernel.rate}): the "
            "delayed convolution diverges"
        )
    quad = quad or QuadConfig()
    span = problem.t_end - problem.t0
    n_steps = int(round(span / h))
    if abs(n_steps * h - span) > 1e-9 * max(1.0, abs(span)):
        n_steps = math.ceil(span / h - 1e-12)
    n_steps = max(n_steps, 1)

    x0 = np.atleast_1d(np.asarray(problem.history(problem.t0), dtype=float))
    dim = x0.size
    scalar = dim == 1 and np.ndim(problem.history(problem.t0)) == 0
    params = select_transform_params(
        problem.kernel.shape, problem.kernel.rate, k=transform_k
    )

    state = _SolveState(tableau, problem.history, problem.kernel, problem.t0, h, n_steps, dim)
    state.x[0] = x0
    c = tableau.c
    a_at_c = [tableau.a_at(c[i])[i, :i] for i in range(tableau.stages)]
    b_end = tableau.b_at(1.0)

    for n in range(n_steps):
        t_n = problem.t0 + n * h
        k_step = state.k[n]
        for i in range(tableau.stages):
            t_stage = t_n + c[i] * h
            accessor = _StageAccessor(state, n, i, k_step[:i])
            conv = convolution_integral(
                t_stage, accessor, problem.kernel, params, quad, h, problem.t0
            )
            y_i = state.x[n] + h * (a_at_c[i] @ k_step[:i]) if i else state.x[n].copy()
            # An overflowing solution is reported by the check below, with
            # its step and stage, instead of by a numpy warning.
            with np.errstate(over="ignore", invalid="ignore"):
                k_step[i] = problem.rhs(
                    y_i if dim > 1 else y_i[0], conv if dim > 1 else float(conv[0])
                )
            if not np.all(np.isfinite(k_step[i])):
                raise FloatingPointError(
                    f"non-finite stage value at step {n}, stage {i}"
                )
        state.x[n + 1] = state.x[n] + h * (b_end @ k_step)

    return Solution(tableau, problem.history, problem.t0, h, state.x, state.k, scalar)
