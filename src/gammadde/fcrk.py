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


def _step_interpolant(tableau, h, x, k, step, theta):
    """Completed-step interpolants x_m + h sum_s b_s(theta) K_ms at the
    given step indices m and offsets theta."""
    return x[step] + h * np.einsum("ms,msd->md", tableau.b_at(theta), k[step])


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
        return _step_interpolant(
            self.tableau, self.h, self.x, self.k, step, theta_total - step
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
    step n is in progress.

    The quadrature is linear in the solution values, so one plan at time t
    serves every stage evaluated at t.  Each node gets a row of ``dim + 4``
    columns: the solution value where it is already known (history, or a
    completed step's interpolant), then ``(1, theta, theta^2, theta^3)`` at
    the nodes inside the running step.  One ``convolution_integral`` call
    thus returns ``(fixed, w, m)``, and a stage with partial row
    ``Y_i(theta) = x_n + h sum_j A_ij(theta) K_j`` has convolution
    ``fixed + w x_n + h (m . A_i) K``.
    """

    def __init__(self, solve_state, step):
        self.s = solve_state
        self.step = step

    def __call__(self, times):
        s = self.s
        out = np.zeros((len(times), s.dim + 4))
        hist = times <= s.t0
        if hist.any():
            out[hist, : s.dim] = _history_values(s.history, times[hist], s.dim)
        theta_total = (times - s.t0) / s.h
        # Nodes beyond the running step's start all belong to it.
        step_idx = np.clip(np.floor(theta_total), 0, self.step).astype(int)
        theta = theta_total - step_idx
        done = ~hist & (step_idx < self.step)
        if done.any():
            out[done, : s.dim] = _step_interpolant(
                s.tableau, s.h, s.x, s.k, step_idx[done], theta[done]
            )
        cur = ~hist & (step_idx == self.step)
        if cur.any():
            out[cur, s.dim :] = theta[cur, None] ** np.arange(4)
        return out


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


def _plan_conv(plan, x_n, h, coef, k):
    """Convolution of the partial row x_n + h sum_j (coef_j . (theta,
    theta^2, theta^3)) K_j from one shared quadrature plan (see
    :class:`_StageAccessor`)."""
    dim = len(x_n)
    return plan[:dim] + plan[dim] * x_n + h * (coef @ plan[dim + 1 :]) @ k


def fcrk4_solve(problem, h, quad=None):
    """Integrate a gamma-distributed DDE with fixed step h.

    Each stage value is fed the quadrature approximation of the convolution
    at its own abscissa, built from the history, all completed step
    interpolants, and the lower-triangular portion of the current step.
    The quadrature runs once per distinct abscissa: stages 1, 3 and 5 share
    the plan at t_n + h, stages 2 and 4 the plan at t_n + h/2, and each
    stage applies it to its own partial row in a few flops.  Once the step
    is complete, the plan at t_n + h applied to the step interpolant is
    stage 0's convolution in the next step, so a solve makes
    ``2 n_steps + 1`` quadrature calls.
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
    params = select_transform_params(problem.kernel.shape, problem.kernel.rate)

    tableau = TABLEAU4
    state = _SolveState(tableau, problem.history, problem.kernel, problem.t0, h, n_steps, dim)
    state.x[0] = x0
    c = tableau.c
    a_at_c = [tableau.a_at(c[i])[i, :i] for i in range(tableau.stages)]
    a_rows = [tableau.a_coef[i, :i] for i in range(tableau.stages)]
    b_end = tableau.b_at(1.0)

    def plan(n, theta):
        return convolution_integral(
            problem.t0 + n * h + theta * h,
            _StageAccessor(state, n),
            problem.kernel,
            params,
            quad,
            h,
            problem.t0,
        )

    # Every node of the plan at t0 lies in the history.
    conv_start = plan(0, 0.0)[:dim]
    for n in range(n_steps):
        k_step = state.k[n]
        plans = {}
        for i in range(tableau.stages):
            if i and c[i] not in plans:
                plans[c[i]] = plan(n, c[i])
            y_i = state.x[n] + h * (a_at_c[i] @ k_step[:i]) if i else state.x[n].copy()
            # An overflowing solution is reported by the check below, with
            # its step and stage, instead of by a numpy warning.
            with np.errstate(over="ignore", invalid="ignore"):
                conv = (
                    _plan_conv(plans[c[i]], state.x[n], h, a_rows[i], k_step[:i])
                    if i
                    else conv_start
                )
                k_step[i] = problem.rhs(
                    y_i if dim > 1 else y_i[0], conv if dim > 1 else float(conv[0])
                )
            if not np.all(np.isfinite(k_step[i])):
                raise FloatingPointError(
                    f"non-finite stage value at step {n}, stage {i}"
                )
        state.x[n + 1] = state.x[n] + h * (b_end @ k_step)
        conv_start = _plan_conv(plans[1.0], state.x[n], h, tableau.b_coef, k_step)

    return Solution(tableau, problem.history, problem.t0, h, state.x, state.k, scalar)
