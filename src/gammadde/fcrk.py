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

Every step interpolant and partial row is a cubic in theta, kept in one
format: its coefficients in powers (1, theta, theta^2, theta^3).  The
:class:`Solution` is the solve's state: the solver fills its mesh values
and step coefficients ``poly`` step by step and returns it.  One lookup
places a time in a step with its offset theta, for ``Solution.query`` and
the quadrature plans alike.

A quadrature plan (its nodes and their factors) depends on the kernel, h,
the quadrature configuration and t0, and on nothing the block has yet to
compute: its tail cut reads only the history and the steps finished before
the block (:func:`_tails`).  So the solver builds the plans of a block of
steps at once, before the first of them runs.  A plan's nodes in the
history and in the steps finished before the block read x through the
history and the step interpolants, and sum to one value per plan; its
nodes in each of the block's own steps reduce to the moments
``sum f theta^(0..3)``, which form one table.  A step contracts its plans'
rows of that table with the contiguous ``poly`` rows of the block's
completed steps, and its stages contract the running step's moments with
their rows' coefficients.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadConfig, convolution_integral, plan_nodes, plan_panels, tail_start


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
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)):
            raise ValueError(f"t0 and t_end must be finite, got {self.t0}, {self.t_end}")
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
    history values for t <= t0, step interpolants beyond.  ``poly[m]``
    holds step m's interpolant x_m + h sum_s b_s(theta) K_ms in powers
    (1, theta, theta^2, theta^3): its constant term is the mesh value
    ``x[m]`` and its value at theta = 1 is ``x[m + 1]``, so it is continuous
    at mesh points.  :func:`fcrk4_solve` fills ``x`` and ``poly`` step by
    step; the returned object is not changed again.
    """

    def __init__(self, history, t0, h, n_steps, dim, scalar):
        self.history = history
        self.t0 = t0
        self.h = h
        self.n_steps = n_steps
        self.scalar = scalar
        self.t_end = t0 + n_steps * h
        self.x = np.empty((n_steps + 1, dim))
        self.poly = np.empty((n_steps, 4, dim))
        self._read = (0, 0.0, 0.0)  # see _sizes

    def _sizes(self, n):
        """Largest |x| over x[0..n] and largest sum of |poly[m]| coefficients
        over the steps m < n.  The solver asks with n nondecreasing, so each
        finished step is read once."""
        read, x_max, poly_max = self._read
        x_max = max(x_max, float(np.max(np.abs(self.x[read : n + 1]))))
        if n > read:
            poly_max = max(poly_max, float(np.max(np.abs(self.poly[read:n]).sum(axis=1))))
        self._read = (n, x_max, poly_max)
        return x_max, poly_max

    def _place(self, times, last):
        """Step index (at most ``last``, which may vary per time) and offset
        theta within that step of each time after t0."""
        theta_total = (times - self.t0) / self.h
        step = np.minimum(np.floor(theta_total), last)
        return step.astype(np.intp), theta_total - step

    def _interp(self, step, theta):
        """Finished steps' interpolants at offsets theta, by Horner's rule."""
        out = self.poly[step, 3]
        for q in (2, 1, 0):
            out = self.poly[step, q] + theta[:, None] * out
        return out

    def query(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.isnan(t_arr).any():
            raise ValueError("query at a nan time")
        if np.any(t_arr > self.t_end + 1e-9 * max(1.0, abs(self.t_end))):
            raise ValueError("query beyond the end of the solve")
        out = np.empty((t_arr.size, self.x.shape[1]))
        hist = t_arr <= self.t0
        if hist.any():
            out[hist] = _history_values(self.history, t_arr[hist], self.x.shape[1])
        out[~hist] = self._interp(*self._place(t_arr[~hist], self.n_steps - 1))
        if self.scalar:
            out = out[:, 0]
        return out if np.ndim(t) else out[0]

    __call__ = query


#: Most quadrature nodes in one plan block before its tail cut; its moment
#: table, which every step of the block contracts, holds at most half as
#: many entries (45 steps).  It bounds the memory a block takes, and a
#: larger block spreads numpy's per-call overhead over more nodes.  Under
#: tracemalloc the two solves of test_solve_memory_stays_small peak at
#: 0.74 MB (stability, 45 steps and 16,200 table entries per block) and
#: 1.24 MB (criterion 03's floor, 6 steps and up to 28,872 nodes per block).
BLOCK_NODES = 32768
#: Most steps one solve may take.  The longest solve in the tests takes
#: 2,000 steps (acceptance criterion 03 at h = 0.005) and in the benchmark
#: 1,600 (stability at h = 0.05 over [0, 80]); at the budget the solution's
#: step coefficients take 32 MB per state component.
MAX_STEPS = 1_000_000


#: Most a plan may drop of its convolution in the kernel's tail, relative to
#: the largest |x| so far; half of it goes to the history and half to the
#: steps before the plan's block.
TAIL_TOLERANCE = 1e-17


def _log(value):
    return math.log(value) if value > 0.0 else -math.inf


def _tails(sol, kernel, times, n0):
    """Per plan at ``times``, the lag beyond which its nodes are dropped
    (see :func:`plan_nodes`), or None for a custom history, which keeps
    every node.  The dropped history part of a plan, bounded through the
    history c e^(rho s) itself, and its dropped part in steps before step
    n0, bounded through their largest sum of |poly| coefficients, are each
    at most TAIL_TOLERANCE / 2 times the largest |x| up to x[n0].
    """
    history = sol.history
    if getattr(history, "kind", None) != "exponential":
        return None
    x_max, poly_max = sol._sizes(n0)
    log_share = _log(TAIL_TOLERANCE / 2.0 * x_max)
    c, rho = history.value, history.growth
    # The history part at t is |c| e^(rho t) int_(s_min)^inf e^(-rho s) g(s) ds.
    rho_t = max(rho * times[0], rho * times[-1])
    s_history = tail_start(kernel, rho, log_share - _log(abs(c)) - rho_t) if c else 0.0
    s_recent = tail_start(kernel, 0.0, log_share - _log(poly_max))
    # Only nodes in the history and in steps before n0 may be dropped.
    lag = times - sol.t0
    finished = np.maximum(s_recent, lag - n0 * sol.h)
    return np.maximum(s_history, np.minimum(finished, lag))


def _plan_sums(plan, values, plans):
    """Per plan r < ``plans``, the sum of the rows of ``values`` whose entry
    of ``plan`` is r.  bincount adds them in order, so a plan's sum does not
    move when negligible leading terms are dropped, as a pairwise sum's
    grouping would."""
    out = np.empty((plans, values.shape[1]))
    for k, column in enumerate(values.T):
        out[:, k] = np.bincount(plan, column, minlength=plans)
    return out


def _history_sums(history, factor, s, counts, dim):
    """Per plan, the sum of ``factor * history(s)`` over its history-side
    nodes, calling the history once at the nodes whose factor is nonzero."""
    live = np.flatnonzero(factor)
    plan = np.repeat(np.arange(len(counts)), counts)[live]
    vals = _history_values(history, s[live], dim) * factor[live, None]
    return _plan_sums(plan, vals, len(counts))


class _PlanBlock:
    """The quadrature plans at t_n + h/2 and t_n + h of the steps
    n0 <= n < n1, reduced to what the solution contributes to them.

    Row ``2 (n - n0)`` holds the plan of step n at t_n + h/2, the next row
    the one at t_n + h.  The history and the steps before the block are
    finished when it is built: ``values`` holds each plan's sum of ``factor
    * x`` over its nodes there, read through the history function and the
    steps' interpolants.  ``table`` holds each plan's moments ``sum f
    theta^(0..3)`` in the block's own steps, four columns per step; with
    ``Solution.poly[m]`` they give its value on step m once m is finished.
    A step contracts the columns of the block's completed steps with their
    contiguous ``poly`` rows, and the running step's nodes enter through
    its own columns, which serve any partial row of the step (see
    :func:`fcrk4_solve`).
    The history side is reduced before the recent side's nodes are built.
    """

    def __init__(self, sol, kernel, quad, n0, n1):
        h, dim = sol.h, sol.x.shape[1]
        self.n0 = n0
        last = np.repeat(np.arange(n0, n1), 2)
        times = sol.t0 + last * h
        times[0::2] += 0.5 * h
        times[1::2] += h
        sides = plan_nodes(times, kernel, quad, h, sol.t0, _tails(sol, kernel, times, n0))
        self.values = _history_sums(sol.history, *next(sides), dim)
        factor, s, counts = next(sides)
        # A node never reads past its plan's own step: one on t_n + h reads
        # x[n + 1] from step n at theta = 1, not from the unfinished step n + 1.
        plan = np.repeat(np.arange(len(times)), counts)
        step, theta = sol._place(s, last[plan])
        # A plan's nodes ascend in time, so those before the block come first.
        before = step < n0
        self.values += _plan_sums(
            plan[before],
            sol._interp(step[before], theta[before]) * factor[before, None],
            len(times),
        )
        within = ~before
        key = (plan * (n1 - n0) + step - n0)[within]
        factor, theta = factor[within], theta[within]
        table = np.empty((len(times) * (n1 - n0), 4))
        for q in range(4):
            table[:, q] = np.bincount(key, factor, minlength=len(table))
            factor *= theta
        self.table = table.reshape(len(times), -1)

    def plans(self, poly, n):
        """The plans of step n at t_n + h/2 and t_n + h, given the
        interpolant coefficients ``poly`` of the completed steps: their
        values on the completed steps (two rows of ``dim``) and their
        moments in the running step (two rows of 4)."""
        r, c = 2 * (n - self.n0), 4 * (n - self.n0)
        completed = poly[self.n0 : n].reshape(c, poly.shape[2])
        return (
            self.values[r : r + 2] + self.table[r : r + 2, :c] @ completed,
            self.table[r : r + 2, c : c + 4],
        )


def fcrk4_solve(problem, h, quad=None):
    """Integrate a gamma-distributed DDE with fixed step h.

    Each stage value is fed the quadrature approximation of the convolution
    at its own abscissa, built from the history, all completed step
    interpolants, and the lower-triangular portion of the current step.
    One plan serves each distinct abscissa: stages 1, 3 and 5 share the
    plan at t_n + h, stages 2 and 4 the plan at t_n + h/2, and each stage
    is one product of two weight rows with the earlier stages, giving its
    row value and its convolution.  The plan at t_n + h contracted with the
    finished step's coefficients is stage 0's convolution in the next step,
    so a solve uses ``2 n_steps + 1`` plans: the one at t0, which reads the
    history only, and two per step, built in blocks of steps
    (:class:`_PlanBlock`).
    The returned :class:`Solution` is not changed after the solve and may
    be queried from multiple threads.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"step size must be positive and finite, got {h}")
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
    # Each of a block's two plans per step takes at most 3 (panels + 1)
    # nodes, and its table of k steps 2k x 4k entries.
    block_steps = max(
        1,
        min(BLOCK_NODES // (6 * (plan_panels(quad, h) + 1)), math.isqrt(BLOCK_NODES // 16)),
    )
    span = problem.t_end - problem.t0
    # Checked in floating point, before the count is made an integer and
    # before the solution is allocated.
    if not span / h <= MAX_STEPS:
        raise ValueError(
            f"a solve over {span:.6g} at step {h:.6g} takes {span / h:.3g} steps, "
            f"above the budget of {MAX_STEPS}: raise the step or shorten the horizon"
        )
    n_steps = int(round(span / h))
    if abs(n_steps * h - span) > 1e-9 * max(1.0, abs(span)):
        n_steps = math.ceil(span / h - 1e-12)
    n_steps = max(n_steps, 1)

    x0 = np.atleast_1d(np.asarray(problem.history(problem.t0), dtype=float))
    dim = x0.size
    scalar = dim == 1 and np.ndim(problem.history(problem.t0)) == 0
    sol = Solution(problem.history, problem.t0, h, n_steps, dim, scalar)
    sol.x[0] = x0
    poly = sol.poly

    tableau = TABLEAU4
    h_a = h * tableau.a_coef
    b_poly = h * tableau.b_coef.T
    # Stage i is base[i] + weights[i, :, :i] @ K[:i]: row 0 of each gives
    # its value at theta = c_i, row 1 its convolution, read from the plan
    # at t_n + h/2 (plan row 0) or t_n + h (plan row 1).
    c = tableau.c
    plan_row = np.where(c == 0.5, 0, 1)
    weights = np.empty((tableau.stages, 2, tableau.stages))
    weights[:, 0] = np.einsum("ijq,iq->ij", h_a, c[:, None] ** np.arange(1, 4))
    base = np.empty((tableau.stages, 2, dim))
    k_step = np.empty((tableau.stages, dim))

    # Every node of the plan at t0 lies in the history.
    conv_start = convolution_integral(
        problem.t0,
        lambda times: _history_values(history, times, dim),
        problem.kernel,
        quad,
        h,
        problem.t0,
        tail=_tails(sol, problem.kernel, np.array([problem.t0]), 0),
    )
    block_end = 0
    # An overflowing history or solution is reported by the stage check,
    # with its step and stage, instead of by a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            if n == block_end:
                block_end = min(n + block_steps, n_steps)
                block = _PlanBlock(sol, problem.kernel, quad, n, block_end)
            values, moments = block.plans(poly, n)
            x_n = sol.x[n]
            weights[:, 1] = np.einsum("ijq,iq->ij", h_a, moments[plan_row, 1:])
            base[:, 0] = x_n
            base[:, 1] = values[plan_row] + moments[plan_row, 0, None] * x_n
            base[0, 1] = conv_start
            for i in range(tableau.stages):
                y_i, conv = base[i] + weights[i, :, :i] @ k_step[:i]
                k_step[i] = problem.rhs(
                    y_i if dim > 1 else y_i[0], conv if dim > 1 else float(conv[0])
                )
            if not np.isfinite(k_step).all():
                stage = np.isfinite(k_step).all(axis=1).argmin()
                raise FloatingPointError(f"non-finite stage value at step {n}, stage {stage}")
            poly[n, 0] = x_n
            poly[n, 1:] = b_poly @ k_step
            # The interpolant at theta = 1, summed as Solution.query sums it.
            sol.x[n + 1] = poly[n, 0] + (poly[n, 1] + (poly[n, 2] + poly[n, 3]))
            conv_start = values[1] + moments[1] @ poly[n]

    return sol
