"""4th-order functionally continuous Runge-Kutta method for DDEs with a
gamma-distributed delay over (0, inf), whose state is one real number.

A functionally continuous method carries polynomial weights b(theta) and
coefficients A(theta), so every stage owns a continuous interpolant.  That
is what makes the infinite-delay convolution computable: evaluating
int x(t - s) g(s) ds inside a stage needs x over the whole current step,
which is not finished yet ("overlapping").  The stage's own row covers
exactly that stretch, completed steps are covered by their step
interpolants, and everything before t0 by the history function.

The fourth-order method here is three sweeps per step, each a cubic row
in theta built from h times the slopes K of earlier stages: Euler from
K0, the trapezoid from (K0, K1), and Simpson's cubic from K0 and the two
stages of the sweep before it.  Stage 1 reads the Euler row at theta = 1,
stages 2 and 3 the trapezoid row at theta = 1/2 and 1, stages 4 and 5
the Simpson row over (K0, K2, K3) at theta = 1/2 and 1; the Simpson row
over (K0, K4, K5) is the step interpolant b(theta).  One product reads a
sweep's row at both abscissae.

Every step interpolant and stage row is a cubic in theta, kept in one
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
history and the step interpolants, and sum to one value per plan; a
history m(s) e^(rho s) is read in log space, with rho s in the factors'
exponent (see :func:`~gammadde.quadrature.plan_nodes`), so far in the past
the kernel weight's underflow and e^(rho s)'s overflow do not meet, and
the factors multiply m alone.  Its nodes in each of the block's own steps
reduce to the moments ``sum f theta^(0..3)``, which form one table.  A
step contracts its plans' rows of that table with the contiguous ``poly``
rows of the block's completed steps, and one product of a sweep's row with
the powers of theta at 1/2 and 1 and the running step's moments gives the
values and convolutions of the sweep's two stages.
"""

import math
from dataclasses import dataclass

import numpy as np

from .chain_reduction import HistoryFunction
from .quadrature import QuadConfig, convolution_integral, plan_nodes, plan_panels, tail_start


#: A step's three sweeps (see above): each maps h times its stages' slopes
#: to its row's coefficients in powers (1, theta, theta^2, theta^3), whose
#: constant term x_n the step sets.
EULER = np.array([[0.0], [1.0], [0.0], [0.0]])
TRAPEZOID = np.array([[0.0, 0.0], [1.0, 0.0], [-0.5, 0.5], [0.0, 0.0]])
SIMPSON = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.5, 2.0, -0.5],
                    [2.0 / 3.0, -4.0 / 3.0, 2.0 / 3.0]])

#: The powers (1, theta, theta^2, theta^3) at the stage abscissae theta =
#: 1/2 and theta = 1, whose plans are a step's rows 0 and 1.
_POWERS = np.array([[1.0, 0.5, 0.25, 0.125], [1.0, 1.0, 1.0, 1.0]])


def _row(sweep, x_n, slopes):
    """The row of ``sweep`` (scaled by h) over its stages' ``slopes``."""
    row = sweep @ slopes
    row[0] = x_n
    return row


@dataclass(frozen=True)
class DdeProblem:
    """x'(t) = rhs(x(t), conv(t)) for a real x, with conv the gamma-kernel
    convolution of x over (0, inf), x = history on (-inf, t0) and x(t0) =
    x0; x0 = None is the history's value at t0, read when a solve starts.
    The history is a :class:`~gammadde.chain_reduction.HistoryFunction`;
    a bare callable is refused.  FCRK solves the problem, and the chain
    reduction solves it on a chain."""

    rhs: callable
    kernel: object
    history: HistoryFunction
    t0: float
    t_end: float
    x0: float = None

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)):
            raise ValueError(f"t0 and t_end must be finite, got {self.t0}, {self.t_end}")
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")
        if not isinstance(self.history, HistoryFunction):
            raise TypeError(f"a {type(self.history).__name__} history is not a HistoryFunction")

    def initial_value(self):
        """x(t0): ``x0``, or the history's value at t0 when it is None."""
        if self.x0 is None:
            return self.history(np.array([self.t0]))[0]
        return float(self.x0)


class Solution:
    """Piecewise-polynomial interpolant produced by one FCRK solve.

    ``query(t)`` (or calling the object) is defined for every t <= t_end:
    history values for t < t0, step interpolants from t0 on, so at t0 it
    returns the mesh value ``x[0]``, the problem's x0; it returns one
    value per time, a float for a scalar t.  ``x`` holds the n_steps + 1
    mesh values, and row m of the ``(n_steps, 4)`` array ``poly`` holds
    step m's interpolant x_m + h sum_s b_s(theta) K_ms in powers (1, theta,
    theta^2, theta^3): its constant term is the mesh value ``x[m]`` and its
    value at theta = 1 is ``x[m + 1]``, so it is continuous at mesh points.
    :func:`fcrk4_solve` fills ``x`` and ``poly`` step by step; the returned
    object is not changed again.
    """

    def __init__(self, history, t0, h, n_steps):
        self.history = history
        self.t0 = t0
        self.h = h
        self.n_steps = n_steps
        self.t_end = t0 + n_steps * h
        self.x = np.empty(n_steps + 1)
        self.poly = np.empty((n_steps, 4))

    def _sizes(self, n):
        """Largest |x| over x[0..n] and largest sum of |poly[m]| coefficients
        over the steps m < n."""
        poly_max = float(np.max(np.abs(self.poly[:n]).sum(axis=1), initial=0.0))
        return float(np.max(np.abs(self.x[: n + 1]))), poly_max

    def _place(self, times, last):
        """Step index (at most ``last``, which may vary per time) and offset
        theta within that step of each time after t0."""
        theta_total = (times - self.t0) / self.h
        step = np.minimum(np.floor(theta_total), last)
        return step.astype(np.intp), theta_total - step

    def _interp(self, step, theta):
        """Finished steps' interpolants at offsets theta, by Horner's rule
        on one gather of their coefficients."""
        coef = self.poly.take(step, axis=0)
        out = coef[:, 3] * theta
        for q in (2, 1):
            out += coef[:, q]
            out *= theta
        out += coef[:, 0]
        return out

    def query(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.isnan(t_arr).any():
            raise ValueError("query at a nan time")
        if np.any(t_arr > self.t_end + 1e-9 * max(1.0, abs(self.t_end))):
            raise ValueError("query beyond the end of the solve")
        out = np.empty(t_arr.size)
        hist = t_arr < self.t0
        if hist.any():
            out[hist] = self.history(t_arr[hist])
        out[~hist] = self._interp(*self._place(t_arr[~hist], self.n_steps - 1))
        return out if np.ndim(t) else out[0]

    __call__ = query


#: Most quadrature nodes in one plan block before its tail cut; its moment
#: table, which every step of the block contracts, holds at most half as
#: many entries (45 steps).  It bounds the memory a block takes, and a
#: larger block spreads numpy's per-call overhead over more nodes.  Under
#: tracemalloc the two solves of test_solve_memory_stays_small peak at
#: 0.77 MB (stability, 45 steps and 16,200 table entries per block) and
#: 1.33 MB (criterion 03's floor, 6 steps and up to 28,872 nodes per block).
BLOCK_NODES = 32768
#: Most steps one solve may take.  The longest solve in the tests takes
#: 2,000 steps (acceptance criterion 03 at h = 0.005) and in the benchmark
#: 1,600 (stability at h = 0.05 over [0, 80]); at the budget the solution's
#: step coefficients take 32 MB.
MAX_STEPS = 1_000_000
#: Most quadrature nodes one solve may build, bounded by 6 (panels + 1)
#: per step: two plans of at most 3 (panels + 1) nodes each.  A solve costs
#: 42-65 ns per bounding node (at h = 1e-4 and 1e-3, default quadrature, on
#: a 2-vCPU machine), so the budget is about a minute of work.  It admits
#: MAX_STEPS steps at h = 0.0125 (160 panels) with the default quadrature,
#: and is 100 times the largest solve in the tests (acceptance criterion 03
#: at h = 0.005, 2,000 steps of 800 panels: 9.6e6 nodes) and 1,300 times
#: the largest in the benchmark (7.7e5).
MAX_NODES = 1e9


#: Most a plan may drop of its convolution in the kernel's tail, relative to
#: the largest |x| so far; half of it goes to the history and half to the
#: steps before the plan's block.
TAIL_TOLERANCE = 1e-17


def _log(value):
    return math.log(value) if value > 0.0 else -math.inf


def _tails(sol, kernel, times, n0):
    """Per plan at ``times``, the lag beyond which its nodes are dropped
    (see :func:`plan_nodes`), or None for a custom history, whose m nothing
    bounds: it keeps every node.  The dropped history part of a plan,
    bounded through the history c e^(rho s) itself, and its dropped part in
    steps before step n0, bounded through their largest sum of |poly|
    coefficients, are each at most TAIL_TOLERANCE / 2 times the largest |x|
    up to x[n0].
    """
    history = sol.history
    if history.fn is not None:
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
    """Per plan r < ``plans``, the sum of the ``values`` whose ``plan`` is r.
    bincount adds them in order, so a plan's sum does not move when
    negligible leading terms are dropped, as a pairwise sum's grouping
    would.  Given no values, bincount returns integer zeros: hence the cast."""
    return np.bincount(plan, values, minlength=plans).astype(float, copy=False)


def _history_sums(history, factor, s, counts):
    """Per plan, the sum of the history-side terms ``factor * m(s)``, the
    factors carrying e^(rho s) (see :func:`plan_nodes`).  An exponential
    history is never called: its m is c.  A custom one's m is read once, at
    the nodes whose factor is nonzero."""
    plan = np.repeat(np.arange(len(counts)), counts)
    if history.fn is None:
        return _plan_sums(plan, factor * history.value, len(counts))
    live = np.flatnonzero(factor)
    vals = history.amplitude(s[live]) * factor[live]
    return _plan_sums(plan[live], vals, len(counts))


class _PlanBlock:
    """The quadrature plans at t_n + h/2 and t_n + h of the steps
    n0 <= n < n1, reduced to what the solution contributes to them.

    Row ``2 (n - n0)`` holds the plan of step n at t_n + h/2, the next row
    the one at t_n + h.  The history and the steps before the block are
    finished when it is built: ``values`` holds each plan's sum of ``factor
    * x`` over its nodes there, read through the history (see
    :func:`_history_sums`) and the steps' interpolants.  ``table`` holds
    each plan's moments ``sum f theta^(0..3)`` in the block's own steps,
    four columns per step; with ``Solution.poly[m]`` they give its value
    on step m once m is finished.  A step contracts the columns of the
    block's completed steps with their contiguous ``poly`` rows, and the
    running step's nodes enter through its own columns, which serve any
    partial row of the step (see :func:`fcrk4_solve`).
    The history side is reduced before the recent side's nodes are built.
    """

    def __init__(self, sol, kernel, quad, n0, n1):
        h = sol.h
        self.n0 = n0
        last = np.repeat(np.arange(n0, n1), 2)
        times = sol.t0 + last * h
        times[0::2] += 0.5 * h
        times[1::2] += h
        sides = plan_nodes(
            times, kernel, quad, h, sol.t0, _tails(sol, kernel, times, n0), sol.history.growth
        )
        self.values = _history_sums(sol.history, *next(sides))
        factor, s, counts = next(sides)
        # A node never reads past its plan's own step: one on t_n + h reads
        # x[n + 1] from step n at theta = 1, not from the unfinished step n + 1.
        plan = np.repeat(np.arange(len(times)), counts)
        step, theta = sol._place(s, last[plan])
        # A plan's nodes ascend in time, so those before the block come first.
        before = step < n0
        self.values += _plan_sums(
            plan[before],
            sol._interp(step[before], theta[before]) * factor[before],
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
        values on the completed steps (two numbers) and their moments in
        the running step (two rows of 4)."""
        r, c = 2 * (n - self.n0), 4 * (n - self.n0)
        completed = poly[self.n0 : n].reshape(c)
        return (
            self.values[r : r + 2] + self.table[r : r + 2, :c] @ completed,
            self.table[r : r + 2, c : c + 4],
        )


def fcrk4_solve(problem, h, quad=None):
    """Integrate a gamma-distributed DDE with fixed step h.

    Each stage value is fed the quadrature approximation of the convolution
    at its own abscissa, built from the history, all completed step
    interpolants, and its own row over the current step.
    One plan serves each distinct abscissa: stages 1, 3 and 5 share the
    plan at t_n + h, stages 2 and 4 the plan at t_n + h/2.  A sweep
    matrix turns h times the earlier stages' slopes into a cubic row, and
    one product of that row with the powers of theta at 1/2 and 1 and the
    two plans' moments reads it at both abscissae: the values and
    convolutions of the sweep's two stages (the Euler row is read at
    theta = 1 alone).  The plan at t_n + h contracted with the
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
    if history.growth <= -problem.kernel.rate:
        raise ValueError(
            f"history grows into the past at rate {-history.growth}, not "
            f"slower than the kernel decays ({problem.kernel.rate}): the "
            "delayed convolution diverges"
        )
    quad = quad or QuadConfig()
    # Each of a block's two plans per step takes at most 3 (panels + 1)
    # nodes, and its table of k steps 2k x 4k entries.
    step_nodes = 6 * (plan_panels(quad, h) + 1)
    block_steps = max(1, min(BLOCK_NODES // step_nodes, math.isqrt(BLOCK_NODES // 16)))
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
    if n_steps * step_nodes > MAX_NODES:
        raise ValueError(
            f"a solve over {span:.6g} at step {h:.6g} and quadrature step "
            f"{quad.step(h):.3g} builds up to {n_steps * step_nodes:.3g} quadrature nodes, "
            f"above the budget of {MAX_NODES:.3g}: raise the step or the quadrature step, "
            "or shorten the horizon"
        )

    sol = Solution(history, problem.t0, h, n_steps)
    sol.x[0] = problem.initial_value()
    poly = sol.poly

    euler, trapezoid, simpson = h * EULER, h * TRAPEZOID, h * SIMPSON
    # One product reads a sweep's row at both abscissae: offset + reader @
    # row is the value and convolution at theta = 1/2, then at theta = 1,
    # from the powers at theta and the running step's plan values and
    # moments.  It unpacks to four numpy scalars.  The Euler row is read at
    # theta = 1 alone, through the last two rows.
    reader = np.empty((4, 4))
    reader[0::2] = _POWERS
    offset = np.zeros(4)
    reader_end, offset_end = reader[2:], offset[2:]
    # The slopes of the two Simpson sweeps: K0 with the two stages of the
    # sweep before each.
    simpson_first, simpson_last = np.array([0, 2, 3]), np.array([0, 4, 5])
    k = np.empty(6)
    rhs = problem.rhs

    # Every node of the plan at t0 lies in the history, whose growth its
    # factors carry, so it reads the history's m alone.  Stage 0 reads its
    # convolution as a numpy scalar, like every other stage.
    conv_start = np.float64(convolution_integral(
        problem.t0,
        history.amplitude,
        problem.kernel,
        quad,
        h,
        problem.t0,
        tail=_tails(sol, problem.kernel, np.array([problem.t0]), 0),
        growth=history.growth,
    ))
    block_end = 0
    x_n = sol.x[0]
    # An overflowing history or solution is reported by the stage check,
    # with its step and stage, instead of by a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            if n == block_end:
                block_end = min(n + block_steps, n_steps)
                block = _PlanBlock(sol, problem.kernel, quad, n, block_end)
            values, moments = block.plans(poly, n)
            offset[1::2], reader[1::2] = values, moments
            k[0] = rhs(x_n, conv_start)
            k[1] = rhs(*(offset_end + reader_end @ _row(euler, x_n, k[:1])))
            x_mid, conv_mid, x_end, conv_end = offset + reader @ _row(trapezoid, x_n, k[:2])
            k[2], k[3] = rhs(x_mid, conv_mid), rhs(x_end, conv_end)
            x_mid, conv_mid, x_end, conv_end = offset + reader @ _row(
                simpson, x_n, k.take(simpson_first)
            )
            k[4], k[5] = rhs(x_mid, conv_mid), rhs(x_end, conv_end)
            if not all(map(math.isfinite, k.tolist())):
                raise FloatingPointError(
                    f"non-finite stage value at step {n}, stage {np.isfinite(k).argmin()}"
                )
            row = poly[n] = _row(simpson, x_n, k.take(simpson_last))
            # The interpolant at theta = 1, summed as Solution.query sums it.
            x_n = sol.x[n + 1] = row[0] + (row[1] + (row[2] + row[3]))
            conv_start = values[1] + moments[1] @ row

    return sol
