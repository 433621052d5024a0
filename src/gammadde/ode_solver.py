"""Chain ODE integration on scipy's LSODA.

Every chain ODE in the package (the SIR likelihood, the chain comparisons,
the integer-shape Erlang references) is solved here.  LSODA switches
between Adams and BDF steps, so the stiff chains the two-moment
constructions produce just above an integer shape cost little more than
the others.  One knob, the relative tolerance ``rtol`` of
:func:`rk45_adaptive`, sets every solve's accuracy: at its default LSODA
receives rtol 1e-13 and atol 1e-15.
"""

import warnings

import numpy as np
from scipy.integrate import ODEintWarning, odeint


class OdeFailure(RuntimeError):
    """Integration aborted: excess work, illegal input or non-finite state."""


#: Relative tolerance of a chain ODE solve when none is given.
DEFAULT_RTOL = 1e-10
#: LSODA's global error tracks its tolerances, while the package's
#: tolerance settings were chosen for errors 100 to 1000 times below them.
#: Requested tolerances are divided by this factor so those settings keep
#: their accuracy (the work-precision tests pin it).
TOLERANCE_DIVISOR = 1000.0
#: Smallest relative tolerance handed to LSODA: near 2e-14 it rejects the
#: call as illegal input and returns garbage.
RTOL_FLOOR = 1e-13
#: LSODA's ``mxstep``: it bounds the steps taken between two consecutive
#: output times, not over the whole solve.  The package's own solves take at
#: most about 5500 (the logistic reference over [0, 600] in one interval); a
#: solve stalled in ever smaller steps fails within seconds at this budget.
MAX_STEPS = 100_000
#: Most stages of a chain ODE.  LSODA builds a dense finite-difference
#: Jacobian of the whole state, so a solve's cost climbs steeply with the
#: chain: on 2 vCPUs ``compare`` at its defaults spends 0.5 s, 2.2 s and
#: 6.4 s beyond start-up at 100, 200 and 300 stages, ``epi simulate`` 0.1 s,
#: 0.9 s and 3.0 s.  The largest chains solved in the tests have 20 stages,
#: in the benchmark 7 and in the SIR fitter 13.
MAX_CHAIN_STAGES = 200
_SUCCESS = "Integration successful."


def check_chain_stages(j, n):
    """Refuse a chain ODE of ``n`` stages for shape ``j`` above
    ``MAX_CHAIN_STAGES``, before it is solved."""
    if n > MAX_CHAIN_STAGES:
        raise ValueError(
            f"shape j = {j:g} takes a chain of {n} stages, above the "
            f"{MAX_CHAIN_STAGES} that a chain ODE solve takes"
        )


def rk45_adaptive(rhs, y0, t_eval, rtol=DEFAULT_RTOL):
    """Integrate ``y' = rhs(t, y)`` from ``y(0) = y0`` to the last of the
    output times ``t_eval`` with LSODA (``scipy.integrate.odeint``), and
    return the states there, of shape ``(len(t_eval), dim)``.

    Despite its name this is not a Runge-Kutta method; the name stays while
    ``bench/layer_trace.py`` hooks it.  ``t_eval`` holds increasing times,
    none before 0 and at least one after it.  ``rtol`` must be positive and
    finite; LSODA receives ``max(rtol / TOLERANCE_DIVISOR, RTOL_FLOOR)`` and
    ``atol = (rtol * 1e-2) / TOLERANCE_DIVISOR``.  Raises
    :class:`OdeFailure` with LSODA's message when it gives up (excess work,
    illegal input) or the state goes non-finite.
    """
    # A nan tolerance passes a sign test, and LSODA then runs with no error
    # control at all.
    if not 0 < rtol < np.inf:
        raise ValueError(f"rtol must be positive and finite, got {rtol}")
    times = np.asarray(t_eval, dtype=float)
    if times.ndim != 1 or times.size == 0 or times[-1] <= 0:
        raise ValueError("t_eval must be a 1-d sequence with an output time after 0")
    if times[0] < -1e-12:
        raise ValueError("t_eval starts before 0")
    starts_at_0 = times[0] <= 0
    grid = times if starts_at_0 else np.concatenate([[0.0], times])
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    # An overflow in the rhs ends the solve at once instead of leaving
    # LSODA to shrink its steps until the budget runs out.
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
        warnings.simplefilter("ignore", ODEintWarning)
        try:
            y, info = odeint(
                rhs,
                y0,
                grid,
                rtol=max(rtol / TOLERANCE_DIVISOR, RTOL_FLOOR),
                atol=(rtol * 1e-2) / TOLERANCE_DIVISOR,
                mxstep=MAX_STEPS,
                tfirst=True,
                full_output=True,
            )
        except FloatingPointError as exc:
            raise OdeFailure(f"non-finite state: {exc}") from exc
    if info["message"] != _SUCCESS:
        raise OdeFailure(f"LSODA: {info['message']}")
    if not np.all(np.isfinite(y)):
        raise OdeFailure("non-finite state")
    return y if starts_at_0 else y[1:]
