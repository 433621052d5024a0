"""Chain ODE integration on scipy's LSODA.

Every chain ODE in the package (the SIR likelihood, the chain comparisons,
the integer-shape Erlang references) is solved here.  LSODA switches
between Adams and BDF steps, so the stiff chains the two-moment
constructions produce just above an integer shape cost little more than
the others.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ODEintWarning, odeint


class OdeFailure(RuntimeError):
    """Integration aborted: excess work, illegal input or non-finite state."""


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


@dataclass(frozen=True)
class OdeConfig:
    """Relative and absolute tolerances."""

    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        # A nan tolerance passes a sign test, and LSODA then runs with
        # no error control at all.
        if not (0 < self.rtol < np.inf and 0 < self.atol < np.inf):
            raise ValueError(
                f"tolerances must be positive and finite, got {self.rtol}, {self.atol}"
            )


def check_chain_stages(j, n):
    """Refuse a chain ODE of ``n`` stages for shape ``j`` above
    ``MAX_CHAIN_STAGES``, before it is solved."""
    if n > MAX_CHAIN_STAGES:
        raise ValueError(
            f"shape j = {j:g} takes a chain of {n} stages, above the "
            f"{MAX_CHAIN_STAGES} that a chain ODE solve takes"
        )


def rk45_adaptive(rhs, y0, t0, cfg=None, *, t_eval):
    """Integrate ``y' = rhs(t, y)`` from ``t0`` to the last of the output
    times ``t_eval`` with LSODA (``scipy.integrate.odeint``).

    Despite its name this is not a Runge-Kutta method; the name stays while
    ``bench/layer_trace.py`` hooks it.  ``t_eval`` holds increasing times,
    none before ``t0`` and at least one after it.  Returns
    ``(t_eval, y)`` with ``y`` of shape ``(len(t_eval), dim)``.  Raises
    :class:`OdeFailure` with LSODA's message when it gives up (excess work,
    illegal input) or the state goes non-finite.
    """
    cfg = cfg or OdeConfig()
    times = np.asarray(t_eval, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("t_eval must be a non-empty 1-d sequence")
    if times[0] < t0 - 1e-12:
        raise ValueError("t_eval starts before t0")
    if times[-1] <= t0:
        raise ValueError("t_eval has no output time after t0: the output grid is empty")
    starts_at_t0 = times[0] <= t0
    grid = times if starts_at_t0 else np.concatenate([[t0], times])
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
                rtol=max(cfg.rtol / TOLERANCE_DIVISOR, RTOL_FLOOR),
                atol=cfg.atol / TOLERANCE_DIVISOR,
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
    return times, (y if starts_at_t0 else y[1:])
