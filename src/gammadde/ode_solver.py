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
_SUCCESS = "Integration successful."


@dataclass(frozen=True)
class OdeConfig:
    """Tolerances and the step budget.

    ``max_steps`` is LSODA's ``mxstep``: it bounds the steps taken between
    two consecutive output times, not over the whole solve.  The package's
    own solves take at most about 5500 (the logistic reference over
    [0, 600] in one interval); a solve stalled in ever smaller steps fails
    within seconds at the default.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    max_steps: int = 100_000

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")


def rk45_adaptive(rhs, y0, t0, t_end, cfg=None, *, t_eval):
    """Integrate ``y' = rhs(t, y)`` from ``t0`` with LSODA
    (``scipy.integrate.odeint``), sampling at ``t_eval``.

    Despite its name this is not a Runge-Kutta method; the name stays while
    ``bench/layer_trace.py`` hooks it.  ``t_eval`` holds increasing times
    in ``[t0, t_end]``.  Returns ``(t_eval, y)`` with ``y`` of shape
    ``(len(t_eval), dim)``.  Raises :class:`OdeFailure` with LSODA's message
    when it gives up (excess work, illegal input) or the state goes
    non-finite.
    """
    cfg = cfg or OdeConfig()
    times = np.asarray(t_eval, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("t_eval must be a non-empty 1-d sequence")
    if times[0] < t0 - 1e-12 or times[-1] > t_end + 1e-12:
        raise ValueError("t_eval outside integration span")
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
                mxstep=cfg.max_steps,
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
