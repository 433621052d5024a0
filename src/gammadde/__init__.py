"""Numerical toolkit for gamma-distributed delay differential equations.

Solves DDEs of the form

    x'(t) = F(x(t), (x * g)(t)),    (x * g)(t) = int_0^inf x(t - s) g(s) ds

where g is a gamma probability density, via a 4th-order functionally
continuous Runge-Kutta method, and provides finite-dimensional ODE
reductions built from Erlang and two-moment hypoexponential kernel
approximations, together with analysis utilities (convergence orders,
MGF error estimates, linear stability) and an SIR likelihood application.
"""

from .distributions import GammaKernel, HypoexpKernel, Rng
from .approximations import (
    ApproxConfig,
    ChainParams,
    chain_params,
    erlang_approx,
    fixed_hypoexp,
    regularized_smoothed,
    smoothed_hypoexp,
)
from .chain_reduction import (
    ChainOdeProblem,
    HistoryFunction,
    build_erlang_system,
    build_hypoexp_system,
)
from .fcrk import DdeProblem, Solution, fcrk4_solve
from .quadrature import QuadConfig

__all__ = [
    "ApproxConfig",
    "ChainOdeProblem",
    "ChainParams",
    "DdeProblem",
    "GammaKernel",
    "HistoryFunction",
    "HypoexpKernel",
    "QuadConfig",
    "Rng",
    "Solution",
    "build_erlang_system",
    "build_hypoexp_system",
    "chain_params",
    "erlang_approx",
    "fcrk4_solve",
    "fixed_hypoexp",
    "regularized_smoothed",
    "smoothed_hypoexp",
]
