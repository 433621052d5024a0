"""Reference computations made apart from the program under test.

Each function here rebuilds a quantity the program reports from the
mathematics alone, with scipy doing the numerical work: characteristic
roots by bracketing, chain ODEs with ``solve_ivp`` at ``rtol <= 1e-12``,
survival functions from ``gammaincc`` and from matrix exponentials of the
chain generator, and the SIR likelihood from ``scipy.stats``.  Nothing here
imports ``gammadde``; callers pass in plain numbers.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import gammaincc

REF_RTOL = 1e-12


def eigen_root(tau, j, beta):
    """Principal real root of lambda = -a + beta a^j / (a + lambda)^j, a = j/tau.

    Found by bracketing the increasing function
    f(lambda) = (lambda + a) - beta a^j (lambda + a)^(-j) on (-a, inf),
    so it does not rely on the closed form the program uses.
    """
    a = j / tau

    def f(lam):
        u = lam + a
        return u - beta * a**j * u ** (-j)

    lo, hi = -a * (1.0 - 1e-12), 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
    return brentq(f, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=500)


def erlang_chain_trajectory(F, j, tau, history_c, history_rho, times):
    """x(t) of the DDE x' = F(x, conv) with an Erlang(j, j/tau) kernel.

    At integer shape the gamma kernel is Erlang, so the DDE is exactly the
    linear chain x' = F(x, r B_j), B_1' = x - r B_1, B_i' = r B_(i-1) - r B_i.
    The history c e^(rho s) gives B_i(0) = (c / r) (r / (r + rho))^i, the
    integral of the history against the Erlang(i, r) density, over r.
    """
    n = int(j)
    if n != j or n < 1:
        raise ValueError("Erlang chain reference needs a positive integer shape")
    r = n / tau
    y0 = np.empty(n + 1)
    y0[0] = history_c
    y0[1:] = (history_c / r) * (r / (r + history_rho)) ** np.arange(1, n + 1)

    def rhs(t, y):
        out = np.empty(n + 1)
        out[0] = F(y[0], r * y[n])
        out[1] = y[0] - r * y[1]
        out[2:] = r * (y[1:n] - y[2:])
        return out

    times = np.asarray(times, dtype=float)
    sol = solve_ivp(
        rhs,
        (times[0], times[-1]),
        y0,
        method="DOP853",
        t_eval=times,
        rtol=REF_RTOL,
        atol=1e-14,
    )
    if not sol.success:
        raise RuntimeError(f"reference chain solve failed: {sol.message}")
    return sol.y[0]


def char_residual(lam, alpha, beta, rates):
    """|lambda - alpha - beta prod r_i / (r_i + lambda)|, scaled by max(1, |lambda|).

    Zero exactly at the eigenvalues of the chain system matrix.
    """
    rates = np.asarray(rates, dtype=float)
    value = lam - alpha - beta * np.prod(rates / (rates + lam))
    return abs(value) / max(1.0, abs(lam))


def gamma_survival(j, tau, t):
    """P(T > t) for the Gamma(j, j/tau) kernel."""
    return gammaincc(j, (j / tau) * np.asarray(t, dtype=float))


def chain_survival_uniform(rates, t_max, n_out):
    """Unabsorbed mass of the sequential chain on linspace(0, t_max, n_out).

    One matrix exponential of the generator over the grid step, then
    propagation of the occupancy vector from unit mass in stage 1.
    """
    n = len(rates)
    q = np.zeros((n, n))
    for i, r in enumerate(rates):
        q[i, i] = -r
        if i + 1 < n:
            q[i, i + 1] = r
    step = expm(q * (t_max / (n_out - 1)))
    p = np.zeros(n)
    p[0] = 1.0
    out = np.empty(n_out)
    for k in range(n_out):
        out[k] = p.sum()
        p = p @ step
    return out


def sir_expected_cases(beta, eps, M, rates, obs_times):
    """Expected daily cases M (S(t_(k-1)) - S(t_k)) of the SIR chain.

    State (S, I_1..I_n) with S' = -beta S I, I_1' = beta S I - r_1 I_1,
    I_i' = r_(i-1) I_(i-1) - r_i I_i, from S = 1 - eps, I_1 = eps.
    LSODA with the analytic Jacobian handles the stiff chains that appear
    just above an integer shape.
    """
    r = np.asarray(rates, dtype=float)
    n = len(r)

    def rhs(t, y):
        force = beta * y[0] * y[1:].sum()
        out = np.empty(n + 1)
        out[0] = -force
        out[1] = force - r[0] * y[1]
        out[2:] = r[:-1] * y[1:n] - r[1:] * y[2:]
        return out

    def jac(t, y):
        jm = np.zeros((n + 1, n + 1))
        total = y[1:].sum()
        jm[0, 0] = -beta * total
        jm[0, 1:] = -beta * y[0]
        jm[1, 0] = beta * total
        jm[1, 1:] = beta * y[0]
        for i in range(n):
            jm[i + 1, i + 1] -= r[i]
            if i + 1 < n:
                jm[i + 2, i + 1] += r[i]
        return jm

    y0 = np.zeros(n + 1)
    y0[0] = 1.0 - eps
    y0[1] = eps
    times = np.concatenate([[0.0], np.asarray(obs_times, dtype=float)])
    sol = solve_ivp(
        rhs,
        (0.0, times[-1]),
        y0,
        method="LSODA",
        t_eval=times,
        jac=jac,
        rtol=REF_RTOL,
        atol=1e-15,
    )
    if not sol.success:
        raise RuntimeError(f"reference SIR solve failed: {sol.message}")
    return M * np.maximum(-np.diff(sol.y[0]), 0.0)


def sir_log_likelihood(beta, tau, j, eps, M, rates, obs_times, cases, serial):
    """Poisson case log-likelihood plus the serial-interval log-likelihood.

    Serial intervals have density Q(j, (j/tau) s) / tau, the stationary
    forward recurrence density of the gamma infectious period.
    """
    from scipy.stats import poisson  # imported here: slow, and only checks need it

    mu = sir_expected_cases(beta, eps, M, rates, obs_times)
    ll = float(poisson.logpmf(np.asarray(cases), mu).sum())
    ll += float(np.log(gamma_survival(j, tau, serial) / tau).sum())
    return ll, mu


def fitted_order(h_values, errors):
    """Least-squares slope of log(error) against log(h)."""
    return float(np.polyfit(np.log(h_values), np.log(errors), 1)[0])


def richardson_order(coarse, mid, fine):
    """log2 of the ratio of successive differences under step halving."""
    d1 = float(np.max(np.abs(np.asarray(coarse) - mid)))
    d2 = float(np.max(np.abs(np.asarray(mid) - fine)))
    return math.log2(d1 / d2)
