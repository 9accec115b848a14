"""Reference computations for checking faultroute, written from the model
equations without importing the package.

Each function restates one definition from the model: the averaged
worst-link drift, the generator of the switched quadratic, the paper's closed
forms, the congestion floors and the necessary inequalities, and an exact
replay of a trajectory from its jump log.  They favour plain arithmetic and
scipy's root finder and ODE solver over speed; scipy is imported on first use
so that it stays out of the benchmark's set-up time.

Modes are numbered 1..4 (both sensors healthy, link-1 down, link-2 down, both
down); probability and rate arrays are indexed 0..3.
"""

from __future__ import annotations

import math

import numpy as np

STRICT_DRIFT = 1e-9  # a certified witness must beat this margin, not just 0


def observed(s: int, x1: float, x2: float) -> tuple[float, float]:
    """Densities the controller sees in mode ``s``: a down sensor reads 0."""
    return (x1 if s in (1, 3) else 0.0, x2 if s in (1, 2) else 0.0)


def split(beta: float, s: int, x1: float, x2: float) -> float:
    """Share of demand routed to link 1: ``1 / (1 + exp(beta * (o1 - o2)))``."""
    o1, o2 = observed(s, x1, x2)
    gap = beta * (o1 - o2)
    if gap > 700.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(gap))


def outflow(cap: float, x: float) -> float:
    return cap * (1.0 - math.exp(-x))


def field(F1: float, F2: float, beta: float, eta: float, s: int, x1: float, x2: float) -> tuple[float, float]:
    """``dx_k/dt = eta * mu_k(s, x) - F_k * (1 - exp(-x_k))``."""
    mu1 = split(beta, s, x1, x2)
    return eta * mu1 - outflow(F1, x1), eta * (1.0 - mu1) - outflow(F2, x2)


def drift(F1: float, F2: float, beta: float, eta: float, probs, theta) -> float:
    """Stationary average over modes of the faster-growing link's drift at ``theta``."""
    t1, t2 = float(theta[0]), float(theta[1])
    total = 0.0
    for s in (1, 2, 3, 4):
        g1, g2 = field(F1, F2, beta, eta, s, t1, t2)
        total += float(probs[s - 1]) * max(g1, g2)
    return total


def generator(F1, F2, beta, eta, rates, a, theta, s: int, x1: float, x2: float) -> float:
    """Generator ``LV(s, x)`` of ``V(s, x) = w**2 / 2 + a_s * w``.

    ``w`` is the total excess ``sum_k (x_k - theta_k)_+``; the excess of link
    ``k`` grows at its field value above the threshold, at its positive part
    on the threshold and not at all below it.  Mode jumps at ``rates[s][j]``
    change ``V`` by ``(a_j - a_s) * w``.
    """
    g = field(F1, F2, beta, eta, s, x1, x2)
    w = 0.0
    growth = 0.0
    for xk, tk, gk in zip((x1, x2), theta, g):
        if xk > tk:
            w += xk - tk
            growth += gk
        elif xk == tk:
            growth += max(gk, 0.0)
    i = s - 1
    jumps = sum(rates[i][j] * (a[j] - a[i]) for j in range(4) if j != i)
    return w * growth + a[i] * growth + jumps * w


# Closed forms of the paper ---------------------------------------------------


def homogeneous_bound(p2: float, p3: float) -> float:
    """Equal capacities: ``1 / (1 + p2 + p3)``."""
    return 1.0 / (1.0 + p2 + p3)


def failure_rate_bound(p: float) -> float:
    """Independent identical failures with probability ``p``: ``p2 = p3 = p(1-p)``."""
    return homogeneous_bound(p * (1.0 - p), p * (1.0 - p))


def correlation_bound(p: float, rho: float) -> float:
    """Correlated failures: ``p2 = p3 = p(1 - p - rho)``."""
    single = p * (1.0 - p - rho)
    return homogeneous_bound(single, single)


def hetero_bound(dF: float, p1: float, p2: float) -> float:
    """Capacity gap ``dF`` with symmetric faults ``p3 = p2``: the smaller of
    ``(1 - dF) / (1 - p1)`` and ``(1 - p4 dF) / (1 + 2 p2)``."""
    p4 = 1.0 - p1 - 2.0 * p2
    wide = (1.0 - dF) / (1.0 - p1) if p1 < 1.0 else math.inf
    return min(wide, (1.0 - p4 * dF) / (1.0 + 2.0 * p2))


# Congestion floors and the necessary inequalities ---------------------------


def floor(cap: float, beta: float, eta: float) -> float:
    """Density where worst-case routed inflow meets outflow on a link.

    Root of ``eta * e / (1 + e) - cap * (1 - exp(-x))`` with ``e = exp(-beta x)``,
    found with ``brentq``; 0 without demand, ``inf`` without capacity.
    """
    from scipy.optimize import brentq

    if eta == 0.0:
        return 0.0
    if cap == 0.0:
        return math.inf

    def gap(x: float) -> float:
        e = math.exp(-beta * x)
        return eta * e / (1.0 + e) - outflow(cap, x)

    hi = 1.0
    while gap(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    return brentq(gap, 0.0, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps)


def necessary_slacks(F1: float, F2: float, beta: float, eta: float, probs) -> tuple[float, float, float]:
    """Slack (capacity minus demand) of the three necessary inequalities.

    Above its floor a link keeps at least the worst-case share of demand in
    the modes where its own sensor reads zero, so link 1 must carry
    ``eta * (p2 / (1 + e2) + p4 / 2)`` with ``e2 = exp(-beta * floor_2)``;
    symmetrically for link 2; and total demand must stay below 1.
    """
    x1, x2 = floor(F1, beta, eta), floor(F2, beta, eta)
    e1 = math.exp(-beta * x1) if math.isfinite(x1) else 0.0
    e2 = math.exp(-beta * x2) if math.isfinite(x2) else 0.0
    p = [float(v) for v in probs]
    return (
        F1 - eta * (p[1] / (1.0 + e2) + 0.5 * p[3]),
        F2 - eta * (p[2] / (1.0 + e1) + 0.5 * p[3]),
        1.0 - eta,
    )


def necessary_holds(F1, F2, beta, eta, probs) -> bool:
    s1, s2, s3 = necessary_slacks(F1, F2, beta, eta, probs)
    return s1 >= 0.0 and s2 >= 0.0 and s3 > 0.0


def necessary_upper(F1: float, F2: float, beta: float, probs) -> float:
    """Smallest demand in [0, 1] at which a necessary inequality fails.

    Each slack falls as demand rises (floors rise, so the faulty-mode share
    rises), so each crosses zero at most once; the answer is the first
    crossing, found with ``brentq``, or 1 where the third inequality binds.
    """
    from scipy.optimize import brentq

    upper = 1.0
    for k in (0, 1):
        def slack(eta: float, k=k) -> float:
            return necessary_slacks(F1, F2, beta, eta, probs)[k]

        if slack(1.0) < 0.0:
            upper = min(upper, brentq(slack, 0.0, 1.0, xtol=1e-13))
    return upper


# Trajectory replay ------------------------------------------------------------


def replay(F1, F2, beta, eta, x0, s0: int, jump_times, jump_modes, elapsed: float, sample_times):
    """Densities at ``sample_times`` from exact integration between jumps.

    The mode is constant between consecutive jumps, so each piece is a smooth
    ODE solved with DOP853 at tight tolerance, restarted at every jump from
    the state it ended in.  Returns an array of shape ``(len(sample_times), 2)``.
    """
    from scipy.integrate import solve_ivp

    sample_times = np.asarray(sample_times, dtype=float)
    starts = np.concatenate([[0.0], np.asarray(jump_times, dtype=float)])
    ends = np.concatenate([np.asarray(jump_times, dtype=float), [elapsed]])
    modes = np.concatenate([[s0], np.asarray(jump_modes, dtype=int)])
    out = np.full((len(sample_times), 2), np.nan)
    out[sample_times == 0.0] = x0
    y = np.array(x0, dtype=float)
    for a, b, s in zip(starts, ends, modes):
        if b <= a:
            continue
        inside = (sample_times > a) & (sample_times < b)
        t_eval = np.append(sample_times[inside], b)  # a sample at b is filled below
        sol = solve_ivp(
            lambda t, x, s=int(s): field(F1, F2, beta, eta, s, x[0], x[1]),
            (a, b),
            y,
            method="DOP853",
            rtol=1e-12,
            atol=1e-12,
            t_eval=t_eval,
        )
        if not sol.success:
            raise RuntimeError(f"replay failed on [{a}, {b}] in mode {s}: {sol.message}")
        out[inside] = sol.y[:, :-1].T
        y = sol.y[:, -1]
        out[sample_times == b] = y
    return out
