"""Closed-form throughput bounds and the analytic witness machinery.

For equal capacities the certified-throughput lower bound collapses to
``1 / (1 + p2 + p3)``; two reparametrizations express it through a per-link
failure probability ``p`` and a cross-link failure correlation ``rho``.  For
unequal capacities (with symmetric fault probabilities) the bound becomes a
min of two affine expressions in the capacity gap.  This module also carries
the feasibility polynomial ``g(z)`` whose sign at ``z -> 0`` decides whether
the symmetric threshold condition can be met, and a constructive witness
finder mirroring the intermediate-value arguments behind the unequal-capacity
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, WitnessError
from .model import NetworkParams, validate_mode_probs
from .stability import STRICT_DRIFT, Z_FLOOR, ThetaWitness, _drift_value, sufficient_search, sufficient_value, zoom_min

PROB_TOL = 1e-12


@dataclass(frozen=True)
class FailureModel:
    """Identical per-link failure probability with cross-link correlation.

    Induces the mode distribution ``p2 = p3 = p*(1 - p - rho)``,
    ``p4 = p*(p + rho)``, ``p1 = 1 - p2 - p3 - p4``.
    """

    p_fail: float
    rho: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p_fail <= 1.0:
            raise ParameterError(f"failure probability must be in [0, 1], got {self.p_fail}")
        if not -self.p_fail - PROB_TOL <= self.rho <= 1.0 - self.p_fail + PROB_TOL:
            raise ParameterError(
                f"correlation {self.rho} outside [-p, 1-p] = [{-self.p_fail}, {1.0 - self.p_fail}]"
            )
        p = self.mode_probs(validate=False)
        if np.any(p < -PROB_TOL) or np.any(p > 1.0 + PROB_TOL):
            raise ParameterError(f"(p, rho) = ({self.p_fail}, {self.rho}) induces probabilities {p}")

    def mode_probs(self, validate: bool = True) -> np.ndarray:
        p, rho = self.p_fail, self.rho
        p2 = p * (1.0 - p - rho)
        p4 = p * (p + rho)
        probs = np.array([1.0 - 2.0 * p2 - p4, p2, p2, p4])
        if validate:
            probs = validate_mode_probs(np.clip(probs, 0.0, None))
        return probs


def rates_from_probs(probs, kappa: float = 1.0) -> np.ndarray:
    """Switching rates ``kappa * p[target]`` realizing a given stationary law.

    Any positive ``kappa`` works; entering each mode at a rate proportional
    to its target probability makes the balance equations hold identically.
    """
    p = validate_mode_probs(probs)
    if kappa <= 0.0:
        raise ParameterError(f"kappa must be positive, got {kappa}")
    rates = kappa * np.tile(p, (4, 1))
    np.fill_diagonal(rates, 0.0)
    return rates


def product_chain(p_fail: float, total_rate: float = 2.0) -> np.ndarray:
    """Two independent sensors, each failing at rate ``alpha`` and recovering
    at rate ``gamma`` with ``alpha / (alpha + gamma) = p_fail``; the joint
    chain realizes the zero-correlation failure model."""
    if not 0.0 < p_fail < 1.0:
        raise ParameterError(f"product chain needs 0 < p_fail < 1, got {p_fail}")
    alpha = p_fail * total_rate
    gamma = (1.0 - p_fail) * total_rate
    return np.array(
        [
            [0.0, alpha, alpha, 0.0],
            [gamma, 0.0, 0.0, alpha],
            [gamma, 0.0, 0.0, alpha],
            [0.0, gamma, gamma, 0.0],
        ]
    )


def homogeneous_lower_bound(p2: float, p3: float) -> float:
    """Certified throughput for equal capacities: ``1 / (1 + p2 + p3)``."""
    if not (0.0 <= p2 <= 1.0 and 0.0 <= p3 <= 1.0 and p2 + p3 <= 1.0 + PROB_TOL):
        raise ParameterError(f"(p2, p3) = ({p2}, {p3}) is not a valid single-fault mass")
    return 1.0 / (1.0 + p2 + p3)


def failure_rate_bound(p: float) -> float:
    """Equal-capacity bound for independent identical failures: ``1/(1+2p(1-p))``."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"failure probability must be in [0, 1], got {p}")
    return 1.0 / (1.0 + 2.0 * p * (1.0 - p))


def correlation_bound(p: float, rho: float) -> float:
    """Equal-capacity bound with failure correlation: ``1/(1+2p(1-p-rho))``."""
    FailureModel(p, rho)  # validates the admissible region
    return 1.0 / (1.0 + 2.0 * p * (1.0 - p - rho))


def _check_hetero_probs(p1: float, p2: float) -> float:
    if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0 and p1 + 2.0 * p2 <= 1.0 + PROB_TOL):
        raise ParameterError(f"(p1, p2) = ({p1}, {p2}) with p3 = p2 is not a distribution")
    return 1.0 - p1 - 2.0 * p2  # p4


def hetero_lower_bound(dF: float, p1: float, p2: float) -> float:
    """Unequal-capacity bound (symmetric faults, ``p3 = p2``), min form."""
    if not 0.0 <= dF <= 1.0:
        raise ParameterError(f"capacity gap must be in [0, 1], got {dF}")
    p4 = _check_hetero_probs(p1, p2)
    branch_wide = (1.0 - dF) / (1.0 - p1) if p1 < 1.0 else math.inf
    branch_narrow = (1.0 - p4 * dF) / (1.0 + 2.0 * p2)
    return min(branch_wide, branch_narrow)


def hetero_lower_bound_piecewise(dF: float, p1: float, p2: float) -> float:
    """Same bound written as an explicit branch at ``dF = 1 / (2 - p1)``."""
    if not 0.0 <= dF <= 1.0:
        raise ParameterError(f"capacity gap must be in [0, 1], got {dF}")
    p4 = _check_hetero_probs(p1, p2)
    if dF <= 1.0 / (2.0 - p1):
        return (1.0 - p4 * dF) / (1.0 + 2.0 * p2)
    return (1.0 - dF) / (1.0 - p1)


def hetero_upper_reference(dF: float) -> float:
    """Reference upper curve for the uniform-fault setting.

    Regression oracle for the numeric necessary-condition bound at
    ``p = (1/4, 1/4, 1/4, 1/4)`` and unit routing sensitivity; not a general
    formula.
    """
    if not 0.0 <= dF <= 1.0:
        raise ParameterError(f"capacity gap must be in [0, 1], got {dF}")
    return min(1.0, -(2.0 / 3.0) * math.sqrt(3.0 * dF * dF - 6.0 * dF + 7.0) - 2.0 * dF + 10.0 / 3.0)


@dataclass(frozen=True)
class GPolynomial:
    """Feasibility polynomial of the symmetric threshold condition.

    ``g(z) = z^(b+1) - (1 - (1-q) eta) z^b + z - (1 - (1+q) eta)`` on
    ``z in (0, 1]``, where ``q`` is the total single-fault probability.
    A root of ``g < 0`` is exactly a symmetric certificate.
    """

    beta: float
    eta: float
    q: float

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if not 0.0 <= self.q <= 1.0:
            raise ParameterError(f"q must be in [0, 1], got {self.q}")
        if self.eta < 0.0:
            raise ParameterError(f"eta must be nonnegative, got {self.eta}")

    @property
    def c1(self) -> float:
        return 1.0 - (1.0 - self.q) * self.eta

    def limit_at_zero(self) -> float:
        """``g(0+) = (1 + q) eta - 1``; negative iff the bound admits ``eta``."""
        return (1.0 + self.q) * self.eta - 1.0


def g_eval(gp: GPolynomial, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate ``g``, ``g'``, ``g''`` at ``z`` (scalar or array) in (0, 1].

    ``g'' = beta * z^(beta-2) * h(z)`` with
    ``h(z) = (beta+1) z - c1 (beta-1)``; the ``z^(beta-2)`` factor is singular
    at zero for ``beta < 2``, hence the open domain.
    """
    zz = np.asarray(z, dtype=float)
    if np.any(zz <= 0.0):
        raise ParameterError("g is evaluated on (0, 1]; got nonpositive z")
    b, c1 = gp.beta, gp.c1
    d0 = 1.0 - (1.0 + gp.q) * gp.eta
    g = zz ** (b + 1.0) - c1 * zz**b + zz - d0
    g1 = (b + 1.0) * zz**b - c1 * b * zz ** (b - 1.0) + 1.0
    h = (b + 1.0) * zz - c1 * (b - 1.0)
    g2 = b * zz ** (b - 2.0) * h
    return g, g1, g2


@dataclass(frozen=True)
class GMonotonicityReport:
    """Grid sweep of ``g'`` with the case diagnostics the argument relies on."""

    passed: bool  # min sampled g' > 0
    min_g1: float
    argmin_z: float
    min_g2: float | None  # for beta <= 1: claimed positive on the grid
    z0: float | None  # for beta > 1: interior minimizer of g'
    g1_at_z0: float | None
    g_at_zero: float


def g_monotonicity_check(gp: GPolynomial, grid: int = 10_000) -> GMonotonicityReport:
    """Sample ``g'`` on a dense grid over (0, 1] and report whether it stays positive.

    Failures are reported, not raised: for ``beta < 1`` the ``z^(beta-1)``
    term drives ``g'`` to minus infinity at the origin whenever the leading
    coefficient ``c1`` is positive, so the sweep genuinely finds negative
    values there; for ``beta >= 1`` the minimum is positive, attained at the
    interior point ``z0`` when ``beta > 1``.
    """
    zs = np.linspace(0.0, 1.0, grid + 1)[1:]
    _, g1, g2 = g_eval(gp, zs)
    i = int(np.argmin(g1))
    min_g2 = float(g2.min()) if gp.beta <= 1.0 else None
    z0 = g1_at_z0 = None
    if gp.beta > 1.0:
        z0 = gp.c1 * (gp.beta - 1.0) / (gp.beta + 1.0)
        if z0 > 0.0:
            g1_at_z0 = float(g_eval(gp, z0)[1])
    return GMonotonicityReport(
        passed=bool(g1[i] > 0.0),
        min_g1=float(g1[i]),
        argmin_z=float(zs[i]),
        min_g2=min_g2,
        z0=z0,
        g1_at_z0=g1_at_z0,
        g_at_zero=gp.limit_at_zero(),
    )


def _sweep_z(params: NetworkParams, p: np.ndarray, y_of_z, z_lo: float, z_hi: float, n: int = 400):
    """Minimize the averaged drift along a one-parameter (y(z), z) family.

    Every candidate is evaluated on the scalar path: the ``n`` log-spaced
    values of ``z`` first, then ``zoom_min`` refines the best one in
    ``t = -log z``.  The returned value is ``sufficient_value`` there.
    """
    z_lo = max(z_lo, Z_FLOOR)
    z_hi = max(min(z_hi, 1.0), z_lo)

    def theta(t: float) -> tuple[float, float]:
        y = min(max(y_of_z(math.exp(-t)), Z_FLOOR), 1.0)
        return -math.log(y), t

    def values(ts: np.ndarray) -> np.ndarray:
        return np.array([_drift_value(params, p, theta(t)) for t in ts.ravel().tolist()]).reshape(ts.shape)

    ts = -np.log(np.logspace(math.log10(z_lo), math.log10(z_hi), n))
    t_lo, t_hi = -math.log(z_hi), -math.log(z_lo)
    best = float(ts[int(np.argmin(values(ts)))])
    t = float(zoom_min(values, [[best]], (t_hi - t_lo) / (n - 1), min(t_lo, best), max(t_hi, best))[0, 0])
    return theta(t), sufficient_value(params, p, theta(t))


def hetero_witness(params: NetworkParams, probs, eta: float | None = None) -> ThetaWitness:
    """Construct a certificate for a demand below the unequal-capacity bound.

    Follows the two intermediate-value constructions: when demand is below
    the capacity gap, fix ``y`` at ``1 - (eta + F2)/F1`` (which forces the
    slower link to dominate every mode's max) and search along ``z``;
    otherwise fix the routing-asymmetry ratio just under ``gap/eta`` and
    search along ``z`` inside the window where the gap constraints hold.
    Every candidate is verified by direct evaluation and must beat
    ``-STRICT_DRIFT``; if the construction misses, the generic
    two-dimensional search is the fallback.
    """
    p = validate_mode_probs(probs)
    if abs(p[1] - p[2]) > 1e-9:
        raise ParameterError(f"witness construction assumes symmetric faults, got p2={p[1]}, p3={p[2]}")
    if params.F1 < params.F2:
        raise ParameterError("witness construction assumes F1 >= F2")
    if eta is not None:
        params = replace(params, eta=float(eta))
    eta = params.eta
    dF = params.F1 - params.F2
    bound = hetero_lower_bound(dF, float(p[0]), float(p[1]))
    if eta >= bound:
        raise ParameterError(f"demand {eta} is not below the certified bound {bound}")

    candidates: list[tuple[tuple[float, float], float]] = []
    if eta == 0.0:
        theta = (1e-6, 1e-6)
        candidates.append((theta, sufficient_value(params, p, theta)))
    elif eta < dF:
        # slower link dominates each mode's max for every z at this y
        y_cap = 1.0 - (eta + params.F2) / params.F1
        candidates.append(_sweep_z(params, p, lambda z: y_cap, Z_FLOOR, 1.0))
    else:
        rho = 0.99 * min(1.0, dF / eta)
        m = ((1.0 + rho) / (1.0 - rho)) ** (1.0 / params.beta)
        if dF == 0.0:
            candidates.append(_sweep_z(params, p, lambda z: z, Z_FLOOR, 1.0))
        else:
            denom = m * params.F1 - params.F2
            z_lo = (1.0 - rho) * dF / denom
            z_hi = min(dF / denom, 1.0 / m)
            if z_lo <= z_hi:
                candidates.append(_sweep_z(params, p, lambda z: m * z, z_lo, z_hi))
            candidates.append(_sweep_z(params, p, lambda z: m * z, Z_FLOOR, 1.0 / m))

    for theta, value in candidates:
        if value < -STRICT_DRIFT:
            return ThetaWitness(theta, value)

    fallback = sufficient_search(params, p)
    if fallback is not None:
        return fallback
    best = min(candidates, key=lambda t: t[1]) if candidates else None
    raise WitnessError(
        f"no witness found below the bound (eta={eta}, dF={dF}, best drift="
        f"{best[1] if best else 'n/a'}); construction and fallback disagree with the bound"
    )


def failure_rate_curve(n: int = 101) -> list[tuple[float, float]]:
    """(p, bound) rows for the independent-failure sweep."""
    return [(p, failure_rate_bound(p)) for p in np.linspace(0.0, 1.0, n)]


def correlation_curve(p: float = 0.5, n: int = 101) -> list[tuple[float, float]]:
    """(rho, bound) rows sweeping correlation over its admissible range at fixed p."""
    return [(r, correlation_bound(p, r)) for r in np.linspace(-p, 1.0 - p, n)]


def capacity_gap_curves(n: int = 101) -> list[tuple[float, float, float]]:
    """(dF, lower, upper) rows for the uniform-fault capacity-gap sweep."""
    rows = []
    for dF in np.linspace(0.0, 1.0, n):
        rows.append((dF, hetero_lower_bound(dF, 0.25, 0.25), hetero_upper_reference(dF)))
    return rows
