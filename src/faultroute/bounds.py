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
from .model import NetworkParams, drift_field, validate_mode_probs
from .stability import (
    STRICT_DRIFT,
    Z_FLOOR,
    ThetaWitness,
    necessary_upper_bound,
    sufficient_search,
    sufficient_value,
    zoom_min,
)

PROB_TOL = 1e-12
PRODUCT_CHAIN_RATE = 2.0  # alpha + gamma of each sensor in product_chain
G_GRID = 10_000  # points of (0, 1] that g_monotonicity_check samples
CURVE_POINTS = 101  # rows of each figure curve
CURVE_P = 0.5  # failure probability of the correlation sweep
UNIFORM = np.full(4, 0.25)  # mode law of the capacity-gap sweep, which runs at beta = 1
SWEEP_N = 400  # evenly spaced theta2 of each witness sweep before refinement


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
        p = self._raw_probs()
        if np.any(p < -PROB_TOL) or np.any(p > 1.0 + PROB_TOL):
            raise ParameterError(f"(p, rho) = ({self.p_fail}, {self.rho}) induces probabilities {p}")

    def _raw_probs(self) -> np.ndarray:
        """The induced law as computed, before clipping rounding negatives to zero."""
        p, rho = self.p_fail, self.rho
        p2 = p * (1.0 - p - rho)
        p4 = p * (p + rho)
        return np.array([1.0 - 2.0 * p2 - p4, p2, p2, p4])

    def mode_probs(self) -> np.ndarray:
        return validate_mode_probs(np.clip(self._raw_probs(), 0.0, None))


def rates_from_probs(probs, kappa: float = 1.0) -> np.ndarray:
    """Switching rates ``kappa * p[target]`` realizing a given stationary law.

    Any positive ``kappa`` works; entering each mode at a rate proportional
    to its target probability makes the balance equations hold identically.
    """
    p = validate_mode_probs(probs)
    if not 0.0 < kappa < math.inf:
        raise ParameterError(f"kappa must be finite and positive, got {kappa}")
    rates = kappa * np.tile(p, (4, 1))
    np.fill_diagonal(rates, 0.0)
    return rates


def product_chain(p_fail: float) -> np.ndarray:
    """Two independent sensors, each failing at rate ``alpha`` and recovering
    at rate ``gamma`` with ``alpha / (alpha + gamma) = p_fail`` and
    ``alpha + gamma = PRODUCT_CHAIN_RATE``; the joint chain realizes the
    zero-correlation failure model."""
    if not 0.0 < p_fail < 1.0:
        raise ParameterError(f"product chain needs 0 < p_fail < 1, got {p_fail}")
    alpha = p_fail * PRODUCT_CHAIN_RATE
    gamma = (1.0 - p_fail) * PRODUCT_CHAIN_RATE
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
    """Unequal-capacity bound (symmetric faults, ``p3 = p2``), min form.

    The form does not depend on ``beta``, but the sufficient test's search
    box does: below about ``beta = 0.07`` the bound can sit far above the
    ``lower`` of ``throughput_bounds``.  At ``F1 = 0.875``, ``beta = 0.0396``
    and probs ``(0.861, 0, 0, 0.139)`` it gives 0.896, while ``lower`` is 0.373.
    """
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
        if not 0.0 < self.beta < math.inf:
            raise ParameterError(f"beta must be finite and positive, got {self.beta}")
        if not 0.0 <= self.q <= 1.0:
            raise ParameterError(f"q must be in [0, 1], got {self.q}")
        if not 0.0 <= self.eta < math.inf:
            raise ParameterError(f"eta must be finite and nonnegative, got {self.eta}")

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
    if not np.all(zz > 0.0):
        raise ParameterError("g is evaluated on (0, 1]; got a nonpositive or NaN z")
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


def g_monotonicity_check(gp: GPolynomial) -> GMonotonicityReport:
    """Sample ``g'`` at ``G_GRID`` points of (0, 1] and report whether it stays positive.

    Failures are reported, not raised: for ``beta < 1`` the ``z^(beta-1)``
    term drives ``g'`` to minus infinity at the origin whenever the leading
    coefficient ``c1`` is positive, so the sweep genuinely finds negative
    values there; for ``beta >= 1`` the minimum is positive, attained at the
    interior point ``z0`` when ``beta > 1``.
    """
    zs = np.linspace(0.0, 1.0, G_GRID + 1)[1:]
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


def _sweep(params: NetworkParams, p: np.ndarray, theta1_of, t_lo: float):
    """The one sweep of a ``hetero_witness`` construction: the least drift along a line in ``theta``.

    ``SWEEP_N`` evenly spaced ``theta2 = t`` in ``[t_lo, -log(Z_FLOOR)]``,
    with ``theta1 = theta1_of(t)``, are scored in one ``drift_field`` call,
    and ``zoom_min`` refines the best one, one call per refinement grid.
    ``theta1_of`` must accept arrays and keep every ``theta`` in the search
    box.  Returns the chosen ``theta`` as Python floats; the caller
    re-checks it with ``sufficient_value``.  A line that is one point
    (``t_lo`` at the top) is returned without scoring.
    """
    top = -math.log(Z_FLOOR)
    if t_lo == top:
        return theta1_of(top), top

    def values(ts: np.ndarray) -> np.ndarray:
        return drift_field(params, theta1_of(ts), ts).averaged(params.eta, p)

    ts = np.linspace(t_lo, top, SWEEP_N)
    best = float(ts[int(np.argmin(values(ts)))])
    t = float(zoom_min(values, [best], (top - t_lo) / (SWEEP_N - 1), t_lo, top)[0])
    return theta1_of(t), t


def hetero_witness(params: NetworkParams, probs, eta: float | None = None) -> ThetaWitness:
    """Construct a certificate for a demand below the unequal-capacity bound.

    Follows the two intermediate-value constructions, one sweep along a
    line in ``theta`` each: when demand is below the capacity gap, fix
    ``e^-theta1`` at ``1 - (eta + F2)/F1`` (which forces the slower link to
    dominate every mode's max); otherwise fix
    ``theta2 - theta1 = log((1 + rho)/(1 - rho)) / beta`` with ``rho`` just
    under ``dF / eta`` (0 at equal capacities) and sweep up from ``theta1 = 0``.
    The sweep's ``theta`` is re-checked with ``sufficient_value`` on the
    caller's ``probs`` and must beat ``-STRICT_DRIFT``, and the witness
    carries that value.  If the construction misses, the generic
    two-dimensional ``sufficient_search`` is the fallback.

    Domain: below about ``beta = 0.07`` the closed form can exceed anything
    the sufficient test certifies (see ``hetero_lower_bound``), and a demand
    between the two then raises ``WitnessError``.  At ``F1 = 0.875``,
    ``beta = 0.0396`` and probs ``(0.861, 0, 0, 0.139)``, ``lower`` is 0.373
    against the closed form's 0.896, and ``eta = 0.5`` raises.
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

    if eta == 0.0:
        theta = (1e-6, 1e-6)
    elif eta < dF:
        # slower link dominates each mode's max at this theta1; max() absorbs rounding at eta ~ dF
        theta1 = -math.log(max(1.0 - (eta + params.F2) / params.F1, Z_FLOOR))
        theta = _sweep(params, p, lambda t: theta1, 0.0)
    else:
        rho = 0.99 * min(1.0, dF / eta)
        # the line theta2 - theta1 = gap; past the box's edge, its corner (0, -log Z_FLOOR)
        gap = min(math.log((1.0 + rho) / (1.0 - rho)) / params.beta, -math.log(Z_FLOOR))
        theta = _sweep(params, p, lambda t: t - gap, gap)

    drift = sufficient_value(params, probs, theta)
    if drift < -STRICT_DRIFT:
        return ThetaWitness(theta, drift)
    fallback = sufficient_search(params, probs)
    if fallback is not None:
        return fallback
    raise WitnessError(
        f"no witness found below the bound (eta={eta}, dF={dF}, construction drift={drift}); "
        "construction and fallback disagree with the bound"
    )


def failure_rate_curve() -> list[tuple[float, float]]:
    """(p, bound) rows for the independent-failure sweep."""
    return [(p, failure_rate_bound(p)) for p in np.linspace(0.0, 1.0, CURVE_POINTS)]


def correlation_curve() -> list[tuple[float, float]]:
    """(rho, bound) rows sweeping correlation over its admissible range at ``p = CURVE_P``."""
    return [(r, correlation_bound(CURVE_P, r)) for r in np.linspace(-CURVE_P, 1.0 - CURVE_P, CURVE_POINTS)]


def capacity_gap_curves() -> list[tuple[float, float, float]]:
    """(dF, lower, upper) rows for the uniform-fault capacity-gap sweep."""
    rows = []
    for dF in np.linspace(0.0, 1.0, CURVE_POINTS):
        rows.append((dF, hetero_lower_bound(dF, 0.25, 0.25), hetero_upper_reference(dF)))
    return rows


def necessary_upper_curve() -> list[tuple[float, float]]:
    """(dF, upper) rows: the bisected ``necessary_upper_bound`` over the capacity-gap sweep.

    The numeric counterpart of ``capacity_gap_curves``' reference upper curve,
    at ``F1 = (1 + dF) / 2``, uniform faults and ``beta = 1``.
    """
    rows = []
    for dF in np.linspace(0.0, 1.0, CURVE_POINTS):
        params = NetworkParams(F1=(1.0 + dF) / 2.0, F2=(1.0 - dF) / 2.0, beta=1.0, eta=0.0)
        rows.append((dF, necessary_upper_bound(params, UNIFORM)))
    return rows
