"""Stability certificates and throughput bounds for the fault-prone network.

Two complementary tests drive everything here:

* a *necessary* test built on the congestion floor of each link (the density
  below which even worst-case routing keeps the link filling up), which gives
  an upper bound on the sustainable demand;
* a *sufficient* test that searches for a threshold pair ``theta`` at which
  the stationary-mode-averaged worst-link drift is negative, which certifies
  boundedness of the densities and gives a lower bound.

The sufficient test is backed by an explicit Lyapunov certificate: a switched
quadratic of the above-threshold excess whose generator drift is bounded by
``-c * |x| + d``.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import CertificateError, ErgodicityError, NumericsError
from .model import (
    DriftField,
    NetworkParams,
    _field,
    check_densities,
    check_integer,
    check_mode,
    drift_field,
    generator_matrix,
    validate_mode_probs,
    validate_rate_matrix,
)

X_CAP = 50.0
FLOOR_X_TOL = 1e-12
STRICT_DRIFT = 1e-9  # a witness must beat this margin, not just 0
Z_FLOOR = 1e-9  # the search box is theta in [0, -log(Z_FLOOR)] per link
GRID_N = 200  # coarse search grid points per axis
BLOCK = 5  # coarse grid points per block side; divides GRID_N
CHUNK = 64  # blocks evaluated per pass of the pruned coarse search
ZOOM_N = 17  # points per axis of each refinement grid
ZOOM_LEVELS = 5  # refinement grids, each (ZOOM_N - 1) / 2 times finer than the last
BISECT_TOL = 1e-4
CERT_GRID_N = 65  # certificate sampling grid points per axis
CERT_MARGIN = 1.1  # safety factor on the sampled certificate constant d

_INEQUALITY_NAMES = ("necessary1", "necessary2", "necessary3")


@dataclass(frozen=True, slots=True)
class NecessaryReport:
    """Outcome of the three demand inequalities, with slack = rhs - lhs.

    The third slack is ``1 - eta``; it is positive exactly when ``eta < 1``.
    """

    slacks: tuple[float, float, float]
    floors: tuple[float, float]

    @property
    def inequality_holds(self) -> tuple[bool, bool, bool]:
        s1, s2, s3 = self.slacks
        return s1 >= 0.0, s2 >= 0.0, s3 > 0.0

    @property
    def holds(self) -> bool:
        return all(self.inequality_holds)

    def first_violated(self) -> str | None:
        return next((name for name, ok in zip(_INEQUALITY_NAMES, self.inequality_holds) if not ok), None)


@dataclass(frozen=True, slots=True)
class ThetaWitness:
    """Threshold pair certifying negative averaged drift."""

    theta: tuple[float, float]
    drift: float


@dataclass(frozen=True, slots=True)
class StabilityVerdict:
    necessary: NecessaryReport
    witness: ThetaWitness | None
    classification: str  # certified-stable | certified-unstable | indeterminate

    @property
    def sufficient_holds(self) -> bool:
        return self.witness is not None

    def to_dict(self) -> dict:
        return {
            "necessary": {"holds": self.necessary.holds, "slacks": list(self.necessary.slacks)},
            "sufficient": {
                "holds": self.sufficient_holds,
                "theta": list(self.witness.theta) if self.witness else None,
                "drift": self.witness.drift if self.witness else None,
            },
            "classification": self.classification,
            "violated": self.necessary.first_violated(),
        }


@dataclass(frozen=True, slots=True)
class ThroughputBounds:
    """Certified-demand interval: stable below ``lower``, unstable above ``upper``."""

    lower: float
    upper: float
    lower_witness: ThetaWitness | None
    upper_violation: str | None

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "lower_witness": {
                "theta": list(self.lower_witness.theta),
                "drift": self.lower_witness.drift,
            }
            if self.lower_witness
            else None,
            "upper_violation": self.upper_violation,
        }


@dataclass(frozen=True, slots=True)
class LyapunovCertificate:
    a: np.ndarray  # mode offsets, a[0] normalized to 1
    D: np.ndarray  # worst-link drift at theta per mode
    c: float
    d: float
    theta: tuple[float, float]
    system_residual: float


@dataclass(frozen=True)
class InvariantSetReport:
    samples: int
    outside: int
    counterexamples: list
    passed: bool


def solve_congestion_floor(params: NetworkParams, k: int) -> float:
    """Density at which worst-case routed inflow balances outflow on link ``k``.

    The inflow side ``eta * e^{-beta x} / (1 + e^{-beta x})`` is strictly
    decreasing and the outflow side strictly increasing, so the root is
    unique; bisection is exact enough.  Returns 0 when demand is zero and
    ``inf`` when the link has no capacity (the balance never closes), or
    when the floor, near ``log(eta / cap - 1) / beta`` at tiny ``beta``, is
    past the float range (``beta`` below about 1e-307).
    """
    eta, beta = params.eta, params.beta
    cap = params.capacity(k)
    if eta == 0.0:
        return 0.0
    if cap == 0.0:
        return math.inf

    def filling(x: float) -> bool:
        e = math.exp(-beta * x)
        return eta * e / (1.0 + e) - cap * -math.expm1(-x) > 0.0

    hi = X_CAP
    while filling(hi):  # tiny beta flattens the inflow side; widen until bracketed (filling(inf) is false)
        hi *= 2.0
    return 0.5 * sum(_bisect(filling, 0.0, hi, FLOOR_X_TOL))


def _bisect(below, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve ``[lo, hi]``, where ``below`` holds at ``lo`` and fails at ``hi``, to width ``tol``.

    Stops early where ``lo`` and ``hi`` are adjacent floats (floors past ~8e3); returns ``(lo, hi)``.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def congestion_floors(params: NetworkParams) -> tuple[float, float]:
    return solve_congestion_floor(params, 1), solve_congestion_floor(params, 2)


def necessary_condition(params: NetworkParams, probs) -> NecessaryReport:
    """Evaluate the three demand inequalities that any stable setting satisfies.

    The first two compare the fault-boosted share of demand against each
    link's capacity on the invariant set above the congestion floors; an
    infinite floor (no capacity, or a floor past the float range) enters in
    limit form (``e^{-beta * inf} = 0``).  The third is plain ``eta < 1``.
    """
    return _necessary(params, validate_mode_probs(probs))


def _necessary(params: NetworkParams, p: np.ndarray) -> NecessaryReport:
    """Unchecked ``necessary_condition``; a floor is ``inf`` only at zero capacity or ``beta`` below ~1e-307."""
    eta = params.eta
    x1, x2 = congestion_floors(params)
    e1 = math.exp(-params.beta * x1)
    e2 = math.exp(-params.beta * x2)
    _, p2, p3, p4 = p.tolist()
    lhs1 = eta * (p2 / (e2 + 1.0) + 0.5 * p4)
    lhs2 = eta * (p3 / (e1 + 1.0) + 0.5 * p4)
    return NecessaryReport((params.F1 - lhs1, params.F2 - lhs2, 1.0 - eta), (x1, x2))


def sufficient_value(params: NetworkParams, probs, theta: tuple[float, float]) -> float:
    """Mode-averaged worst-link drift at the threshold pair ``theta``.

    For each mode the drift of the faster-growing link is taken, using the
    routing seen through that mode's sensor faults; the average over the
    stationary mode distribution being negative certifies stability.  This
    scalar evaluation is the reference: every witness is checked with it.
    """
    check_densities(theta, "theta")
    return _drift_value(params, validate_mode_probs(probs), theta)


def _drift_value(params: NetworkParams, p: np.ndarray, theta: tuple[float, float]) -> float:
    """Unchecked ``sufficient_value``: ``theta`` finite and nonnegative, ``p`` validated."""
    t1, t2 = theta
    total = 0.0
    for s, ps in zip((1, 2, 3, 4), p.tolist()):
        total += ps * max(_field(params, s, t1, t2))
    return total


def zoom_min(values, center, step: float, lo: float, hi: float) -> np.ndarray:
    """Refine a grid minimum of ``values`` around ``center``, a point in ``d`` coordinates.

    Each of ``ZOOM_LEVELS`` levels lays ``ZOOM_N`` points per coordinate over
    ``center +- step``, clipped to ``[lo, hi]``, moves the center to the
    first best point of that grid and shrinks ``step`` to the grid's spacing.
    ``values`` takes one open-mesh array per coordinate (as from ``np.ix_``)
    and returns the ``(ZOOM_N,) * d`` grid values.
    """
    for _ in range(ZOOM_LEVELS):
        axes = [np.clip(np.linspace(c - step, c + step, ZOOM_N), lo, hi) for c in center]
        v = values(*np.ix_(*axes))
        best = np.unravel_index(int(np.argmin(v)), v.shape)
        center = np.array([axis[k] for axis, k in zip(axes, best)])
        step *= 2.0 / (ZOOM_N - 1)
    return center


class _Searcher:
    """The largest critical demand over ``theta`` for ``params``'s capacities and ``beta``.

    The grid is cut into ``BLOCK`` x ``BLOCK`` blocks; block ``(bi, bj)`` holds
    grid points ``(BLOCK * bi + i, BLOCK * bj + j)``.  Link 1's shares never
    rise in theta1 or fall in theta2 and its outflow rises in theta1, so its
    smallest shares and largest outflow over a block sit at the block's
    (largest theta1, smallest theta2) corner; link 2's sit at the opposite
    one.  ``floor`` holds those corner values.  Smaller shares and larger
    outflows never lower ``critical_demand``, so its value on ``floor`` bounds
    each block's wherever the computed field is monotone along grid lines.  A
    bound too low could only prune a better point and lower ``lower``, never
    certify a false demand: the witness is re-checked by the scalar
    reference.  No state carries over from one call to the next.
    """

    def __init__(self, params: NetworkParams):
        self.params = params
        self.thetas = -np.log(np.logspace(math.log10(Z_FLOOR), 0.0, GRID_N))
        tb = self.thetas.reshape(GRID_N // BLOCK, BLOCK)
        hi, lo = tb[:, 0], tb[:, -1]  # theta falls along the grid
        a = drift_field(params, hi[:, None], lo[None, :])
        b = drift_field(params, lo[:, None], hi[None, :])
        self.floor = DriftField(tuple((sa[0], sb[1]) for sa, sb in zip(a.shares, b.shares)), a.f1, b.f2)

    def coarse_argmin(self, p: np.ndarray) -> tuple[int, int]:
        """``np.argmin`` of minus the critical demand over the whole grid, by branch and bound.

        Blocks are evaluated ``CHUNK`` at a time in order of their bound until
        every block left is bounded above the running minimum; blocks whose
        bound equals it are evaluated, so ties survive and the first grid
        point in row-major order that holds the minimum is returned.  While
        nothing finite is seen, blocks bounded at ``+inf`` (which hold only
        ``+inf``) are skipped; if every point is ``+inf``, that is ``(0, 0)``.
        """
        nb = GRID_N // BLOCK
        tb = self.thetas.reshape(nb, BLOCK)
        bound = -self.floor.critical_demand(p, STRICT_DRIFT).ravel()
        order = np.argsort(bound)
        ranked = bound[order]
        best = math.inf
        seen = []
        done = 0
        while True:
            stop = min(done + CHUNK, int(np.searchsorted(ranked, best, side="right" if best < math.inf else "left")))
            if stop <= done:
                break
            ks = order[done:stop]
            field = drift_field(self.params, tb[ks // nb][:, :, None], tb[ks % nb][:, None, :])
            values = -field.critical_demand(p, STRICT_DRIFT)
            best = min(best, float(values.min()))
            seen.append((ks, values))
            done = stop
        if best == math.inf:
            return 0, 0
        first = GRID_N * GRID_N
        for ks, values in seen:
            n, i, j = np.nonzero(values == best)
            if n.size:
                flat = (ks[n] // nb * BLOCK + i) * GRID_N + ks[n] % nb * BLOCK + j
                first = min(first, int(flat.min()))
        return divmod(first, GRID_N)

    def __call__(self, p: np.ndarray) -> tuple[float, ThetaWitness | None]:
        """``(lower, witness)``: the largest re-checked critical demand and its witness (``p`` validated).

        The scalar ``_drift_value`` at the refined ``theta`` must beat
        ``-STRICT_DRIFT`` at ``lower``; until it does, the demand steps down by
        single floats, then by doubling steps.  If none passes: ``(0.0, None)``.
        """
        params, thetas = self.params, self.thetas

        def minus_critical(a, b):
            return -drift_field(params, a, b).critical_demand(p, STRICT_DRIFT)

        i, j = self.coarse_argmin(p)
        step = thetas[0] / (GRID_N - 1)  # the grid is uniform in theta
        t1, t2 = zoom_min(minus_critical, (thetas[i], thetas[j]), step, 0.0, thetas[0]).tolist()
        eta = -float(minus_critical(t1, t2))
        for k in range(64):  # by k = 63 a doubling step exceeds any demand in [0, 1]
            if not eta >= 0.0:
                break
            drift = _drift_value(replace(params, eta=eta), p, (t1, t2))
            if drift < -STRICT_DRIFT:
                return eta, ThetaWitness((t1, t2), drift)
            eta = math.nextafter(eta, -math.inf) if k < 4 else eta - math.ulp(eta) * 2.0 ** (k - 3)
        return 0.0, None


def _search(params: NetworkParams, p: np.ndarray) -> tuple[float, ThetaWitness | None]:
    """``_Searcher(params)(p)``, remembered for the last network searched (``p`` validated).

    The search ignores the demand, so the key is the bit patterns of
    ``F1``, ``F2``, ``beta`` and ``p``: a verdict and the bounds of one
    network share one search.  One entry is kept.
    """
    return _search_bits(struct.pack("3d", params.F1, params.F2, params.beta) + p.tobytes())


@functools.lru_cache(maxsize=1)
def _search_bits(key: bytes) -> tuple[float, ThetaWitness | None]:
    F1, F2, beta, *p = struct.unpack("7d", key)
    return _Searcher(NetworkParams(F1, F2, beta, 0.0))(np.array(p))


def sufficient_search(params: NetworkParams, probs) -> ThetaWitness | None:
    """Search for a threshold pair with strictly negative averaged drift.

    Reads the demand-free search behind ``throughput_bounds`` (one search
    per network: a call on the network last searched reuses its result).
    When ``params.eta`` is at most its ``lower``, returns its ``theta`` with
    the scalar ``sufficient_value`` at ``params.eta``, re-checked below
    ``-STRICT_DRIFT``.  Otherwise ``None``, a valid outcome, not an error.
    """
    p = validate_mode_probs(probs)
    lower, witness = _search(params, p)
    if witness is None or params.eta > lower:
        return None
    drift = _drift_value(params, p, witness.theta)
    return ThetaWitness(witness.theta, drift) if drift < -STRICT_DRIFT else None


def stability_verdict(params: NetworkParams, probs) -> StabilityVerdict:
    """Combine both tests into a three-way classification.

    A failed necessary test certifies instability outright; a found witness
    certifies stability; the remaining gap is reported as indeterminate,
    never coerced either way.  The search runs only if the necessary test
    holds, and it is the one ``throughput_bounds`` reads on the same
    network, so a verdict followed by the bounds searches once.
    """
    p = validate_mode_probs(probs)
    necessary = _necessary(params, p)
    if not necessary.holds:
        return StabilityVerdict(necessary, None, "certified-unstable")
    witness = sufficient_search(params, p)
    return StabilityVerdict(necessary, witness, "indeterminate" if witness is None else "certified-stable")


def throughput_bounds(params: NetworkParams, probs) -> ThroughputBounds:
    """Bracket the maximal sustainable demand for fixed capacities and faults.

    ``lower`` is the largest critical demand over the search box, found by
    one branch-and-bound search (``_Searcher``), shared with
    ``stability_verdict`` and ``sufficient_search`` on the same network.
    ``lower_witness`` carries the scalar drift at ``lower`` itself,
    re-checked below ``-STRICT_DRIFT``; it certifies every smaller demand
    too.  ``upper`` is the smallest demand at which the necessary test
    fails, bisected to ``BISECT_TOL``, and ``upper_violation`` names the
    first inequality failed there.  The demand stored in ``params`` is
    ignored.
    """
    p = validate_mode_probs(probs)
    lower, witness = _search(params, p)
    upper = _necessary_upper(params, p)
    if lower > upper:
        raise NumericsError(f"bound inversion: lower {lower} > upper {upper}")
    return ThroughputBounds(lower, upper, witness, _necessary(replace(params, eta=upper), p).first_violated())


def necessary_upper_bound(params: NetworkParams, probs) -> float:
    """Smallest demand at which the necessary test fails, to ``BISECT_TOL`` (demand in ``params`` ignored)."""
    return _necessary_upper(params, validate_mode_probs(probs))


def _necessary_upper(params: NetworkParams, p: np.ndarray) -> float:
    """A demand where the necessary test fails, at most ``BISECT_TOL`` above one where it holds.

    The test holds at demand 0 and fails at 1 (``eta < 1``), and it flips
    once in between: each link's floor rises with demand, so the share
    ``1 / (e^{-beta x} + 1)`` a faulty sensor routes onto the other link rises,
    and so does each left side, in rounded arithmetic too.  So one plain
    bisection on [0, 1] finds the flip, in 14 evaluations.
    """
    return _bisect(lambda eta: _necessary(replace(params, eta=eta), p).holds, 0.0, 1.0, BISECT_TOL)[1]


def mode_drift_maxima(params: NetworkParams, theta: tuple[float, float]) -> np.ndarray:
    """Per-mode worst-link drift at ``theta`` (the summands of the averaged drift)."""
    check_densities(theta, "theta")
    return np.array(drift_field(params, theta[0], theta[1]).mode_drift(params.eta))


def _excess_rates(params: NetworkParams, s: int, x: tuple[float, float], theta: tuple[float, float]):
    """Growth rates of the above-threshold excess (x_k - theta_k)_+."""
    g = _field(params, s, x[0], x[1])
    rates = []
    for k in (0, 1):
        if x[k] > theta[k]:
            rates.append(g[k])
        elif x[k] == theta[k]:
            rates.append(max(g[k], 0.0))
        else:
            rates.append(0.0)
    return rates[0], rates[1]


def generator_value(
    params: NetworkParams,
    rates: np.ndarray,
    a: np.ndarray,
    theta: tuple[float, float],
    s: int,
    x: tuple[float, float],
) -> float:
    """Generator applied to the switched quadratic Lyapunov function at (s, x)."""
    check_mode(s, "s")
    check_densities(theta, "theta")
    check_densities(x, "x")
    d1, d2 = _excess_rates(params, s, x, theta)
    w = max(x[0] - theta[0], 0.0) + max(x[1] - theta[1], 0.0)
    i = s - 1
    jump = sum(rates[i][j] * (a[j] - a[i]) for j in range(4) if j != i)
    return (d1 + d2 + jump) * w + a[i] * (d1 + d2)


def lyapunov_certificate(
    params: NetworkParams,
    probs,
    rates,
    theta: ThetaWitness | tuple[float, float],
) -> LyapunovCertificate:
    """Build the drift certificate ``LV <= -c|x| + d`` for a valid witness.

    The mode offsets ``a`` solve the 4x4 system whose first three rows are
    the generator rows and whose fourth row pins ``a_1 = 1``; the right-hand
    side re-centers each mode's worst-link drift at the stationary average.
    ``c`` is a quarter of the negated averaged drift.  ``d`` is estimated by
    sampling: the offset term maximum plus ``c * |theta|`` (the below-threshold
    region contributes exactly that), floored by the sampled remainder max,
    with a ``CERT_MARGIN`` safety factor; only finiteness of ``d`` matters for the certificate.
    """
    p = validate_mode_probs(probs)
    rmat = validate_rate_matrix(rates, require_irreducible=False)
    th = theta.theta if isinstance(theta, ThetaWitness) else (float(theta[0]), float(theta[1]))

    drift_max = mode_drift_maxima(params, th)
    dbar = float(p @ drift_max)
    c = -0.25 * dbar
    if c <= 0.0:
        raise CertificateError(f"averaged drift {dbar:.3e} is not negative; theta is not a witness")

    q = generator_matrix(rmat)
    m = q.copy()
    m[3, :] = np.array([1.0, 0.0, 0.0, 0.0])
    rhs = np.array([dbar - drift_max[0], dbar - drift_max[1], dbar - drift_max[2], 1.0])
    try:
        a = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError as exc:
        raise ErgodicityError(f"offset system is singular (reducible rates?): {exc}") from exc
    residual = float(np.abs(m @ a - rhs).max())
    if residual >= 1e-10:
        raise NumericsError(f"offset system residual {residual:.3e} exceeds 1e-10")

    span = max(5.0, th[0], th[1]) + 5.0
    xs = np.linspace(0.0, span, CERT_GRID_N)
    xs = np.unique(np.concatenate([xs, [th[0], th[1], th[0] + 1e-9, th[1] + 1e-9]]))
    x1, x2 = xs[:, None], xs[None, :]
    w = np.maximum(x1 - th[0], 0.0) + np.maximum(x2 - th[1], 0.0)
    offset_term = 0.0
    remainder = 0.0
    links = drift_field(params, x1, x2).link_drift(params.eta)
    for i, (g1, g2) in enumerate(links):
        d12 = _excess(g1, x1, th[0]) + _excess(g2, x2, th[1])
        jump = sum(rmat[i][j] * (a[j] - a[i]) for j in range(4) if j != i)
        offset_term = max(offset_term, float(np.max(a[i] * d12)))
        lv = (d12 + jump) * w + a[i] * d12
        remainder = max(remainder, float(np.max(lv + c * (x1 + x2))))
    d = max(CERT_MARGIN * offset_term + c * (th[0] + th[1]), CERT_MARGIN * remainder)
    return LyapunovCertificate(a, drift_max, c, d, th, residual)


def _excess(g: np.ndarray, x: np.ndarray, theta: float) -> np.ndarray:
    """Array form of ``_excess_rates`` for one link."""
    return np.where(x > theta, g, np.where(x == theta, np.maximum(g, 0.0), 0.0))


def invariant_set_check(
    params: NetworkParams,
    floors: tuple[float, float],
    samples: int,
    seed: int = 0,
) -> InvariantSetReport:
    """Sample states below the congestion floors and confirm inward drift.

    For every sampled coordinate sitting under its floor, the corresponding
    vector-field component must be strictly positive; counterexamples are
    collected rather than raised.
    """
    check_densities(floors, "floors")
    check_integer(samples, "samples", 1)
    check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    hi1 = 1.5 * floors[0] + 1.0
    hi2 = 1.5 * floors[1] + 1.0
    outside = 0
    bad = []
    for _ in range(samples):
        x = (rng.random() * hi1, rng.random() * hi2)
        s = int(rng.integers(1, 5))
        below1 = x[0] < floors[0]
        below2 = x[1] < floors[1]
        if not (below1 or below2):
            continue
        outside += 1
        g1, g2 = _field(params, s, x[0], x[1])
        if (below1 and g1 <= 0.0) or (below2 and g2 <= 0.0):
            bad.append((s, x, (g1, g2)))
    return InvariantSetReport(samples, outside, bad, not bad)
