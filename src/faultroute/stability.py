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

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CertificateError, ErgodicityError, MonotonicityError, NumericsError, ParameterError
from .model import (
    DriftField,
    NetworkParams,
    _field,
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
PRE_GRID = 11  # demands probed on [0, 1] before bisecting
CERT_GRID_N = 65  # certificate sampling grid points per axis
CERT_MARGIN = 1.1  # safety factor on the sampled certificate constant d

_INEQUALITY_NAMES = ("necessary1", "necessary2", "necessary3")


@dataclass(frozen=True)
class NecessaryReport:
    """Outcome of the three demand inequalities, with slack = rhs - lhs."""

    holds: bool
    inequality_holds: tuple[bool, bool, bool]
    slacks: tuple[float, float, float]
    floors: tuple[float, float]

    def first_violated(self) -> str | None:
        for name, ok in zip(_INEQUALITY_NAMES, self.inequality_holds):
            if not ok:
                return name
        return None


@dataclass(frozen=True, slots=True)
class ThetaWitness:
    """Threshold pair certifying negative averaged drift."""

    theta: tuple[float, float]
    drift: float


@dataclass(frozen=True)
class StabilityVerdict:
    necessary: NecessaryReport
    sufficient_holds: bool
    witness: ThetaWitness | None
    classification: str  # certified-stable | certified-unstable | indeterminate

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    ``inf`` when the link has no capacity (the balance never closes).
    """
    eta, beta = params.eta, params.beta
    cap = params.capacity(k)
    if eta == 0.0:
        return 0.0
    if cap == 0.0:
        return math.inf

    def gap(x: float) -> float:
        e = math.exp(-beta * x)
        return eta * e / (1.0 + e) - cap * -math.expm1(-x)

    hi = X_CAP
    while gap(hi) > 0.0:  # tiny beta flattens the inflow side; widen until bracketed
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    lo = 0.0
    while hi - lo > FLOOR_X_TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats further apart than the tolerance (floors past ~8e3)
            break
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def congestion_floors(params: NetworkParams) -> tuple[float, float]:
    return solve_congestion_floor(params, 1), solve_congestion_floor(params, 2)


def necessary_condition(params: NetworkParams, probs) -> NecessaryReport:
    """Evaluate the three demand inequalities that any stable setting satisfies.

    The first two compare the fault-boosted share of demand against each
    link's capacity on the invariant set above the congestion floors; an
    infinite floor enters in limit form (``e^{-beta * inf} = 0``).  The third
    is plain ``eta < 1``.
    """
    return _necessary(params, validate_mode_probs(probs))


def _necessary(params: NetworkParams, p: np.ndarray) -> NecessaryReport:
    eta = params.eta
    x1, x2 = congestion_floors(params)
    e1 = math.exp(-params.beta * x1) if math.isfinite(x1) else 0.0
    e2 = math.exp(-params.beta * x2) if math.isfinite(x2) else 0.0
    lhs1 = eta * (p[1] / (e2 + 1.0) + 0.5 * p[3])
    lhs2 = eta * (p[2] / (e1 + 1.0) + 0.5 * p[3])
    slacks = (params.F1 - lhs1, params.F2 - lhs2, 1.0 - eta)
    holds = (slacks[0] >= 0.0, slacks[1] >= 0.0, eta < 1.0)
    return NecessaryReport(all(holds), holds, slacks, (x1, x2))


def sufficient_value(params: NetworkParams, probs, theta: tuple[float, float]) -> float:
    """Mode-averaged worst-link drift at the threshold pair ``theta``.

    For each mode the drift of the faster-growing link is taken, using the
    routing seen through that mode's sensor faults; the average over the
    stationary mode distribution being negative certifies stability.  This
    scalar evaluation is the reference: every witness is checked with it.
    """
    if theta[0] < 0.0 or theta[1] < 0.0:
        raise ParameterError(f"theta must be nonnegative, got {theta}")
    return _drift_value(params, validate_mode_probs(probs), theta)


def _drift_value(params: NetworkParams, p: np.ndarray, theta: tuple[float, float]) -> float:
    """Unchecked ``sufficient_value``: ``theta`` nonnegative, ``p`` validated."""
    t1, t2 = theta
    total = 0.0
    for s, ps in zip((1, 2, 3, 4), p.tolist()):
        total += ps * max(_field(params, s, t1, t2))
    return total


def zoom_min(values, centers, step: float, lo: float, hi: float) -> np.ndarray:
    """Refine grid minima of ``values`` around each of the points ``centers``.

    ``centers`` has shape ``(m, d)``: ``m`` independent searches in ``d``
    coordinates.  Each of ``ZOOM_LEVELS`` levels lays ``ZOOM_N`` points per
    coordinate over ``center +- step``, clipped to ``[lo, hi]``, moves each
    center to the first best point of its grid and shrinks ``step`` to the
    grid's spacing.  ``values`` takes one open-mesh array per coordinate,
    each with a leading batch axis of length ``m``, and returns the
    ``(m, ZOOM_N, ..., ZOOM_N)`` grid values.  Returns the refined ``(m, d)``
    centers.  Each search comes out bit for bit as it would alone unless
    ``((center + step) - (center - step)) / (ZOOM_N - 1)`` rounds to 0 in
    some coordinate: only then does ``linspace`` with array endpoints
    switch every element to another formula.
    """
    centers = np.array(centers, dtype=float)
    m, d = centers.shape
    lanes = np.arange(m)[:, None], np.arange(d)
    for _ in range(ZOOM_LEVELS):
        axes = np.clip(np.linspace(centers - step, centers + step, ZOOM_N), lo, hi)  # (ZOOM_N, m, d)
        mesh = [axes[:, :, k].T.reshape((m,) + (1,) * k + (ZOOM_N,) + (1,) * (d - 1 - k)) for k in range(d)]
        best = np.unravel_index(np.argmin(values(*mesh).reshape(m, -1), axis=1), (ZOOM_N,) * d)
        centers = axes[(np.array(best).T, *lanes)]
        step *= 2.0 / (ZOOM_N - 1)
    return centers


def _block_bounds(field: DriftField) -> DriftField:
    """Per-block field that bounds every point's averaged drift from below.

    ``field`` is block-major, ``[bi, bj, i, j]``.  The shares are minimized
    and the outflows maximized over each block.  ``averaged`` uses only
    ``eta * mu``, ``-``, ``max``, ``* p_s`` and ``+`` with ``eta, p_s >= 0``.
    Rounded to nearest, each of these is monotone in each input, so the
    computed bound of a block is ``<=`` every computed value in it: a proof,
    not an estimate, as long as no value is NaN (``NetworkParams`` admits
    only finite fields).
    """
    inner = (2, 3)
    return DriftField(
        tuple((mu1.min(axis=inner), mu2.min(axis=inner)) for mu1, mu2 in field.shares),
        field.f1.max(axis=inner),
        field.f2.max(axis=inner),
        field.fmin.max(axis=inner),
    )


def _take_blocks(field: DriftField, bi: np.ndarray, bj: np.ndarray) -> DriftField:
    """The blocks ``(bi[n], bj[n])`` of a block-major field, stacked on axis 0."""

    def take(a: np.ndarray) -> np.ndarray:
        return a[bi if a.shape[0] > 1 else 0, bj if a.shape[1] > 1 else 0]

    return DriftField(
        tuple((take(mu1), take(mu2)) for mu1, mu2 in field.shares),
        take(field.f1),
        take(field.f2),
        take(field.fmin),
    )


class _Searcher:
    """Witness search for ``params``'s capacities and ``beta`` at any demands.

    The coarse drift field does not depend on the demand, so it is built
    once here, block-major in ``BLOCK`` x ``BLOCK`` blocks (``[bi, bj, i, j]``
    is grid point ``(BLOCK * bi + i, BLOCK * bj + j)``), and shared by every
    call.  No state carries over from one call to the next.
    """

    def __init__(self, params: NetworkParams):
        self.params = params
        self.thetas = -np.log(np.logspace(math.log10(Z_FLOOR), 0.0, GRID_N))
        tb = self.thetas.reshape(GRID_N // BLOCK, BLOCK)
        self.coarse = drift_field(params, tb[:, None, :, None], tb[None, :, None, :])
        self.floor = _block_bounds(self.coarse)

    def coarse_argmin(self, eta: float, p: np.ndarray) -> tuple[int, int]:
        """``np.argmin`` of the averaged drift over the whole grid, by branch and bound.

        Blocks are evaluated ``CHUNK`` at a time in order of their bound until
        every block left is bounded above the running minimum; blocks whose
        bound equals it are evaluated, so ties survive and the first grid
        point in row-major order that holds the minimum is returned.
        """
        nb = GRID_N // BLOCK
        bound = self.floor.averaged(eta, p).ravel()
        order = np.argsort(bound)
        ranked = bound[order]
        best = math.inf
        seen = []
        done = 0
        while True:
            stop = min(done + CHUNK, int(np.searchsorted(ranked, best, side="right")))
            if stop <= done:
                break
            ks = order[done:stop]
            values = _take_blocks(self.coarse, ks // nb, ks % nb).averaged(eta, p)
            best = min(best, float(values.min()))
            seen.append((ks, values))
            done = stop
        first = GRID_N * GRID_N
        for ks, values in seen:
            n, i, j = np.nonzero(values == best)
            if n.size:
                flat = (ks[n] // nb * BLOCK + i) * GRID_N + ks[n] % nb * BLOCK + j
                first = min(first, int(flat.min()))
        return divmod(first, GRID_N)

    def __call__(self, etas: list[float], p: np.ndarray) -> list[ThetaWitness | None]:
        """One witness or ``None`` per demand in ``etas`` (``p`` already validated)."""
        params, thetas = self.params, self.thetas
        centers = [(thetas[i], thetas[j]) for i, j in (self.coarse_argmin(eta, p) for eta in etas)]
        eta_col = np.array(etas, dtype=float)[:, None, None]
        refined = zoom_min(
            lambda a, b: drift_field(params, a, b).averaged(eta_col, p),
            centers,
            thetas[0] / (GRID_N - 1),  # the grid is uniform in theta
            0.0,
            thetas[0],
        )
        out = []
        for eta, (t1, t2) in zip(etas, refined.tolist()):
            drift = _drift_value(replace(params, eta=eta), p, (t1, t2))
            out.append(ThetaWitness((t1, t2), drift) if drift < -STRICT_DRIFT else None)
        return out


def sufficient_search(params: NetworkParams, probs) -> ThetaWitness | None:
    """Search for a threshold pair with strictly negative averaged drift.

    Finds the minimum of the drift field on the ``GRID_N`` x ``GRID_N`` grid
    ``theta = -log(logspace(log10(Z_FLOOR), 0, GRID_N))`` per coordinate,
    uniform in ``theta`` over ``[0, -log(Z_FLOOR)]``, and the first grid
    point holding it in row-major order, exactly as ``np.argmin`` over the
    whole grid would.  It gets there by branch and bound: a lower bound per
    ``BLOCK`` x ``BLOCK`` block ranks the blocks, which are evaluated
    ``CHUNK`` at a time until every block left has a bound above the
    running minimum.  The best grid point is polished by ``ZOOM_LEVELS``
    finer ``ZOOM_N`` x ``ZOOM_N`` grids, each spanning one spacing of the
    last around its best point.  The chosen ``theta`` is then re-evaluated
    with the scalar ``sufficient_value``, and the witness carries that
    value; a point that does not beat ``-STRICT_DRIFT`` there is never
    returned.  Deterministic; ``None`` (no witness) is a valid outcome, not
    an error.
    """
    return _Searcher(params)([params.eta], validate_mode_probs(probs))[0]


def stability_verdict(params: NetworkParams, probs) -> StabilityVerdict:
    """Combine both tests into a three-way classification.

    A failed necessary test certifies instability outright; a found witness
    certifies stability; the remaining gap is reported as indeterminate,
    never coerced either way.
    """
    necessary = necessary_condition(params, probs)
    if not necessary.holds:
        return StabilityVerdict(necessary, False, None, "certified-unstable")
    witness = sufficient_search(params, probs)
    if witness is not None:
        return StabilityVerdict(necessary, True, witness, "certified-stable")
    return StabilityVerdict(necessary, False, None, "indeterminate")


def _bisect_predicate(predicate, tol: float, label: str):
    """Bisection for the flip point of a monotone predicate on [0, 1].

    Probes ``PRE_GRID`` evenly spaced demands first; any true-after-false
    pattern is reported as a monotonicity violation instead of being
    silently bisected over.  Returns (largest eta seen true, smallest eta
    seen false).
    """
    etas = np.linspace(0.0, 1.0, PRE_GRID)
    results = [(float(e), predicate(float(e))) for e in etas]
    first_false = next((k for k, (_, ok) in enumerate(results) if not ok), None)
    if first_false is not None:
        for e, ok in results[first_false + 1 :]:
            if ok:
                raise MonotonicityError(
                    f"{label} predicate is non-monotone: true at eta={e} after false at "
                    f"eta={results[first_false][0]}",
                    (results[first_false][0], e),
                )
    if first_false == 0:
        return 0.0, 0.0
    if first_false is None:
        return 1.0, 1.0
    lo = results[first_false - 1][0]
    hi = results[first_false][0]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def throughput_bounds(params: NetworkParams, probs) -> ThroughputBounds:
    """Bracket the maximal sustainable demand for fixed capacities and faults.

    ``lower`` is the largest demand at which the sufficient search certifies
    stability, ``upper`` the smallest at which the necessary test fails; the
    demand stored in ``params`` is ignored.  The necessary predicate is
    monotone in the demand.  The exact sufficient predicate is too, because
    the drift at a fixed ``theta`` is nondecreasing in the demand, but the
    search only approximates the minimum over ``theta``: a non-monotone
    pattern on the coarse demand grid raises, and inside the last bracket the
    search is trusted.  ``lower_witness`` is the witness found at ``lower``
    itself; it also certifies every smaller demand.  The ``PRE_GRID`` demands
    that ``_bisect_predicate`` probes first are searched as one batch (one
    ``zoom_min`` call with a batch axis), with the same witnesses as one
    search each; the bisection steps after them search one demand at a time.
    """
    p = validate_mode_probs(probs)
    search = _Searcher(params)
    pre_grid = np.linspace(0.0, 1.0, PRE_GRID).tolist()  # the demands _bisect_predicate probes first
    witnesses = dict(zip(pre_grid, search(pre_grid, p)))

    def stable_at(eta: float) -> bool:
        if eta not in witnesses:
            witnesses[eta] = search([eta], p)[0]
        return witnesses[eta] is not None

    lower, _ = _bisect_predicate(stable_at, BISECT_TOL, "sufficient")
    upper = _necessary_upper(params, p, BISECT_TOL)

    violation = _necessary(replace(params, eta=min(1.0, upper + BISECT_TOL)), p).first_violated()
    if violation is None:
        violation = _necessary(replace(params, eta=1.0), p).first_violated()
    if lower > upper:
        raise NumericsError(f"bound inversion: lower {lower} > upper {upper}")
    return ThroughputBounds(lower, upper, witnesses.get(lower), violation)


def necessary_upper_bound(params: NetworkParams, probs, tol: float = BISECT_TOL) -> float:
    """Smallest demand at which the necessary test fails (demand in ``params`` ignored)."""
    return _necessary_upper(params, validate_mode_probs(probs), tol)


def _necessary_upper(params: NetworkParams, p: np.ndarray, tol: float) -> float:
    _, upper = _bisect_predicate(lambda e: _necessary(replace(params, eta=e), p).holds, tol, "necessary")
    return upper


def mode_drift_maxima(params: NetworkParams, theta: tuple[float, float]) -> np.ndarray:
    """Per-mode worst-link drift at ``theta`` (the summands of the averaged drift)."""
    if theta[0] < 0.0 or theta[1] < 0.0:
        raise ParameterError(f"theta must be nonnegative, got {theta}")
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
    if not (math.isfinite(floors[0]) and math.isfinite(floors[1])):
        raise ParameterError("invariant-set check requires finite floors")
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
