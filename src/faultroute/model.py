"""Core model of a two-route network whose density sensors drop out at random.

Traffic of constant demand ``eta`` is split between two parallel links by a
logit rule applied to the *observed* densities.  Each link's sensor is either
healthy or down; a down sensor reports density zero.  The joint sensor status
is one of four modes:

    1: both sensors healthy          2: link-1 sensor down
    3: link-2 sensor down            4: both sensors down

and switches according to a continuous-time Markov chain with rate matrix
``rates[s][s']`` (diagonal zero).  Between switches the densities follow

    dx_k/dt = eta * mu_k(s, x) - f_k(x_k),

with outflow ``f_k(x) = F_k * (1 - exp(-x))`` and logit split
``mu_k = exp(-beta * obs_k) / sum_j exp(-beta * obs_j)``.

Throughout the package, length-4 arrays are indexed 0..3 for modes 1..4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ErgodicityError, NumericsError, ParameterError

MODES = (1, 2, 3, 4)

CAPACITY_TOL = 1e-12
PROB_SUM_TOL = 1e-9
BALANCE_TOL = 1e-10


@dataclass(frozen=True)
class NetworkParams:
    """Link capacities, routing sensitivity, and demand.

    Capacities are normalized: ``F1 + F2 == 1`` is required (not rescaled).
    Every field must be finite.
    """

    F1: float
    F2: float
    beta: float
    eta: float

    def __post_init__(self):
        for name in ("F1", "F2", "beta", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.F1 < 0.0 or self.F2 < 0.0:
            raise ParameterError(f"capacities must be nonnegative, got ({self.F1}, {self.F2})")
        if abs(self.F1 + self.F2 - 1.0) > CAPACITY_TOL:
            raise ParameterError(
                f"capacities must sum to 1 (got {self.F1 + self.F2!r}); inputs are rejected, not rescaled"
            )
        if not self.beta > 0.0:
            raise ParameterError(f"routing sensitivity beta must be positive, got {self.beta}")
        if self.eta < 0.0:
            raise ParameterError(f"demand eta must be nonnegative, got {self.eta}")

    def capacity(self, k: int) -> float:
        if k == 1:
            return self.F1
        if k == 2:
            return self.F2
        raise ParameterError(f"link index must be 1 or 2, got {k}")


def fault_map(s: int, x: tuple[float, float]) -> tuple[float, float]:
    """Observed densities in mode ``s``: a down sensor reads zero."""
    if s == 1:
        return (x[0], x[1])
    if s == 2:
        return (0.0, x[1])
    if s == 3:
        return (x[0], 0.0)
    if s == 4:
        return (0.0, 0.0)
    raise ParameterError(f"mode must be in {MODES}, got {s}")


def flow(params: NetworkParams, k: int, x_k: float) -> float:
    """Outflow of link ``k`` at density ``x_k``: ``F_k * (1 - exp(-x_k))``."""
    if x_k < 0.0:
        raise ParameterError(f"density must be nonnegative, got {x_k}")
    return params.capacity(k) * -math.expm1(-x_k)


def routing_fraction(params: NetworkParams, s: int, x: tuple[float, float]) -> tuple[float, float]:
    """Logit demand split based on the mode-``s`` observed densities.

    ``mu2`` is returned as ``1 - mu1`` so the pair sums to 1 exactly.
    """
    o1, o2 = fault_map(s, x)
    mu1 = _share(params.beta * (o1 - o2))
    return mu1, 1.0 - mu1


def vector_field(params: NetworkParams, s: int, x: tuple[float, float]) -> tuple[float, float]:
    """Density drift ``(eta * mu_k - f_k)`` for both links in mode ``s``."""
    if s not in MODES or x[0] < 0.0 or x[1] < 0.0:
        raise ParameterError(f"need a mode in {MODES} and nonnegative densities, got s={s}, x={x}")
    return _field(params, s, x[0], x[1])


def _share(gap: float) -> float:
    """Link 1's logit share ``1 / (1 + e^gap)`` at ``gap = beta * (o1 - o2)``.

    The exponent taken is never positive, so a large gap cannot overflow.
    """
    if gap >= 0.0:
        e = math.exp(-gap)
        return e / (1.0 + e)
    e = math.exp(gap)
    return 1.0 / (1.0 + e)


def _field(params: NetworkParams, s: int, x1: float, x2: float) -> tuple[float, float]:
    """The scalar model: ``(eta * mu_k - f_k)`` for both links in mode ``s``.

    Unchecked: ``s`` must be a mode and the densities nonnegative.  The
    simulator, the sufficient test and the certificate evaluate this one
    function; ``vector_field`` is its checked form.
    """
    if s == 1:
        o1, o2 = x1, x2
    elif s == 2:
        o1, o2 = 0.0, x2
    elif s == 3:
        o1, o2 = x1, 0.0
    else:
        o1 = o2 = 0.0
    mu1 = _share(params.beta * (o1 - o2))
    eta = params.eta
    return (
        eta * mu1 - params.F1 * -math.expm1(-x1),
        eta * (1.0 - mu1) - params.F2 * -math.expm1(-x2),
    )


@dataclass(frozen=True)
class DriftField:
    """Demand-independent part of the per-mode drifts at a set of densities.

    ``shares[s]`` holds both links' routing shares ``(mu1, mu2)`` in mode
    ``s + 1`` for modes 1-3; mode 4 splits evenly, so its worst link is the
    one with the smaller outflow ``fmin``.  All arrays broadcast against each
    other, so one field serves every demand.
    """

    shares: tuple
    f1: np.ndarray
    f2: np.ndarray
    fmin: np.ndarray

    def link_drift(self, eta: float) -> list:
        """Per-mode ``(eta * mu_1 - f_1, eta * mu_2 - f_2)``, modes 1-4."""
        out = [(eta * mu1 - self.f1, eta * mu2 - self.f2) for mu1, mu2 in self.shares]
        out.append((0.5 * eta - self.f1, 0.5 * eta - self.f2))
        return out

    def mode_drift(self, eta: float) -> list:
        """Per-mode worst-link drift ``max_k(eta * mu_k - f_k)``, modes 1-4."""
        return [self._worst(eta, s) for s in range(4)]

    def averaged(self, eta: float, p) -> np.ndarray:
        """Worst-link drift averaged over the mode distribution ``p``."""
        total = self._worst(eta, 0)
        total *= p[0]
        buf = np.empty_like(total)
        for s in (1, 2, 3):
            total += np.multiply(self._worst(eta, s, buf), p[s], out=buf)
        return total

    def _worst(self, eta: float, s: int, out=None) -> np.ndarray:
        """Worst-link drift of mode ``s + 1``, written to ``out`` if given."""
        if s == 3:
            return np.subtract(0.5 * eta, self.fmin, out=out)
        mu1, mu2 = self.shares[s]
        worst = np.subtract(eta * mu1, self.f1, out=out)
        return np.maximum(worst, eta * mu2 - self.f2, out=out)


def drift_field(params: NetworkParams, x1, x2) -> DriftField:
    """Routing shares and outflows at densities ``(x1, x2)``, which broadcast.

    Routing is computed from the observation gap, ``mu1 = 1 / (1 + e^gap)``
    with ``gap = beta * (o1 - o2)``, through ``logaddexp``, so it neither
    overflows nor underflows to an even split at large ``beta * x``.  The
    demand in ``params`` is not used.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    f1 = params.F1 * -np.expm1(-x1)
    f2 = params.F2 * -np.expm1(-x2)
    shares = []
    for gap in (x1 - x2, -x2, x1):  # observed o1 - o2 in modes 1, 2, 3
        mu1 = np.exp(-np.logaddexp(0.0, params.beta * gap))
        shares.append((mu1, 1.0 - mu1))
    return DriftField(tuple(shares), f1, f2, np.minimum(f1, f2))


def validate_rate_matrix(rates, require_irreducible: bool = True) -> np.ndarray:
    """Check a 4x4 switching-rate matrix and return it as a float array.

    Off-diagonal entries must be nonnegative and the diagonal exactly zero.
    With ``require_irreducible`` the directed graph of positive rates must be
    strongly connected, which guarantees a unique stationary distribution.
    """
    arr = np.asarray(rates, dtype=float)
    if arr.shape != (4, 4):
        raise ParameterError(f"rate matrix must be 4x4, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("rate matrix entries must be finite")
    if np.any(np.diag(arr) != 0.0):
        raise ParameterError("rate matrix diagonal must be zero")
    off = arr[~np.eye(4, dtype=bool)]
    if np.any(off < 0.0):
        raise ParameterError("off-diagonal rates must be nonnegative")
    if require_irreducible and not _strongly_connected(arr > 0.0):
        raise ErgodicityError("rate matrix is reducible: mode graph is not strongly connected")
    return arr


def _strongly_connected(adj: np.ndarray) -> bool:
    reach = adj | np.eye(4, dtype=bool)
    for _ in range(2):  # (A | I)^4 via two squarings covers paths of length <= 4
        reach = reach @ reach
    return bool(reach.all())


def generator_matrix(rates: np.ndarray) -> np.ndarray:
    """Rate matrix with the diagonal set to minus the row sums."""
    q = np.array(rates, dtype=float)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def stationary_distribution(rates) -> np.ndarray:
    """Unique stationary mode distribution of an irreducible rate matrix.

    Solves the flow-balance equations with one of them replaced by the
    normalization row; the tiny fixed dimension makes a dense solve exact
    for practical purposes.
    """
    arr = validate_rate_matrix(rates, require_irreducible=True)
    q = generator_matrix(arr)
    a = q.T.copy()
    a[3, :] = 1.0
    b = np.array([0.0, 0.0, 0.0, 1.0])
    try:
        p = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"stationary solve failed: {exc}") from exc
    residual = np.abs(q.T @ p).max()
    if residual >= BALANCE_TOL:
        raise NumericsError(f"stationary balance residual {residual:.3e} exceeds {BALANCE_TOL:.0e}")
    if np.any(p < -1e-12):
        raise NumericsError(f"stationary solve produced negative probability: {p}")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def validate_mode_probs(probs, tol: float = PROB_SUM_TOL) -> np.ndarray:
    """Check 4 mode probabilities (nonnegative, summing to 1 within ``tol``)."""
    p = np.asarray(probs, dtype=float)
    if p.shape != (4,):
        raise ParameterError(f"mode distribution must have 4 entries, got shape {p.shape}")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ParameterError(f"mode probabilities must be finite and nonnegative: {p}")
    if abs(p.sum() - 1.0) > tol:
        raise ParameterError(f"mode probabilities must sum to 1 within {tol:.0e}, got {p.sum()!r}")
    return p / p.sum()
