"""Event-driven simulation of the mode-switching flow network.

The mode chain jumps at exponential times; between jumps the two densities
follow the smooth per-mode field, integrated with classical fixed-step RK4
(the final sub-step of each segment is shortened to land exactly on the next
event: a sample time, a jump or the horizon).

Randomness.  Each run owns one seeded 64-bit generator
(``numpy.random.PCG64``) and draws its whole mode path before integrating:
two uniforms per jump, holding time (inverse CDF) first, then the jump
target, until the path passes the horizon.  Replication ``i`` of a probe or
scan runs with the seed
``int(SeedSequence(seed).spawn(n)[i].generate_state(1, np.uint64)[0])``, so
the replications of different seeds draw independent streams, replication
``i`` does not depend on ``n``, and ``simulate`` with the reported seed
replays the run bit for bit.  Every demand of a scan reuses the same
replication seeds (common random numbers).

One integrator, ``_run``, advances a run in scalar arithmetic over its
whole path, jumps and samples included, in one call.  Its RK4 stepper writes
``model._field`` out inline, the same expressions in the same order, so its
states are bit for bit those of four ``_field`` calls per step.  ``simulate``
draws the mode path and calls it, ``integrate_mode`` calls it as a
frozen-mode run, and ``stability_probe`` calls ``simulate`` once per
replication.  ``throughput_scan`` draws each replication's path once and
runs the probe on those paths at every demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericsError, ParameterError
from .model import OBSERVED, NetworkParams, check_densities, check_integer, check_mode, validate_rate_matrix
from .stability import congestion_floors

GENERATOR_NAME = "numpy.random.PCG64"
_TIME_EPS = 1e-12
_DRAW_CHUNK = 256  # jumps drawn per generator call
SLOPE_THRESHOLD = 1e-4  # trailing slope of the running average a probe calls stable


@dataclass(frozen=True)
class SimConfig:
    horizon: float
    step: float = 1e-2
    seed: int = 0
    x0: tuple[float, float] | None = None  # default: congestion floors if finite, else origin
    s0: int = 1
    sample_interval: float = 1.0
    divergence_cap: float = 1e3

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ParameterError(f"horizon must be finite and positive, got {self.horizon}")
        if not 0.0 < self.step <= self.sample_interval < math.inf:
            raise ParameterError(
                f"need 0 < step <= sample_interval < inf, got step={self.step}, "
                f"sample_interval={self.sample_interval}"
            )
        check_integer(self.seed, "seed", 0)
        check_mode(self.s0, "initial mode")
        if self.x0 is not None:
            check_densities(self.x0, "initial densities")
        if math.isnan(self.divergence_cap):
            raise ParameterError("divergence cap must not be NaN")


@dataclass(frozen=True)
class Trajectory:
    """Sampled hybrid path with running statistics.

    ``avg_abs`` is the running time average of ``x1 + x2``.  The jump log
    (``jump_times``, ``jump_modes``) records every mode switch, which is
    enough to reconstruct exact per-mode occupation times.
    """

    t: np.ndarray
    mode: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    avg_abs: np.ndarray
    mode_occupancy: np.ndarray
    jump_times: np.ndarray
    jump_modes: np.ndarray
    elapsed: float
    diverged: bool
    diverged_at: float | None
    seed: int
    initial_mode: int = 1

    def _ols_slope(self, series: np.ndarray) -> float:
        n = len(self.t)
        if n < 4:
            return math.nan
        half = n // 2
        tt, yy = self.t[half:], series[half:]
        tt = tt - tt.mean()
        denom = float(tt @ tt)
        if denom == 0.0:
            return math.nan
        return float(tt @ (yy - yy.mean())) / denom

    def avg_slope(self) -> float:
        """Least-squares slope of ``avg_abs`` over the trailing half of the samples."""
        return self._ols_slope(self.avg_abs)

    def growth_slope(self) -> float:
        """Least-squares slope of the raw total density over the trailing half."""
        return self._ols_slope(self.x1 + self.x2)

    def summary(self) -> dict:
        return {
            "samples": int(len(self.t)),
            "elapsed": self.elapsed,
            "diverged": self.diverged,
            "diverged_at": self.diverged_at,
            "final_x": [float(self.x1[-1]), float(self.x2[-1])],
            "final_avg_abs": float(self.avg_abs[-1]),
            "avg_slope": self.avg_slope(),
            "growth_slope": self.growth_slope(),
            "mode_occupancy": [float(v) for v in self.mode_occupancy],
            "jumps": int(len(self.jump_times)),
            "seed": self.seed,
            "generator": GENERATOR_NAME,
        }


def _run(
    params: NetworkParams,
    s: int,
    x1: float,
    x2: float,
    jump_times: list[float],
    jump_modes: list[int],
    horizon: float,
    interval: float,
    step: float,
    cap: float,
) -> tuple[list[tuple], list[float], int, float, bool]:
    """RK4 over one whole run from ``(x1, x2)`` in mode ``s`` at time 0.

    Segments end at the next event (jump, sample time or horizon), and the
    last step of each is shortened to land on it.  The four stages evaluate
    ``model._field`` written out inline: the same expressions in the same
    order, so every state is bit for bit what four ``_field`` calls per step
    give.  Densities are clamped at zero after each step.  The run stops
    early once ``x1 + x2`` exceeds ``cap``.  Returns the samples ``(t, mode,
    x1, x2, avg_abs)``, the time held in each mode, the number of jumps
    taken, the end time and whether the run diverged.
    """
    beta, eta, F1, F2 = params.beta, params.eta, params.F1, params.F2
    exp, expm1, isfinite = math.exp, math.expm1, math.isfinite
    occupancy = [0.0, 0.0, 0.0, 0.0]
    samples = [(0.0, s, x1, x2, x1 + x2)]
    t = integral = 0.0
    taken = 0
    t_jump = jump_times[0] if jump_times else math.inf
    k_sample = 1
    next_sample = interval
    # Each stage takes link 1's share m as _share does, the exponent never
    # positive; unobserved, the gap is beta * (0.0 - 0.0) = 0.0 and m is
    # exp(-0.0) / (1.0 + exp(-0.0)) = 0.5.  Then eta * mu_k + F_k * expm1(-x_k)
    # is the same float as _field's eta * mu_k - F_k * -expm1(-x_k).
    see1, see2 = OBSERVED[s]
    observed = see1 or see2
    m = 0.5
    held = 0.0  # time in mode s, folded into occupancy at each jump
    while t < horizon - _TIME_EPS:
        t_event = min(t_jump, next_sample, horizon)
        lim = t_event - _TIME_EPS
        while t < lim:
            h = t_event - t
            if not h < step:  # min(step, h) without the call, NaN and ties included
                h = step
            hh = 0.5 * h
            try:
                if observed:
                    g = beta * ((x1 if see1 else 0.0) - (x2 if see2 else 0.0))
                    m = (e := exp(-g)) / (1.0 + e) if g >= 0.0 else 1.0 / (1.0 + exp(g))
                a1 = eta * m + F1 * expm1(-x1)
                a2 = eta * (1.0 - m) + F2 * expm1(-x2)
                y1 = x1 + hh * a1
                y2 = x2 + hh * a2
                if observed:
                    g = beta * ((y1 if see1 else 0.0) - (y2 if see2 else 0.0))
                    m = (e := exp(-g)) / (1.0 + e) if g >= 0.0 else 1.0 / (1.0 + exp(g))
                b1 = eta * m + F1 * expm1(-y1)
                b2 = eta * (1.0 - m) + F2 * expm1(-y2)
                y1 = x1 + hh * b1
                y2 = x2 + hh * b2
                if observed:
                    g = beta * ((y1 if see1 else 0.0) - (y2 if see2 else 0.0))
                    m = (e := exp(-g)) / (1.0 + e) if g >= 0.0 else 1.0 / (1.0 + exp(g))
                c1 = eta * m + F1 * expm1(-y1)
                c2 = eta * (1.0 - m) + F2 * expm1(-y2)
                y1 = x1 + h * c1
                y2 = x2 + h * c2
                if observed:
                    g = beta * ((y1 if see1 else 0.0) - (y2 if see2 else 0.0))
                    m = (e := exp(-g)) / (1.0 + e) if g >= 0.0 else 1.0 / (1.0 + exp(g))
                d1 = eta * m + F1 * expm1(-y1)
                d2 = eta * (1.0 - m) + F2 * expm1(-y2)
                n1 = x1 + h * (a1 + 2.0 * b1 + 2.0 * c1 + d1) / 6.0
                n2 = x2 + h * (a2 + 2.0 * b2 + 2.0 * c2 + d2) / 6.0
            except OverflowError:  # math.expm1 raises where numpy returns inf
                n1 = n2 = math.inf
            if not (isfinite(n1) and isfinite(n2)):
                raise NumericsError(f"non-finite state at t={t + h:.6g}, mode={s}: ({n1}, {n2})")
            if n1 < 0.0:  # max(n1, 0.0) without the call; it keeps n1, also -0.0, on a tie
                n1 = 0.0
            if n2 < 0.0:
                n2 = 0.0
            integral += 0.5 * (x1 + x2 + n1 + n2) * h
            held += h
            x1, x2 = n1, n2
            t += h
            if x1 + x2 > cap:
                occupancy[s - 1] = held
                samples.append((t, s, x1, x2, integral / t))
                return samples, occupancy, taken, t, True
        t = t_event
        if t_event == next_sample:
            samples.append((t, s, x1, x2, integral / t))
            k_sample += 1
            next_sample = k_sample * interval
        if t_event == t_jump:
            occupancy[s - 1] = held
            s = jump_modes[taken]
            taken += 1
            t_jump = jump_times[taken] if taken < len(jump_times) else math.inf
            see1, see2 = OBSERVED[s]
            observed = see1 or see2
            m = 0.5
            held = occupancy[s - 1]
    occupancy[s - 1] = held
    if samples[-1][0] < t - _TIME_EPS:
        samples.append((t, s, x1, x2, integral / t))
    return samples, occupancy, taken, t, False


def integrate_mode(
    params: NetworkParams, s: int, x0: tuple[float, float], duration: float, step: float
) -> tuple[float, float]:
    """Integrate the frozen-mode field over ``duration`` with fixed-step RK4.

    A run of ``simulate``'s integrator with no jumps, no sample times and no
    divergence cap, so its steps are those of one segment; a non-finite
    state raises ``NumericsError``.  The inputs are checked first.
    """
    check_mode(s, "s")
    check_densities(x0, "x0")
    if not (0.0 <= duration < math.inf and 0.0 < step < math.inf):
        raise ParameterError(f"need a finite duration >= 0 and step > 0, got duration={duration}, step={step}")
    samples, *_ = _run(params, s, float(x0[0]), float(x0[1]), [], [], float(duration), math.inf, step, math.inf)
    return samples[-1][2], samples[-1][3]


def _jump_log(seed: int, rmat: np.ndarray, s0: int, horizon: float) -> tuple[list[float], list[int]]:
    """The mode path from ``s0``: jump times up to the horizon and the modes entered.

    Two uniforms per jump from ``default_rng(seed)``, holding time first, then
    the target among the positive rates of the row in index order; a mode
    with no outflow never jumps.  ``rng.random(n)`` yields the same stream as
    ``n`` calls of ``rng.random()``, so drawing in chunks does not change the
    path.
    """
    rng = np.random.default_rng(seed)
    row_rate = rmat.sum(axis=1).tolist()
    targets: list[list[tuple[int, float]]] = []
    for i in range(4):
        acc = 0.0
        row = []
        for j in range(4):
            if j != i and rmat[i][j] != 0.0:
                acc += rmat[i][j]
                row.append((j + 1, acc))
        targets.append(row)
    times: list[float] = []
    modes: list[int] = []
    draws: list[float] = []
    k = 0
    s, t = s0, 0.0
    while row_rate[s - 1] > 0.0:
        if k == len(draws):
            draws = rng.random(2 * _DRAW_CHUNK).tolist()
            k = 0
        u, v = draws[k], draws[k + 1]
        k += 2
        rate = row_rate[s - 1]
        t += -math.log1p(-u) / rate
        if t > horizon:
            break
        target = v * rate
        for nxt, acc in targets[s - 1]:
            if target <= acc:
                break
        s = nxt
        times.append(t)
        modes.append(s)
    return times, modes


def _initial_state(params: NetworkParams, cfg: SimConfig) -> tuple[float, float]:
    if cfg.x0 is not None:
        x1, x2 = float(cfg.x0[0]), float(cfg.x0[1])
    else:
        floors = congestion_floors(params)
        if math.isfinite(floors[0]) and math.isfinite(floors[1]):
            x1, x2 = floors
        else:
            x1, x2 = 0.0, 0.0
    if x1 + x2 >= cfg.divergence_cap:
        raise ParameterError(
            f"divergence cap {cfg.divergence_cap} must exceed the initial total density {x1 + x2}"
        )
    return x1, x2


def simulate(
    params: NetworkParams, rates, cfg: SimConfig, *, _log: tuple[list[float], list[int]] | None = None
) -> Trajectory:
    """Run one trajectory; deterministic given the config and seed.

    The rate matrix is shape/sign-checked but need not be irreducible: a mode
    with zero total outflow rate simply never jumps (useful for frozen-mode
    integration tests).  The whole mode path is drawn first, then ``_run``
    integrates it in one call.  Densities are clamped at zero after each step
    (the field points inward there, so clamping only absorbs rounding) and the
    run stops early once ``x1 + x2`` exceeds the divergence cap.  ``_log`` is
    the path ``_jump_log`` draws for ``cfg`` from checked rates; a probe
    passes it so that a scan draws each replication's path once.
    """
    if _log is None:
        _log = _jump_log(cfg.seed, validate_rate_matrix(rates, require_irreducible=False), cfg.s0, cfg.horizon)
    jump_times, jump_modes = _log
    x1, x2 = _initial_state(params, cfg)
    samples, occupancy, taken, t, diverged = _run(
        params, cfg.s0, x1, x2, jump_times, jump_modes,
        cfg.horizon, cfg.sample_interval, cfg.step, cfg.divergence_cap,
    )
    ts, modes, x1s, x2s, avgs = zip(*samples)
    occ = np.asarray(occupancy, dtype=float)
    total = occ.sum()
    return Trajectory(
        t=np.asarray(ts, dtype=float),
        mode=np.asarray(modes, dtype=int),
        x1=np.asarray(x1s, dtype=float),
        x2=np.asarray(x2s, dtype=float),
        avg_abs=np.asarray(avgs, dtype=float),
        mode_occupancy=occ / total if total > 0 else occ,
        jump_times=np.asarray(jump_times[:taken], dtype=float),
        jump_modes=np.asarray(jump_modes[:taken], dtype=int),
        elapsed=float(t),
        diverged=diverged,
        diverged_at=t if diverged else None,
        seed=cfg.seed,
        initial_mode=cfg.s0,
    )


def occupancy_batches(traj: Trajectory, n_batches: int) -> np.ndarray:
    """Exact per-mode occupation fractions over equal time batches.

    Reconstructed from the jump log, so batch boundaries need not align with
    sample times.  Rows sum to 1; used for batch-means error bars.
    """
    check_integer(n_batches, "n_batches", 1)
    edges = np.linspace(0.0, traj.elapsed, n_batches + 1)
    starts = np.concatenate([[0.0], traj.jump_times])
    modes = np.concatenate([[traj.initial_mode], traj.jump_modes]).astype(int)
    ends = np.concatenate([traj.jump_times, [traj.elapsed]])
    out = np.zeros((n_batches, 4))
    for b in range(n_batches):
        lo, hi = edges[b], edges[b + 1]
        overlap = np.minimum(ends, hi) - np.maximum(starts, lo)
        overlap = np.clip(overlap, 0.0, None)
        for m in range(4):
            out[b, m] = overlap[modes == m + 1].sum()
        out[b] /= hi - lo
    return out


@dataclass(frozen=True)
class ProbeResult:
    verdict: str  # empirically-stable | empirically-unstable | inconclusive
    replications: int
    n_diverged: int
    median_avg_slope: float
    median_growth_slope: float
    run_stats: list[dict]

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "replications": self.replications,
            "n_diverged": self.n_diverged,
            "median_avg_slope": self.median_avg_slope,
            "median_growth_slope": self.median_growth_slope,
            "runs": self.run_stats,
        }


def _replication_seeds(seed: int, replications: int) -> list[int]:
    """Seed of each replication: its own ``SeedSequence`` child of ``seed``."""
    check_integer(replications, "replications", 1)
    children = np.random.SeedSequence(seed).spawn(replications)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


def _replications(rates, cfg: SimConfig, replications: int) -> list[tuple[SimConfig, tuple[list[float], list[int]]]]:
    """Each replication's config, with its seed, and its mode path, drawn once from the checked rates."""
    seeds = _replication_seeds(cfg.seed, replications)
    rmat = validate_rate_matrix(rates, require_irreducible=False)
    return [(replace(cfg, seed=seed), _jump_log(seed, rmat, cfg.s0, cfg.horizon)) for seed in seeds]


def stability_probe(
    params: NetworkParams,
    rates,
    cfg: SimConfig,
    replications: int,
) -> ProbeResult:
    """Heuristic empirical classification from independent replications.

    Stable: nothing diverged and the median trailing slope of the running
    average stays under ``SLOPE_THRESHOLD``.  Unstable: a majority diverged or
    the median slope exceeds ten times that.  Anything else is reported as
    inconclusive -- this is a proxy probe, not a certificate.  Each
    replication is one ``simulate`` call with its own seed (module docstring).
    """
    return _probe(params, rates, _replications(rates, cfg, replications))


def _probe(params: NetworkParams, rates, drawn: list) -> ProbeResult:
    """``stability_probe`` on ``drawn``, the replications of ``_replications`` with their paths."""
    runs = [simulate(params, rates, cfg, _log=log) for cfg, log in drawn]
    n_div = sum(r.diverged for r in runs)
    slopes = np.array([(r.avg_slope(), r.growth_slope()) for r in runs]).T
    # every slope is NaN under 4 samples: the median is NaN then, without nanmedian's warning
    med_avg, med_growth = (float(np.nanmedian(v)) if not np.isnan(v).all() else math.nan for v in slopes)
    if n_div == 0 and med_avg < SLOPE_THRESHOLD:
        verdict = "empirically-stable"
    elif n_div > len(runs) // 2 or med_avg > 10.0 * SLOPE_THRESHOLD:
        verdict = "empirically-unstable"
    else:
        verdict = "inconclusive"
    return ProbeResult(verdict, len(runs), n_div, med_avg, med_growth, [r.summary() for r in runs])


@dataclass(frozen=True)
class ScanResult:
    etas: list[float]
    probes: list[ProbeResult]
    largest_stable: float | None
    smallest_unstable: float | None

    def to_dict(self) -> dict:
        return {
            "rows": [{"eta": e, **p.to_dict()} for e, p in zip(self.etas, self.probes)],
            "transition_window": [self.largest_stable, self.smallest_unstable],
        }


def throughput_scan(
    params: NetworkParams,
    rates,
    cfg: SimConfig,
    eta_grid,
    replications: int = 3,
) -> ScanResult:
    """Probe a sorted demand grid and report the empirical transition window.

    Each demand gets exactly the ``stability_probe`` result at that demand.
    Replication ``i`` runs with the ``SeedSequence`` seed of the module
    docstring at every demand, and its mode path (holding time, then
    target, per jump) is drawn once, before the first demand, so all
    demands see the same paths.  Each run is one ``simulate`` call, so the
    cost grows linearly with grid points x replications.
    """
    etas = [float(e) for e in eta_grid]
    if etas != sorted(etas):
        raise ParameterError("eta grid must be sorted ascending")
    if etas and not (0.0 <= etas[0] and etas[-1] <= 1.2):
        raise ParameterError("eta grid must lie within [0, 1.2]")
    drawn = _replications(rates, cfg, replications)
    probes = [_probe(replace(params, eta=e), rates, drawn) for e in etas]
    stable = [e for e, p in zip(etas, probes) if p.verdict == "empirically-stable"]
    unstable = [e for e, p in zip(etas, probes) if p.verdict == "empirically-unstable"]
    return ScanResult(
        etas,
        probes,
        max(stable) if stable else None,
        min(unstable) if unstable else None,
    )
