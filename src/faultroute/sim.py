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

Two integrators share that draw order and the event logic.  ``simulate``
advances one run in scalar arithmetic and is the reference; its RK4 stepper
writes ``model._field`` out inline, the same expressions in the same order,
so its states are bit for bit those of four ``_field`` calls per step.
``stability_probe`` calls it once per replication.  ``throughput_scan``
advances all grid x replication lanes in one numpy lockstep: the state is a
``(2, lanes)`` array, each lane keeps its own event clock and shortens its own
last step, and a lane that has reached the horizon or the divergence cap
takes steps of length zero.  The lockstep evaluates the same expressions in
the same order, so each lane matches ``simulate`` within 1e-12 (numpy's
``exp`` may differ from libm's in the last bit) and has the same samples and
jumps.  Its memory is O(lanes x (samples + jumps)): the jump logs and the
sample arrays, and nothing per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericsError, ParameterError
from .model import NetworkParams, validate_rate_matrix
from .stability import congestion_floors

GENERATOR_NAME = "numpy.random.PCG64"
_TIME_EPS = 1e-12
_DRAW_CHUNK = 256  # jumps drawn per generator call
# _OBSERVED[k, s - 1] is 1 where mode s reports link k + 1's density (mode 1 both, 4 neither)
_OBSERVED = np.array([[1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
_SPLIT = np.array([[0.0], [1.0]])  # |_SPLIT - mu1| stacks mu1 over 1 - mu1
_MAX_FLOAT = float(np.finfo(float).max)


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
        if not self.horizon > 0.0:
            raise ParameterError(f"horizon must be positive, got {self.horizon}")
        if not 0.0 < self.step <= self.sample_interval:
            raise ParameterError(
                f"need 0 < step <= sample_interval, got step={self.step}, "
                f"sample_interval={self.sample_interval}"
            )
        if self.s0 not in (1, 2, 3, 4):
            raise ParameterError(f"initial mode must be in 1..4, got {self.s0}")
        if self.x0 is not None and (self.x0[0] < 0.0 or self.x0[1] < 0.0):
            raise ParameterError(f"initial densities must be nonnegative, got {self.x0}")


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


def _advance(
    params: NetworkParams,
    s: int,
    x1: float,
    x2: float,
    t: float,
    t_end: float,
    step: float,
    cap: float,
    integral: float,
    held: float,
) -> tuple[float, float, float, float, float, bool]:
    """RK4 in mode ``s`` from ``t`` to ``t_end``, the last step shortened to land on it.

    The four stages evaluate ``model._field`` written out inline: the same
    expressions in the same order, so every state is bit for bit what four
    ``_field`` calls per step give.  Densities are clamped at zero after each
    step.  Accumulates the trapezoid integral of ``x1 + x2`` and the time
    ``held`` in mode ``s``, and stops early once ``x1 + x2`` exceeds ``cap``.
    Returns ``(x1, x2, t, integral, held, diverged)``.
    """
    beta, eta, F1, F2 = params.beta, params.eta, params.F1, params.F2
    see1, see2 = s in (1, 3), s in (1, 2)  # the densities mode s reports
    observed = see1 or see2
    exp, expm1 = math.exp, math.expm1
    # Each stage takes link 1's share m as _share does, the exponent never
    # positive; unobserved, the gap is beta * (0.0 - 0.0) = 0.0 and m is
    # exp(-0.0) / (1.0 + exp(-0.0)) = 0.5.  Then eta * mu_k + F_k * expm1(-x_k)
    # is the same float as _field's eta * mu_k - F_k * -expm1(-x_k).
    m = 0.5
    while t < t_end - _TIME_EPS:
        h = min(step, t_end - t)
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
        if not (math.isfinite(n1) and math.isfinite(n2)):
            raise NumericsError(f"non-finite state at t={t + h:.6g}, mode={s}: ({n1}, {n2})")
        n1 = max(n1, 0.0)
        n2 = max(n2, 0.0)
        integral += 0.5 * (x1 + x2 + n1 + n2) * h
        held += h
        x1, x2 = n1, n2
        t += h
        if x1 + x2 > cap:
            return x1, x2, t, integral, held, True
    return x1, x2, t, integral, held, False


def integrate_mode(
    params: NetworkParams, s: int, x0: tuple[float, float], duration: float, step: float
) -> tuple[float, float]:
    """Integrate the frozen-mode field over ``duration`` with fixed-step RK4.

    Uses the stepper of ``simulate``, RK4 on ``model._field`` written out
    inline; a non-finite state raises ``NumericsError``.
    """
    x1, x2, *_ = _advance(
        params, s, float(x0[0]), float(x0[1]), 0.0, float(duration), step, math.inf, 0.0, 0.0
    )
    return x1, x2


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


def _trajectory(
    cfg: SimConfig,
    seed: int,
    samples,
    occupancy,
    jump_times,
    jump_modes,
    elapsed: float,
    diverged_at: float | None,
) -> Trajectory:
    """Package one run: ``samples`` is ``(t, mode, x1, x2, avg_abs)``."""
    t, mode, x1, x2, avg = samples
    occ = np.asarray(occupancy, dtype=float)
    total = occ.sum()
    return Trajectory(
        t=np.asarray(t, dtype=float),
        mode=np.asarray(mode, dtype=int),
        x1=np.asarray(x1, dtype=float),
        x2=np.asarray(x2, dtype=float),
        avg_abs=np.asarray(avg, dtype=float),
        mode_occupancy=occ / total if total > 0 else occ,
        jump_times=np.asarray(jump_times, dtype=float),
        jump_modes=np.asarray(jump_modes, dtype=int),
        elapsed=float(elapsed),
        diverged=diverged_at is not None,
        diverged_at=diverged_at,
        seed=seed,
        initial_mode=cfg.s0,
    )


def simulate(params: NetworkParams, rates, cfg: SimConfig) -> Trajectory:
    """Run one trajectory; deterministic given the config and seed.

    The rate matrix is shape/sign-checked but need not be irreducible: a mode
    with zero total outflow rate simply never jumps (useful for frozen-mode
    integration tests).  Densities are clamped at zero after each step (the
    field points inward there, so clamping only absorbs rounding) and the run
    stops early once ``x1 + x2`` exceeds the divergence cap.
    """
    rmat = validate_rate_matrix(rates, require_irreducible=False)
    x1, x2 = _initial_state(params, cfg)
    jump_times, jump_modes = _jump_log(cfg.seed, rmat, cfg.s0, cfg.horizon)

    s = cfg.s0
    t = 0.0
    integral = 0.0
    occupancy = [0.0, 0.0, 0.0, 0.0]
    samples = [(0.0, s, x1, x2, x1 + x2)]
    diverged = False
    taken = 0
    t_jump = jump_times[0] if jump_times else math.inf
    k_sample = 1
    next_sample = cfg.sample_interval

    while t < cfg.horizon - _TIME_EPS:
        t_event = min(t_jump, next_sample, cfg.horizon)
        x1, x2, t, integral, occupancy[s - 1], diverged = _advance(
            params, s, x1, x2, t, t_event, cfg.step, cfg.divergence_cap, integral, occupancy[s - 1]
        )
        if diverged:
            samples.append((t, s, x1, x2, integral / t))
            break
        t = t_event
        if t_event == next_sample:
            samples.append((t, s, x1, x2, integral / t))
            k_sample += 1
            next_sample = k_sample * cfg.sample_interval
        if t_event == t_jump:
            s = jump_modes[taken]
            taken += 1
            t_jump = jump_times[taken] if taken < len(jump_times) else math.inf

    if not diverged and samples[-1][0] < t - _TIME_EPS:
        samples.append((t, s, x1, x2, integral / t))

    return _trajectory(
        cfg, cfg.seed, zip(*samples), occupancy, jump_times[:taken], jump_modes[:taken], t,
        t if diverged else None,
    )


def _lockstep(lanes: list[tuple[NetworkParams, int]], rmat: np.ndarray, cfg: SimConfig) -> list[Trajectory]:
    """Run every ``(params, seed)`` lane of ``cfg`` in one numpy lockstep.

    Lane ``i`` is ``simulate(params_i, rmat, replace(cfg, seed=seed_i))``
    to within 1e-12, with the same samples and jump log.  One iteration
    takes one RK4 step on every lane; a lane that has reached the horizon or
    the divergence cap steps by zero.  Between steps, each lane whose clock
    has reached its next event snaps to it and records the sample, takes
    the jump or finishes, as ``simulate`` does.
    """
    n = len(lanes)
    logs: dict[int, tuple[list[float], list[int]]] = {}
    starts: dict[NetworkParams, tuple[float, float]] = {}
    for params, seed in lanes:
        if seed not in logs:
            logs[seed] = _jump_log(seed, rmat, cfg.s0, cfg.horizon)
        if params not in starts:
            starts[params] = _initial_state(params, cfg)
    width = max(len(logs[seed][0]) for _, seed in lanes) + 1
    jt = np.full((n, width), np.inf)  # jump times, padded with inf
    jm = np.zeros((n, width), dtype=int)  # modes entered
    for i, (_, seed) in enumerate(lanes):
        times, modes = logs[seed]
        jt[i, : len(times)] = times
        jm[i, : len(modes)] = modes

    F = np.array([[p.F1 for p, _ in lanes], [p.F2 for p, _ in lanes]])
    beta = np.array([p.beta for p, _ in lanes])
    eta = np.array([p.eta for p, _ in lanes])
    x = np.array([starts[p] for p, _ in lanes], dtype=float).T.copy()
    step, horizon, interval = cfg.step, cfg.horizon, cfg.sample_interval

    lane = np.arange(n)
    s = np.full(n, cfg.s0)
    seen = _OBSERVED[:, s - 1]
    # sample_int holds x1 + x2 at t = 0, then the integral of x1 + x2, divided by t at the end
    n_samples = int(horizon / interval) + 3  # t = 0, every interval, the end
    sample_t = np.zeros((n, n_samples))
    sample_mode = np.zeros((n, n_samples), dtype=int)
    sample_x = np.zeros((2, n, n_samples))
    sample_int = np.zeros((n, n_samples))
    sample_mode[:, 0] = s
    sample_x[:, :, 0] = x
    sample_int[:, 0] = x[0] + x[1]
    count = np.ones(n, dtype=int)  # samples taken; while running, also the next sample's k

    t = np.zeros(n)
    tot = x[0] + x[1]
    integral = np.zeros(n)
    occupancy = np.zeros((4, n))
    held = np.zeros(n)  # time in the current mode, folded into occupancy at each jump
    next_sample = np.full(n, interval)
    taken = np.zeros(n, dtype=int)
    t_jump = jt[:, 0].copy()
    t_event = np.minimum(np.minimum(t_jump, next_sample), horizon)
    lim = t_event - _TIME_EPS
    # cap <= the largest float, so tot <= cap fails on inf and nan as well
    cap = np.full(n, min(cfg.divergence_cap, _MAX_FLOAT))
    diverged_at = np.full(n, np.nan)
    running = n

    def record(idx):
        c = count[idx]
        sample_t[idx, c] = t[idx]
        sample_mode[idx, c] = s[idx]
        sample_x[:, idx, c] = x[:, idx]
        sample_int[idx, c] = integral[idx]
        count[idx] = c = c + 1
        return c

    def stop(idx):
        # a stopped lane steps by zero and never reaches an event or the cap
        nonlocal running
        running -= idx.size
        t_event[idx] = t[idx]
        lim[idx] = np.inf
        cap[idx] = _MAX_FLOAT

    def settle(idx):
        while idx.size:
            te = t_event[idx]
            t[idx] = te
            hit = idx[te == next_sample[idx]]
            if hit.size:
                next_sample[hit] = record(hit) * interval
            hit = idx[te == t_jump[idx]]
            if hit.size:
                occupancy[s[hit] - 1, hit] = held[hit]
                j = taken[hit]
                s[hit] = mode = jm[hit, j]
                held[hit] = occupancy[mode - 1, hit]
                seen[:, hit] = _OBSERVED[:, mode - 1]
                taken[hit] = j = j + 1
                t_jump[hit] = jt[hit, j]
            over = te >= horizon - _TIME_EPS
            if over.any():
                end = idx[over]
                record(end[sample_t[end, count[end] - 1] < te[over] - _TIME_EPS])
                stop(end)
                idx, te = idx[~over], te[~over]
            nxt = np.minimum(np.minimum(t_jump[idx], next_sample[idx]), horizon)
            t_event[idx] = nxt
            lim[idx] = nxt = nxt - _TIME_EPS
            idx = idx[te >= nxt]

    def rhs(y):
        o = y * seen
        gap = beta * (o[0] - o[1])
        e = np.exp(-np.abs(gap))
        mu1 = np.maximum(e, gap < 0.0) / (1.0 + e)  # e / (1 + e) if gap >= 0 else 1 / (1 + e)
        return eta * np.abs(_SPLIT - mu1) + F * np.expm1(-y)

    if horizon > _TIME_EPS:
        settle(lane[t >= lim])
    else:
        stop(lane)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state raises below
        while running:
            h = np.minimum(step, t_event - t)
            half = 0.5 * h
            a = rhs(x)
            b = rhs(x + half * a)
            c = rhs(x + half * b)
            d = rhs(x + h * c)
            new = x + h * (a + 2.0 * b + 2.0 * c + d) / 6.0
            # the field is bounded below, so the clamp cannot hide a -inf
            np.maximum(new, 0.0, out=new)
            integral += 0.5 * (tot + new[0] + new[1]) * h
            held += h
            t += h
            x = new
            tot = x[0] + x[1]
            if not (tot <= cap).all():
                bad = ~np.isfinite(x).all(axis=0)
                if bad.any():
                    i = int(np.flatnonzero(bad)[0])
                    raise NumericsError(
                        f"non-finite state at t={t[i]:.6g}, mode={s[i]} (lane {i}): ({x[0, i]}, {x[1, i]})"
                    )
                over = lane[tot > cap]
                diverged_at[over] = t[over]
                record(over)
                stop(over)
            settle(lane[t >= lim])
    occupancy[s - 1, lane] = held

    out = []
    for i, (_, seed) in enumerate(lanes):
        c, j = count[i], taken[i]
        avg = sample_int[i, :c].copy()
        avg[1:] /= sample_t[i, 1:c]
        samples = sample_t[i, :c], sample_mode[i, :c], sample_x[0, i, :c], sample_x[1, i, :c], avg
        div = None if math.isnan(diverged_at[i]) else float(diverged_at[i])
        out.append(_trajectory(cfg, seed, samples, occupancy[:, i], jt[i, :j], jm[i, :j], t[i], div))
    return out


def occupancy_batches(traj: Trajectory, n_batches: int) -> np.ndarray:
    """Exact per-mode occupation fractions over equal time batches.

    Reconstructed from the jump log, so batch boundaries need not align with
    sample times.  Rows sum to 1; used for batch-means error bars.
    """
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
    if replications < 1:
        raise ParameterError("need at least one replication")
    children = np.random.SeedSequence(seed).spawn(replications)
    return [int(child.generate_state(1, np.uint64)[0]) for child in children]


def _probe_result(runs: list[Trajectory], slope_threshold: float) -> ProbeResult:
    n = len(runs)
    n_div = sum(r.diverged for r in runs)
    med_avg = float(np.nanmedian([r.avg_slope() for r in runs]))
    med_growth = float(np.nanmedian([r.growth_slope() for r in runs]))
    if n_div == 0 and med_avg < slope_threshold:
        verdict = "empirically-stable"
    elif n_div > n // 2 or med_avg > 10.0 * slope_threshold:
        verdict = "empirically-unstable"
    else:
        verdict = "inconclusive"
    return ProbeResult(verdict, n, n_div, med_avg, med_growth, [r.summary() for r in runs])


def stability_probe(
    params: NetworkParams,
    rates,
    cfg: SimConfig,
    replications: int,
    slope_threshold: float = 1e-4,
) -> ProbeResult:
    """Heuristic empirical classification from independent replications.

    Stable: nothing diverged and the median trailing slope of the running
    average stays under the threshold.  Unstable: a majority diverged or the
    median slope exceeds ten times the threshold.  Anything else is reported
    as inconclusive -- this is a proxy probe, not a certificate.  Each
    replication is one ``simulate`` call with its own seed (module docstring).
    """
    seeds = _replication_seeds(cfg.seed, replications)
    runs = [simulate(params, rates, replace(cfg, seed=seed)) for seed in seeds]
    return _probe_result(runs, slope_threshold)


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
    slope_threshold: float = 1e-4,
) -> ScanResult:
    """Probe a sorted demand grid and report the empirical transition window.

    Each demand gets the verdict ``stability_probe`` would give it.
    Replication ``i`` runs with the ``SeedSequence`` seed of the module
    docstring at every demand, and each run draws its mode path up front
    (holding time, then target, per jump), so all demands see the same
    paths.  The grid x replication runs advance together in one numpy
    lockstep; each equals the ``stability_probe`` run at its demand within
    1e-12, with the same samples and jumps.  Memory grows as
    lanes x (samples + jumps), not with the number of steps.
    """
    etas = [float(e) for e in eta_grid]
    if etas != sorted(etas):
        raise ParameterError("eta grid must be sorted ascending")
    if etas and not (0.0 <= etas[0] and etas[-1] <= 1.2):
        raise ParameterError("eta grid must lie within [0, 1.2]")
    rmat = validate_rate_matrix(rates, require_irreducible=False)
    seeds = _replication_seeds(cfg.seed, replications)
    runs = _lockstep([(replace(params, eta=e), seed) for e in etas for seed in seeds], rmat, cfg) if etas else []
    probes = [
        _probe_result(runs[i * replications : (i + 1) * replications], slope_threshold)
        for i in range(len(etas))
    ]
    stable = [e for e, p in zip(etas, probes) if p.verdict == "empirically-stable"]
    unstable = [e for e, p in zip(etas, probes) if p.verdict == "empirically-unstable"]
    return ScanResult(
        etas,
        probes,
        max(stable) if stable else None,
        min(unstable) if unstable else None,
    )
