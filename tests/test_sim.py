"""Trajectory determinism, integrator order, jump statistics, and probes."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faultroute import (
    NetworkParams,
    NumericsError,
    ParameterError,
    SimConfig,
    congestion_floors,
    integrate_mode,
    occupancy_batches,
    simulate,
    stability_probe,
    stationary_distribution,
    throughput_scan,
)
from faultroute import sim
from faultroute.model import _field, validate_rate_matrix
from faultroute.sim import _TIME_EPS, _replication_seeds
from test_model import BAD_PAIRS, betas, capacities, modes, thresholds

HOMOG = NetworkParams(F1=0.5, F2=0.5, beta=1.0, eta=0.5)
ONES = np.ones((4, 4)) - np.eye(4)
FROZEN = np.zeros((4, 4))


class TestConfigValidation:
    def test_step_larger_than_sample_interval_rejected(self):
        with pytest.raises(ParameterError):
            SimConfig(horizon=10.0, step=2.0, sample_interval=1.0)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ParameterError):
            SimConfig(horizon=0.0)

    def test_bad_initial_mode_rejected(self):
        with pytest.raises(ParameterError):
            SimConfig(horizon=1.0, s0=0)

    def test_cap_must_exceed_initial_density(self):
        cfg = SimConfig(horizon=10.0, x0=(600.0, 500.0), divergence_cap=1000.0)
        with pytest.raises(ParameterError):
            simulate(HOMOG, ONES, cfg)

    def test_default_start_beyond_the_cap_rejected(self):
        # at beta = 1e-13 link 1's floor is 4.05e12, and the default x0 starts there
        params = NetworkParams(0.3, 0.7, 1e-13, 0.75)
        with pytest.raises(ParameterError, match="divergence cap 1000.0 must exceed"):
            simulate(params, ONES, SimConfig(horizon=10.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(horizon=math.inf),
            dict(horizon=math.nan),
            dict(horizon=10.0, divergence_cap=math.nan),
            dict(horizon=10.0, x0=(math.inf, 0.0)),
            dict(horizon=10.0, x0=(0.5, math.nan)),
            dict(horizon=10.0, x0=(-0.5, 0.5)),
            dict(horizon=10.0, step=math.inf, sample_interval=math.inf),
            dict(horizon=10.0, sample_interval=math.inf),
            dict(horizon=10.0, step=math.nan),
            dict(horizon=10.0, sample_interval=math.nan),
            dict(horizon=10.0, s0=5),
            *(dict(horizon=10.0, x0=x) for x in BAD_PAIRS),
        ],
    )
    def test_non_finite_values_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 1.5, None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            SimConfig(horizon=10.0, seed=seed)

    @pytest.mark.parametrize(
        "s, x0, duration, step",
        [
            (0, (0.5, 0.5), 1.0, 0.1),
            (5, (0.5, 0.5), 1.0, 0.1),
            (1, (-0.1, 0.5), 1.0, 0.1),
            (1, (0.5, math.nan), 1.0, 0.1),
            (1, (math.inf, 0.5), 1.0, 0.1),
            (1, (0.5, 0.5), 1.0, 0.0),
            (1, (0.5, 0.5), 1.0, -0.1),
            (1, (0.5, 0.5), 1.0, math.nan),
            (1, (0.5, 0.5), 1.0, math.inf),
            (1, (0.5, 0.5), -1.0, 0.1),
            (1, (0.5, 0.5), math.inf, 0.1),
            (1, (0.5, 0.5), math.nan, 0.1),
            *((1, x, 1.0, 0.1) for x in BAD_PAIRS),
        ],
    )
    def test_integrate_mode_checks_before_stepping(self, monkeypatch, s, x0, duration, step):
        monkeypatch.setattr(sim, "_run", None)  # any step taken would raise TypeError
        with pytest.raises(ParameterError):
            integrate_mode(HOMOG, s, x0, duration, step)


class TestDeterminism:
    def test_identical_seed_identical_trajectory(self):
        cfg = SimConfig(horizon=50.0, step=0.01, seed=7)
        a = simulate(HOMOG, ONES, cfg)
        b = simulate(HOMOG, ONES, cfg)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.x1, b.x1)
        assert np.array_equal(a.x2, b.x2)
        assert np.array_equal(a.mode, b.mode)
        assert np.array_equal(a.jump_times, b.jump_times)

    def test_different_seed_differs(self):
        cfg = SimConfig(horizon=50.0, step=0.01, seed=7)
        other = simulate(HOMOG, ONES, SimConfig(horizon=50.0, step=0.01, seed=8))
        base = simulate(HOMOG, ONES, cfg)
        assert not np.array_equal(base.jump_times, other.jump_times)


class TestDynamics:
    def test_zero_demand_decays_monotonically(self):
        params = NetworkParams(0.5, 0.5, 1.0, 0.0)
        cfg = SimConfig(horizon=30.0, step=0.01, seed=1, x0=(1.0, 1.0))
        traj = simulate(params, ONES, cfg)
        assert np.all(np.diff(traj.x1) < 0.0)
        assert np.all(np.diff(traj.x2) < 0.0)
        assert np.all(np.diff(traj.avg_abs) < 0.0)
        assert traj.x1[-1] < 0.05

    def test_densities_stay_nonnegative(self):
        for seed in (0, 1, 2):
            cfg = SimConfig(horizon=100.0, step=0.01, seed=seed, x0=(0.0, 0.0))
            traj = simulate(NetworkParams(0.9, 0.1, 2.0, 0.4), ONES, cfg)
            assert np.all(traj.x1 >= 0.0)
            assert np.all(traj.x2 >= 0.0)

    def test_sample_times_strictly_increase(self):
        traj = simulate(HOMOG, ONES, SimConfig(horizon=25.0, step=0.01, seed=4))
        assert np.all(np.diff(traj.t) > 0.0)

    def test_default_start_is_the_floor_corner(self):
        traj = simulate(NetworkParams(0.5, 0.5, 1.0, 0.8), ONES, SimConfig(horizon=2.0, seed=0))
        assert traj.x1[0] == pytest.approx(0.732668, abs=1e-5)

    def test_divergence_detected_and_flagged(self):
        params = NetworkParams(0.5, 0.5, 1.0, 1.05)
        cfg = SimConfig(horizon=3000.0, step=0.01, seed=2, divergence_cap=40.0)
        traj = simulate(params, ONES, cfg)
        assert traj.diverged
        assert traj.diverged_at is not None and traj.diverged_at < 3000.0
        assert traj.x1[-1] + traj.x2[-1] > 40.0
        assert traj.elapsed == pytest.approx(traj.diverged_at)


class TestIntegratorOrder:
    def test_fourth_order_convergence(self):
        # frozen mode 2 (zero switching rates), nontrivial asymmetric start
        params = NetworkParams(0.5, 0.5, 1.0, 0.8)

        def end_state(step):
            cfg = SimConfig(horizon=2.0, step=step, seed=0, x0=(2.0, 0.5), s0=2, sample_interval=2.0)
            traj = simulate(params, FROZEN, cfg)
            return traj.x1[-1], traj.x2[-1]

        ref = end_state(0.1 / 16.0)
        coarse = end_state(0.1)
        fine = end_state(0.05)
        err_c = abs(coarse[0] - ref[0]) + abs(coarse[1] - ref[1])
        err_f = abs(fine[0] - ref[0]) + abs(fine[1] - ref[1])
        assert err_f > 1e-14
        assert 12.0 < err_c / err_f < 20.0

    def test_integrate_mode_matches_simulate(self):
        params = NetworkParams(0.5, 0.5, 1.0, 0.8)
        direct = integrate_mode(params, 2, (2.0, 0.5), 2.0, 0.1)
        cfg = SimConfig(horizon=2.0, step=0.1, seed=0, x0=(2.0, 0.5), s0=2, sample_interval=2.0)
        traj = simulate(params, FROZEN, cfg)
        assert direct[0] == pytest.approx(traj.x1[-1], abs=1e-12)
        assert direct[1] == pytest.approx(traj.x2[-1], abs=1e-12)

    def test_frozen_mode_never_jumps(self):
        traj = simulate(HOMOG, FROZEN, SimConfig(horizon=10.0, seed=5, s0=3))
        assert len(traj.jump_times) == 0
        assert np.all(traj.mode == 3)
        assert traj.mode_occupancy[2] == pytest.approx(1.0)


JUMP_RATES = np.array(
    [
        [0.0, 2.0, 1.0, 0.5],
        [1.0, 0.0, 1.0, 1.0],
        [0.5, 0.5, 0.0, 2.0],
        [1.0, 2.0, 1.0, 0.0],
    ]
)


@pytest.fixture(scope="module")
def traj():
    return simulate(HOMOG, JUMP_RATES, SimConfig(horizon=3000.0, step=0.01, seed=11))


class TestJumpStatistics:
    RATES = JUMP_RATES

    def test_holding_times_match_rates(self, traj):
        starts = np.concatenate([[0.0], traj.jump_times])
        modes = np.concatenate([[traj.initial_mode], traj.jump_modes]).astype(int)
        ends = np.concatenate([traj.jump_times, [traj.elapsed]])
        durations = ends - starts
        row_rate = self.RATES.sum(axis=1)
        for m in range(1, 5):
            holds = durations[modes == m][:-1] if modes[-1] == m else durations[modes == m]
            mean = holds.mean()
            expected = 1.0 / row_rate[m - 1]
            se = holds.std(ddof=1) / math.sqrt(len(holds))
            assert abs(mean - expected) < 3.0 * se, (m, mean, expected)

    def test_jump_targets_match_rate_proportions(self, traj):
        modes = np.concatenate([[traj.initial_mode], traj.jump_modes]).astype(int)
        for m in range(1, 5):
            idx = np.where(modes[:-1] == m)[0]
            targets = modes[idx + 1]
            n = len(targets)
            probs = self.RATES[m - 1] / self.RATES[m - 1].sum()
            for tgt in range(1, 5):
                if tgt == m:
                    assert not np.any(targets == tgt)
                    continue
                frac = float(np.mean(targets == tgt))
                se = math.sqrt(probs[tgt - 1] * (1.0 - probs[tgt - 1]) / n)
                assert abs(frac - probs[tgt - 1]) < 4.0 * se, (m, tgt, frac)

    def test_occupancy_matches_stationary_law(self, traj):
        p = stationary_distribution(self.RATES)
        batches = occupancy_batches(traj, 30)
        se = batches.std(axis=0, ddof=1) / math.sqrt(30)
        assert np.all(np.abs(traj.mode_occupancy - p) < 4.0 * se + 1e-3)

    def test_jump_log_draws_holding_time_then_target(self, traj):
        # reference: one rng.random() per uniform, holding time first, then the target
        rng = np.random.default_rng(11)
        t, s, times, modes = 0.0, 1, [], []
        while True:
            rate = self.RATES[s - 1].sum()
            t += -math.log1p(-rng.random()) / rate
            if t > 3000.0:
                break
            target = rng.random() * rate
            acc = 0.0
            for j in range(4):
                if j == s - 1 or self.RATES[s - 1][j] == 0.0:
                    continue
                acc += self.RATES[s - 1][j]
                nxt = j + 1
                if target <= acc:
                    break
            s = nxt
            times.append(t)
            modes.append(s)
        assert traj.jump_times.tolist() == times
        assert traj.jump_modes.tolist() == modes

    def test_occupancy_sums_to_one(self, traj):
        assert traj.mode_occupancy.sum() == pytest.approx(1.0, abs=1e-9)
        batches = occupancy_batches(traj, 30)
        assert np.allclose(batches.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("n_batches", [0, -1, 2.5, None, True])
    def test_batch_count_must_be_a_positive_integer(self, traj, n_batches):
        with pytest.raises(ParameterError, match="n_batches"):
            occupancy_batches(traj, n_batches)


class TestStabilityProbe:
    def test_stable_demand(self):
        cfg = SimConfig(horizon=1500.0, step=0.01, seed=0)
        probe = stability_probe(HOMOG, ONES, cfg, replications=3)
        assert probe.verdict == "empirically-stable"
        assert probe.n_diverged == 0

    def test_super_capacity_demand(self):
        params = NetworkParams(0.5, 0.5, 1.0, 1.05)
        cfg = SimConfig(horizon=1500.0, step=0.01, seed=0)
        probe = stability_probe(params, ONES, cfg, replications=3)
        assert probe.verdict == "empirically-unstable"
        assert probe.median_growth_slope == pytest.approx(0.05, abs=0.02)

    def test_zero_demand(self):
        params = NetworkParams(0.5, 0.5, 1.0, 0.0)
        cfg = SimConfig(horizon=200.0, step=0.01, seed=3, x0=(1.0, 1.0))
        probe = stability_probe(params, ONES, cfg, replications=2)
        assert probe.verdict == "empirically-stable"

    def test_replication_seeds_are_independent_streams(self):
        cfg = SimConfig(horizon=10.0, step=0.01, seed=0)
        seeds = [r["seed"] for r in stability_probe(HOMOG, ONES, cfg, replications=3).run_stats]
        other = [r["seed"] for r in stability_probe(HOMOG, ONES, replace(cfg, seed=1), replications=3).run_stats]
        assert not set(seeds) & set(other)
        five = stability_probe(HOMOG, ONES, cfg, replications=5)
        assert [r["seed"] for r in five.run_stats][:3] == seeds
        run = five.run_stats[4]
        assert simulate(HOMOG, ONES, replace(cfg, seed=run["seed"])).summary() == run

    def test_requires_replications(self):
        with pytest.raises(ParameterError):
            stability_probe(HOMOG, ONES, SimConfig(horizon=10.0), replications=0)


class TestThroughputScan:
    def test_empty_grid(self):
        result = throughput_scan(HOMOG, ONES, SimConfig(horizon=10.0), [])
        assert result.etas == [] and result.probes == []
        assert result.largest_stable is None and result.smallest_unstable is None

    def test_transition_window(self):
        cfg = SimConfig(horizon=800.0, step=0.01, seed=1)
        result = throughput_scan(HOMOG, ONES, cfg, [0.5, 1.1], replications=2)
        assert result.largest_stable == 0.5
        assert result.smallest_unstable == 1.1
        assert [p.verdict for p in result.probes] == ["empirically-stable", "empirically-unstable"]

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ParameterError):
            throughput_scan(HOMOG, ONES, SimConfig(horizon=10.0), [0.5, 0.4])

    def test_out_of_range_grid_rejected(self):
        with pytest.raises(ParameterError):
            throughput_scan(HOMOG, ONES, SimConfig(horizon=10.0), [0.5, 1.3])


def assert_lanes_match_probes(params, rates, cfg, etas, replications):
    """Every probe of the scan is exactly the ``stability_probe`` result at its demand."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # no slope from runs under 4 samples
        scan = throughput_scan(params, rates, cfg, etas, replications=replications)
        probes = [stability_probe(replace(params, eta=e), rates, cfg, replications) for e in etas]
    assert len(scan.probes) == len(etas)
    for got, want in zip(scan.probes, probes):
        # JSON writes every float as its repr and NaN as NaN, so NaN slopes compare equal
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    return scan


def start_total(params, cfg):
    if cfg.x0 is not None:
        return sum(cfg.x0)
    floors = congestion_floors(params)
    return sum(floors) if all(map(math.isfinite, floors)) else 0.0


@st.composite
def scan_cases(draw):
    F1 = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    beta = draw(st.floats(math.log(1e-3), math.log(500.0)).map(math.exp))
    params = NetworkParams(F1, 1.0 - F1, min(beta, 500.0), 0.0)
    etas = sorted(draw(st.lists(st.floats(0.0, 1.2), min_size=1, max_size=3)))
    rates = np.zeros((4, 4))
    rates[~np.eye(4, dtype=bool)] = draw(st.lists(st.floats(0.0, 2.0), min_size=12, max_size=12))
    zero_row = draw(st.sampled_from([None, 0, 1, 2, 3]))
    if zero_row is not None:
        rates[zero_row] = 0.0
    step = draw(st.sampled_from([0.05, 0.1, 0.25]))
    cfg = SimConfig(
        horizon=draw(st.floats(2.0, 25.0)),
        step=step,
        seed=draw(st.integers(0, 2**63)),
        x0=draw(st.one_of(st.none(), st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)))),
        s0=draw(st.integers(1, 4)),
        sample_interval=max(step, draw(st.sampled_from([0.3, 0.5, 1.0]))),
    )
    # a cap just above the highest start, so fast-growing runs diverge before the horizon
    start = max(start_total(replace(params, eta=e), cfg) for e in etas)
    cfg = replace(cfg, divergence_cap=start + draw(st.floats(0.5, 4.0)))
    return params, rates, cfg, etas, draw(st.integers(1, 3))


SLOPE_CASE_RATES = np.zeros((4, 4))
SLOPE_CASE_RATES[0][3] = 1.25


class TestLockstepScan:
    """A scan's lanes, its demand x replication runs, are the probes' runs."""

    @given(case=scan_cases())
    @example(  # the horizon sits 1e-5 past the last whole sample time
        case=(
            NetworkParams(0.0, 1.0, 1.0, 0.0),
            SLOPE_CASE_RATES,
            SimConfig(horizon=2.00001, step=0.1, x0=(0.0, 1.0), divergence_cap=2.0),
            [1.0],
            1,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_lanes_match_scalar_probe(self, case):
        assert_lanes_match_probes(*case)

    def test_some_lanes_diverge_mid_batch(self):
        cfg = SimConfig(horizon=300.0, step=0.05, seed=4, divergence_cap=8.0)
        scan = assert_lanes_match_probes(HOMOG, JUMP_RATES, cfg, [0.3, 0.6, 1.1, 1.2], 3)
        diverged = [[r["diverged"] for r in p.run_stats] for p in scan.probes]
        assert diverged[0] == [False] * 3 and diverged[-1] == [True] * 3
        assert all(r["diverged_at"] < 300.0 for r in scan.probes[-1].run_stats)

    def test_same_seeds_at_every_demand(self):
        scan = throughput_scan(HOMOG, ONES, SimConfig(horizon=5.0, seed=9), [0.2, 0.7], replications=2)
        assert [r["seed"] for r in scan.probes[0].run_stats] == [r["seed"] for r in scan.probes[1].run_stats]

    def test_non_finite_state_raises_in_both_integrators(self):
        # a huge step overshoots far below zero, where expm1(-x) overflows
        cfg = SimConfig(horizon=3e5, step=1e5, sample_interval=1e5, x0=(5.0, 5.0), s0=4)
        with pytest.raises(NumericsError):
            simulate(HOMOG, FROZEN, cfg)
        with pytest.raises(NumericsError):
            throughput_scan(HOMOG, FROZEN, cfg, [0.0, 0.5])


def _rk4_step(params: NetworkParams, s: int, x1: float, x2: float, h: float) -> tuple[float, float]:
    a1, a2 = _field(params, s, x1, x2)
    b1, b2 = _field(params, s, x1 + 0.5 * h * a1, x2 + 0.5 * h * a2)
    c1, c2 = _field(params, s, x1 + 0.5 * h * b1, x2 + 0.5 * h * b2)
    d1, d2 = _field(params, s, x1 + h * c1, x2 + h * c2)
    return (
        x1 + h * (a1 + 2.0 * b1 + 2.0 * c1 + d1) / 6.0,
        x2 + h * (a2 + 2.0 * b2 + 2.0 * c2 + d2) / 6.0,
    )


def field_advance(params, s, x1, x2, t, t_end, step, cap, integral, held):
    """RK4 in mode ``s`` from ``t`` to ``t_end`` on four ``_field`` calls per step: the
    per-segment stepper as it was before its stages were written out inline."""
    while t < t_end - _TIME_EPS:
        h = min(step, t_end - t)
        try:
            n1, n2 = _rk4_step(params, s, x1, x2, h)
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


def field_simulate(params, rates, cfg):
    """``simulate``'s event loop as it was before it became one call: ``field_advance`` per segment.

    Returns the samples ``(t, mode, x1, x2, avg_abs)``, the time held in each
    mode, the jump log of the run, its end time and whether it diverged.
    """
    rmat = validate_rate_matrix(rates, require_irreducible=False)
    x1, x2 = sim._initial_state(params, cfg)
    jump_times, jump_modes = sim._jump_log(cfg.seed, rmat, cfg.s0, cfg.horizon)
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
        x1, x2, t, integral, occupancy[s - 1], diverged = field_advance(
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
    return samples, occupancy, jump_times[:taken], jump_modes[:taken], t, diverged


ZERO_ROW_RATES = JUMP_RATES.copy()
ZERO_ROW_RATES[2] = 0.0  # mode 3 never leaves


class TestInlinedField:
    """``simulate``'s stepper writes ``_field`` out inline; it must stay ``==`` to the calls it replaced."""

    @given(
        x1=thresholds,
        x2=thresholds,
        s=modes,
        F1=capacities,
        beta=betas,
        eta=st.floats(0.0, 1.2),
        h=st.floats(1e-9, 1.0),
    )
    @settings(max_examples=500)
    def test_one_step_equals_the_field_oracle(self, x1, x2, s, F1, beta, eta, h):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=eta)
        n1, n2 = _rk4_step(params, s, x1, x2, h)
        n1, n2 = max(n1, 0.0), max(n2, 0.0)
        # a frozen run of one step with no sample before its end: the end sample
        # holds the state and the trapezoid integral over the step divided by h
        samples, occupancy, taken, t, diverged = sim._run(params, s, x1, x2, [], [], h, math.inf, h, math.inf)
        assert samples == [(0.0, s, x1, x2, x1 + x2), (h, s, n1, n2, 0.5 * (x1 + x2 + n1 + n2) * h / h)]
        assert occupancy == [h if k == s - 1 else 0.0 for k in range(4)]
        assert (taken, t, diverged) == (0, h, False)

    @given(case=scan_cases())
    @example(  # diverges early: eta above both capacities, the cap just above the start
        case=(HOMOG, JUMP_RATES, SimConfig(horizon=200.0, step=0.05, seed=3, x0=(0.5, 0.5), divergence_cap=4.0), [1.2], 2)
    )
    @example(  # a zero-rate row: once in mode 3 the run stays there
        case=(NetworkParams(0.7, 0.3, 4.0, 0.0), ZERO_ROW_RATES, SimConfig(horizon=40.0, step=0.1, seed=5), [0.6], 2)
    )
    @example(  # link 2 has no capacity; diverges
        case=(NetworkParams(1.0, 0.0, 0.5, 0.0), ONES, SimConfig(horizon=100.0, step=0.1, seed=6, divergence_cap=20.0), [0.9], 1)
    )
    @example(  # link 1 has no capacity, at a large routing sensitivity
        case=(NetworkParams(0.0, 1.0, 500.0, 0.0), ONES, SimConfig(horizon=30.0, step=0.1, seed=7), [0.4], 1)
    )
    @settings(max_examples=40, deadline=None)
    def test_runs_equal_the_field_oracle(self, case):
        params, rates, cfg, etas, replications = case
        for eta in etas:
            for seed in _replication_seeds(cfg.seed, replications):
                run_params, run_cfg = replace(params, eta=eta), replace(cfg, seed=seed)
                got = simulate(run_params, rates, run_cfg)
                samples, occupancy, jump_times, jump_modes, elapsed, diverged = field_simulate(run_params, rates, run_cfg)
                for key, column in zip(("t", "mode", "x1", "x2", "avg_abs"), zip(*samples)):
                    assert np.array_equal(getattr(got, key), column), key
                occ = np.asarray(occupancy)
                assert np.array_equal(got.mode_occupancy, occ / occ.sum())
                assert np.array_equal(got.jump_times, jump_times) and np.array_equal(got.jump_modes, jump_modes)
                assert (got.elapsed, got.diverged, got.diverged_at) == (elapsed, diverged, elapsed if diverged else None)
