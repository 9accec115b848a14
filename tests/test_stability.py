"""Congestion floors, the two stability tests, bounds, and the certificate."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultroute import (
    CertificateError,
    ErgodicityError,
    MonotonicityError,
    NetworkParams,
    NumericsError,
    ParameterError,
    congestion_floors,
    flow,
    generator_value,
    invariant_set_check,
    lyapunov_certificate,
    mode_drift_maxima,
    necessary_condition,
    necessary_upper_bound,
    routing_fraction,
    solve_congestion_floor,
    stability_verdict,
    sufficient_search,
    sufficient_value,
    throughput_bounds,
    validate_mode_probs,
    vector_field,
)
from faultroute.model import drift_field
from faultroute.stability import (
    BISECT_TOL,
    GRID_N,
    STRICT_DRIFT,
    Z_FLOOR,
    ZOOM_LEVELS,
    ZOOM_N,
    ThetaWitness,
    ThroughputBounds,
    _bisect_predicate,
    _drift_value,
    _excess_rates,
    _necessary,
    _necessary_upper,
    _Searcher,
    zoom_min,
)

UNIFORM = np.full(4, 0.25)

# the z-grid search this replaced certified this network falsely: z**beta underflowed
REPRO_PARAMS = NetworkParams(0.63309, 0.36691, 63.59997, 0.68859)
REPRO_PROBS = np.array([0.696, 0.129, 0.011, 0.164])

betas = st.floats(min_value=math.log(1e-3), max_value=math.log(500.0)).map(math.exp)
capacities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))


def params_for(eta, F1=0.5, beta=1.0):
    return NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=eta)


def floor_by_quadratic(eta, F):
    """Independent closed form for beta = 1: substitute u = exp(-x)."""
    u = (-eta + math.sqrt(eta * eta + 4.0 * F * F)) / (2.0 * F)
    return -math.log(u)


def floor_residual(params, k, x):
    e = math.exp(-params.beta * x)
    return params.eta * e / (1.0 + e) - params.capacity(k) * (1.0 - math.exp(-x))


class TestCongestionFloor:
    def test_reference_value(self):
        x = solve_congestion_floor(params_for(0.8), 1)
        assert x == pytest.approx(0.732668, abs=1e-5)
        assert abs(floor_residual(params_for(0.8), 1, x)) < 1e-10

    def test_against_quadratic_form(self):
        x = solve_congestion_floor(params_for(0.9), 1)
        assert x == pytest.approx(floor_by_quadratic(0.9, 0.5), abs=1e-10)
        assert x == pytest.approx(0.80888, abs=1e-4)

    def test_zero_demand(self):
        assert solve_congestion_floor(params_for(0.0), 1) == 0.0

    def test_zero_capacity_floor_is_infinite(self):
        params = NetworkParams(F1=1.0, F2=0.0, beta=1.0, eta=0.5)
        assert solve_congestion_floor(params, 2) == math.inf
        assert math.isfinite(solve_congestion_floor(params, 1))

    def test_small_beta_still_bracketed(self):
        # the inflow side decays on scale 1/beta, far beyond the default cap
        params = params_for(0.9, beta=1e-3)
        x = solve_congestion_floor(params, 1)
        assert abs(floor_residual(params, 1, x)) < 1e-10

    def test_far_floor_terminates(self):
        # the root sits near x = 1.4e4, where adjacent floats are 1.8e-12 apart
        params = NetworkParams(F1=1e-6, F2=1.0 - 1e-6, beta=1e-3, eta=0.9)
        x = solve_congestion_floor(params, 1)
        assert 1e4 < x < 2e4
        assert abs(floor_residual(params, 1, x)) < 1e-10

    @given(
        eta=st.floats(0.01, 1.2),
        F1=st.floats(0.05, 0.95),
        beta=st.floats(0.1, 5.0),
        k=st.sampled_from([1, 2]),
    )
    @settings(max_examples=80)
    def test_residual_small_everywhere(self, eta, F1, beta, k):
        params = params_for(eta, F1=F1, beta=beta)
        x = solve_congestion_floor(params, k)
        assert abs(floor_residual(params, k, x)) < 1e-10


class TestNecessaryCondition:
    def test_demand_one_fails_third_inequality(self):
        rep = necessary_condition(params_for(1.0), UNIFORM)
        assert not rep.holds
        assert rep.first_violated() == "necessary3"

    def test_zero_demand_slacks(self):
        rep = necessary_condition(params_for(0.0, F1=0.7), UNIFORM)
        assert rep.holds
        assert rep.slacks == (0.7, pytest.approx(0.3), 1.0)

    def test_uniform_at_high_demand(self):
        rep = necessary_condition(params_for(0.9), UNIFORM)
        u = math.exp(-floor_by_quadratic(0.9, 0.5))
        lhs = 0.9 * (0.25 / (u + 1.0) + 0.125)
        assert rep.holds
        assert rep.slacks[0] == pytest.approx(0.5 - lhs, abs=1e-9)
        assert lhs == pytest.approx(0.2682, abs=1e-4)

    def test_zero_capacity_limit_form(self):
        # link 2 has no capacity: its floor is infinite, the second
        # inequality carries a zero right-hand side and fails for eta > 0
        params = NetworkParams(F1=1.0, F2=0.0, beta=1.0, eta=0.3)
        rep = necessary_condition(params, UNIFORM)
        assert not rep.holds
        assert rep.first_violated() == "necessary2"
        assert rep.inequality_holds[0]
        # with the link-2 floor infinite, e^{-beta x2} = 0 in inequality 1
        assert rep.slacks[0] == pytest.approx(1.0 - 0.3 * (0.25 + 0.125), abs=1e-12)

    def test_zero_demand_zero_capacity_holds(self):
        params = NetworkParams(F1=1.0, F2=0.0, beta=1.0, eta=0.0)
        assert necessary_condition(params, UNIFORM).holds


class TestSufficientValue:
    def test_at_origin_equals_half_demand(self):
        for params, p in [
            (params_for(0.8), UNIFORM),
            (params_for(0.3, F1=0.7, beta=2.0), np.array([0.1, 0.2, 0.3, 0.4])),
        ]:
            assert sufficient_value(params, p, (0.0, 0.0)) == params.eta / 2.0

    def test_symmetric_zero_crossing(self):
        theta = -math.log(0.2)
        v = sufficient_value(params_for(0.6), UNIFORM, (theta, theta))
        assert abs(v) < 1e-12

    def test_zero_demand_is_pure_drainage(self):
        v = sufficient_value(params_for(0.0), UNIFORM, (1.0, 1.0))
        assert v == pytest.approx(-0.5 * (1.0 - math.exp(-1.0)), abs=1e-15)

    @staticmethod
    def _four_mode_expression(params, p, theta):
        """Hand-expanded per-mode maxima in y/z powers (independent path)."""
        y = math.exp(-theta[0])
        z = math.exp(-theta[1])
        yb, zb = y**params.beta, z**params.beta
        eta, F1, F2 = params.eta, params.F1, params.F2
        t1, t2 = F1 * (1.0 - y), F2 * (1.0 - z)
        return (
            p[0] * max(eta * yb / (yb + zb) - t1, eta * zb / (yb + zb) - t2)
            + p[1] * max(eta / (1.0 + zb) - t1, eta * zb / (1.0 + zb) - t2)
            + p[2] * max(eta * yb / (yb + 1.0) - t1, eta / (yb + 1.0) - t2)
            + p[3] * max(eta / 2.0 - t1, eta / 2.0 - t2)
        )

    @given(
        t1=st.floats(0.0, 20.0),
        t2=st.floats(0.0, 20.0),
        eta=st.floats(0.0, 1.2),
        F1=st.floats(0.0, 1.0),
        beta=st.floats(0.1, 4.0),
        raw=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    )
    @settings(max_examples=150)
    def test_matches_four_mode_expression(self, t1, t2, eta, F1, beta, raw):
        params = params_for(eta, F1=F1, beta=beta)
        p = np.array(raw) / sum(raw)
        direct = sufficient_value(params, p, (t1, t2))
        expanded = self._four_mode_expression(params, p, (t1, t2))
        assert direct == pytest.approx(expanded, abs=1e-12)

    @given(theta=st.floats(0.0, 20.0), eta=st.floats(0.0, 1.2), raw=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4))
    @settings(max_examples=100)
    def test_symmetric_reduction(self, theta, eta, raw):
        # equal capacities and equal thresholds collapse to the scalar
        # feasibility inequality; the drift is half its left-minus-right
        params = params_for(eta)
        p = np.array(raw) / sum(raw)
        z = math.exp(-theta)
        q = p[1] + p[2]
        homo = (1.0 + (1.0 - z) / (1.0 + z) * q) * eta - (1.0 - z)
        assert sufficient_value(params, p, (theta, theta)) == pytest.approx(homo / 2.0, abs=1e-12)

    def test_negative_theta_rejected(self):
        with pytest.raises(ParameterError):
            sufficient_value(params_for(0.5), UNIFORM, (-1.0, 0.0))


class TestSufficientSearch:
    def test_below_bound_finds_witness(self):
        w = sufficient_search(params_for(0.6), UNIFORM)
        assert w is not None
        assert w.drift < -0.04  # approaches -0.05 at large thresholds
        assert sufficient_value(params_for(0.6), UNIFORM, w.theta) == pytest.approx(w.drift)

    def test_above_bound_finds_nothing(self):
        # exhaustive fine-grid oracle puts the minimum drift near +0.025
        assert sufficient_search(params_for(0.7), UNIFORM) is None

    def test_zero_demand_trivial_witness(self):
        w = sufficient_search(params_for(0.0), UNIFORM)
        assert w is not None and w.drift < -0.4


class TestThroughputBounds:
    def test_homogeneous_uniform(self):
        tb = throughput_bounds(params_for(0.0), UNIFORM)
        assert tb.lower >= 2.0 / 3.0 - 5e-3
        assert tb.lower <= 0.67
        assert 0.999 <= tb.upper <= 1.0
        assert tb.lower <= tb.upper
        assert tb.upper_violation == "necessary3"
        assert tb.lower_witness is not None and tb.lower_witness.drift < 0.0

    def test_extreme_capacity_split_kills_throughput(self):
        tb = throughput_bounds(params_for(0.0, F1=0.999), UNIFORM)
        assert tb.lower <= 0.01
        assert tb.lower <= tb.upper <= 1.0

    def test_fault_free_chain_approaches_one(self):
        p = np.array([1.0, 0.0, 0.0, 0.0])
        tb = throughput_bounds(params_for(0.0), p)
        assert tb.lower >= 1.0 - 2e-3
        assert tb.upper == 1.0

    def test_non_monotone_predicate_raises(self):
        def bad(eta):
            return eta < 0.3 or 0.5 < eta < 0.7

        with pytest.raises(MonotonicityError) as err:
            _bisect_predicate(bad, 1e-4, "synthetic")
        lo, hi = err.value.eta_pair
        assert lo < hi


class TestNecessaryUpperBound:
    def test_matches_reference_curve(self):
        # independent closed form of the binding capacity inequality
        for dF, expected in [(0.5, 0.880367), (0.75, 0.469108)]:
            params = params_for(0.0, F1=(1.0 + dF) / 2.0)
            up = necessary_upper_bound(params, UNIFORM, tol=1e-6)
            assert up == pytest.approx(expected, abs=1e-5)

    def test_no_gap_no_capacity(self):
        params = NetworkParams(F1=1.0, F2=0.0, beta=1.0, eta=0.0)
        assert necessary_upper_bound(params, UNIFORM) <= 1e-3


class TestLyapunovCertificate:
    RATES = np.ones((4, 4)) - np.eye(4)

    def test_offsets_solve_the_recentred_system(self):
        params = params_for(0.6)
        cert = lyapunov_certificate(params, UNIFORM, self.RATES, (3.0, 3.0))
        assert cert.system_residual < 1e-10
        assert cert.a[0] == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(cert.a, [1.0, 1.067886, 1.067886, 1.0], atol=1e-5)

    def test_negative_drift_coefficient_ties_to_search_value(self):
        params = params_for(0.6)
        cert = lyapunov_certificate(params, UNIFORM, self.RATES, (3.0, 3.0))
        drift = sufficient_value(params, UNIFORM, (3.0, 3.0))
        assert drift < 0.0
        assert cert.c == pytest.approx(-0.25 * drift, abs=1e-15)
        assert cert.c > 0.0
        assert (UNIFORM @ cert.D) == pytest.approx(drift, abs=1e-15)

    def test_certificate_from_search_witness(self):
        params = params_for(0.6)
        w = sufficient_search(params, UNIFORM)
        cert = lyapunov_certificate(params, UNIFORM, self.RATES, w)
        assert cert.c == pytest.approx(-0.25 * w.drift, abs=1e-12)

    def test_drift_bound_on_grid(self):
        params = params_for(0.6)
        theta = (3.0, 3.0)
        cert = lyapunov_certificate(params, UNIFORM, self.RATES, theta)
        xs = np.linspace(0.0, 5.0, 50)
        worst = -1e9
        for s in (1, 2, 3, 4):
            for x1 in xs:
                for x2 in xs:
                    lv = generator_value(params, self.RATES, cert.a, theta, s, (float(x1), float(x2)))
                    worst = max(worst, lv - (-cert.c * (x1 + x2) + cert.d))
        assert worst <= 1e-9

    def test_non_witness_theta_rejected(self):
        with pytest.raises(CertificateError):
            lyapunov_certificate(params_for(0.6), UNIFORM, self.RATES, (0.5, 0.5))

    def test_singular_rate_system_rejected(self):
        with pytest.raises(ErgodicityError):
            lyapunov_certificate(params_for(0.6), UNIFORM, np.zeros((4, 4)), (3.0, 3.0))

    def test_mode_maxima_match_components(self):
        params = params_for(0.6)
        theta = (2.0, 1.0)
        d = mode_drift_maxima(params, theta)
        for s in (1, 2, 3, 4):
            mu1, mu2 = routing_fraction(params, s, theta)
            expected = max(
                params.eta * mu1 - flow(params, 1, theta[0]),
                params.eta * mu2 - flow(params, 2, theta[1]),
            )
            assert d[s - 1] == pytest.approx(expected, abs=1e-15)


class TestInvariantSet:
    def test_low_density_link_refills(self):
        params = params_for(0.8)
        for s in (1, 2, 3, 4):
            g1, _ = vector_field(params, s, (0.1, 2.0))
            assert g1 > 0.0

    def test_sweep_finds_no_counterexample(self):
        params = params_for(0.8)
        report = invariant_set_check(params, congestion_floors(params), samples=10_000, seed=3)
        assert report.passed
        assert report.outside > 0
        assert report.counterexamples == []

    def test_inside_points_are_vacuous(self):
        params = params_for(0.8)
        floors = (0.0, 0.0)  # nothing is below a zero floor
        report = invariant_set_check(params, floors, samples=100)
        assert report.passed and report.outside == 0

    def test_requires_finite_floors(self):
        with pytest.raises(ParameterError):
            invariant_set_check(params_for(0.5), (math.inf, 1.0), samples=10)


class TestVerdict:
    def test_certified_stable(self):
        v = stability_verdict(params_for(0.5), UNIFORM)
        assert v.classification == "certified-stable"
        assert v.sufficient_holds and v.witness is not None
        assert v.necessary.holds

    def test_certified_unstable(self):
        v = stability_verdict(params_for(1.0), UNIFORM)
        assert v.classification == "certified-unstable"
        assert not v.sufficient_holds
        assert v.to_dict()["violated"] == "necessary3"

    def test_indeterminate_gap(self):
        v = stability_verdict(params_for(0.69), UNIFORM)
        assert v.classification == "indeterminate"
        assert v.necessary.holds and not v.sufficient_holds

    def test_classifications_mutually_exclusive(self):
        for eta in (0.0, 0.3, 0.6, 0.69, 0.9, 1.0, 1.1):
            v = stability_verdict(params_for(eta), UNIFORM)
            if v.classification == "certified-stable":
                assert v.sufficient_holds
            if v.classification == "certified-unstable":
                assert not v.necessary.holds
            assert not (v.classification == "certified-stable" and not v.necessary.holds)


def dirichlet(seed):
    return np.random.default_rng(seed).dirichlet(np.ones(4))


def assert_verified(params, probs, witness):
    """A witness must re-evaluate below the strictness margin in the scalar reference."""
    value = sufficient_value(params, probs, witness.theta)
    assert value < -STRICT_DRIFT, (witness, value)
    assert value == witness.drift


class TestWitnessesVerify:
    @given(F1=capacities, beta=betas, eta=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_search_and_verdict_witnesses(self, F1, beta, eta, seed):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=eta)
        p = dirichlet(seed)
        w = sufficient_search(params, p)
        if w is not None:
            assert_verified(params, p, w)
        v = stability_verdict(params, p)
        if v.witness is not None:
            assert_verified(params, p, v.witness)

    @given(F1=capacities, beta=betas, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounds_witness_at_lower(self, F1, beta, seed):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=0.0)
        p = dirichlet(seed)
        tb = throughput_bounds(params, p)
        if tb.lower > 0.0:
            assert tb.lower_witness is not None
            assert_verified(NetworkParams(F1, 1.0 - F1, beta, tb.lower), p, tb.lower_witness)

    def test_lower_witness_on_a_non_monotone_search(self):
        # the search found witnesses at demands just below and above 0.702634
        # but none there, so a second search at lower - tol came back empty
        probs = np.array([0.3625, 0.2209, 0.0995, 0.3171])
        probs = probs / probs.sum()
        params = NetworkParams(F1=0.30037, F2=1.0 - 0.30037, beta=0.23110, eta=0.0)
        tb = throughput_bounds(params, probs)
        assert tb.lower > 0.0
        assert tb.lower_witness is not None
        assert_verified(NetworkParams(params.F1, params.F2, params.beta, tb.lower), probs, tb.lower_witness)

    def test_steep_routing_repro(self):
        p = REPRO_PROBS / REPRO_PROBS.sum()
        v = stability_verdict(REPRO_PARAMS, p)
        if v.classification == "certified-stable":
            assert_verified(REPRO_PARAMS, p, v.witness)
            rates = np.ones((4, 4)) - np.eye(4)
            cert = lyapunov_certificate(REPRO_PARAMS, p, rates, v.witness)
            assert cert.c > 0.0 and math.isfinite(cert.d)


class TestValidateOnce:
    def test_bounds_validate_at_the_entry_only(self, monkeypatch):
        import faultroute
        from faultroute import bounds, cli, model, stability

        calls = []
        original = model.validate_mode_probs

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in (faultroute, model, stability, bounds, cli):
            monkeypatch.setattr(module, "validate_mode_probs", counted)
        throughput_bounds(params_for(0.0, F1=0.6), UNIFORM)
        assert 1 <= len(calls) <= 5


def scalar_certificate(params, probs, rates, theta, grid_n=65, margin=1.1):
    """``(a, c, d)`` built point by point with ``generator_value``."""
    probs = validate_mode_probs(probs)
    drift_max = mode_drift_maxima(params, theta)
    dbar = float(probs @ drift_max)
    c = -0.25 * dbar
    q = np.array(rates, dtype=float)
    np.fill_diagonal(q, -q.sum(axis=1))
    m = q.copy()
    m[3, :] = [1.0, 0.0, 0.0, 0.0]
    a = np.linalg.solve(m, np.array([dbar - drift_max[0], dbar - drift_max[1], dbar - drift_max[2], 1.0]))
    span = max(5.0, theta[0], theta[1]) + 5.0
    xs = np.linspace(0.0, span, grid_n)
    xs = np.unique(np.concatenate([xs, [theta[0], theta[1], theta[0] + 1e-9, theta[1] + 1e-9]]))
    offset_term = 0.0
    remainder = 0.0
    for s in (1, 2, 3, 4):
        for x1 in xs:
            for x2 in xs:
                d1, d2 = _excess_rates(params, s, (x1, x2), theta)
                offset_term = max(offset_term, a[s - 1] * (d1 + d2))
                lv = generator_value(params, rates, a, theta, s, (x1, x2))
                remainder = max(remainder, lv + c * (x1 + x2))
    d = max(margin * offset_term + c * (theta[0] + theta[1]), margin * remainder)
    return a, c, d


class TestCertificateMatchesScalarLoop:
    @pytest.mark.parametrize(
        "params, probs, rates",
        [
            (params_for(0.6), UNIFORM, np.ones((4, 4)) - np.eye(4)),
            (params_for(0.4, F1=0.7, beta=3.0), np.array([0.5, 0.2, 0.2, 0.1]), np.full((4, 4), 0.3) - 0.3 * np.eye(4)),
            (params_for(0.5, F1=0.35, beta=120.0), np.array([0.7, 0.1, 0.15, 0.05]), np.ones((4, 4)) - np.eye(4)),
            (params_for(0.2, F1=0.6, beta=0.05), np.array([0.4, 0.1, 0.3, 0.2]), np.ones((4, 4)) - np.eye(4)),
        ],
    )
    def test_same_coefficients(self, params, probs, rates):
        w = sufficient_search(params, probs)
        assert w is not None
        for theta in (w.theta, (round(w.theta[0], 1), round(w.theta[1], 1))):
            if sufficient_value(params, probs, theta) >= 0.0:
                continue
            cert = lyapunov_certificate(params, probs, rates, theta)
            a, c, d = scalar_certificate(params, probs, rates, theta)
            assert np.array_equal(cert.a, a)
            assert cert.c == c
            assert cert.d == pytest.approx(d, rel=1e-12, abs=0.0)


# The coarse search grid, and the search as it was before pruning and batching:
# the oracle of the tests below, kept only here.
GRID = -np.log(np.logspace(math.log10(Z_FLOOR), 0.0, GRID_N))


def single_zoom_min(values, center, step, lo, hi):
    """``zoom_min`` for one center, with ``values`` on a plain open mesh."""
    center = np.asarray(center, dtype=float)
    for _ in range(ZOOM_LEVELS):
        axes = [np.clip(np.linspace(c - step, c + step, ZOOM_N), lo, hi) for c in center]
        v = values(*np.ix_(*axes))
        best = np.unravel_index(int(np.argmin(v)), v.shape)
        center = np.array([axis[k] for axis, k in zip(axes, best)])
        step *= 2.0 / (ZOOM_N - 1)
    return center


def full_grid_searcher(params):
    """One demand per call, ``np.argmin`` over all ``GRID_N ** 2`` coarse points."""
    coarse = drift_field(params, GRID[:, None], GRID[None, :])
    step = GRID[0] / (GRID_N - 1)

    def search(params, p):
        eta = params.eta
        values = coarse.averaged(eta, p)
        i, j = np.unravel_index(int(np.argmin(values)), values.shape)
        t1, t2 = single_zoom_min(
            lambda a, b: drift_field(params, a, b).averaged(eta, p), (GRID[i], GRID[j]), step, 0.0, GRID[0]
        )
        theta = (float(t1), float(t2))
        drift = _drift_value(params, p, theta)
        return ThetaWitness(theta, drift) if drift < -STRICT_DRIFT else None

    return search


def sequential_bounds(params, probs):
    """``throughput_bounds`` with every demand searched on its own over the full grid."""
    p = validate_mode_probs(probs)
    search = full_grid_searcher(params)
    witnesses = {}

    def stable_at(eta):
        w = search(replace(params, eta=eta), p)
        if w is not None:
            witnesses[eta] = w
        return w is not None

    lower, _ = _bisect_predicate(stable_at, BISECT_TOL, "sufficient")
    upper = _necessary_upper(params, p, BISECT_TOL)
    violation = _necessary(replace(params, eta=min(1.0, upper + BISECT_TOL)), p).first_violated()
    if violation is None:
        violation = _necessary(replace(params, eta=1.0), p).first_violated()
    if lower > upper:
        raise NumericsError(f"bound inversion: lower {lower} > upper {upper}")
    return ThroughputBounds(lower, upper, witnesses.get(lower), violation)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (MonotonicityError, NumericsError) as exc:
        return type(exc), str(exc)


def mode_probs(seed, zeros):
    """A Dirichlet draw with the modes in ``zeros`` switched off."""
    p = dirichlet(seed)
    p[sorted(zeros)] = 0.0
    return p / p.sum()


seeds = st.integers(0, 2**32 - 1)
zero_modes = st.sets(st.integers(0, 3), max_size=3)


class TestPrunedSearch:
    """The pruned, batched search returns the full-grid search's answers bit for bit."""

    @given(F1=capacities, beta=betas, eta=st.floats(0.0, 1.2), seed=seeds, zeros=zero_modes)
    @settings(max_examples=200, deadline=None)
    def test_pruned_argmin_is_the_full_grid_argmin(self, F1, beta, eta, seed, zeros):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=eta)
        p = mode_probs(seed, zeros)
        search = _Searcher(params)
        full = drift_field(params, GRID[:, None], GRID[None, :])
        for e in (eta, 0.0, 1.0):
            i, j = search.coarse_argmin(e, p)
            assert i * GRID_N + j == int(np.argmin(full.averaged(e, p)))

    @given(F1=capacities, beta=betas, eta=st.floats(0.0, 1.2), seed=seeds, zeros=zero_modes)
    @settings(max_examples=200, deadline=None)
    def test_block_bounds_are_below_every_grid_value(self, F1, beta, eta, seed, zeros):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=eta)
        p = mode_probs(seed, zeros)
        search = _Searcher(params)
        values = search.coarse.averaged(eta, p)  # block-major
        full = drift_field(params, GRID[:, None], GRID[None, :]).averaged(eta, p)
        assert np.array_equal(values.transpose(0, 2, 1, 3).reshape(GRID_N, GRID_N), full)
        assert np.all(search.floor.averaged(eta, p)[:, :, None, None] <= values)

    @pytest.mark.parametrize(
        "params, probs",
        [
            (NetworkParams(F1=0.0, F2=1.0, beta=1.0, eta=0.0), UNIFORM),  # every point is 0
            (NetworkParams(F1=1.0, F2=0.0, beta=2.0, eta=0.7), np.array([0.0, 0.0, 0.0, 1.0])),  # every point is 0.35
            (NetworkParams(F1=1.0, F2=0.0, beta=1.0, eta=0.6), np.array([0.0, 0.0, 1.0, 0.0])),  # ties on a row
            (NetworkParams(F1=0.0, F2=1.0, beta=3.0, eta=0.6), np.array([0.0, 1.0, 0.0, 0.0])),  # ties on a column
        ],
    )
    def test_ties_resolve_to_the_first_grid_point(self, params, probs):
        full = drift_field(params, GRID[:, None], GRID[None, :]).averaged(params.eta, probs)
        assert np.count_nonzero(full == full.min()) > 1
        i, j = _Searcher(params).coarse_argmin(params.eta, probs)
        assert i * GRID_N + j == int(np.argmin(full))

    @given(
        F1=capacities,
        beta=betas,
        seed=seeds,
        lanes=st.lists(
            st.tuples(st.floats(0.0, 1.2), st.integers(0, GRID_N - 1), st.integers(0, GRID_N - 1)),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_batched_zoom_equals_single_zooms(self, F1, beta, seed, lanes):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=0.0)
        p = dirichlet(seed)
        etas = [eta for eta, _, _ in lanes]
        centers = [(GRID[i], GRID[j]) for _, i, j in lanes]
        step = GRID[0] / (GRID_N - 1)

        def field(eta):
            return lambda a, b: drift_field(params, a, b).averaged(eta, p)

        batch = zoom_min(field(np.array(etas)[:, None, None]), centers, step, 0.0, GRID[0])
        assert batch.shape == (len(lanes), 2)
        for k, (eta, center) in enumerate(zip(etas, centers)):
            alone = zoom_min(field(np.array([[[eta]]])), [center], step, 0.0, GRID[0])
            assert np.array_equal(batch[k : k + 1], alone)
            assert np.array_equal(batch[k], single_zoom_min(field(eta), center, step, 0.0, GRID[0]))

    @given(F1=capacities, beta=betas, eta=st.floats(0.0, 1.2), seed=seeds, zeros=zero_modes)
    @settings(max_examples=30, deadline=None)
    def test_bounds_and_search_equal_the_sequential_full_grid_versions(self, F1, beta, eta, seed, zeros):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=eta)
        p = mode_probs(seed, zeros)
        assert outcome(throughput_bounds, params, p) == outcome(sequential_bounds, params, p)
        assert sufficient_search(params, p) == full_grid_searcher(params)(params, p)
