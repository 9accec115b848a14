"""Congestion floors, the two stability tests, bounds, and the certificate."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from faultroute import (
    CertificateError,
    ErgodicityError,
    NetworkParams,
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
from faultroute import stability
from faultroute.bounds import hetero_upper_reference, necessary_upper_curve
from faultroute.model import DriftField, drift_field
from faultroute.stability import (
    BISECT_TOL,
    BLOCK,
    GRID_N,
    STRICT_DRIFT,
    Z_FLOOR,
    ZOOM_LEVELS,
    ZOOM_N,
    ThetaWitness,
    _drift_value,
    _excess_rates,
    _Searcher,
    zoom_min,
)

from test_model import BAD_PAIRS, forbid_work

UNIFORM = np.full(4, 0.25)

# the z-grid search this replaced certified this network falsely: z**beta underflowed
REPRO_PARAMS = NetworkParams(0.63309, 0.36691, 63.59997, 0.68859)
REPRO_PROBS = np.array([0.696, 0.129, 0.011, 0.164])

# a floor of 4.05e12 on link 1: the bracket used to stop at 1e12 and call it inf
TINY_BETA_PARAMS = NetworkParams(0.3, 0.7, 1e-13, 0.75)
TINY_BETA_PROBS = np.array([0.02, 0.01, 0.95, 0.02])

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

    @pytest.mark.parametrize("beta", [1e-13, 1e-20, 1e-300])
    def test_tiny_beta_floor_is_finite(self, beta):
        params = replace(TINY_BETA_PARAMS, beta=beta)
        x = solve_congestion_floor(params, 1)
        assert math.isfinite(x)
        # the root of F1 (1 - e^-x)(1 + e^(beta x)) = eta, where e^-x is 0 in floats
        assert x == pytest.approx(math.log(params.eta / params.F1 - 1.0) / beta, rel=1e-12)

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

    def test_slacks_are_python_floats(self):
        # numpy scalars from indexing the probabilities cost memory in every kept verdict
        rep = necessary_condition(params_for(0.6, F1=0.7), np.array([0.4, 0.1, 0.3, 0.2]))
        assert all(type(v) is float for v in rep.slacks + rep.floors)


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

    def test_negative_theta_rejected(self, monkeypatch):
        params = params_for(0.5)
        forbid_work(monkeypatch)
        for theta in BAD_PAIRS:
            with pytest.raises(ParameterError):
                sufficient_value(params, UNIFORM, theta)


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
        params = params_for(0.0, F1=0.999)
        tb = throughput_bounds(params, UNIFORM)
        assert tb.lower <= 0.01
        assert tb.lower <= tb.upper <= 1.0
        # upper is a demand where the test fails; the name is read there
        assert tb.upper_violation == "necessary2"
        assert necessary_condition(replace(params, eta=tb.upper), UNIFORM).first_violated() == "necessary2"

    def test_fault_free_chain_approaches_one(self):
        p = np.array([1.0, 0.0, 0.0, 0.0])
        tb = throughput_bounds(params_for(0.0), p)
        assert tb.lower >= 1.0 - 2e-3
        assert tb.upper == 1.0


class TestNecessaryUpperBound:
    def test_matches_reference_curve(self):
        # independent closed form of the binding capacity inequality
        for dF, expected in [(0.5, 0.880367), (0.75, 0.469108)]:
            params = params_for(0.0, F1=(1.0 + dF) / 2.0)
            up = necessary_upper_bound(params, UNIFORM)
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

    @pytest.mark.parametrize("samples", [0, -5, 2.5, None, True])
    def test_sample_count_must_be_a_positive_integer(self, samples):
        with pytest.raises(ParameterError, match="samples"):
            invariant_set_check(params_for(0.5), (0.5, 0.5), samples)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed"):
            invariant_set_check(params_for(0.5), (0.5, 0.5), 10, seed)


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

    def test_tiny_beta_is_not_certified_unstable(self):
        # with link 1's floor taken as inf, necessary2 failed and upper was 0.729
        assert stability_verdict(TINY_BETA_PARAMS, TINY_BETA_PROBS).classification != "certified-unstable"
        assert throughput_bounds(TINY_BETA_PARAMS, TINY_BETA_PROBS).upper == 1.0

    def test_classifications_mutually_exclusive(self):
        for eta in (0.0, 0.3, 0.6, 0.69, 0.9, 1.0, 1.1):
            v = stability_verdict(params_for(eta), UNIFORM)
            if v.classification == "certified-stable":
                assert v.sufficient_holds
            if v.classification == "certified-unstable":
                assert not v.necessary.holds
            assert not (v.classification == "certified-stable" and not v.necessary.holds)

    def test_result_records_are_slotted(self):
        params = params_for(0.5)
        verdict = stability_verdict(params, UNIFORM)
        tb = throughput_bounds(params, UNIFORM)
        cert = lyapunov_certificate(params, UNIFORM, TestLyapunovCertificate.RATES, verdict.witness)
        for record in (verdict.necessary, verdict, tb, cert):
            assert not hasattr(record, "__dict__")
        w = verdict.witness
        assert verdict.to_dict() == {
            "necessary": {"holds": True, "slacks": list(verdict.necessary.slacks)},
            "sufficient": {"holds": True, "theta": list(w.theta), "drift": w.drift},
            "classification": "certified-stable",
            "violated": None,
        }
        assert tb.to_dict() == {
            "lower": tb.lower,
            "upper": tb.upper,
            "lower_witness": {"theta": list(tb.lower_witness.theta), "drift": tb.lower_witness.drift},
            "upper_violation": tb.upper_violation,
        }


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
        s1, s2, s3 = v.necessary.slacks
        assert (v.necessary.inequality_holds, v.necessary.holds, v.sufficient_holds) == (
            (s1 >= 0.0, s2 >= 0.0, s3 > 0.0),
            s1 >= 0.0 and s2 >= 0.0 and eta < 1.0,
            v.witness is not None,
        )

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


class TestSearchCache:
    """One search per network: the last network's search is kept, and only that one."""

    @pytest.mark.parametrize("first", [stability_verdict, sufficient_search])
    def test_one_searcher_per_network(self, monkeypatch, first):
        built = []
        init = _Searcher.__init__

        def counted(self, params):
            built.append(params)
            init(self, params)

        monkeypatch.setattr(_Searcher, "__init__", counted)
        params = params_for(0.5, F1=0.6, beta=2.0)
        first(params, UNIFORM)
        throughput_bounds(params, UNIFORM)
        assert len(built) == 1

    networks = st.tuples(capacities, betas, st.integers(0, 2**32 - 1))

    @given(a=networks, b=networks)
    @settings(max_examples=10, deadline=None)
    def test_interleaved_calls_equal_a_cold_search(self, a, b):
        (F1, beta, seed), (G1, gamma, other) = a, b
        pa, pb = validate_mode_probs(dirichlet(seed)), validate_mode_probs(dirichlet(other))
        net_a, net_b = params_for(0.3, F1=F1, beta=beta), params_for(0.6, F1=G1, beta=gamma)
        ulp = pa.copy()
        ulp[0] = math.nextafter(ulp[0], 1.0)
        assume(validate_mode_probs(ulp) is ulp)  # within the normalization tolerance, so kept as is
        calls = [(net_a, pa), (net_b, pb), (net_a, pa), (replace(net_a, eta=0.9), pa), (net_a, ulp)]
        stability._search_bits.cache_clear()
        for params, p in calls:
            cold = _Searcher(params)(p)
            assert stability._search(params, p) == cold
            tb = throughput_bounds(params, p)
            assert (tb.lower, tb.lower_witness) == cold
        same_b = (F1, beta, seed) == (G1, gamma, other)
        info = stability._search_bits.cache_info()
        # the demand is not in the key; one ulp of one probability is
        assert (info.hits, info.misses) == ((8, 2) if same_b else (6, 4))


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


# The coarse search grid, and the search without pruning: the oracle of the
# tests below, kept only here.
GRID = -np.log(np.logspace(math.log10(Z_FLOOR), 0.0, GRID_N))


def full_grid_critical_demand(params, p):
    return drift_field(params, GRID[:, None], GRID[None, :]).critical_demand(p, STRICT_DRIFT)


def full_grid_theta(params, p):
    """``theta`` refined from ``np.argmax`` of the critical demand over all ``GRID_N ** 2`` coarse points."""
    i, j = np.unravel_index(int(np.argmax(full_grid_critical_demand(params, p))), (GRID_N, GRID_N))
    t1, t2 = zoom_min(
        lambda a, b: -drift_field(params, a, b).critical_demand(p, STRICT_DRIFT),
        (GRID[i], GRID[j]),
        GRID[0] / (GRID_N - 1),
        0.0,
        GRID[0],
    )
    return float(t1), float(t2)


def batched_zoom_min(values, centers, step, lo, hi):
    """``zoom_min`` as it was with a batch axis: ``m`` centers refined together."""
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


def mode_probs(seed, zeros):
    """A Dirichlet draw with the modes in ``zeros`` switched off."""
    p = dirichlet(seed)
    p[sorted(zeros)] = 0.0
    return p / p.sum()


def block_extremes(params):
    """Smallest shares and largest outflows over each ``BLOCK`` x ``BLOCK`` block, from every grid point.

    The field is laid out block-major, ``[bi, bj, i, j]`` being grid point
    ``(BLOCK * bi + i, BLOCK * bj + j)``, and reduced over ``i`` and ``j``.
    """
    tb = GRID.reshape(GRID_N // BLOCK, BLOCK)
    field = drift_field(params, tb[:, None, :, None], tb[None, :, None, :])
    inner = (2, 3)
    return DriftField(
        tuple((mu1.min(axis=inner), mu2.min(axis=inner)) for mu1, mu2 in field.shares),
        field.f1.max(axis=inner),
        field.f2.max(axis=inner),
    )


seeds = st.integers(0, 2**32 - 1)
zero_modes = st.sets(st.integers(0, 3), max_size=3)


class TestPrunedSearch:
    """The pruned search finds the full grid's maximum of the critical demand, and ``lower`` is re-checked."""

    @given(F1=capacities, beta=betas, seed=seeds, zeros=zero_modes)
    @settings(max_examples=200, deadline=None)
    def test_pruned_argmin_is_the_full_grid_argmin(self, F1, beta, seed, zeros):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=0.0)
        p = mode_probs(seed, zeros)
        i, j = _Searcher(params).coarse_argmin(p)
        assert i * GRID_N + j == int(np.argmax(full_grid_critical_demand(params, p)))

    @given(F1=capacities, beta=betas, seed=seeds, zeros=zero_modes)
    @settings(max_examples=200, deadline=None)
    def test_block_bounds_are_below_every_grid_value(self, F1, beta, seed, zeros):
        # the search minimizes minus the critical demand, so its block bounds
        # sit below the values as the critical demand's sit above them
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=0.0)
        p = mode_probs(seed, zeros)
        nb = GRID_N // BLOCK
        values = full_grid_critical_demand(params, p).reshape(nb, BLOCK, nb, BLOCK).transpose(0, 2, 1, 3)
        bound = _Searcher(params).floor.critical_demand(p, STRICT_DRIFT)
        assert np.all(bound[:, :, None, None] >= values)

    @given(F1=capacities, beta=betas)
    @example(F1=0.5, beta=1e-12)
    @example(F1=0.5, beta=500.0)
    @example(F1=0.0, beta=1.0)
    @example(F1=1.0, beta=1.0)
    @settings(max_examples=200, deadline=None)
    def test_corner_bounds_equal_the_block_extremes(self, F1, beta):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=0.0)
        got = _Searcher(params).floor
        want = block_extremes(params)
        for (mu1, mu2), (nu1, nu2) in zip(got.shares, want.shares):
            assert np.array_equal(mu1, nu1) and np.array_equal(mu2, nu2)
        assert np.array_equal(got.f1, want.f1) and np.array_equal(got.f2, want.f2)

    def test_building_a_searcher_evaluates_only_block_corners(self, monkeypatch):
        # the block bounds come from two corner fields, not from every grid point
        points = []

        def counted(params, x1, x2):
            points.append(np.broadcast(np.asarray(x1), np.asarray(x2)).size)
            return drift_field(params, x1, x2)

        monkeypatch.setattr(stability, "drift_field", counted)
        _Searcher(NetworkParams(F1=0.5, F2=0.5, beta=1.0, eta=0.0))
        assert 0 < sum(points) <= 2 * (GRID_N // BLOCK) ** 2

    @pytest.mark.parametrize(
        "params, probs",
        [
            (NetworkParams(F1=0.0, F2=1.0, beta=1.0, eta=0.0), UNIFORM),  # every point is -inf
            (NetworkParams(F1=0.2, F2=0.8, beta=1.0, eta=0.0), np.array([0.0, 0.0, 0.0, 1.0])),  # ties on a row
            (NetworkParams(F1=0.8, F2=0.2, beta=500.0, eta=0.0), UNIFORM),  # ties on a column, from (1, 0)
            (NetworkParams(F1=0.5, F2=0.5, beta=1.0, eta=0.0), np.array([0.0, 0.5, 0.5, 0.0])),  # ties on a patch
        ],
    )
    def test_ties_resolve_to_the_first_grid_point(self, params, probs):
        full = full_grid_critical_demand(params, probs)
        assert np.count_nonzero(full == full.max()) > 1
        i, j = _Searcher(params).coarse_argmin(probs)
        assert i * GRID_N + j == int(np.argmax(full))

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
        # the single-center zoom_min refines as the batched one did, bit for
        # bit, so hetero_witness's one-coordinate sweep kept its outputs
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=0.0)
        p = dirichlet(seed)
        etas = [eta for eta, _, _ in lanes]
        centers = [(GRID[i], GRID[j]) for _, i, j in lanes]
        step = GRID[0] / (GRID_N - 1)

        def field(eta):
            return lambda a, b: drift_field(params, a, b).averaged(eta, p)

        def diagonal(eta):
            return lambda t: drift_field(params, t, t).averaged(eta, p)

        batch = batched_zoom_min(field(np.array(etas)[:, None, None]), centers, step, 0.0, GRID[0])
        line = batched_zoom_min(diagonal(np.array(etas)[:, None]), [c[:1] for c in centers], step, 0.0, GRID[0])
        for k, (eta, center) in enumerate(zip(etas, centers)):
            assert np.array_equal(batch[k], zoom_min(field(eta), center, step, 0.0, GRID[0]))
            assert np.array_equal(line[k], zoom_min(diagonal(eta), center[:1], step, 0.0, GRID[0]))

    @given(F1=capacities, beta=betas, eta=st.floats(0.0, 1.2), seed=seeds, zeros=zero_modes)
    @settings(max_examples=30, deadline=None)
    def test_bounds_and_search_equal_the_sequential_full_grid_versions(self, F1, beta, eta, seed, zeros):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=eta)
        p = mode_probs(seed, zeros)
        tb = throughput_bounds(params, p)
        upper = necessary_upper_bound(params, p)
        at_upper = necessary_condition(replace(params, eta=upper), p)
        assert (tb.upper, tb.upper_violation) == (upper, at_upper.first_violated())
        w = sufficient_search(params, p)
        if tb.lower_witness is None:
            assert tb.lower == 0.0 and w is None
            assert full_grid_critical_demand(params, p).max() == -math.inf
            return
        theta = full_grid_theta(params, p)
        assert tb.lower_witness.theta == theta
        if eta <= tb.lower:
            assert w == ThetaWitness(theta, _drift_value(params, p, theta))
        else:
            assert w is None

    @given(F1=capacities, beta=betas, seed=seeds, zeros=zero_modes)
    @settings(max_examples=100, deadline=None)
    def test_lower_is_the_rechecked_grid_maximum(self, F1, beta, seed, zeros):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=0.0)
        p = mode_probs(seed, zeros)
        tb = throughput_bounds(params, p)
        top = full_grid_critical_demand(params, p).max()
        if tb.lower_witness is None:
            assert tb.lower == 0.0 and top == -math.inf
            return
        assert_verified(replace(params, eta=tb.lower), p, tb.lower_witness)
        # the refined theta's critical demand is at least the grid maximum, and
        # lower sits below it only by the steps the scalar re-check needed
        refined = float(drift_field(params, *tb.lower_witness.theta).critical_demand(p, STRICT_DRIFT))
        assert refined >= top
        assert tb.lower <= refined


class TestVerdictMatchesBounds:
    @given(F1=capacities, beta=betas, eta=st.floats(0.0, 1.0), seed=seeds, zeros=zero_modes)
    @settings(max_examples=60, deadline=None)
    def test_certified_stable_iff_demand_is_at_most_lower(self, F1, beta, eta, seed, zeros):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=eta)
        p = mode_probs(seed, zeros)
        verdict = stability_verdict(params, p)
        tb = throughput_bounds(params, p)
        if not verdict.necessary.holds:
            return
        assert (verdict.classification == "certified-stable") == (eta <= tb.lower and tb.lower_witness is not None)
        if verdict.witness is not None:
            assert verdict.witness.theta == tb.lower_witness.theta


def pre_grid_bisection(holds, tol):
    """The necessary bisection as it was before 0.7.0: 11 demands probed on [0, 1] first."""
    results = [(float(e), holds(float(e))) for e in np.linspace(0.0, 1.0, 11)]
    first_false = next((k for k, (_, ok) in enumerate(results) if not ok), None)
    if first_false is not None:
        assert not any(ok for _, ok in results[first_false + 1 :]), results
    if first_false == 0:
        return 0.0
    if first_false is None:
        return 1.0
    lo = results[first_false - 1][0]
    hi = results[first_false][0]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return hi


def assert_upper_contract(params, p, upper):
    """``upper`` fails the necessary test, and the test holds ``BISECT_TOL`` below it."""
    assert not necessary_condition(replace(params, eta=upper), p).holds
    assert necessary_condition(replace(params, eta=max(0.0, upper - BISECT_TOL)), p).holds


class TestNecessaryBisection:
    """``upper`` is one plain bisection of the necessary test, which is monotone in demand."""

    @given(F1=capacities, beta=betas, seed=seeds, zeros=zero_modes, e=st.floats(0.0, 1.2), e2=st.floats(0.0, 1.2))
    @settings(max_examples=300, deadline=None)
    def test_holding_at_a_demand_implies_holding_below_it(self, F1, beta, seed, zeros, e, e2):
        lo, hi = sorted((e, e2))
        p = mode_probs(seed, zeros)
        at_lo = necessary_condition(NetworkParams(F1, 1.0 - F1, beta, lo), p)
        at_hi = necessary_condition(NetworkParams(F1, 1.0 - F1, beta, hi), p)
        if at_hi.holds:
            assert at_lo.holds
        # the argument behind it, step by step in rounded arithmetic
        assert all(a <= b for a, b in zip(at_lo.floors, at_hi.floors))
        assert all(a >= b for a, b in zip(at_lo.slacks, at_hi.slacks))

    @given(F1=capacities, beta=betas, seed=seeds, zeros=zero_modes)
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_pre_grid_bisection(self, F1, beta, seed, zeros):
        params = NetworkParams(F1, 1.0 - F1, beta, 0.0)
        p = mode_probs(seed, zeros)
        old = pre_grid_bisection(lambda e: necessary_condition(replace(params, eta=e), p).holds, BISECT_TOL)
        new = necessary_upper_bound(params, p)
        assert abs(new - old) <= BISECT_TOL
        assert_upper_contract(params, p, old)
        assert_upper_contract(params, p, new)

    @given(F1=capacities, beta=betas, seed=seeds, zeros=zero_modes)
    @settings(max_examples=50, deadline=None)
    def test_violation_is_read_at_upper(self, F1, beta, seed, zeros):
        params = NetworkParams(F1, 1.0 - F1, beta, 0.0)
        p = mode_probs(seed, zeros)
        tb = throughput_bounds(params, p)
        assert tb.upper == necessary_upper_bound(params, p)
        assert tb.upper_violation == necessary_condition(replace(params, eta=tb.upper), p).first_violated()

    def test_bounds_evaluate_the_test_fifteen_times(self, monkeypatch):
        calls = []
        original = stability._necessary

        def counted(params, p):
            calls.append(params.eta)
            return original(params, p)

        monkeypatch.setattr(stability, "_necessary", counted)
        throughput_bounds(NetworkParams(0.7, 0.3, 3.0, 0.0), UNIFORM)
        assert len(calls) == 15

    def test_upper_bound_evaluates_the_test_fourteen_times(self, monkeypatch):
        calls = []
        original = stability._necessary

        def counted(params, p):
            calls.append(params.eta)
            return original(params, p)

        monkeypatch.setattr(stability, "_necessary", counted)
        necessary_upper_bound(NetworkParams(0.7, 0.3, 3.0, 0.0), UNIFORM)
        assert len(calls) == 14


def flip_demand(F_read, F_other, share, p4, beta):
    """Demand at which the capacity inequality that reads the floor of the link with capacity ``F_read`` fails.

    At demand ``eta_k(x) = F_read (1 - e^{-x}) (1 + e^{beta x})`` that floor is
    ``x``, and the inequality's left side is ``F_read (1 - e^{-x})
    ((share + p4/2) e^{beta x} + p4/2)``, increasing in ``x``; its root where it
    meets ``F_other`` is bisected in ``x``, with ``beta x`` capped at 700.  With
    no root the flip is infinite.  (A zero ``F_read`` makes the left side 0
    here, which is exact only when ``F_other = 1``, as in ``network_mix``.)
    """

    def lhs(x):
        return F_read * -math.expm1(-x) * ((share + 0.5 * p4) * math.exp(beta * x) + 0.5 * p4)

    lo, hi = 0.0, 700.0 / beta
    if lhs(hi) <= F_other:
        return math.inf
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if lhs(mid) <= F_other:
            lo = mid
        else:
            hi = mid
    return F_read * -math.expm1(-hi) * (1.0 + math.exp(beta * hi))


def exact_upper(params, p):
    """``upper`` without nested solves: the smaller flip of the two capacity inequalities, capped at 1."""
    F1, F2, beta = params.F1, params.F2, params.beta
    return min(1.0, flip_demand(F2, F1, p[1], p[3], beta), flip_demand(F1, F2, p[2], p[3], beta))


def network_mix(n, seed):
    """Capacities 0 or 1 with probability 0.1 each, else uniform; ``beta`` log-uniform on [1e-3, 500];
    Dirichlet(1) faults with 0-2 modes switched off."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        u = rng.random()
        F1 = 0.0 if u < 0.1 else 1.0 if u < 0.2 else float(rng.random())
        beta = float(np.exp(rng.uniform(math.log(1e-3), math.log(500.0))))
        p = rng.dirichlet(np.ones(4))
        p[rng.choice(4, size=int(rng.integers(0, 3)), replace=False)] = 0.0
        yield NetworkParams(F1, 1.0 - F1, beta, 0.0), p / p.sum()


class TestExactFlip:
    """``upper`` against the necessary test's flip demand, found by inverting the floor map."""

    def test_bisected_upper_sits_within_one_bracket_above_the_flip(self):
        for params, p in network_mix(300, 123):
            flip = exact_upper(params, p)
            upper = necessary_upper_bound(params, p)
            assert flip - 1e-9 <= upper <= flip + 2.0**-14 + 1e-9, (params, p, flip, upper)

    def test_flip_at_unit_beta_is_the_reference_curve(self):
        for dF, upper in necessary_upper_curve():
            reference = hetero_upper_reference(dF)
            flip = exact_upper(NetworkParams((1.0 + dF) / 2.0, (1.0 - dF) / 2.0, 1.0, 0.0), UNIFORM)
            assert flip == pytest.approx(reference, abs=1e-12)
            assert reference - 1e-9 <= upper <= reference + 2.0**-14 + 1e-9, (dF, reference, upper)
