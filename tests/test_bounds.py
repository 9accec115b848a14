"""Closed-form bound formulas, the feasibility polynomial, and the witness finder."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from faultroute import (
    FailureModel,
    GPolynomial,
    NetworkParams,
    ParameterError,
    WitnessError,
    capacity_gap_curves,
    correlation_bound,
    correlation_curve,
    failure_rate_bound,
    failure_rate_curve,
    g_eval,
    g_monotonicity_check,
    hetero_lower_bound,
    hetero_lower_bound_piecewise,
    hetero_upper_reference,
    hetero_witness,
    homogeneous_lower_bound,
    product_chain,
    rates_from_probs,
    stationary_distribution,
    sufficient_value,
)
from faultroute import bounds
from faultroute.bounds import _sweep
from faultroute.model import drift_field, validate_mode_probs
from faultroute.stability import STRICT_DRIFT, Z_FLOOR, _drift_value, zoom_min

UNIFORM = np.full(4, 0.25)


class TestHomogeneousBound:
    def test_uniform_faults(self):
        assert homogeneous_lower_bound(0.25, 0.25) == 1.0 / 1.5
        assert homogeneous_lower_bound(0.25, 0.25) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_fault_free_network(self):
        assert homogeneous_lower_bound(0.0, 0.0) == 1.0

    def test_worst_case(self):
        assert homogeneous_lower_bound(0.5, 0.5) == 0.5

    def test_invalid_probabilities(self):
        with pytest.raises(ParameterError):
            homogeneous_lower_bound(0.7, 0.5)


class TestFailureRateBound:
    @pytest.mark.parametrize("p,expected", [(0.0, 1.0), (1.0, 1.0), (0.5, 2.0 / 3.0), (0.25, 1.0 / 1.375)])
    def test_reference_points(self, p, expected):
        assert failure_rate_bound(p) == pytest.approx(expected, abs=1e-15)

    def test_minimum_at_half(self):
        ps = np.linspace(0.0, 1.0, 201)
        vals = [failure_rate_bound(float(p)) for p in ps]
        assert min(vals) == failure_rate_bound(0.5)

    @given(p=st.floats(0.0, 1.0))
    @settings(max_examples=80)
    def test_consistent_with_independent_mode_masses(self, p):
        # independent sensors: single-fault masses p(1-p) each, joint p^2
        direct = homogeneous_lower_bound(p * (1.0 - p), p * (1.0 - p))
        assert failure_rate_bound(p) == pytest.approx(direct, abs=1e-14)


class TestCorrelationBound:
    @pytest.mark.parametrize("rho,expected", [(0.5, 1.0), (-0.5, 0.5), (0.0, 2.0 / 3.0)])
    def test_reference_points_at_half(self, rho, expected):
        assert correlation_bound(0.5, rho) == pytest.approx(expected, abs=1e-15)

    def test_zero_correlation_matches_failure_rate_form(self):
        assert correlation_bound(0.5, 0.0) == failure_rate_bound(0.5)

    def test_outside_admissible_region(self):
        with pytest.raises(ParameterError):
            correlation_bound(0.5, 0.7)
        with pytest.raises(ParameterError):
            correlation_bound(0.8, -0.75)  # mode-1 mass would go negative

    @given(p=st.floats(0.01, 0.5), rho_frac=st.floats(0.0, 1.0))
    @settings(max_examples=80)
    def test_consistent_with_failure_model(self, p, rho_frac):
        rho = -p + rho_frac * 1.0 * (1.0 - p + p)  # spans [-p, 1-p]
        rho = min(max(rho, -p), 1.0 - p)
        probs = FailureModel(p, rho).mode_probs()
        direct = homogeneous_lower_bound(float(probs[1]), float(probs[2]))
        assert correlation_bound(p, rho) == pytest.approx(direct, abs=1e-14)


class TestFailureModel:
    def test_induced_distribution(self):
        probs = FailureModel(0.25, 0.0).mode_probs()
        assert np.allclose(probs, [9 / 16, 3 / 16, 3 / 16, 1 / 16], atol=1e-15)

    def test_correlated_distribution_sums_to_one(self):
        probs = FailureModel(0.4, 0.3).mode_probs()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0.0)

    def test_chain_constructions_realize_the_law(self):
        probs = FailureModel(0.25, 0.1).mode_probs()
        assert np.allclose(stationary_distribution(rates_from_probs(probs)), probs, atol=1e-12)
        # zero correlation also admits the two-sensor product chain
        probs0 = FailureModel(0.25, 0.0).mode_probs()
        assert np.allclose(stationary_distribution(product_chain(0.25)), probs0, atol=1e-12)

    def test_kappa_scale_free(self):
        probs = FailureModel(0.3, 0.0).mode_probs()
        for kappa in (0.1, 1.0, 7.3):
            assert np.allclose(stationary_distribution(rates_from_probs(probs, kappa)), probs, atol=1e-12)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_kappa_must_be_finite_and_positive(self, kappa):
        with pytest.raises(ParameterError, match="kappa"):
            rates_from_probs(np.full(4, 0.25), kappa)


class TestHeteroBound:
    def test_equal_capacities(self):
        assert hetero_lower_bound(0.0, 0.25, 0.25) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_full_gap(self):
        assert hetero_lower_bound(1.0, 0.25, 0.25) == 0.0

    def test_branch_crossing(self):
        # both branches evaluate to 4/7 exactly at the crossing gap 1/(2 - p1)
        dF = 1.0 / (2.0 - 0.25)
        wide = (1.0 - dF) / 0.75
        narrow = (1.0 - 0.25 * dF) / 1.5
        assert wide == pytest.approx(4.0 / 7.0, abs=1e-14)
        assert narrow == pytest.approx(4.0 / 7.0, abs=1e-14)
        assert hetero_lower_bound(dF, 0.25, 0.25) == pytest.approx(4.0 / 7.0, abs=1e-14)

    def test_matches_uniform_fault_curve_expression(self):
        for dF in np.linspace(0.0, 1.0, 101):
            expected = min(4.0 / 3.0 * (1.0 - dF), 2.0 / 3.0 * (1.0 - 0.25 * dF))
            assert hetero_lower_bound(float(dF), 0.25, 0.25) == pytest.approx(expected, abs=1e-12)

    @given(
        dF=st.floats(0.0, 1.0),
        p1=st.floats(0.0, 0.999),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_min_form_equals_piecewise_form(self, dF, p1, frac):
        p2 = 0.5 * (1.0 - p1) * frac
        a = hetero_lower_bound(dF, p1, p2)
        b = hetero_lower_bound_piecewise(dF, p1, p2)
        assert a == pytest.approx(b, abs=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            hetero_lower_bound(1.5, 0.25, 0.25)
        with pytest.raises(ParameterError):
            hetero_lower_bound(0.5, 0.6, 0.3)


class TestHeteroUpperReference:
    def test_endpoints(self):
        assert hetero_upper_reference(0.0) == 1.0  # raw value 1.5695 clips at 1
        assert hetero_upper_reference(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_midpoint(self):
        expected = -(2.0 / 3.0) * math.sqrt(4.75) - 1.0 + 10.0 / 3.0
        assert hetero_upper_reference(0.5) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.8804, abs=1e-4)

    def test_dominates_lower_bound(self):
        for dF in np.linspace(0.0, 1.0, 1001):
            assert hetero_lower_bound(float(dF), 0.25, 0.25) <= hetero_upper_reference(float(dF)) + 1e-12


class TestGPolynomial:
    def test_point_value_against_polynomial_oracle(self):
        gp = GPolynomial(beta=2.0, eta=0.5, q=0.5)
        g, g1, g2 = g_eval(gp, 0.5)
        # independent evaluation: for integer beta, g is the cubic
        # z^3 - c1 z^2 + z - d0 evaluated by Horner
        c1 = 1.0 - 0.5 * 0.5
        d0 = 1.0 - 1.5 * 0.5
        assert g == pytest.approx(np.polyval([1.0, -c1, 1.0, -d0], 0.5), abs=1e-15)
        assert g == pytest.approx(0.1875, abs=1e-15)

    def test_limit_at_zero(self):
        gp = GPolynomial(beta=1.7, eta=0.6, q=0.3)
        assert gp.limit_at_zero() == pytest.approx((1.0 + 0.3) * 0.6 - 1.0, abs=1e-15)
        g, _, _ = g_eval(gp, 1e-9)
        assert g == pytest.approx(gp.limit_at_zero(), abs=1e-6)

    def test_unit_beta_has_constant_curvature(self):
        gp = GPolynomial(beta=1.0, eta=0.6, q=0.3)
        _, _, g2 = g_eval(gp, np.array([0.1, 0.5, 1.0]))
        assert np.allclose(g2, 2.0, atol=1e-12)

    def test_nonpositive_z_rejected(self):
        for z in (0.0, -0.5, math.nan, np.array([0.5, math.nan])):
            with pytest.raises(ParameterError):
                g_eval(GPolynomial(1.0, 0.5, 0.5), z)

    @pytest.mark.parametrize(
        "beta, eta, name",
        [
            (math.nan, 0.5, "beta"),
            (math.inf, 0.5, "beta"),
            (0.0, 0.5, "beta"),
            (-1.0, 0.5, "beta"),
            (1.0, math.nan, "eta"),
            (1.0, math.inf, "eta"),
            (1.0, -0.1, "eta"),
        ],
    )
    def test_non_finite_or_out_of_range_parameters_rejected(self, beta, eta, name):
        with pytest.raises(ParameterError, match=name):
            GPolynomial(beta, eta, 0.5)

    @given(
        beta=st.floats(0.2, 5.0),
        eta=st.floats(0.0, 1.0),
        q=st.floats(0.0, 1.0),
        z=st.floats(0.05, 0.95),
    )
    @settings(max_examples=120)
    def test_derivatives_match_finite_differences(self, beta, eta, q, z):
        gp = GPolynomial(beta=beta, eta=eta, q=q)
        h = 1e-6 * max(z, 0.1)
        gm, g1m, _ = g_eval(gp, z)
        gp_, _, _ = g_eval(gp, z + h)
        gm_, _, _ = g_eval(gp, z - h)
        assert g1m == pytest.approx((gp_ - gm_) / (2.0 * h), rel=1e-5, abs=1e-5)


class TestGMonotonicity:
    def test_unit_beta_passes(self):
        rep = g_monotonicity_check(GPolynomial(beta=1.0, eta=0.6, q=0.3))
        assert rep.passed
        # g' = 2z + (1 - c1); minimum sits at the left edge of the grid
        assert rep.min_g1 == pytest.approx(2e-4 + 0.6 * 0.7, abs=1e-12)
        assert rep.min_g2 == pytest.approx(2.0, abs=1e-12)

    def test_steep_logit_passes_with_interior_minimum(self):
        rep = g_monotonicity_check(GPolynomial(beta=3.0, eta=0.9, q=0.5))
        assert rep.passed
        assert rep.z0 == pytest.approx(0.275, abs=1e-12)
        assert rep.argmin_z == pytest.approx(rep.z0, abs=1e-3)
        # interior minimum value 1 - c1 * z0^2 for the cubic derivative
        assert rep.min_g1 == pytest.approx(1.0 - 0.55 * 0.275**2, abs=1e-9)
        assert rep.g1_at_z0 == pytest.approx(rep.min_g1, abs=1e-9)

    def test_shallow_logit_genuinely_dips(self):
        # for beta < 1 the z^(beta-1) term sends g' to -inf at the origin, so
        # the sweep reports real counterexamples; frozen from direct
        # evaluation: g'(1e-4) = 1.5e-2*... - 0.29/1e-2 + 1 = -27.985
        rep = g_monotonicity_check(GPolynomial(beta=0.5, eta=0.6, q=0.3))
        assert not rep.passed
        assert rep.min_g1 == pytest.approx(-27.985, abs=1e-3)
        assert rep.argmin_z == pytest.approx(1e-4, abs=1e-12)
        # the dip is a property of g itself, not of the grid: g decreases
        # from its origin limit before turning around
        gp = GPolynomial(beta=0.5, eta=0.6, q=0.3)
        g_small, _, _ = g_eval(gp, 0.05)
        assert g_small < gp.limit_at_zero() - 0.05

    @given(beta=st.floats(1.0, 5.0), eta=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_positive_derivative_for_beta_at_least_one(self, beta, eta, q):
        rep = g_monotonicity_check(GPolynomial(beta=beta, eta=eta, q=q))
        assert rep.passed, (beta, eta, q, rep.min_g1)


class TestHeteroWitness:
    def test_equal_capacity_case(self):
        params = NetworkParams(0.5, 0.5, 1.0, 0.6)
        w = hetero_witness(params, UNIFORM)
        assert w.drift < -STRICT_DRIFT
        assert sufficient_value(params, UNIFORM, w.theta) == pytest.approx(w.drift, abs=1e-12)

    def test_wide_gap_case_uses_capped_first_threshold(self):
        params = NetworkParams(0.9, 0.1, 1.0, 0.2)
        w = hetero_witness(params, UNIFORM)
        assert w.drift < -STRICT_DRIFT
        # construction fixes exp(-theta1) at 1 - (eta + F2)/F1 = 2/3
        assert math.exp(-w.theta[0]) <= 2.0 / 3.0 + 1e-9

    def test_zero_demand(self):
        params = NetworkParams(0.6, 0.4, 1.0, 0.0)
        assert hetero_witness(params, UNIFORM).drift < -STRICT_DRIFT

    def test_demand_a_rounding_below_the_gap(self):
        # 1 - (eta + F2) / F1 rounds to 0 here, where -log would raise
        params = NetworkParams(0.5204867619680973, 0.4795132380319027, 1.0, 0.0)
        eta = math.nextafter(params.F1 - params.F2, 0.0)
        w = hetero_witness(params, UNIFORM, eta=eta)
        assert sufficient_value(replace(params, eta=eta), UNIFORM, w.theta) == w.drift < -STRICT_DRIFT

    def test_gap_dominating_demand_case(self):
        params = NetworkParams(0.75, 0.25, 1.0, 0.55)  # gap 0.5 <= demand < bound
        w = hetero_witness(params, UNIFORM)
        assert w.drift < -STRICT_DRIFT

    def test_preconditions_enforced(self):
        with pytest.raises(ParameterError):
            hetero_witness(NetworkParams(0.4, 0.6, 1.0, 0.1), UNIFORM)  # F1 < F2
        with pytest.raises(ParameterError):
            hetero_witness(NetworkParams(0.5, 0.5, 1.0, 0.1), np.array([0.3, 0.3, 0.2, 0.2]))
        with pytest.raises(ParameterError):
            hetero_witness(NetworkParams(0.5, 0.5, 1.0, 0.9), UNIFORM)  # above the bound

    def test_random_settings_below_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p1 = rng.random()
            p2 = 0.5 * (1.0 - p1) * rng.random()
            p4 = 1.0 - p1 - 2.0 * p2
            dF = rng.random()
            bound = hetero_lower_bound(dF, p1, p2)
            if bound <= 1e-6:
                continue
            eta = rng.random() * bound
            params = NetworkParams((1.0 + dF) / 2.0, (1.0 - dF) / 2.0, 1.0, eta)
            probs = np.array([p1, p2, p2, p4])
            w = hetero_witness(params, probs)
            assert w.drift < -STRICT_DRIFT
            assert sufficient_value(params, probs, w.theta) <= 0.0

    def test_drift_is_the_callers_own_check(self):
        # the witness's drift is sufficient_value on the probabilities as
        # passed, not on a copy normalized a second time
        rng = np.random.default_rng(11)
        for _ in range(400):
            p1, p23, p4 = rng.dirichlet(np.ones(3))
            probs = np.array([p1, 0.5 * p23, 0.5 * p23, p4])
            dF = rng.random()
            bound = hetero_lower_bound(dF, p1, 0.5 * p23)
            eta = rng.random() * bound
            params = NetworkParams((1.0 + dF) / 2.0, (1.0 - dF) / 2.0, 10.0 ** rng.uniform(-1.0, 2.0), eta)
            w = hetero_witness(params, probs)
            assert w.drift < -STRICT_DRIFT
            assert w.drift == sufficient_value(params, probs, w.theta)

    @pytest.mark.parametrize("beta", [0.0014, 1e-3, 0.0025, 1e-12, 1e-300])
    def test_tiny_beta_never_overflows(self, beta):
        # ((1 + rho) / (1 - rho)) ** (1 / beta) overflowed at the first three
        params = NetworkParams(0.653, 0.347, beta, 0.361)
        try:
            w = hetero_witness(params, UNIFORM)
        except WitnessError:
            return
        assert sufficient_value(params, UNIFORM, w.theta) == w.drift < -STRICT_DRIFT


TOP = -math.log(Z_FLOOR)


def scalar_sweep(params, p, theta1_of, t_lo, n=400):
    """``_sweep``'s oracle: the same sweep along ``(theta1_of(t), t)``, point by point on ``_drift_value``.

    Every ``theta`` it visits must lie in the search box.  Returns the chosen theta, its scalar drift, and the ``n`` first-pass
    ``t`` with their scalar drifts.
    """

    def theta(t):
        theta1 = theta1_of(t)
        assert 0.0 <= theta1 <= TOP and t_lo <= t <= TOP, (theta1, t)
        return theta1, t

    def values(ts):
        return np.array([_drift_value(params, p, theta(t)) for t in ts.ravel().tolist()]).reshape(ts.shape)

    ts = np.linspace(t_lo, TOP, n)
    first = values(ts)
    best = float(ts[int(np.argmin(first))])
    t = float(zoom_min(values, [best], (TOP - t_lo) / (n - 1), t_lo, TOP)[0])
    return theta(t), _drift_value(params, p, theta(t)), ts, first


@st.composite
def sweep_cases(draw):
    """A network, symmetric mode probabilities and one of ``hetero_witness``'s ``(theta1_of, t_lo)`` sweeps."""
    family = draw(st.sampled_from(("capped", "equal", "ratio")))
    F1 = draw(st.floats(0.5, 1.0))
    F2 = 1.0 - F1
    dF = F1 - F2
    # at beta down to 1e-12 the ratio line can miss the search box, leaving its corner
    beta = 10.0 ** draw(st.floats(-12.0 if family == "ratio" else -3.0, math.log10(500.0)))
    a, b, c = (draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0))) for _ in range(3))
    assume(a + b + c > 0.0)
    p = validate_mode_probs(np.array([a, b, b, c]) / (a + 2.0 * b + c))
    if family == "capped":  # demand below the gap; y_cap down to 1e-12 exercises the floor at Z_FLOOR
        assume(dF > 0.0)
        eta = (1.0 - 10.0 ** draw(st.floats(-12.0, 0.0))) * dF
        y_cap = 1.0 - (eta + F2) / F1
        sweep = (lambda t: -math.log(max(y_cap, Z_FLOOR)), 0.0)
    elif family == "equal":
        eta = draw(st.floats(0.0, 1.0))
        sweep = (lambda t: t, 0.0)
    else:  # demand above the gap: theta2 - theta1 = gap
        eta = dF + draw(st.floats(0.0, 1.0)) * (1.0 - dF)
        assume(eta > 0.0)
        rho = 0.99 * min(1.0, dF / eta)
        gap = min(math.log((1.0 + rho) / (1.0 - rho)) / beta, TOP)
        sweep = (lambda t: t - gap, gap)
    return NetworkParams(F1, F2, beta, eta), p, *sweep


class TestKernelSweep:
    @given(case=sweep_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_scalar_sweep(self, case):
        params, p, theta1_of, t_lo = case
        theta_ref, drift_ref, ts, first_ref = scalar_sweep(params, p, theta1_of, t_lo)
        first = drift_field(params, theta1_of(ts), ts).averaged(params.eta, p)
        np.testing.assert_allclose(first, first_ref, rtol=0.0, atol=1e-12)
        theta = _sweep(params, p, theta1_of, t_lo)
        assert all(type(v) is float for v in theta)
        drift = _drift_value(params, p, theta)
        assert abs(drift - drift_ref) <= 1e-12, (theta, theta_ref)
        if drift_ref < -STRICT_DRIFT - 1e-12:
            assert drift < -STRICT_DRIFT  # no witness is lost

    def test_a_line_of_one_point_is_not_scored(self, monkeypatch):
        # at beta 1e-3 and rho 0.99 the ratio line theta2 - theta1 = 5.3e3 misses the box, leaving its corner
        params = NetworkParams(0.8, 0.2, 1e-3, 0.6)
        p = validate_mode_probs(UNIFORM)
        gap = min(math.log(1.99 / 0.01) / params.beta, TOP)
        theta_ref, *_ = scalar_sweep(params, p, lambda t: t - gap, gap)
        monkeypatch.setattr(bounds, "drift_field", None)  # any scoring would raise TypeError
        assert _sweep(params, p, lambda t: t - gap, gap) == theta_ref == (0.0, TOP)


class TestCurveEmitters:
    def test_failure_rate_curve_shape(self):
        rows = failure_rate_curve()
        assert len(rows) == 101
        assert rows[0] == (0.0, 1.0)
        assert rows[50][1] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_correlation_curve_spans_admissible_range(self):
        rows = correlation_curve()
        assert rows[0][0] == pytest.approx(-0.5)
        assert rows[-1][0] == pytest.approx(0.5)
        assert rows[-1][1] == pytest.approx(1.0, abs=1e-12)

    def test_capacity_gap_curve_endpoints(self):
        rows = capacity_gap_curves()
        dF0, lo0, up0 = rows[0]
        assert (dF0, lo0, up0) == (0.0, pytest.approx(2.0 / 3.0), 1.0)
        dF1, lo1, up1 = rows[-1]
        assert (lo1, up1) == (0.0, pytest.approx(0.0, abs=1e-12))
