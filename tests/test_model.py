"""Flow, fault-map, routing, vector-field, and mode-chain behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultroute import (
    NetworkParams,
    ParameterError,
    ErgodicityError,
    fault_map,
    flow,
    mode_drift_maxima,
    routing_fraction,
    stationary_distribution,
    sufficient_value,
    validate_mode_probs,
    validate_rate_matrix,
    vector_field,
)
from faultroute.model import _field, drift_field
from faultroute.stability import _drift_value

HALF = NetworkParams(F1=0.5, F2=0.5, beta=1.0, eta=0.8)

densities = st.floats(min_value=0.0, max_value=60.0, allow_nan=False)
modes = st.sampled_from([1, 2, 3, 4])


class TestNetworkParams:
    def test_capacities_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            NetworkParams(F1=0.5, F2=0.6, beta=1.0, eta=0.5)

    def test_capacities_not_rescaled(self):
        with pytest.raises(ParameterError, match="rejected"):
            NetworkParams(F1=0.25, F2=0.25, beta=1.0, eta=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(F1=-0.1, F2=1.1, beta=1.0, eta=0.5),
            dict(F1=0.5, F2=0.5, beta=0.0, eta=0.5),
            dict(F1=0.5, F2=0.5, beta=-1.0, eta=0.5),
            dict(F1=0.5, F2=0.5, beta=1.0, eta=-0.1),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            NetworkParams(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["F1", "F2", "beta", "eta"])
    def test_non_finite_fields_rejected(self, field, bad):
        kwargs = dict(F1=0.5, F2=0.5, beta=1.0, eta=0.5)
        kwargs[field] = bad
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            NetworkParams(**kwargs)

    def test_degenerate_capacity_split_allowed(self):
        NetworkParams(F1=1.0, F2=0.0, beta=2.0, eta=0.0)


class TestFlow:
    def test_empty_link_has_zero_outflow(self):
        assert flow(HALF, 1, 0.0) == 0.0

    def test_saturates_at_capacity(self):
        assert abs(flow(HALF, 1, 50.0) - 0.5) < 1e-20
        assert flow(HALF, 1, 50.0) < 0.5 or flow(HALF, 1, 50.0) == 0.5  # float saturation

    def test_value_at_balance_density(self):
        # at the demand-0.8 balance point, outflow equals the routed floor inflow
        x = 0.732668
        u = math.exp(-x)
        assert flow(HALF, 1, x) == pytest.approx(0.26, abs=1e-3)
        assert flow(HALF, 1, x) == pytest.approx(0.8 * u / (1.0 + u), abs=1e-6)

    def test_negative_density_rejected(self):
        with pytest.raises(ParameterError):
            flow(HALF, 1, -0.5)
        with pytest.raises(ParameterError):
            flow(HALF, 3, 1.0)

    @given(x=densities)
    def test_bounded_by_capacity(self, x):
        v = flow(HALF, 2, x)
        assert 0.0 <= v <= 0.5
        if x < 30.0:
            assert v < 0.5

    def test_strictly_increasing_on_grid(self):
        xs = np.linspace(0.0, 10.0, 500)
        vals = np.array([flow(HALF, 1, float(x)) for x in xs])
        assert np.all(np.diff(vals) > 0.0)


class TestFaultMap:
    def test_mode_definitions(self):
        x = (3.2, 1.1)
        assert fault_map(1, x) == (3.2, 1.1)
        assert fault_map(2, x) == (0.0, 1.1)
        assert fault_map(3, x) == (3.2, 0.0)
        assert fault_map(4, x) == (0.0, 0.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError):
            fault_map(5, (1.0, 1.0))

    @given(s=modes, x1=densities, x2=densities)
    def test_idempotent(self, s, x1, x2):
        once = fault_map(s, (x1, x2))
        assert fault_map(s, once) == once


class TestRouting:
    def test_both_sensors_down_splits_evenly(self):
        assert routing_fraction(HALF, 4, (17.0, 0.3)) == (0.5, 0.5)

    def test_logit_at_log_two_gap(self):
        mu1, mu2 = routing_fraction(HALF, 1, (0.0, math.log(2.0)))
        # independent softmax evaluation
        w = np.exp([-0.0, -math.log(2.0)])
        assert mu1 == pytest.approx(w[0] / w.sum(), abs=1e-15)
        assert mu1 == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert mu2 == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_faulty_own_sensor_form(self):
        # link-1 sensor down: split depends only on the other link's density
        z = 0.37
        theta2 = -math.log(z)
        mu1, mu2 = routing_fraction(HALF, 2, (5.0, theta2))
        assert mu1 == pytest.approx(1.0 / (1.0 + z), abs=1e-14)
        assert mu2 == pytest.approx(z / (1.0 + z), abs=1e-14)

    @given(
        s=modes,
        x1=st.floats(0.0, 3.5),
        x2=st.floats(0.0, 3.5),
        beta=st.floats(0.05, 8.0),
    )
    @settings(max_examples=150)
    def test_simplex(self, s, x1, x2, beta):
        # strict interior holds while beta * |x1 - x2| stays below ~36; past
        # that the smaller share underflows and the split saturates cleanly
        params = NetworkParams(F1=0.5, F2=0.5, beta=beta, eta=0.8)
        mu1, mu2 = routing_fraction(params, s, (x1, x2))
        assert mu1 + mu2 == 1.0
        assert 0.0 < mu1 < 1.0
        assert 0.0 < mu2 < 1.0

    @given(s=modes, x1=densities, x2=densities)
    def test_depends_only_on_observed_state(self, s, x1, x2):
        x = (x1, x2)
        assert routing_fraction(HALF, s, x) == routing_fraction(HALF, 1, fault_map(s, x))

    def test_large_gap_does_not_overflow(self):
        params = NetworkParams(F1=0.5, F2=0.5, beta=50.0, eta=0.8)
        mu1, mu2 = routing_fraction(params, 1, (0.0, 40.0))
        assert mu1 + mu2 == 1.0
        assert mu1 > 0.999


class TestVectorField:
    def test_both_down_structure(self):
        g1, g2 = vector_field(HALF, 4, (2.0, 0.7))
        assert g1 == pytest.approx(0.4 - flow(HALF, 1, 2.0), abs=1e-15)
        assert g2 == pytest.approx(0.4 - flow(HALF, 2, 0.7), abs=1e-15)

    def test_zero_demand_pure_drainage(self):
        params = NetworkParams(F1=0.5, F2=0.5, beta=1.0, eta=0.0)
        drain = -0.5 * (1.0 - math.exp(-1.0))
        for s in (1, 2, 3, 4):
            g1, g2 = vector_field(params, s, (1.0, 1.0))
            assert g1 == pytest.approx(drain, abs=1e-15)
            assert g2 == pytest.approx(drain, abs=1e-15)

    @given(s=modes, x2=densities, eta=st.floats(0.0, 1.2))
    def test_empty_link_never_drains(self, s, x2, eta):
        params = NetworkParams(F1=0.5, F2=0.5, beta=1.0, eta=eta)
        g1, _ = vector_field(params, s, (0.0, x2))
        assert g1 >= 0.0


def _random_positive_rates(values):
    rates = np.zeros((4, 4))
    it = iter(values)
    for i in range(4):
        for j in range(4):
            if i != j:
                rates[i, j] = next(it)
    return rates


class TestStationaryDistribution:
    def test_symmetric_chain_is_uniform(self):
        rates = np.ones((4, 4)) - np.eye(4)
        p = stationary_distribution(rates)
        assert np.allclose(p, 0.25, atol=1e-14)

    def test_star_chain(self):
        # modes 2,3,4 exchange only with mode 1 at unit rate; balance forces
        # p_s = p_1 for each leaf, hence the uniform law
        rates = np.zeros((4, 4))
        for leaf in (1, 2, 3):
            rates[0, leaf] = 1.0
            rates[leaf, 0] = 1.0
        p = stationary_distribution(rates)
        assert np.allclose(p, 0.25, atol=1e-12)

    def test_two_independent_sensors(self):
        # fail rate 1, repair rate 3 per sensor: down-probability 1/4 each
        alpha, gamma = 1.0, 3.0
        rates = np.array(
            [
                [0.0, alpha, alpha, 0.0],
                [gamma, 0.0, 0.0, alpha],
                [gamma, 0.0, 0.0, alpha],
                [0.0, gamma, gamma, 0.0],
            ]
        )
        p = stationary_distribution(rates)
        assert np.allclose(p, [9 / 16, 3 / 16, 3 / 16, 1 / 16], atol=1e-13)

    @given(values=st.lists(st.floats(0.05, 5.0), min_size=12, max_size=12))
    @settings(max_examples=60)
    def test_matches_eigenvector_and_balance(self, values):
        rates = _random_positive_rates(values)
        p = stationary_distribution(rates)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p >= 0.0)
        q = rates - np.diag(rates.sum(axis=1))
        assert np.abs(q.T @ p).max() < 1e-10
        # independent route: null eigenvector of the transposed generator
        w, v = np.linalg.eig(q.T)
        k = int(np.argmin(np.abs(w)))
        eig_p = np.real(v[:, k])
        eig_p = eig_p / eig_p.sum()
        assert np.allclose(p, eig_p, atol=1e-9)

    def test_reducible_chain_rejected(self):
        rates = np.zeros((4, 4))
        rates[0, 1] = rates[1, 0] = 1.0
        rates[2, 3] = rates[3, 2] = 1.0
        with pytest.raises(ErgodicityError):
            stationary_distribution(rates)

    def test_one_way_chain_rejected(self):
        rates = np.zeros((4, 4))
        rates[0, 1] = rates[1, 2] = rates[2, 3] = 1.0
        with pytest.raises(ErgodicityError):
            stationary_distribution(rates)


class TestRateMatrixValidation:
    def test_negative_rate_rejected(self):
        rates = np.ones((4, 4)) - np.eye(4)
        rates[0, 1] = -1.0
        with pytest.raises(ParameterError):
            validate_rate_matrix(rates)

    def test_nonzero_diagonal_rejected(self):
        rates = np.ones((4, 4))
        with pytest.raises(ParameterError):
            validate_rate_matrix(rates)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ParameterError):
            validate_rate_matrix(np.zeros((3, 3)))

    def test_reducibility_check_optional(self):
        validate_rate_matrix(np.zeros((4, 4)), require_irreducible=False)


class TestModeProbs:
    def test_normalizes_within_tolerance(self):
        p = validate_mode_probs([0.25, 0.25, 0.25, 0.25 + 5e-10])
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_bad_sum_rejected(self):
        with pytest.raises(ParameterError):
            validate_mode_probs([0.3, 0.3, 0.3, 0.3])

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            validate_mode_probs([-0.1, 0.4, 0.4, 0.3])


# routing sensitivities log-uniform over (0, 500], capacities including both ends
betas = st.floats(min_value=math.log(1e-3), max_value=math.log(500.0)).map(math.exp)
capacities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
thresholds = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def dirichlet(seed):
    return np.random.default_rng(seed).dirichlet(np.ones(4))


class TestDriftField:
    """The broadcasting kernel against the scalar routing and flow."""

    @staticmethod
    def scalar_mode_drift(params, x):
        out = []
        for s in (1, 2, 3, 4):
            mu1, mu2 = routing_fraction(params, s, x)
            out.append(max(params.eta * mu1 - flow(params, 1, x[0]), params.eta * mu2 - flow(params, 2, x[1])))
        return out

    @given(
        t1=thresholds,
        t2=thresholds,
        F1=capacities,
        beta=betas,
        eta=st.floats(0.0, 1.2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300)
    def test_matches_scalar_reference(self, t1, t2, F1, beta, eta, seed):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=eta)
        p = dirichlet(seed)
        field = drift_field(params, t1, t2)
        scalar = self.scalar_mode_drift(params, (t1, t2))
        assert np.allclose(field.mode_drift(eta), scalar, rtol=0.0, atol=1e-12)
        assert np.allclose(mode_drift_maxima(params, (t1, t2)), scalar, rtol=0.0, atol=1e-12)
        assert abs(field.averaged(eta, p) - sufficient_value(params, p, (t1, t2))) <= 1e-12
        for (g1, g2), s in zip(field.link_drift(eta), (1, 2, 3, 4)):
            assert np.allclose((g1, g2), vector_field(params, s, (t1, t2)), rtol=0.0, atol=1e-12)

    def test_broadcasts_over_a_grid(self):
        params = NetworkParams(F1=0.7, F2=0.3, beta=300.0, eta=0.6)
        p = np.array([0.4, 0.3, 0.2, 0.1])
        ts = np.linspace(0.0, 30.0, 7)
        grid = drift_field(params, ts[:, None], ts[None, :]).averaged(params.eta, p)
        assert grid.shape == (7, 7)
        for i, a in enumerate(ts):
            for j, b in enumerate(ts):
                assert abs(grid[i, j] - sufficient_value(params, p, (a, b))) <= 1e-12

    def test_no_even_split_at_steep_routing(self):
        # beta * theta far beyond exp's range: the share is 0 or 1, never 0.5
        params = NetworkParams(F1=0.5, F2=0.5, beta=500.0, eta=0.5)
        mu1, mu2 = drift_field(params, 20.0, 5.0).shares[0]
        assert mu1 == 0.0 and mu2 == 1.0


def old_rhs(params, s, x1, x2):
    """The simulator's right-hand side as it stood before the field moved to the model."""
    if s == 1:
        o1, o2 = x1, x2
    elif s == 2:
        o1, o2 = 0.0, x2
    elif s == 3:
        o1, o2 = x1, 0.0
    else:
        o1 = o2 = 0.0
    gap = params.beta * (o1 - o2)
    if gap >= 0.0:
        e = math.exp(-gap)
        mu1 = e / (1.0 + e)
    else:
        e = math.exp(gap)
        mu1 = 1.0 / (1.0 + e)
    eta = params.eta
    return (
        eta * mu1 - params.F1 * -math.expm1(-x1),
        eta * (1.0 - mu1) - params.F2 * -math.expm1(-x2),
    )


def old_routing(params, s, x):
    o1, o2 = ((x[0], x[1]), (0.0, x[1]), (x[0], 0.0), (0.0, 0.0))[s - 1]
    gap = params.beta * (o1 - o2)
    if gap >= 0.0:
        e = math.exp(-gap)
        mu1 = e / (1.0 + e)
    else:
        e = math.exp(gap)
        mu1 = 1.0 / (1.0 + e)
    return mu1, 1.0 - mu1


def old_flow(params, k, x_k):
    return (params.F1, params.F2)[k - 1] * -math.expm1(-x_k)


def old_drift_value(params, p, theta):
    t1, t2 = theta
    f1 = old_flow(params, 1, t1)
    f2 = old_flow(params, 2, t2)
    total = 0.0
    for s, ps in zip((1, 2, 3, 4), p):
        mu1, mu2 = old_routing(params, s, (t1, t2))
        total += ps * max(params.eta * mu1 - f1, params.eta * mu2 - f2)
    return float(total)


class TestScalarField:
    """The one scalar field is bit-identical to the formulas it replaced.

    Byte-identical trajectories and witness drifts depend on ``==`` here, not
    on closeness.
    """

    @given(
        x1=thresholds,
        x2=thresholds,
        s=modes,
        F1=capacities,
        beta=betas,
        eta=st.floats(0.0, 1.2),
    )
    @settings(max_examples=500)
    def test_field_equals_old_forms(self, x1, x2, s, F1, beta, eta):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=eta)
        g = _field(params, s, x1, x2)
        assert g == old_rhs(params, s, x1, x2)
        mu1, mu2 = old_routing(params, s, (x1, x2))
        assert g == (eta * mu1 - old_flow(params, 1, x1), eta * mu2 - old_flow(params, 2, x2))
        assert vector_field(params, s, (x1, x2)) == g
        assert routing_fraction(params, s, (x1, x2)) == (mu1, mu2)

    @given(
        t1=thresholds,
        t2=thresholds,
        F1=capacities,
        beta=betas,
        eta=st.floats(0.0, 1.2),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=500)
    def test_sufficient_value_equals_old_drift(self, t1, t2, F1, beta, eta, seed):
        params = NetworkParams(F1=F1, F2=1.0 - F1, beta=beta, eta=eta)
        raw = dirichlet(seed)
        p = validate_mode_probs(raw)
        expected = old_drift_value(params, p, (t1, t2))
        assert sufficient_value(params, raw, (t1, t2)) == expected
        assert _drift_value(params, p, (t1, t2)) == expected

    def test_vector_field_checks_its_inputs(self):
        with pytest.raises(ParameterError):
            vector_field(HALF, 5, (1.0, 1.0))
        with pytest.raises(ParameterError):
            vector_field(HALF, 1, (-0.5, 1.0))
