"""Self-tests of the benchmark's reference computations.

    python3 -m pytest -q bench/test_reference.py

Each reference is checked against an independent fact (a closed-form
solution, a known value, a finite difference) and against the package on
ordinary inputs, so that a disagreement during a benchmark run points at the
package, not at the reference.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import faultroute as fr  # noqa: E402
import reference as ref  # noqa: E402

REPRO = fr.NetworkParams(0.63309, 0.36691, 63.59997, 0.68859)
REPRO_PROBS = np.array([0.696, 0.129, 0.011, 0.164])
REPRO_THETA = (10.830249482625259, 20.72326583694641)  # the witness the grid search returns


def random_networks(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        F1 = float(rng.uniform(0.0, 1.0))
        beta = float(np.exp(rng.uniform(math.log(0.2), math.log(30.0))))
        eta = float(rng.uniform(0.0, 1.1))
        yield fr.NetworkParams(F1, 1.0 - F1, beta, eta), rng.dirichlet(np.ones(4)), rng


def test_drift_agrees_with_sufficient_value_on_ordinary_inputs():
    for params, probs, rng in random_networks(300, 1):
        theta = tuple(rng.uniform(0.0, 15.0, 2))
        expect = fr.sufficient_value(params, probs, theta)
        got = ref.drift(params.F1, params.F2, params.beta, params.eta, probs, theta)
        assert got == pytest.approx(expect, abs=1e-12)


def test_drift_disagrees_with_the_searched_witness_on_the_roadmap_repro():
    probs = REPRO_PROBS / REPRO_PROBS.sum()
    got = ref.drift(REPRO.F1, REPRO.F2, REPRO.beta, REPRO.eta, probs, REPRO_THETA)
    # the grid search reports drift -0.0129 at this theta: its z**beta underflows
    assert got == pytest.approx(0.0456, abs=5e-4)
    assert got > 0.0
    # the scalar path evaluates the same theta correctly
    assert got == pytest.approx(fr.sufficient_value(REPRO, probs, REPRO_THETA), abs=1e-12)


def test_generator_is_the_time_derivative_of_v():
    """Without mode jumps, LV is dV/dt along the flow wherever both links are
    strictly above or below their thresholds."""
    F1, F2, beta, eta = 0.6, 0.4, 2.0, 0.9
    theta = (0.7, 0.4)
    a = np.array([1.0, 0.3, -0.2, 0.5])
    still = np.zeros((4, 4))

    def v(s, x1, x2):
        w = max(x1 - theta[0], 0.0) + max(x2 - theta[1], 0.0)
        return 0.5 * w * w + a[s - 1] * w

    rng = np.random.default_rng(3)
    for _ in range(200):
        s = int(rng.integers(1, 5))
        x1, x2 = rng.uniform(0.0, 3.0, 2)
        if min(abs(x1 - theta[0]), abs(x2 - theta[1])) < 1e-3:
            continue
        g1, g2 = ref.field(F1, F2, beta, eta, s, x1, x2)
        h = 1e-6
        fd = (v(s, x1 + h * g1, x2 + h * g2) - v(s, x1 - h * g1, x2 - h * g2)) / (2 * h)
        assert ref.generator(F1, F2, beta, eta, still, a, theta, s, x1, x2) == pytest.approx(fd, abs=1e-6)


def test_generator_agrees_with_the_package():
    for params, probs, rng in random_networks(50, 2):
        rates = rng.uniform(0.0, 2.0, (4, 4))
        np.fill_diagonal(rates, 0.0)
        a = rng.normal(size=4)
        theta = tuple(rng.uniform(0.0, 3.0, 2))
        for s in (1, 2, 3, 4):
            x = tuple(rng.uniform(0.0, 6.0, 2))
            expect = fr.generator_value(params, rates, a, theta, s, x)
            got = ref.generator(params.F1, params.F2, params.beta, params.eta, rates, a, theta, s, *x)
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_closed_forms():
    assert ref.failure_rate_bound(0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert ref.failure_rate_bound(0.0) == 1.0
    for rho in np.linspace(-0.5, 0.5, 11):
        assert ref.correlation_bound(0.5, rho) == pytest.approx(1.0 / (1.5 - rho), abs=1e-15)
    for dF in np.linspace(0.0, 1.0, 21):
        expect = min(4.0 / 3.0 * (1.0 - dF), 2.0 / 3.0 * (1.0 - 0.25 * dF))
        assert ref.hetero_bound(dF, 0.25, 0.25) == pytest.approx(expect, abs=1e-15)
    rng = np.random.default_rng(4)
    for _ in range(200):
        p, dF = rng.random(2)
        rho = rng.uniform(-p, 1.0 - p)
        p1 = rng.random()
        p2 = 0.5 * (1.0 - p1) * rng.random()
        assert ref.correlation_bound(p, 0.0) == ref.failure_rate_bound(p)
        assert ref.hetero_bound(0.0, p1, p2) == pytest.approx(ref.homogeneous_bound(p2, p2), abs=1e-15)
        assert ref.failure_rate_bound(p) == pytest.approx(fr.failure_rate_bound(p), abs=1e-12)
        if 1.0 - 2.0 * p * (1.0 - p - rho) - p * (p + rho) >= 0.0:  # (p, rho) admissible
            assert ref.correlation_bound(p, rho) == pytest.approx(fr.correlation_bound(p, rho), abs=1e-12)
        assert ref.hetero_bound(dF, p1, p2) == pytest.approx(fr.hetero_lower_bound(dF, p1, p2), abs=1e-12)


def test_floor_solves_its_balance():
    x = ref.floor(0.5, 1.0, 0.8)
    e = math.exp(-x)
    assert x == pytest.approx(0.732668, abs=1e-5)  # criterion 3
    assert abs(0.8 * e / (1.0 + e) - 0.5 * (1.0 - e)) < 1e-14
    assert ref.floor(0.5, 1.0, 0.0) == 0.0
    assert ref.floor(0.0, 1.0, 0.5) == math.inf
    for params, _, _ in random_networks(100, 5):
        expect = fr.solve_congestion_floor(params, 1)
        assert ref.floor(params.F1, params.beta, params.eta) == pytest.approx(expect, abs=1e-10)


def test_necessary_upper_sits_in_the_package_bracket():
    for params, probs, _ in random_networks(40, 6):
        expect = fr.necessary_upper_bound(params, probs)
        got = ref.necessary_upper(params.F1, params.F2, params.beta, probs)
        assert expect - 1e-4 - 1e-9 <= got <= expect + 1e-9


def test_replay_matches_the_exact_solution_in_a_frozen_mode():
    """In mode 4 each link sees half the demand: with a = eta/2,
    exp(x(t)) = (exp(x0) + F/(a-F)) * exp((a-F) t) - F/(a-F)."""
    F1, F2, beta, eta = 0.7, 0.3, 3.0, 0.9
    x0 = (0.2, 1.5)
    times = np.linspace(0.0, 20.0, 41)
    got = ref.replay(F1, F2, beta, eta, x0, 4, [], [], 20.0, times)
    a = eta / 2.0
    for k, (F, start) in enumerate(zip((F1, F2), x0)):
        c = F / (a - F)
        exact = np.log((math.exp(start) + c) * np.exp((a - F) * times) - c)
        assert np.abs(got[:, k] - exact).max() < 1e-10


def test_replay_matches_simulate():
    params = fr.NetworkParams(0.55, 0.45, 2.0, 0.8)
    rates = np.full((4, 4), 0.4) - 0.4 * np.eye(4)
    traj = fr.simulate(params, rates, fr.SimConfig(horizon=30.0, step=0.01, seed=3))
    assert len(traj.jump_times) > 5
    x0 = (traj.x1[0], traj.x2[0])
    got = ref.replay(0.55, 0.45, 2.0, 0.8, x0, 1, traj.jump_times, traj.jump_modes, traj.elapsed, traj.t)
    assert np.abs(got - np.stack([traj.x1, traj.x2], axis=1)).max() < 5e-8
