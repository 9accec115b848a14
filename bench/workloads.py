"""The four workloads: seeded inputs, the timed operation, and its checks.

Every workload turns ``--seed`` into a list of raw experiment configs, the
JSON objects a ``faultroute --config`` file holds, and parses them with
``cli.parse_config`` during set-up.  An operation (op) is one timed unit of
user work on one parsed config.  A run repeats whole rounds of the same ops,
so the share of failed ops is the same in every run.

Checks run after the timed phase on the first round's outputs.  They compare
against ``reference`` (which does not use the package) or against properties
the method must have, never against stored outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

import reference as ref

BISECT_TOL = 1e-4  # bracket width of the package's demand bisections
CLOSED_FORM_TOL = 5e-3  # criterion 4's tolerance on the equal-capacity bound
REPLAY_TOL = 5e-8  # RK4 at step 0.01 against DOP853 at rtol 1e-12
SCAN_GRID = [round(0.1 * k, 10) for k in range(1, 12)]  # the CLI's default demand grid


@dataclass
class Item:
    """One op's input: the raw config, its parsed form, and op arguments."""

    raw: dict
    args: dict = field(default_factory=dict)
    cfg: object = None
    expected_failure: str | None = None  # why this op fails today, if it does


def strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniforms on [0, 1), one in each of ``n`` equal strata, in random order.

    Stratified draws keep the mix of cheap and expensive inputs nearly the
    same from seed to seed, so a run's total time varies little with the seed.
    """
    return (rng.permutation(n) + rng.random(n)) / n


def log_uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def uniform_rates(total: float = 0.75) -> list:
    """Rates entering each mode equally often: uniform stationary law."""
    r = total / 3.0
    return [[0.0 if i == j else r for j in range(4)] for i in range(4)]


def independent_sensor_rates(p_fail: float, total_rate: float = 2.0) -> list:
    """Joint chain of two sensors that each fail at ``p * total`` and recover at
    ``(1 - p) * total``, the chain ``faultroute.product_chain`` builds."""
    a, g = p_fail * total_rate, (1.0 - p_fail) * total_rate
    return [[0.0, a, a, 0.0], [g, 0.0, 0.0, a], [g, 0.0, 0.0, a], [0.0, g, g, 0.0]]


def _net(F1: float, beta: float, eta: float) -> dict:
    return {"F1": float(F1), "F2": 1.0 - float(F1), "beta": float(beta), "eta": float(eta)}


def _params(cfg) -> tuple[float, float, float, float]:
    p = cfg.params
    return p.F1, p.F2, p.beta, p.eta


def lower_bound_problems(fr, cfg, bounds) -> list[str]:
    """Check that a positive certified lower bound rests on a true witness.

    ``throughput_bounds`` searches again at ``lower - tol`` for the witness it
    returns.  The search is not monotone in demand, so on rare inputs that
    second search finds nothing although the bisection's search at ``lower``
    succeeded (see CHANGES.md).  Then the bound is checked through a witness
    searched for at ``lower`` itself.
    """
    lo = bounds.lower
    if lo == 0.0:
        return []
    F1, F2, beta, _ = _params(cfg)
    at, w = max(0.0, lo - BISECT_TOL), bounds.lower_witness
    if w is None:
        at, w = lo, fr.sufficient_search(replace(cfg.params, eta=lo), cfg.probs)
    d = ref.drift(F1, F2, beta, at, cfg.probs, w.theta) if w else math.nan
    if not d < -ref.STRICT_DRIFT:
        return [f"lower bound {lo}: witness at demand {at:.6f} re-evaluates to {d:+.4g}"]
    return []


# certify ---------------------------------------------------------------------

# ROADMAP item 1's false certificate: the grid search's z**beta underflows at
# beta ~ 63.6, so the reported witness drift is negative while direct
# evaluation at the same theta is +0.0456.
REPRO = {
    "F1": 0.63309,
    "F2": 0.36691,
    "beta": 63.59997,
    "eta": 0.68859,
    "probs": [0.696, 0.129, 0.011, 0.164],  # normalised in Certify.inputs
}


class Certify:
    """The ``faultroute check`` path plus a certificate for each stable verdict."""

    name = "certify"
    n_random = 40

    def inputs(self, seed: int) -> list[Item]:
        rng = np.random.default_rng([seed, 1])
        n = self.n_random
        betas = log_uniform(strata(rng, n), 0.2, 30.0)
        etas = strata(rng, n)
        items = []
        for i in range(n):
            F1 = 0.5 if i % 2 == 0 else float(rng.uniform(0.1, 0.9))
            probs = rng.dirichlet(np.ones(4))
            raw = _net(F1, betas[i], etas[i]) | {"probs": [float(v) for v in probs]}
            items.append(Item(raw))
        total = sum(REPRO["probs"])
        repro = dict(REPRO, probs=[v / total for v in REPRO["probs"]])
        items.append(Item(repro, expected_failure="false certificate at beta > 33 (ROADMAP item 1)"))
        return items

    def op(self, fr, item: Item):
        cfg = item.cfg
        verdict = fr.stability_verdict(cfg.params, cfg.probs)
        bounds = fr.throughput_bounds(cfg.params, cfg.probs)
        cert = None
        if verdict.classification == "certified-stable":
            cert = fr.lyapunov_certificate(cfg.params, cfg.probs, cfg.rates, verdict.witness)
        return verdict, bounds, cert

    def fingerprint(self, out):
        verdict, bounds, cert = out
        w = verdict.witness
        return (
            verdict.classification,
            w.theta if w else None,
            bounds.lower,
            bounds.upper,
            None if cert is None else (cert.c, cert.d, tuple(cert.a)),
        )

    def check(self, fr, items: list[Item], outputs: list) -> dict[int, list[str]]:
        return {
            i: [] if out is None else self._check_one(fr, i, item, out)
            for i, (item, out) in enumerate(zip(items, outputs))
        }

    def _check_one(self, fr, i: int, item: Item, out) -> list[str]:
        F1, F2, beta, eta = _params(item.cfg)
        probs = item.cfg.probs
        verdict, bounds, cert = out
        bad = []
        cls = verdict.classification
        if cls == "certified-stable":
            d = ref.drift(F1, F2, beta, eta, probs, verdict.witness.theta)
            if not d < -ref.STRICT_DRIFT:
                bad.append(f"stable witness {verdict.witness.theta} re-evaluates to {d:+.4g}")
        elif cls == "certified-unstable":
            if ref.necessary_holds(F1, F2, beta, eta, probs):
                bad.append("certified-unstable but every necessary inequality holds at the reference floors")
        elif cls == "indeterminate":
            if not ref.necessary_holds(F1, F2, beta, eta, probs):
                bad.append("indeterminate but a necessary inequality fails at the reference floors")
        else:
            bad.append(f"unknown classification {cls!r}")

        lo, up = bounds.lower, bounds.upper
        if not 0.0 <= lo <= up <= 1.0:
            bad.append(f"bounds out of order: lower {lo}, upper {up}")
        bad += lower_bound_problems(fr, item.cfg, bounds)
        if ref.necessary_holds(F1, F2, beta, up, probs):
            bad.append(f"necessary test holds at the upper bound {up}")
        if up - BISECT_TOL > 0.0 and not ref.necessary_holds(F1, F2, beta, up - BISECT_TOL, probs):
            bad.append(f"necessary test already fails below the upper bound {up}")
        if F1 == F2:
            closed = ref.homogeneous_bound(probs[1], probs[2])
            if lo < closed - CLOSED_FORM_TOL:
                bad.append(f"equal-capacity lower {lo:.5f} below closed form {closed:.5f}")

        if cert is not None:
            bad += self._check_certificate(i, item, cert)
        return bad

    def _check_certificate(self, i: int, item: Item, cert) -> list[str]:
        F1, F2, beta, eta = _params(item.cfg)
        if not cert.c > 0.0 or not math.isfinite(cert.d):
            return [f"certificate has c={cert.c}, d={cert.d}"]
        theta = cert.theta
        rng = np.random.default_rng([i, 7])
        # uniform points near and above the thresholds, off the 65-point grid
        hi = (theta[0] + 5.0, theta[1] + 5.0)
        worst = -math.inf
        for s in (1, 2, 3, 4):
            for x1, x2 in rng.random((64, 2)) * hi:
                lv = ref.generator(F1, F2, beta, eta, item.cfg.rates, cert.a, theta, s, x1, x2)
                worst = max(worst, lv + cert.c * (x1 + x2) - cert.d)
        if worst > 1e-9 * (1.0 + abs(cert.d)):
            return [f"certificate LV exceeds -c|x| + d by {worst:.3g} at a sample point"]
        return []


# curves ----------------------------------------------------------------------

WITNESS_FRACTION = 0.9  # witnesses are built at this share of the closed-form bound


class Curves:
    """The paper's three parameter studies at a few routing sensitivities."""

    name = "curves"
    n_betas = 3
    n_points = 15

    def inputs(self, seed: int) -> list[Item]:
        rng = np.random.default_rng([seed, 2])
        betas = log_uniform(strata(rng, self.n_betas), 0.5, 5.0)
        items = []
        for beta in sorted(betas):
            for kind, lo, hi, pinned in (("rate", 0.0, 1.0, 0.5), ("corr", -0.5, 0.5, None), ("gap", 0.0, 0.9, None)):
                for value in self._points(rng, lo, hi, pinned):
                    if kind == "rate":
                        raw = _net(0.5, beta, 0.0) | {"failure": {"p": value, "rho": 0.0}}
                    elif kind == "corr":
                        raw = _net(0.5, beta, 0.0) | {"failure": {"p": 0.5, "rho": value}}
                    else:
                        raw = _net((1.0 + value) / 2.0, beta, 0.0) | {"probs": [0.25] * 4}
                    items.append(Item(raw, {"kind": kind, "value": value}))
        return items

    def _points(self, rng, lo: float, hi: float, pinned: float | None) -> list[float]:
        """Ends of the range, the pinned point, and jittered interior points."""
        base = np.linspace(lo, hi, self.n_points)
        step = base[1] - base[0]
        pts = base + rng.uniform(-0.4, 0.4, self.n_points) * step
        pts[0], pts[-1] = lo, hi
        if pinned is not None:
            pts[np.argmin(np.abs(base - pinned))] = pinned
        return [float(v) for v in pts]

    def op(self, fr, item: Item):
        kind, value = item.args["kind"], item.args["value"]
        if kind == "rate":
            closed = fr.failure_rate_bound(value)
        elif kind == "corr":
            closed = fr.correlation_bound(0.5, value)
        else:
            closed = fr.hetero_lower_bound(value, 0.25, 0.25)
        cfg = item.cfg
        upper = fr.necessary_upper_bound(cfg.params, cfg.probs)
        witness = fr.hetero_witness(cfg.params, cfg.probs, eta=WITNESS_FRACTION * closed)
        return closed, upper, witness

    def fingerprint(self, out):
        closed, upper, witness = out
        return closed, upper, witness.theta, witness.drift

    def check(self, fr, items: list[Item], outputs: list) -> dict[int, list[str]]:
        problems = {i: [] for i in range(len(items))}
        sweeps: dict[tuple, list[int]] = {}
        for i, (item, out) in enumerate(zip(items, outputs)):
            F1, F2, beta, _ = _params(item.cfg)
            probs = item.cfg.probs
            kind, value = item.args["kind"], item.args["value"]
            sweeps.setdefault((kind, beta), []).append(i)
            if out is None:
                continue
            closed, upper, witness = out
            if kind == "rate":
                expect = ref.failure_rate_bound(value)
            elif kind == "corr":
                expect = ref.correlation_bound(0.5, value)
            else:
                expect = ref.hetero_bound(value, 0.25, 0.25)
            if abs(closed - expect) > 1e-12:
                problems[i].append(f"closed form {closed!r} differs from reference {expect!r}")
            d = ref.drift(F1, F2, beta, WITNESS_FRACTION * closed, probs, witness.theta)
            if not d <= 0.0:
                problems[i].append(f"witness {witness.theta} re-evaluates to {d:+.4g}")
            if not upper >= closed:
                problems[i].append(f"numeric upper {upper} below closed-form lower {closed}")
            expect_up = ref.necessary_upper(F1, F2, beta, probs)
            if not -1e-9 <= upper - expect_up <= BISECT_TOL + 1e-9:
                problems[i].append(f"necessary upper {upper} is not within the bracket of reference {expect_up}")

        for (kind, _beta), idx in sweeps.items():
            if any(outputs[i] is None for i in idx):
                continue
            xs = [items[i].args["value"] for i in idx]
            ys = [outputs[i][0] for i in idx]
            if kind == "rate":
                ok = min(ys) == ys[xs.index(0.5)]
                what = "failure-rate bound is not lowest at p = 0.5"
            elif kind == "corr":
                ok = all(b >= a for a, b in zip(ys, ys[1:]))
                what = "bound does not rise with correlation"
            else:
                ok = all(b <= a for a, b in zip(ys, ys[1:]))
                what = "bound rises with the capacity gap"
            if not ok:
                for i in idx:
                    problems[i].append(what)
        return problems


# scan ------------------------------------------------------------------------

SCAN_SIM = {"horizon": 300.0, "step": 0.25, "sample_interval": 1.0}
SCAN_NETWORKS = (
    ("uniform", _net(0.5, 1.0, 0.5) | {"rates": uniform_rates()}),
    ("unequal", _net(0.65, 1.0, 0.5) | {"rates": uniform_rates()}),
    ("correlated", _net(0.5, 1.0, 0.5) | {"rates": independent_sensor_rates(0.3)}),
    ("steep", _net(0.5, 10.0, 0.5) | {"rates": uniform_rates()}),
)


class Scan:
    """``throughput_scan`` on the default grid, 3 replications: 33 lanes per op."""

    name = "scan"
    seeds_per_network = 15

    def inputs(self, seed: int) -> list[Item]:
        rng = np.random.default_rng([seed, 3])
        items = []
        for _ in range(self.seeds_per_network):
            for label, net in SCAN_NETWORKS:
                sim = SCAN_SIM | {"seed": int(rng.integers(0, 2**31))}
                items.append(Item(net | {"sim": sim}, {"network": label}))
        return items

    def op(self, fr, item: Item):
        cfg = item.cfg
        return fr.throughput_scan(cfg.params, cfg.rates, cfg.sim, SCAN_GRID, replications=3)

    def fingerprint(self, out):
        return tuple((p.verdict, p.median_avg_slope, p.median_growth_slope) for p in out.probes)

    def check(self, fr, items: list[Item], outputs: list) -> dict[int, list[str]]:
        problems = {i: [] for i in range(len(items))}
        certified = {}
        for i, (item, out) in enumerate(zip(items, outputs)):
            label = item.args["network"]
            if label not in certified:
                certified[label] = self._certified_interval(fr, item)
            lower, upper, why = certified[label]
            if why:
                problems[i].append(why)
                continue
            if out is None:
                continue
            for eta, probe in zip(out.etas, out.probes):
                if eta <= lower and probe.verdict == "empirically-unstable":
                    problems[i].append(f"{label}: demand {eta} <= certified lower {lower:.4f} probed unstable")
                if eta > upper and probe.verdict == "empirically-stable":
                    problems[i].append(f"{label}: demand {eta} > certified upper {upper:.4f} probed stable")
                if len(probe.run_stats) != 3:
                    problems[i].append(f"{label}: {len(probe.run_stats)} replications at {eta}")
                for run in probe.run_stats:
                    if not run["diverged"] and abs(run["elapsed"] - item.cfg.sim.horizon) > 1e-9:
                        problems[i].append(f"{label}: run at {eta} ended at {run['elapsed']}")
        return problems

    @staticmethod
    def _certified_interval(fr, item: Item):
        """The package's certified interval, its witness re-checked by the reference."""
        F1, F2, beta, _ = _params(item.cfg)
        probs = item.cfg.probs
        tb = fr.throughput_bounds(item.cfg.params, probs)
        why = "; ".join(lower_bound_problems(fr, item.cfg, tb)) or None
        if ref.necessary_holds(F1, F2, beta, tb.upper, probs):
            why = f"necessary test holds at certified upper {tb.upper}"
        return tb.lower, tb.upper, why


# trajectory ------------------------------------------------------------------

TRAJ_SIM = {"horizon": 60.0, "step": 0.01, "sample_interval": 1.0}


class Trajectory:
    """Independent single-lane ``simulate`` calls on random networks."""

    name = "trajectory"
    n_ops = 80

    def inputs(self, seed: int) -> list[Item]:
        rng = np.random.default_rng([seed, 4])
        n = self.n_ops
        betas = log_uniform(strata(rng, n), 0.5, 10.0)
        etas = 0.1 + strata(rng, n)
        items = []
        for i in range(n):
            rates = rng.uniform(0.05, 0.5, (4, 4))
            np.fill_diagonal(rates, 0.0)
            sim = TRAJ_SIM | {"seed": int(rng.integers(0, 2**31)), "s0": int(rng.integers(1, 5))}
            raw = _net(rng.uniform(0.2, 0.8), betas[i], etas[i]) | {
                "rates": rates.tolist(),
                "sim": sim,
            }
            items.append(Item(raw))
        return items

    def op(self, fr, item: Item):
        cfg = item.cfg
        return fr.simulate(cfg.params, cfg.rates, cfg.sim)

    def fingerprint(self, out):
        return out.x1.tobytes(), out.x2.tobytes(), out.jump_times.tobytes(), out.elapsed

    def check(self, fr, items: list[Item], outputs: list) -> dict[int, list[str]]:
        return {
            i: [] if traj is None else self._check_one(item, traj)
            for i, (item, traj) in enumerate(zip(items, outputs))
        }

    @staticmethod
    def _check_one(item: Item, traj) -> list[str]:
        F1, F2, beta, eta = _params(item.cfg)
        sim = item.cfg.sim
        bad = []
        xs = np.stack([traj.x1, traj.x2], axis=1)
        if not (np.all(np.isfinite(xs)) and np.all(xs >= 0.0) and np.all(np.isfinite(traj.avg_abs))):
            return ["densities or running averages are negative or not finite"]
        x0 = (ref.floor(F1, beta, eta), ref.floor(F2, beta, eta))
        if not np.allclose(xs[0], x0, rtol=0.0, atol=1e-9):
            bad.append(f"start {xs[0]} is not the congestion floors {x0}")
        if traj.diverged:
            if not xs[-1].sum() > sim.divergence_cap:
                bad.append("flagged diverged below the divergence cap")
        elif abs(traj.elapsed - sim.horizon) > 1e-9:
            bad.append(f"run ended at {traj.elapsed}, not at the horizon {sim.horizon}")
        n_before = np.searchsorted(traj.jump_times, traj.t, side="left")
        modes = np.concatenate([[sim.s0], traj.jump_modes])[n_before]
        if not np.array_equal(modes, traj.mode):
            bad.append("sampled modes disagree with the jump log")
        exact = ref.replay(F1, F2, beta, eta, x0, sim.s0, traj.jump_times, traj.jump_modes, traj.elapsed, traj.t)
        err = float(np.abs(exact - xs).max())
        if not err <= REPLAY_TOL:
            bad.append(f"samples differ from the exact replay by {err:.3g}")
        return bad


WORKLOADS = {w.name: w for w in (Certify(), Curves(), Scan(), Trajectory())}
