"""Per-layer numbers, measured from outside the package.

The layers are faultroute's modules: ``model``, ``stability``, ``bounds``,
``sim`` and ``cli``.  ``Tracer.install`` replaces each traced public function,
in every module namespace that holds it, with a wrapper that counts the call
and times it; ``OUTER`` functions also count the traced calls made inside
them, and ``COUNT_ONLY`` functions are not timed.  So
``stability.sufficient_search`` is counted whether ``throughput_bounds``
reaches it through ``stability``'s globals or ``hetero_witness`` through
``bounds``'.  Nothing in the package is edited; ``uninstall`` puts the
originals back.

Metrics come from the workload's own traced rounds where the workload calls
the function, and otherwise from ``layer_sweep``, a fixed set of calls that
touches every traced function once, so that every traced run reports every
metric.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

TRACED = {
    "model": ("validate_mode_probs", "stationary_distribution", "vector_field"),
    "stability": (
        "solve_congestion_floor",
        "sufficient_value",
        "sufficient_search",
        "stability_verdict",
        "throughput_bounds",
        "necessary_upper_bound",
        "lyapunov_certificate",
        "generator_value",
    ),
    "bounds": ("hetero_witness",),
    "sim": ("simulate", "stability_probe", "throughput_scan"),
    "cli": ("parse_config",),
}

# the configuration shown in the README's "Config file" section
README_CONFIG = {
    "F1": 0.5,
    "F2": 0.5,
    "beta": 1.0,
    "eta": 0.5,
    "probs": [0.25, 0.25, 0.25, 0.25],
    "sim": {
        "horizon": 1000.0,
        "step": 0.01,
        "seed": 7,
        "x0": [0.5, 0.5],
        "s0": 1,
        "sample_interval": 1.0,
        "divergence_cap": 1000.0,
    },
    "eta_grid": [0.3, 0.5, 0.7, 0.9, 1.05],
}


def _modules(fr):
    return (fr, fr.model, fr.stability, fr.bounds, fr.sim, fr.cli)


# called thousands of times per op and reported only as counts, so their
# wrappers skip the clock
COUNT_ONLY = ("model.validate_mode_probs", "stability.generator_value")

# functions whose calls into other traced functions are counted
OUTER = (
    "stability.sufficient_search",
    "stability.throughput_bounds",
    "stability.lyapunov_certificate",
    "bounds.hetero_witness",
    "sim.stability_probe",
)


class Tracer:
    """Call counts, inclusive times and nested call counts of traced functions."""

    def __init__(self):
        keys = [f"{layer}.{name}" for layer, names in TRACED.items() for name in names]
        self.calls = dict.fromkeys(keys, 0)
        self.ns = dict.fromkeys(keys, 0)
        self.within = Counter()  # (outer, inner) -> inner calls made while outer was open
        self.direct_witnesses = 0  # hetero_witness calls that needed no 2-D search
        self.sims = []  # (trajectory, sim config, called from a probe)
        self._probe_depth = 0
        self._saved = []

    def install(self, fr) -> None:
        for layer, names in TRACED.items():
            home = getattr(fr, layer)
            for name in names:
                original = getattr(home, name)
                key = f"{layer}.{name}"
                wrapper = self._wrap_outer(key, original) if key in OUTER else self._wrap(key, original)
                for module in _modules(fr):
                    if getattr(module, name, None) is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, key: str, fn):
        calls, ns = self.calls, self.ns
        clock = time.perf_counter_ns
        record_sims = key == "sim.simulate"
        if key in COUNT_ONLY:

            def counted(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ns[key] += clock() - t0
                calls[key] += 1
            if record_sims:
                cfg = args[2] if len(args) > 2 else kwargs["cfg"]
                self.sims.append((out, cfg, self._probe_depth > 0))
            return out

        return traced

    def _wrap_outer(self, key: str, fn):
        """Like ``_wrap``, and credits the traced calls made inside to ``key``."""
        calls, ns, within = self.calls, self.ns, self.within
        clock = time.perf_counter_ns
        probe = key == "sim.stability_probe"

        def traced(*args, **kwargs):
            before = dict(calls)
            self._probe_depth += probe
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                ns[key] += clock() - t0
                self._probe_depth -= probe
                for inner, n in calls.items():
                    if n != before[inner]:
                        within[key, inner] += n - before[inner]
                calls[key] += 1
            if key == "bounds.hetero_witness" and calls["stability.sufficient_search"] == before["stability.sufficient_search"]:
                self.direct_witnesses += 1
            return out

        return traced

    def sim_counts(self):
        """Total RK4 steps and jumps over traced ``simulate`` calls, and the
        steps taken inside ``stability_probe``."""
        steps = jumps = probe_steps = 0
        for traj, cfg, in_probe in self.sims:
            n = rk4_steps(traj, cfg)
            steps += n
            jumps += len(traj.jump_times)
            if in_probe:
                probe_steps += n
        return steps, jumps, probe_steps


def rk4_steps(traj, cfg) -> int:
    """RK4 steps ``simulate`` took, rebuilt from the jump log.

    The integrator stops at every jump, sample time and the horizon, and
    covers each piece in steps of ``cfg.step`` with a shortened last one.
    """
    end = traj.elapsed
    samples = cfg.sample_interval * np.arange(1, int(cfg.horizon / cfg.sample_interval) + 1)
    events = np.concatenate([[0.0], traj.jump_times, samples, [cfg.horizon]])
    events = np.unique(np.append(events[events < end], end))
    return int(np.ceil(np.diff(events) / cfg.step - 1e-9).sum())


def layer_sweep(fr, tracer: Tracer, workdir: Path) -> tuple[float, list[str]]:
    """Touch every traced function once; return the median untraced time of
    an in-process ``faultroute check`` on the README config, and problems."""
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "readme_config.json"
    path.write_text(json.dumps(README_CONFIG, indent=2) + "\n", encoding="utf-8")
    argv = ["--config", str(path), "check"]
    problems = []

    def check() -> float:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = fr.cli.main(argv)
        elapsed = time.perf_counter() - t0
        verdict = json.loads(out.getvalue())["classification"]
        if code != 0 or verdict != "certified-stable":
            problems.append(f"faultroute check on the README config: exit {code}, {verdict}")
        return elapsed

    check_s = statistics.median(check() for _ in range(3))

    tracer.install(fr)
    try:
        check()
        raw = {k: v for k, v in README_CONFIG.items() if k != "probs"}
        raw["rates"] = [[0.0 if i == j else 1.0 for j in range(4)] for i in range(4)]
        raw["sim"] = dict(raw["sim"], horizon=20.0)
        cfg = fr.cli.parse_config(raw)
        params, probs = cfg.params, cfg.probs
        verdict = fr.stability_verdict(params, probs)
        fr.lyapunov_certificate(params, probs, cfg.rates, verdict.witness)
        gap = fr.NetworkParams(0.6, 0.4, 1.0, 0.0)
        fr.necessary_upper_bound(gap, probs)
        fr.hetero_witness(gap, probs, eta=0.9 * fr.hetero_lower_bound(0.2, 0.25, 0.25))
        for x1 in np.linspace(0.0, 3.0, 16):
            for x2 in np.linspace(0.0, 3.0, 16):
                for s in (1, 2, 3, 4):
                    fr.vector_field(params, s, (float(x1), float(x2)))
        fr.simulate(params, cfg.rates, cfg.sim)
        fr.stability_probe(params, cfg.rates, cfg.sim, replications=3)
    finally:
        tracer.uninstall()
    return check_s, problems


# (metric, traced function, scale): mean inclusive time per call
PER_CALL = (
    ("cli.parse_config_us", "cli.parse_config", 1e6),
    ("model.stationary_us", "model.stationary_distribution", 1e6),
    ("model.vector_field_us", "model.vector_field", 1e6),
    ("stability.drift_point_us", "stability.sufficient_value", 1e6),
    ("stability.search_ms", "stability.sufficient_search", 1e3),
    ("stability.verdict_ms", "stability.stability_verdict", 1e3),
    ("stability.bounds_ms", "stability.throughput_bounds", 1e3),
    ("stability.certificate_ms", "stability.lyapunov_certificate", 1e3),
    ("stability.floor_us", "stability.solve_congestion_floor", 1e6),
    ("stability.necessary_upper_ms", "stability.necessary_upper_bound", 1e3),
    ("bounds.witness_ms", "bounds.hetero_witness", 1e3),
    ("sim.simulate_ms", "sim.simulate", 1e3),
    ("sim.probe_ms", "sim.stability_probe", 1e3),
)

# (metric, outer function, inner function): inner calls per outer call
PER_OUTER = (
    ("model.validate_calls_per_bounds", "stability.throughput_bounds", "model.validate_mode_probs"),
    ("stability.drift_evals_per_search", "stability.sufficient_search", "stability.sufficient_value"),
    ("stability.searches_per_bounds", "stability.throughput_bounds", "stability.sufficient_search"),
    ("stability.generator_evals_per_certificate", "stability.lyapunov_certificate", "stability.generator_value"),
    ("bounds.drift_evals_per_witness", "bounds.hetero_witness", "stability.sufficient_value"),
)


def numbers(t: Tracer) -> dict[str, float]:
    """The per-layer metrics a tracer saw calls for."""
    out = {}
    for metric, key, scale in PER_CALL:
        if t.calls[key]:
            out[metric] = t.ns[key] / t.calls[key] * scale / 1e9
    for metric, outer, inner in PER_OUTER:
        if t.calls[outer]:
            out[metric] = t.within[outer, inner] / t.calls[outer]
    if t.calls["bounds.hetero_witness"]:
        out["bounds.witness_direct_share"] = t.direct_witnesses / t.calls["bounds.hetero_witness"]
    if t.sims:
        steps, jumps, probe_steps = t.sim_counts()
        out["sim.steps_per_op"] = steps / len(t.sims)
        out["sim.jumps_per_op"] = jumps / len(t.sims)
        out["sim.rk4_step_us"] = t.ns["sim.simulate"] / steps / 1e3
        if probe_steps:
            out["sim.lane_steps_per_s"] = probe_steps / (t.ns["sim.stability_probe"] / 1e9)
    return out


def layer_metrics(work: Tracer, sweep: Tracer, cli_check_s: float) -> dict[str, float]:
    """Per-layer metrics, each from the workload's calls when it made any,
    else from the layer sweep."""
    return {**numbers(sweep), **numbers(work), "cli.check_ms": cli_check_s * 1e3}
