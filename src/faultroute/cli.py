"""Command-line front end: verdicts, bounds, bound curves, and simulation runs.

Subcommands
-----------
check      print the stability verdict JSON; exit 0 stable / 2 unstable /
           3 indeterminate / 1 on input errors
bounds     print the certified-demand interval JSON with closed-form
           annotations where applicable
figure     emit bound-curve CSVs (homo-rate | homo-corr | hetero)
simulate   run one trajectory, write CSV plus a metadata sidecar
scan       probe a demand grid with the simulator, write the verdict table

The experiment configuration is a JSON object holding the network parameters
and exactly one mode-chain description (``rates`` | ``failure`` | ``probs``);
see the README for a complete example.  Data files never contain timestamps;
each invocation writes a ``metadata.json`` carrying the config echo, seeds,
and wall time.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .bounds import (
    FailureModel,
    capacity_gap_curves,
    correlation_curve,
    failure_rate_curve,
    hetero_lower_bound,
    homogeneous_lower_bound,
    rates_from_probs,
)
from .errors import ParameterError
from .model import NetworkParams, stationary_distribution, validate_mode_probs, validate_rate_matrix
from .sim import GENERATOR_NAME, SimConfig, Trajectory, simulate, throughput_scan
from .stability import necessary_upper_bound, stability_verdict, throughput_bounds

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSTABLE = 2
EXIT_INDETERMINATE = 3

CURVE_POINTS = 101  # rows per figure CSV
_SIM_TYPES = get_type_hints(SimConfig)

_CLASSIFICATION_EXIT = {
    "certified-stable": EXIT_OK,
    "certified-unstable": EXIT_UNSTABLE,
    "indeterminate": EXIT_INDETERMINATE,
}


@dataclass(frozen=True)
class ExperimentConfig:
    params: NetworkParams
    chain_kind: str  # rates | failure | probs
    rates: np.ndarray  # simulation chain (constructed for failure/probs)
    probs: np.ndarray
    failure: FailureModel | None
    sim: SimConfig | None
    eta_grid: list[float] | None

    def to_dict(self) -> dict:
        out = {
            "F1": self.params.F1,
            "F2": self.params.F2,
            "beta": self.params.beta,
            "eta": self.params.eta,
        }
        if self.chain_kind == "rates":
            out["rates"] = [[float(v) for v in row] for row in self.rates]
        elif self.chain_kind == "failure":
            out["failure"] = {"p": self.failure.p_fail, "rho": self.failure.rho}
        else:
            out["probs"] = [float(v) for v in self.probs]
        if self.sim is not None:
            out["sim"] = asdict(self.sim)
            if self.sim.x0 is not None:
                out["sim"]["x0"] = list(self.sim.x0)
        if self.eta_grid is not None:
            out["eta_grid"] = self.eta_grid
        return out


def parse_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    """Build a validated experiment from a raw config mapping."""
    try:
        params = NetworkParams(
            F1=float(raw["F1"]), F2=float(raw["F2"]), beta=float(raw["beta"]), eta=float(raw["eta"])
        )
    except KeyError as exc:
        raise ParameterError(f"config is missing required key {exc}") from exc

    chain_keys = [k for k in ("rates", "failure", "probs") if k in raw]
    if len(chain_keys) != 1:
        raise ParameterError(
            f"config must contain exactly one of 'rates', 'failure', 'probs'; got {chain_keys or 'none'}"
        )
    kind = chain_keys[0]
    failure = None
    if kind == "rates":
        rates = validate_rate_matrix(raw["rates"], require_irreducible=True)
        probs = stationary_distribution(rates)
    elif kind == "failure":
        fm = raw["failure"]
        failure = FailureModel(float(fm["p"]), float(fm.get("rho", 0.0)))
        probs = failure.mode_probs()
        rates = rates_from_probs(probs)
    else:
        probs = validate_mode_probs(raw["probs"])
        rates = rates_from_probs(probs)

    sim = None
    if "sim" in raw:
        s = dict(raw["sim"])
        if seed_override is not None:
            s["seed"] = seed_override
        sim = _sim_config(s)
    eta_grid = [float(e) for e in raw["eta_grid"]] if "eta_grid" in raw else None
    return ExperimentConfig(params, kind, rates, probs, failure, sim, eta_grid)


def _sim_config(raw: dict) -> SimConfig:
    """``SimConfig`` from a ``sim`` mapping, each value cast to its field's type.

    Absent keys take the dataclass defaults; unknown keys are ignored.  A
    missing required key or a value of the wrong shape raises
    ``ParameterError`` naming the key.
    """
    kwargs = {}
    for f in fields(SimConfig):
        if f.name not in raw:
            if f.default is MISSING:
                raise ParameterError(f"sim is missing required key '{f.name}'")
            continue
        value = raw[f.name]
        try:
            if f.name != "x0":
                kwargs[f.name] = _SIM_TYPES[f.name](value)
            elif value is None:
                kwargs["x0"] = None
            elif isinstance(value, (list, tuple)) and len(value) == 2:
                kwargs["x0"] = (float(value[0]), float(value[1]))
            else:
                raise TypeError("expected a list of two numbers or null")
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"sim key '{f.name}' has a bad value {value!r}: {exc}") from exc
    return SimConfig(**kwargs)


def load_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(json.load(fh), seed_override)


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_json(path: Path, payload, default=float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=default)
        fh.write("\n")


def _write_metadata(out_dir: Path, command: str, config: ExperimentConfig | None, started: float, extra: dict) -> None:
    meta = {
        "tool": "faultroute",
        "version": __version__,
        "command": command,
        "generator": GENERATOR_NAME,
        "config": config.to_dict() if config is not None else None,
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "wall_time_s": time.perf_counter() - started,
        **extra,
    }
    _write_json(out_dir / "metadata.json", meta)


def _annotations(cfg: ExperimentConfig) -> dict:
    p = cfg.probs
    notes: dict = {}
    if abs(cfg.params.F1 - cfg.params.F2) <= 1e-12:
        notes["closed_form_lower"] = homogeneous_lower_bound(float(p[1]), float(p[2]))
    elif abs(p[1] - p[2]) <= 1e-9 and cfg.params.F1 >= cfg.params.F2:
        dF = cfg.params.F1 - cfg.params.F2
        notes["closed_form_lower"] = hetero_lower_bound(dF, float(p[0]), float(p[1]))
    return notes


def cmd_dump_config(cfg: ExperimentConfig, args: argparse.Namespace, out_dir: None, started: float) -> int:
    print(json.dumps(cfg.to_dict(), indent=2, default=float))
    return EXIT_OK


def cmd_check(cfg: ExperimentConfig, args: argparse.Namespace, out_dir: Path | None, started: float) -> int:
    verdict = stability_verdict(cfg.params, cfg.probs)
    tb = throughput_bounds(cfg.params, cfg.probs)
    payload = verdict.to_dict()
    payload["bounds"] = {"lower": tb.lower, "upper": tb.upper}
    print(json.dumps(payload, indent=2, default=float))
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "verdict.json", payload)
        _write_metadata(out_dir, "check", cfg, started, {"classification": verdict.classification})
    return _CLASSIFICATION_EXIT[verdict.classification]


def cmd_bounds(cfg: ExperimentConfig, args: argparse.Namespace, out_dir: Path | None, started: float) -> int:
    tb = throughput_bounds(cfg.params, cfg.probs)
    payload = {"bounds": tb.to_dict(), "annotations": _annotations(cfg)}
    print(json.dumps(payload, indent=2, default=float))
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "bounds.json", payload)
        _write_metadata(out_dir, "bounds", cfg, started, {})
    return EXIT_OK


def cmd_figure(cfg: None, args: argparse.Namespace, out_dir: Path, started: float) -> int:
    which = args.which
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if which == "homo-rate":
        path = out_dir / "figure_homo_rate.csv"
        _write_csv(path, "p,lower_bound", [(float(p), float(b)) for p, b in failure_rate_curve(CURVE_POINTS)])
        written.append(path)
    elif which == "homo-corr":
        path = out_dir / "figure_homo_corr.csv"
        _write_csv(path, "rho,lower_bound", [(float(r), float(b)) for r, b in correlation_curve(0.5, CURVE_POINTS)])
        written.append(path)
    elif which == "hetero":
        path = out_dir / "figure_hetero.csv"
        _write_csv(
            path,
            "dF,lower_bound,upper_bound",
            [(float(d), float(lo), float(up)) for d, lo, up in capacity_gap_curves(CURVE_POINTS)],
        )
        written.append(path)
        uniform = np.full(4, 0.25)
        rows = []
        for dF in np.linspace(0.0, 1.0, CURVE_POINTS):
            params = NetworkParams(F1=(1.0 + dF) / 2.0, F2=(1.0 - dF) / 2.0, beta=1.0, eta=0.0)
            rows.append((float(dF), float(necessary_upper_bound(params, uniform))))
        numeric = out_dir / "figure_hetero_numeric_upper.csv"
        _write_csv(numeric, "dF,upper_bound", rows)
        written.append(numeric)
    else:  # pragma: no cover - argparse restricts choices
        raise ParameterError(f"unknown figure {which!r}")
    _write_metadata(out_dir, f"figure {which}", None, started, {"files": [p.name for p in written]})
    if not args.quiet:
        for p in written:
            print(f"wrote {p}")
    return EXIT_OK


def _trajectory_rows(traj: Trajectory):
    for t, s, x1, x2, avg in zip(traj.t, traj.mode, traj.x1, traj.x2, traj.avg_abs):
        yield (float(t), int(s), float(x1), float(x2), float(avg))


def cmd_simulate(cfg: ExperimentConfig, args: argparse.Namespace, out_dir: Path, started: float) -> int:
    if cfg.sim is None:
        raise ParameterError("simulate requires a 'sim' section in the config")
    traj = simulate(cfg.params, cfg.rates, cfg.sim)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "trajectory.csv"
    _write_csv(path, "t,mode,x1,x2,avg_abs_x", _trajectory_rows(traj))
    _write_metadata(out_dir, "simulate", cfg, started, {"summary": traj.summary()})
    if not args.quiet:
        print(f"wrote {path} ({len(traj.t)} samples, diverged={traj.diverged})")
    return EXIT_OK


def cmd_scan(cfg: ExperimentConfig, args: argparse.Namespace, out_dir: Path, started: float) -> int:
    if cfg.sim is None:
        raise ParameterError("scan requires a 'sim' section in the config")
    grid = cfg.eta_grid if cfg.eta_grid is not None else [round(0.1 * k, 10) for k in range(1, 12)]
    result = throughput_scan(cfg.params, cfg.rates, cfg.sim, grid)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        (float(e), p.verdict, p.n_diverged, float(p.median_avg_slope), float(p.median_growth_slope))
        for e, p in zip(result.etas, result.probes)
    ]
    path = out_dir / "scan.csv"
    _write_csv(path, "eta,verdict,n_diverged,median_avg_slope,median_growth_slope", rows)
    _write_json(out_dir / "scan.json", result.to_dict(), default=_json_default)
    window = [result.largest_stable, result.smallest_unstable]
    _write_metadata(out_dir, "scan", cfg, started, {"transition_window": window})
    if not args.quiet:
        print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _json_default(obj):
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return float(obj)


# command -> (handler, whether it needs --config, output directory without --out);
# --dump-config acts as a command
_COMMANDS = {
    "--dump-config": (cmd_dump_config, True, None),
    "check": (cmd_check, True, None),
    "bounds": (cmd_bounds, True, None),
    "figure": (cmd_figure, False, "out"),
    "simulate": (cmd_simulate, True, "out"),
    "scan": (cmd_scan, True, "out"),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with ``EXIT_ERROR``; argparse's own code 2 means certified-unstable here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="faultroute",
        description="Stability verdicts, throughput bounds, and simulation for "
        "two-route networks with failure-prone density sensors.",
    )
    parser.add_argument("--config", metavar="PATH", help="experiment config JSON")
    parser.add_argument("--out", metavar="DIR", help="output directory for data files")
    parser.add_argument("--seed", type=int, metavar="N", help="override the simulation seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress chatter")
    parser.add_argument(
        "--dump-config", action="store_true", help="print the normalized config JSON and exit"
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("check", help="evaluate the stability verdict")
    sub.add_parser("bounds", help="compute the certified-demand interval")
    fig = sub.add_parser("figure", help="emit bound-curve CSVs")
    fig.add_argument("which", choices=("homo-rate", "homo-corr", "hetero"))
    sub.add_parser("simulate", help="run one trajectory")
    sub.add_parser("scan", help="probe a demand grid with the simulator")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = load_config(args.config, seed_override=args.seed) if args.config is not None else None
        command = "--dump-config" if args.dump_config else args.command
        if command is None:
            parser.error("a subcommand is required (check, bounds, figure, simulate, scan)")
        handler, needs_config, default_out = _COMMANDS[command]
        if needs_config and cfg is None:
            parser.error(f"{command} requires --config")
        out = args.out if args.out is not None else default_out
        return handler(cfg, args, Path(out) if out is not None else None, started)
    except (ParameterError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
