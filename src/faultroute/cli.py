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
    necessary_upper_curve,
    rates_from_probs,
)
from .errors import ParameterError
from .model import NetworkParams, stationary_distribution, validate_mode_probs, validate_rate_matrix
from .sim import GENERATOR_NAME, SimConfig, Trajectory, simulate, throughput_scan
from .stability import stability_verdict, throughput_bounds

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNSTABLE = 2
EXIT_INDETERMINATE = 3
SCAN_GRID = [round(0.1 * k, 10) for k in range(1, 12)]  # scan's demand grid when the config gives none

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
    """Build a validated experiment from a raw config mapping.

    A value of the wrong shape raises ``ParameterError`` naming its key.
    """
    if not isinstance(raw, dict):
        raise ParameterError(f"config must be a JSON object, got {type(raw).__name__}")
    try:
        params = NetworkParams(**{k: _float(raw[k], k) for k in ("F1", "F2", "beta", "eta")})
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
        rates = validate_rate_matrix(_numbers(raw["rates"], "rates", (4, 4)), require_irreducible=True)
        probs = stationary_distribution(rates)
    elif kind == "failure":
        fm = raw["failure"]
        if not isinstance(fm, dict) or "p" not in fm:
            raise ParameterError(f"config key 'failure' must be an object with a 'p' entry, got {fm!r}")
        failure = FailureModel(_float(fm["p"], "failure.p"), _float(fm.get("rho", 0.0), "failure.rho"))
        probs = failure.mode_probs()
        rates = rates_from_probs(probs)
    else:
        probs = validate_mode_probs(_numbers(raw["probs"], "probs", (4,)))
        rates = rates_from_probs(probs)

    sim = None
    if "sim" in raw:
        if not isinstance(raw["sim"], dict):
            raise ParameterError(f"config key 'sim' must be an object, got {raw['sim']!r}")
        s = dict(raw["sim"])
        if seed_override is not None:
            s["seed"] = seed_override
        sim = _sim_config(s)
    eta_grid = None
    if "eta_grid" in raw:
        if not isinstance(raw["eta_grid"], list):
            raise ParameterError(f"config key 'eta_grid' must be a list of numbers, got {raw['eta_grid']!r}")
        eta_grid = [_float(e, "eta_grid") for e in raw["eta_grid"]]
    return ExperimentConfig(params, kind, rates, probs, failure, sim, eta_grid)


def _number(value) -> bool:
    """Whether ``value`` is a JSON number a float can hold: a float, or an int that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def _float(value, key: str) -> float:
    """``float(value)`` of a JSON number, or ``ParameterError`` naming the config ``key``."""
    if not _number(value):
        raise ParameterError(f"config key '{key}' has a bad value {value!r}: expected a number")
    return float(value)


def _numbers(value, key: str, shape: tuple[int, ...]):
    """``value`` if it is nested lists of JSON numbers of ``shape``; else ``ParameterError`` naming ``key``."""

    def ok(v, shape) -> bool:
        if not shape:
            return _number(v)
        return isinstance(v, (list, tuple)) and len(v) == shape[0] and all(ok(e, shape[1:]) for e in v)

    if not ok(value, shape):
        raise ParameterError(f"config key '{key}' must be a list of numbers of shape {shape}, got {value!r}")
    return value


def _sim_config(raw: dict) -> SimConfig:
    """``SimConfig`` from a ``sim`` mapping, each value read as its field's type.

    Absent keys take the dataclass defaults; unknown keys are ignored.  An
    integer field takes only a JSON integer, so no value is truncated.  A
    missing required key or a value of the wrong shape raises
    ``ParameterError`` naming the key.
    """
    kwargs = {}
    for f in fields(SimConfig):
        if f.name not in raw:
            if f.default is MISSING:
                raise ParameterError(f"sim is missing required key '{f.name}'")
            continue
        value, kind = raw[f.name], _SIM_TYPES[f.name]
        try:
            if f.name != "x0":
                if not _number(value) or (kind is int and not isinstance(value, int)):
                    raise TypeError(f"expected {'an integer' if kind is int else 'a number'}")
                kwargs[f.name] = kind(value)
            elif value is None:
                kwargs["x0"] = None
            elif isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_number, value)):
                kwargs["x0"] = (float(value[0]), float(value[1]))
            else:
                raise TypeError("expected a list of two numbers or null")
        except TypeError as exc:
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


def _write_json(path: Path, payload) -> None:
    """Write ``payload`` as strict JSON: a float that is not finite (a NaN slope, say) is written as ``null``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, default=float, allow_nan=False)
        fh.write("\n")


def _finite_or_null(obj):
    """``obj`` with each float in it, in dicts and lists too, that is not finite replaced by ``None``."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


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
    tb = throughput_bounds(cfg.params, cfg.probs)  # reuses the verdict's search when it ran: one per check
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


# figure -> the CSVs it writes, each as (file, header, curve)
FIGURES = {
    "homo-rate": (("figure_homo_rate.csv", "p,lower_bound", failure_rate_curve),),
    "homo-corr": (("figure_homo_corr.csv", "rho,lower_bound", correlation_curve),),
    "hetero": (
        ("figure_hetero.csv", "dF,lower_bound,upper_bound", capacity_gap_curves),
        ("figure_hetero_numeric_upper.csv", "dF,upper_bound", necessary_upper_curve),
    ),
}


def cmd_figure(cfg: None, args: argparse.Namespace, out_dir: Path, started: float) -> int:
    which = args.which
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, header, curve in FIGURES[which]:
        path = out_dir / name
        _write_csv(path, header, curve())
        written.append(path)
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
    grid = cfg.eta_grid if cfg.eta_grid is not None else SCAN_GRID
    result = throughput_scan(cfg.params, cfg.rates, cfg.sim, grid)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        (float(e), p.verdict, p.n_diverged, float(p.median_avg_slope), float(p.median_growth_slope))
        for e, p in zip(result.etas, result.probes)
    ]
    path = out_dir / "scan.csv"
    _write_csv(path, "eta,verdict,n_diverged,median_avg_slope,median_growth_slope", rows)
    _write_json(out_dir / "scan.json", result.to_dict())
    window = [result.largest_stable, result.smallest_unstable]
    _write_metadata(out_dir, "scan", cfg, started, {"transition_window": window})
    if not args.quiet:
        print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


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
    fig.add_argument("which", choices=tuple(FIGURES))
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
