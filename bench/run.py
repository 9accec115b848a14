#!/usr/bin/env python3
"""End-to-end benchmark of faultroute.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, parses them with
``cli.parse_config``, then repeats whole rounds of the workload's ops for
about ``--seconds`` seconds, checks every op's output and prints one JSON
object as the last line of standard output:

    {"correct": true, "attempted": 41, "failed": 1, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates plain
and traced rounds and reports the per-layer metrics instead (see layers.py).
The ops run in this one process on one thread, with the BLAS pool pinned to
one thread; the run stops with an error if that does not hold.  Only the
import timing in set-up starts other interpreters, one at a time, each waited
for before the next.  Run from the repository root: the package is imported
from ``src/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"  # scratch files the run writes
SETUP_REPS = 5  # input generation and parsing are repeated; the median counts
IMPORT_REPS = 5  # fresh interpreters timed importing the package, before and after timing
IMPORT_TIMEOUT_S = 60.0
# Run by each fresh interpreter: time numpy, the package and its CLI from the
# first statement.  The package's bytecode is written to and read from
# bench/out, whatever PYTHONDONTWRITEBYTECODE says and whether or not src/ is
# writable, so every run times imports from the same warm bytecode cache.
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import sys; import numpy; "
    "sys.dont_write_bytecode = False; sys.pycache_prefix = sys.argv[2]; sys.path.insert(0, sys.argv[1]); "
    "import faultroute, faultroute.cli; print(time.perf_counter() - t0)"
)
TAIL_BEYOND = 10  # op_tail_s: the slowest op with at least this many ops slower
MIN_TAIL_OPS = 40  # below this a tail percentile would be no tail


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def blas_threads() -> int | None:
    """Threads in numpy's OpenBLAS pool, read from the library itself."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment_problems() -> list[str]:
    """Why the one-process, one-thread rule does not hold here, if it does not."""
    problems = []
    threads = blas_threads()
    if threads != 1:
        problems.append(f"numpy's BLAS pool has {threads} threads, not 1 (cannot pin or read it)")
    tasks = os.listdir("/proc/self/task")
    if len(tasks) != 1:
        problems.append(f"process runs {len(tasks)} threads, not 1")
    children = [
        pid
        for task in tasks
        for pid in Path(f"/proc/self/task/{task}/children").read_text().split()
    ]
    if children:
        problems.append(f"process has child processes {children}")
    return problems


def import_seconds(warm_up: bool) -> list[float]:
    """Times of ``IMPORT_REPS`` fresh interpreters importing the package, each
    waited for before the next starts; with ``warm_up``, one untimed
    interpreter goes first to fill the bytecode and page caches.  The ops
    never overlap these children: they run in this process alone."""
    times = []
    for _ in range(IMPORT_REPS + warm_up):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(OUT / "pycache")],
            capture_output=True,
            text=True,
            timeout=IMPORT_TIMEOUT_S,
            check=True,
        )
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return times[warm_up:]


def run_round(workload, fr, items) -> dict:
    times, outs, errors = [], [], []
    t0 = time.perf_counter()
    for item in items:
        a = time.perf_counter()
        try:
            out, err = workload.op(fr, item), None
        except Exception as exc:  # the op failed; record it and go on
            out, err = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - a)
        outs.append(out)
        errors.append(err)
    return {"wall": time.perf_counter() - t0, "times": times, "outs": outs, "errors": errors}


def timed_phase(workload, fr, items, seconds: float, tracer=None) -> list[dict]:
    """Whole rounds until another would end past ``seconds``.  With a tracer,
    rounds alternate plain and traced, starting plain, at least one of each."""
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install(fr)
        try:
            rounds.append(run_round(workload, fr, items) | {"traced": traced})
        finally:
            if traced:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall"] for r in rounds)
        enough = tracer is None or len(rounds) >= 2
        if enough and elapsed + typical > seconds:
            return rounds


def judge(workload, fr, items, rounds) -> tuple[set[int], list[str]]:
    """Indices of failed ops, and a line for each problem found."""
    first = rounds[0]
    found = workload.check(fr, items, first["outs"])
    notes = []
    failed = set()
    for i, item in enumerate(items):
        problems = list(found.get(i, []))
        if first["errors"][i]:
            problems.append(first["errors"][i])
        for later in rounds[1:]:
            same = later["errors"][i] == first["errors"][i] and (
                first["outs"][i] is None
                or workload.fingerprint(later["outs"][i]) == workload.fingerprint(first["outs"][i])
            )
            if not same:
                problems.append("output differs between rounds on identical input")
                break
        if problems:
            failed.add(i)
            tag = f"expected ({item.expected_failure})" if item.expected_failure else "UNEXPECTED"
            notes += [f"op {i} failed, {tag}: {p}" for p in problems]
    return failed, notes


def end_to_end(rounds, setup_s: float, rss_mb: float) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    per_op = [statistics.median(ts) for ts in zip(*(r["times"] for r in plain))]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r["wall"] for r in plain), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
    }
    if len(per_op) >= MIN_TAIL_OPS:
        metrics["op_tail_s"] = (sorted(per_op)[-TAIL_BEYOND - 1], "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics


UNITS = {"_us": "us", "_ms": "ms", "_s": "s", "_per_s": "1/s", "_share": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in sorted(UNITS.items(), key=lambda kv: -len(kv[0])):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "faultroute" / "__init__.py").is_file():
        print(f"error: no faultroute sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import faultroute as fr
    import faultroute.cli  # noqa: F401  (the package does not import its CLI)

    if not Path(fr.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: faultroute was imported from {fr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    from workloads import WORKLOADS

    import_times = import_seconds(warm_up=True)
    problems = environment_problems()
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 3

    workload = WORKLOADS[args.workload]
    rep_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        items = workload.inputs(args.seed)
        for item in items:
            item.cfg = fr.cli.parse_config(item.raw)
        rep_times.append(time.perf_counter() - t0)
    build_s = statistics.median(rep_times)

    work = sweep = None
    sweep_problems = []
    if args.trace:
        work, sweep = layers.Tracer(), layers.Tracer()
        check_s, sweep_problems = layers.layer_sweep(fr, sweep, OUT)
        work.install(fr)
        try:
            for item in workload.inputs(args.seed):
                fr.cli.parse_config(item.raw)
        finally:
            work.uninstall()

    rounds = timed_phase(workload, fr, items, args.seconds, work)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = environment_problems()
    if problems:
        print("error after the timed phase: " + "; ".join(problems), file=sys.stderr)
        return 3
    import_s = statistics.median(import_times + import_seconds(warm_up=False))
    setup_s = import_s + build_s

    failed, notes = judge(workload, fr, items, rounds)
    notes += [f"layer sweep: {p}" for p in sweep_problems]
    correct = all(items[i].expected_failure for i in failed) and not sweep_problems

    if args.trace:
        metrics = {k: (v, unit_of(k)) for k, v in layers.layer_metrics(work, sweep, check_s).items()}
        plain = statistics.median(r["wall"] for r in rounds if not r["traced"])
        traced = statistics.median(r["wall"] for r in rounds if r["traced"])
        metrics["setup.import_s"] = (import_s, "s")
        metrics["trace.untraced_wall_s"] = (plain, "s")
        metrics["trace.wall_s"] = (traced, "s")
        metrics["trace.overhead_share"] = (traced / plain - 1.0, "ratio")
    else:
        metrics = end_to_end(rounds, setup_s, rss_mb)

    for note in notes:
        print(note, file=sys.stderr)
    print(
        f"{args.workload}: {len(rounds)} rounds of {len(items)} ops, {len(failed)} failed per round",
        file=sys.stderr,
    )
    result = {
        "correct": bool(correct),
        "attempted": len(items) * len(rounds),
        "failed": len(failed) * len(rounds),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
