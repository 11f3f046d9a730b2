"""The polydet benchmark: one workload per call, in fresh processes.

    python3 bench/run.py --workload W --seed N --seconds T --trace 0|1

Workloads: det_corpus, analytic, cli (see README.md).  The run

1. times fresh interpreters that import polydet and build the workload's
   inputs: COLD_STARTS before the workload and as many after it, and the
   workload process's own start (``setup_s`` is their median);
2. runs the workload in one fresh process (bench/worker.py), one caller
   in a closed loop, a fixed number of whole rounds of a seeded item list,
   reading the host's speed between items (bench/hostspeed.py: the time
   metrics are in reference seconds; stderr shows them in wall seconds);
3. checks every item's output here, in a process that never imports
   polydet, against bench/reference.py;
4. prints one JSON line: correct, attempted, failed and the metrics --
   the end-to-end ones with ``--trace 0``, the per-layer ones from a
   separate traced run with ``--trace 1``.

It exits nonzero, printing no result, when the workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpus  # noqa: E402
import hostspeed  # noqa: E402

COLD_STARTS = 1  # set-up-only processes before the workload, and again after
# one thread per process, fixed hashing: the workload and its children
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
WORKER_TIMEOUT = 160.0

TAIL_ITEMS = 10  # items item_tail_ms keeps beyond its percentile


def tail_percentile(n: int) -> float:
    """The highest percentile, in steps of 0.1, that keeps at least
    TAIL_ITEMS of n items beyond it."""
    # largest k with (n - 1) * k / 1000 < n - TAIL_ITEMS (see percentile)
    return ((1000 * (n - TAIL_ITEMS) - 1) // (n - 1)) / 10.0


def percentile(values, p: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _spawn(args, mode: str, out: Path | None):
    """Start a worker; after it has exited, return its set-up time (spawn
    to ``ready``, less the time of its two readings of the host's speed)
    and those two readings."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if out is not None:
        cmd += ["--out", str(out)]
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        _, err = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{args.workload}: worker timed out after {WORKER_TIMEOUT} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    tag, *readings = line.split() or [""]
    if proc.returncode != 0 or tag != "ready":
        raise SystemExit(f"{args.workload}: worker failed (exit {proc.returncode})\n{err}")
    readings = [float(x) for x in readings]
    return ready - hostspeed.REPS * sum(readings), readings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out = BENCH / "out" / f"result-{args.workload}-{args.seed}-{os.getpid()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        setup = [_spawn(args, "setup", None) for _ in range(COLD_STARTS)]
        setup.append(_spawn(args, "trace" if args.trace else "run", out))
        setup += [_spawn(args, "setup", None) for _ in range(COLD_STARTS)]
        result = json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink(missing_ok=True)

    records = result["records"]
    outcome = checks.check_run(args.workload, args.seed, records)
    for line in outcome.unexpected[:20]:
        print(f"CHECK FAILED {args.workload}: {line}", file=sys.stderr)
    print(f"{args.workload}: largest exact deviation {outcome.worst[0]:.3g} at "
          f"{outcome.worst[1]}", file=sys.stderr)

    if args.trace:
        layers = dict(result["layers"])
        layers["import.polydet_s"] = result["import_s"]
        layers["import.modules"] = result["import_modules"]
        units = metric_units("per_layer")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        setup_s = [s for s, _ in setup]
        wall = time_metrics([r["latency"] for r in records], setup_s)
        print(f"{args.workload}: wall-clock figures " + ", ".join(
            f"{k} {v:.4g}" for k, v in wall.items()), file=sys.stderr)
        factor = hostspeed.scale(*(x for _, rs in setup for x in rs))
        values = time_metrics([r["latency"] * r["scale"] for r in records],
                              [s * factor for s in setup_s])
        values["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
        values["ref_digits"] = outcome.digits()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def time_metrics(lat, setup) -> dict:
    """The time metrics from item latencies and set-up times (seconds)."""
    return {"setup_s": statistics.median(setup),
            "items_per_s": len(lat) / sum(lat),
            "item_p50_ms": statistics.median(lat) * 1e3,
            "item_tail_ms": percentile(lat, tail_percentile(len(lat))) * 1e3}


def metric_units(kind: str) -> dict:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
