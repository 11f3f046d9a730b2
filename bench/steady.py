"""Steadiness of the benchmark: run every workload on several seeds and
report each end-to-end metric's median, quartiles and spread against its
bound in BENCHMARK.json.

    python3 bench/steady.py --seeds 1-10 [--repeat K] [--workloads det_corpus,cli]

``--seeds 1-10`` gives each run another seed; ``--seeds 7 --repeat 10``
repeats one seed, so the spread holds the machine's noise alone and not
the cost differences between seeds.  Every run lasts ``run_seconds`` of
BENCHMARK.json.  Runs alternate the workload order (forward on one run,
reversed on the next) so slow phases of a shared machine do not line up
with one workload.  Spread is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; the benchmark aims for spreads
below a third of each bound.  Raw results go to bench/out/steady-*.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["note"] = (proc.stderr.strip().splitlines() or [""])[-1]
    return res


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = [s for s in parse_seeds(args.seeds) for _ in range(args.repeat)]

    runs = {w: [] for w in workloads}
    for k, seed in enumerate(seeds):
        for w in (workloads if k % 2 == 0 else workloads[::-1]):
            t0 = time.perf_counter()
            res = run_once(w, seed, spec["run_seconds"])
            res["seed"], res["wall_s"] = seed, time.perf_counter() - t0
            runs[w].append(res)
            print(f"# {w} seed {seed}: {res['wall_s']:.1f} s, correct={res['correct']}, "
                  f"failed {res['failed']}/{res['attempted']}; {res['note']}", flush=True)

    out = BENCH / "out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs), encoding="utf-8")

    print(f"{'workload':12s} {'metric':14s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
          f"{'spread':>8s} {'bound':>6s} {'/bound':>7s}")
    for w in workloads:
        shares = sorted({r["failed"] / r["attempted"] for r in runs[w]})
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            spread = (q3 - q1) / med if med else float("inf")
            print(f"{w:12s} {m['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {m['bound']:6.2f} {spread / m['bound']:7.3f}")
        print(f"{w:12s} failed share {shares}, "
              f"all correct: {all(r['correct'] for r in runs[w])}, "
              f"wall {sum(r['wall_s'] for r in runs[w]):.0f} s")
    print(f"raw results: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
