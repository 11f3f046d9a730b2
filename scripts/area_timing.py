#!/usr/bin/env python3
"""Time ``quad.area`` of this checkout against another, in one process.

Both checkouts' ``polydet`` packages are imported side by side, the other
one under the name ``polydet_other``, and every metric is built by each
side's own ``make_metric``.  The metrics are those of
``bench/corpus.det_corpus`` for every seed of ``--seeds`` (M = 3-10) and,
per seed, one metric at each of M = 16, 24 and 40 (generic points and
exponents from the same module), all from this checkout's
``bench/corpus.py``, loaded by path and only read.  A metric whose area
raises on either side is left out.

For every metric the two sides are timed alternately, one first call
each and then ``--repeats`` calls each, each side first on every other
metric (the side called second ran up to 14% faster on its first call
when this checkout was timed against itself).  The first call is timed
apart: it builds the rules of the metric's fresh exponents, as every
item of a det_corpus round does, and the repeats find them cached.  Per
vertex count M the script prints the number of metrics, then the median
over them of the first call on this side and on the other
(microseconds, wall clock) and their ratio, this over other, then the
same of each metric's fastest repeat.  Without ``--root`` the other
side is this checkout again, which shows the noise of the measurement
alone.

Usage: python scripts/area_timing.py [--root DIR] [--seeds 21-30] [--repeats 5]
"""

import argparse
import importlib.util
import os
import random
import statistics
import sys
import time
from pathlib import Path

# one BLAS thread, as in the benchmark's workers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
LARGE = (16, 24, 40)        # vertex counts beyond those of det_corpus


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def load(name: str, path: Path):
    """The module or package (a directory) at ``path``, imported as ``name``."""
    if path.is_dir():
        spec = importlib.util.spec_from_file_location(
            name, path / "__init__.py", submodule_search_locations=[str(path)])
    else:
        spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def metrics(corpus, seeds):
    """The plain metric dicts to time."""
    for seed in seeds:
        yield from (item["metric"] for item in corpus.det_corpus(seed))
        for m in LARGE:
            rng = random.Random(f"area_timing:{seed}:{m}")
            yield {"C": rng.uniform(0.5, 2.0),
                   "verts": list(zip(corpus.generic_points(rng, m),
                                     corpus.exponents(rng, m, hi=-0.01)))}


def built(package, metric):
    """The metric built by ``package``, or None if that raises."""
    try:
        return package.make_metric(metric["C"], metric["verts"])
    except Exception:       # timed only where both sides give an area
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="the other checkout, whose src/polydet is timed against this one's")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("21-30"))
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    corpus = load("corpus", ROOT / "bench" / "corpus.py")
    sides = (load("polydet", ROOT / "src" / "polydet"),
             load("polydet_other", args.root.resolve() / "src" / "polydet"))
    cases = []
    for metric in metrics(corpus, args.seeds):
        pair = [built(package, metric) for package in sides]
        if None not in pair:
            cases.append(pair)

    clock = time.perf_counter
    times = {}
    for k, pair in enumerate(cases):
        calls = ([], [])        # per side, the first call, then the repeats
        try:
            for _ in range(1 + args.repeats):
                for side in (k % 2, 1 - k % 2):
                    area, m = sides[side].area, pair[side]
                    start = clock()
                    area(m)
                    calls[side].append(clock() - start)
        except Exception:       # timed only where both sides give an area
            continue
        times.setdefault(len(pair[0].vertices), []).append(
            [c[0] for c in calls] + [min(c[1:]) for c in calls])

    print(f"area time per metric, first call and fastest of {args.repeats} repeats; "
          f"median over the metrics of each M")
    print(f"this: {ROOT}")
    print(f"other: {args.root.resolve()}")
    print(f"{'M':>3} {'metrics':>7} {'first_this':>10} {'first_other':>11} {'ratio':>6} "
          f"{'this_us':>9} {'other_us':>9} {'ratio':>6}")
    for m in sorted(times):
        first, first_other, this, other = (
            statistics.median(t[i] for t in times[m]) * 1e6 for i in range(4))
        print(f"{m:>3} {len(times[m]):>7} {first:>10.1f} {first_other:>11.1f} "
              f"{first / first_other:>6.3f} {this:>9.1f} {other:>9.1f} {this / other:>6.3f}")


if __name__ == "__main__":
    main()
