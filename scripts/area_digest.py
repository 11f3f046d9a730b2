#!/usr/bin/env python3
"""Four SHA-256 digests: det_corpus results of a range of seeds, regint, and
the finite-difference suite.

For every item of ``bench/corpus.det_corpus(seed)`` it runs
``detlap.log_det_as`` and feeds ``float.hex()`` of ``area`` into one
digest and of ``log_det`` into the other (a raising item feeds the
exception's type name into both).  The third digest takes ``float.hex()``
of both Hadamard finite parts and of ``q_of_beta_contour`` at the angles
0.1 pi, 0.2 pi, ..., 20 pi, whatever the seeds.  The fourth, ``fd_suite``,
takes ``float.hex()`` of every analytic and finite-difference value (real
and imaginary part of a complex one) of ``verify.run_suite`` on the
metric of every det_corpus item, plain and with Richardson extrapolation.
Two checkouts that print the same area digest give bit-identical areas
on every item, the same log-det digest bit-identical determinants, the
same regint digest bit-identical finite parts and contours and the same
fd_suite digest bit-identical gradients and finite differences, so a
change that moves only the angle terms can show that its areas did not
move, and one that moves regint shows it on a line of its own.  The
inputs come from ``bench/corpus.py`` of the checkout named by ``--root``,
loaded by path and only read; the program is imported from that
checkout's ``src/``.

Usage: python scripts/area_digest.py [--seeds 1-30] [--root DIR]
"""

import argparse
import hashlib
import importlib.util
import math
import os
import sys
from pathlib import Path

# one BLAS thread, as in the benchmark's workers
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-30"))
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout whose src/ and bench/corpus.py are used")
    args = ap.parse_args()

    spec = importlib.util.spec_from_file_location(
        "corpus", args.root / "bench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    sys.path.insert(0, str(args.root / "src"))
    from polydet import detlap, make_metric, regint, verify

    digests = {"area": hashlib.sha256(), "log_det": hashlib.sha256()}
    count = 0
    for seed in args.seeds:
        for item in corpus.det_corpus(seed):
            metric = item["metric"]
            try:
                rep = detlap.log_det_as(make_metric(metric["C"], metric["verts"]))
                lines = {name: getattr(rep, name).hex() for name in digests}
            except Exception as exc:     # a raising item is part of the digests too
                lines = dict.fromkeys(digests, type(exc).__name__)
            for name, digest in digests.items():
                digest.update(f"{seed} {item['id']} {lines[name]}\n".encode())
            count += 1
    seeds = f"seeds {args.seeds.start}-{args.seeds.stop - 1}"
    for name, digest in digests.items():
        print(f"{digest.hexdigest()}  {name}, {count} items, {seeds}")

    digest = hashlib.sha256()
    angles = [k * math.pi / 10.0 for k in range(1, 201)]
    for beta in angles:
        try:
            line = " ".join(x.hex() for x in (
                regint.hadamard_coth_over_sinh_sq(beta).finite_part,
                regint.hadamard_coth_coth_over_theta(beta).finite_part,
                regint.q_of_beta_contour(beta)))
        except Exception as exc:     # a raising angle is part of the digest too
            line = type(exc).__name__
        digest.update(f"{beta.hex()} {line}\n".encode())
    print(f"{digest.hexdigest()}  regint, {len(angles)} angles, 0.1pi-20pi")

    digest = hashlib.sha256()
    for seed in args.seeds:
        for item in corpus.det_corpus(seed):
            metric = item["metric"]
            for richardson in (False, True):
                try:
                    reports = verify.run_suite(make_metric(metric["C"], metric["verts"]),
                                               verify.FDConfig(richardson=richardson))
                    line = " ".join(f"{r.channel} {_hex(r.analytic)} {_hex(r.finite_difference)}"
                                    for r in reports)
                except Exception as exc:     # a raising suite is part of the digest too
                    line = type(exc).__name__
                digest.update(f"{seed} {item['id']} {richardson} {line}\n".encode())
    print(f"{digest.hexdigest()}  fd_suite, {count} items, plain and richardson, {seeds}")


def _hex(x) -> str:
    """float.hex of a real value, of both parts of a complex one."""
    if isinstance(x, complex):
        return f"{x.real.hex()},{x.imag.hex()}"
    return float(x).hex()


if __name__ == "__main__":
    main()
