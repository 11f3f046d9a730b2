#!/usr/bin/env python3
"""SHA-256 digests of this checkout's results, for bit-identity checks
between two checkouts.

``DIGESTS`` lists every digest, by name, with the function that feeds it;
the script prints one line per name, in that order: the hex digest, the
name and what it covers.  Each function's docstring says what it hashes:
``float.hex()`` of every value (both parts of a complex one), and the
type name of any exception, which is part of the digest too.  Two
checkouts that print the same line for a digest give bit-identical
values (byte-identical output for ``cli``) on its inputs, so a change
that moves only the angle terms can show that its areas did not move,
and one that moves regint shows it on a line of its own.  The inputs
come from ``bench/corpus.py`` of the checkout named by ``--root``,
loaded by path and only read; the program is imported from that
checkout's ``src/``.

``--against DIR`` runs the digests for ``--root`` and for DIR, each in its
own process, and prints each digest line of ``--root`` followed by
``same`` or ``moved`` (with DIR's digest); it exits 1 if any moved.

Usage: python scripts/area_digest.py [--seeds 1-30] [--root DIR] [--against DIR]
"""

import argparse
import cmath
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    # one BLAS thread, as in the benchmark's workers
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.environ["COLUMNS"] = "80"     # argparse wraps its help to the terminal's width
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-30"))
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout whose src/ and bench/corpus.py are used")
    ap.add_argument("--against", type=Path,
                    help="another checkout whose digests to compare with")
    args = ap.parse_args()
    if args.against:
        sys.exit(compare(args))

    spec = importlib.util.spec_from_file_location(
        "corpus", args.root / "bench" / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    sys.path.insert(0, str(args.root / "src"))
    for names, feed in DIGESTS:
        for name, (digest, summary) in zip(names, feed(corpus, args.seeds)):
            print(f"{digest.hexdigest()}  {name}, {summary}")


def _seeds(seeds: range) -> str:
    return f"seeds {seeds.start}-{seeds.stop - 1}"


def det_corpus(corpus, seeds):
    """``area`` and ``log_det``: for every item of
    ``bench/corpus.det_corpus(seed)``, ``detlap.log_det_as`` feeds its
    ``area`` into one digest and its ``log_det`` into the other."""
    from polydet import detlap, make_metric

    digests = {"area": hashlib.sha256(), "log_det": hashlib.sha256()}
    count = 0
    for seed in seeds:
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
    return [(digest, f"{count} items, {_seeds(seeds)}") for digest in digests.values()]


def regint_angles(corpus, seeds):
    """``regint``: both Hadamard finite parts and ``q_of_beta_contour`` at
    the angles 0.1 pi, 0.2 pi, ..., 20 pi, whatever the seeds."""
    from polydet import regint

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
    return [(digest, f"{len(angles)} angles, 0.1pi-20pi")]


def fd_suite(corpus, seeds):
    """``fd_suite``: every analytic and finite-difference value of
    ``verify.run_suite`` on the metric of every det_corpus item, plain and
    with Richardson extrapolation."""
    from polydet import make_metric, verify

    digest = hashlib.sha256()
    count = 0
    for seed in seeds:
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
            count += 1
    return [(digest, f"{count} items, plain and richardson, {_seeds(seeds)}")]


def kernels(corpus, seeds):
    """``kernels``: the value and error estimate of both finite parts at
    1e-50, 1e50 and 61 angles geometric from 1e-3 to 1e3, at the split
    and ``halved`` (each line names the split it took), and the cone heat
    kernel, resolvent (real and complex mu), ``a_mu`` and
    ``a_mu_disk_integral`` at the fixed inputs of ``_KERNEL_CASES``, some
    of whose contour panels are bisected."""
    import numpy as np
    from polydet import cone, regint

    digest = hashlib.sha256()
    angles = [1e-50, *np.geomspace(1e-3, 1e3, 61).tolist(), 1e50]
    for fp in (regint.hadamard_coth_over_sinh_sq, regint.hadamard_coth_coth_over_theta):
        for halved in (False, True):
            split = regint.SPLIT_RADIUS / 2 if halved else regint.SPLIT_RADIUS
            for beta in angles:
                try:
                    res = fp(beta, halved)
                    line = f"{res.finite_part.hex()},{res.error_estimate.hex()}"
                except Exception as exc:     # a raising angle is part of the digest too
                    line = type(exc).__name__
                digest.update(f"{fp.__name__} {split.hex()} {beta.hex()} {line}\n".encode())
    for name, call, inputs in _KERNEL_CASES:
        inputs = [cone.ConePoint(*a) if isinstance(a, tuple) else a for a in inputs]
        try:
            line = _hex(call(cone, *inputs))
        except Exception as exc:     # a raising kernel is part of the digest too
            line = type(exc).__name__
        digest.update(f"{name} {inputs} {line}\n".encode())
    return [(digest, f"{len(angles)} angles, {len(_KERNEL_CASES)} cone kernels")]


def angle_terms(corpus, seeds):
    """``angle_terms``: F(beta, C) and dF/dbeta (``detlap.f_function`` and
    ``f_function_dbeta``) at 1e-100, 1e-50, 1e50, 1e100 and 61 angles
    geometric from 1e-3 to 1e3, at C = 1 and C = 3."""
    import numpy as np
    from polydet import detlap

    digest = hashlib.sha256()
    angles = [1e-100, 1e-50, 1e50, 1e100, *np.geomspace(1e-3, 1e3, 61).tolist()]
    for scale in (1.0, 3.0):
        for beta in angles:
            try:
                line = " ".join(x.hex() for x in (detlap.f_function(beta, scale),
                                                  detlap.f_function_dbeta(beta, scale)))
            except Exception as exc:     # a raising angle is part of the digest too
                line = type(exc).__name__
            digest.update(f"{scale.hex()} {beta.hex()} {line}\n".encode())
    return [(digest, f"{len(angles)} angles, C = 1 and 3")]


def edges(corpus, seeds):
    """``edges``: the value, error estimate and panel count of ``quad.area``
    on the inputs of ``_EDGE_CASES``, whatever the seeds, each with the
    close vertices listed first and last."""
    from polydet import make_metric, quad

    digest = hashlib.sha256()
    for name, (close, far) in _EDGE_CASES:
        for last in (False, True):
            try:
                res = quad.area(make_metric(1.0, far + close if last else close + far))
                line = f"{res.value.hex()} {res.error_estimate.hex()} {res.cell_count}"
            except Exception as exc:     # a raising input is part of the digest too
                line = type(exc).__name__
            digest.update(f"{name} {last} {line}\n".encode())
    return [(digest, f"{2 * len(_EDGE_CASES)} areas, close vertices among far ones, "
                     "listed first and last")]


def cli(corpus, seeds):
    """``cli``: the exit code, stdout and stderr of ``polydet.cli.main``,
    run in this process, over the argv of ``_CLI_CASES``, whatever the
    seeds.  It runs in a temporary directory with relative file names, so
    no message carries the directory."""
    from polydet import cli

    digest = hashlib.sha256()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)          # relative file names: no message carries the directory
        try:
            for name, text in _CLI_FILES.items():
                Path(name).write_text(text)
            for argv in _CLI_CASES:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:     # argparse's help
                        code = exc.code
                digest.update(f"{argv} {code} {out.getvalue()!r} {err.getvalue()!r}\n".encode())
        finally:
            os.chdir(cwd)
    return [(digest, f"{len(_CLI_CASES)} calls of polydet.cli.main, "
                     "exit code, stdout and stderr")]


def periods(corpus, seeds):
    """``periods``: A, B, tau, eta and the three theta constants of
    ``elliptic.periods`` on every periods item of
    ``bench/corpus.analytic_round(seed, r)``, r = 0, 1, 2."""
    from polydet import elliptic

    digest = hashlib.sha256()
    count = 0
    for seed in seeds:
        for r in range(3):
            for k, item in enumerate(corpus.analytic_round(seed, r)):
                if item["kind"] != "periods":
                    continue
                try:
                    data = elliptic.periods(item["points"])
                    line = " ".join(_hex(x) for x in (data.period_a, data.period_b, data.tau,
                                                      data.eta, *data.theta_constants))
                except Exception as exc:     # a raising item is part of the digest too
                    line = type(exc).__name__
                digest.update(f"{seed} {r} {k} {line}\n".encode())
                count += 1
    return [(digest, f"{count} items, rounds 0-2, {_seeds(seeds)}")]


def fd_edges(corpus, seeds):
    """``fd_edges``: the analytic gradient and the finite difference of
    ``verify.gradient_reports``, or the exception's type name and message,
    one channel a call, plain and with Richardson extrapolation, on the
    cases of ``_FD_EDGE_CASES``, whatever the seeds."""
    from polydet import make_metric, verify

    digest = hashlib.sha256()
    count = 0
    for name, scale, verts, channels in _FD_EDGE_CASES:
        for channel in channels:
            for richardson in (False, True):
                try:
                    (r,) = verify.gradient_reports(make_metric(scale, verts), [channel],
                                                   verify.FDConfig(richardson=richardson))
                    line = f"{_hex(r.analytic)} {_hex(r.finite_difference)}"
                except Exception as exc:     # a refusal is part of the digest too
                    line = f"{type(exc).__name__}: {exc}"
                digest.update(f"{name} {channel} {richardson} {line}\n".encode())
                count += 1
    return [(digest, f"{count} calls, plain and richardson")]


# every digest, in the order printed: its names and the function that
# feeds them, which returns one (digest, summary) pair per name
DIGESTS = [
    (("area", "log_det"), det_corpus),
    (("regint",), regint_angles),
    (("fd_suite",), fd_suite),
    (("kernels",), kernels),
    (("angle_terms",), angle_terms),
    (("edges",), edges),
    (("cli",), cli),
    (("periods",), periods),
    (("fd_edges",), fd_edges),
]


def compare(args) -> int:
    """Print the digests of ``args.root``, each marked against those of
    ``args.against``, both run in processes of their own; 1 if any moved."""
    seeds = f"{args.seeds.start}-{args.seeds.stop - 1}"
    runs = [subprocess.Popen([sys.executable, __file__, "--seeds", seeds, "--root", str(root)],
                             stdout=subprocess.PIPE, text=True)
            for root in (args.root, args.against)]
    this, other = [run.communicate()[0].splitlines() for run in runs]
    if any(run.returncode for run in runs):
        raise SystemExit(f"a digest run failed: exit codes {[run.returncode for run in runs]}")
    for mine, theirs in zip(this, other):
        print(f"{mine}  same" if mine == theirs else f"{mine}  moved from {theirs.split()[0]}")
    return int(this != other)


# (name, kernel, arguments), a point as (r, phi); those marked take a
# bisection of their contour panels
_KERNEL_CASES = [
    ("heat", lambda c, *a: c.heat_kernel_cone(*a), args) for args in (
        (14.061194372178415, 0.033661455089965334,          # bisected
         (2.6827180134376e-05, 0.009149252600683992), (0.001479276294591934, 0.4123257305909409)),
        (36.773406516415825, 3.522578165932559,             # bisected
         (0.038792662180524955, 0.24970241341169364), (7.633059512063092e-06, 0.04367992477443694)),
        (math.pi, 0.5, (1.0, 0.2), (0.7, 1.9)),
        (0.3, 0.01, (0.2, 0.1), (0.25, 0.05)),
        (5.0, 2.0, (1.5, 3.0), (0.5, 0.0)))
] + [
    ("resolvent", lambda c, *a: c.resolvent_cone(*a), args) for args in (
        (50.75676030003232, -0.03294522786338942,           # bisected
         (0.0020914841952025644, 1.2843054872489934), (0.0005025332427924964, 1.4214282978155532)),
        (26.125336810696027, -0.04348565772529155 + 1.6375780484398073j,   # bisected
         (0.0008861550336210243, 0.4910948914499226), (0.6437555950612172, 0.3616175580956693)),
        (math.pi, -1.0, (1.0, 0.2), (0.7, 1.9)),
        (math.pi / 2, -4.0 + 3.0j, (0.5, 0.3), (0.4, 1.0)),
        (9.0, -0.25, (2.0, 1.0), (1.0, 0.1)))
] + [
    ("a_mu", lambda c, *a: c.a_mu(*a), args) for args in (
        (15.423886116183072, -0.02925893677301646, 0.005384461879282966),   # bisected
        (math.pi, -10.0, 0.3), (0.5, -100.0, 0.05), (20.0, -1.0, 1.0))
] + [
    ("a_mu_disk", lambda c, *a: c.a_mu_disk_integral(*a), args) for args in (
        (math.pi, -100.0), (0.5, -400.0, 0.5), (15.0, -10.0, 2.0))
]


# (name, (close vertices, far vertices)) of the edges digest
_EDGE_CASES = [
    (f"pair g={g!r} R={R!r}", ([(0.0, 0.5), (g, -0.6)], [(R, -0.3), (1j * R, -0.8), (-R, -0.8)]))
    for g in (1e-30, 1e-50, 1e-100, 1e-298) for R in (1.0, 1e3, 1e10)
] + [
    ("cluster", ([(1e-150 * cmath.exp(1.9j), -0.2), (0.0, 0.5), (1e-200 * cmath.exp(0.4j), -0.6)],
                 [(1e10 * cmath.exp(1j * t), -17 / 30) for t in (0.0, 2.1, -2.3)])),
]


# (name, C, vertices, channels) of the fd_edges digest: steps that leave
# the domain, are lost to rounding, pass a vertex distance past the float
# range or meet a gradient past it, and names the harness refuses
_SUBNORMAL = [(0, -0.5), (1, -0.3), (1j, -0.7), (1 + 1j, -0.5)]
_FD_EDGE_CASES = [
    ("domain exit", 1.0, [(0, -1.0 + 5e-13), (1, -0.5), (-1, -0.5 - 5e-13)], ["beta:3"]),
    ("position lost", 1.0, [(2e12, -0.5), (2e12 + 1j, -0.5), (2e12 + 1, -0.5),
                            (2e12 + 1 + 1j, -0.5)], ["z:1", "C"]),
    ("angle lost", 1.0, [(0, -1.0 + 2e-12), (1, 3.0)]
     + [(complex(2 + k, 1), (-4.0 - 2e-12) / 5.0) for k in range(5)], ["beta:2", "z:2"]),
    *((f"scale {scale!r}", scale, _SUBNORMAL, ["C", "z:2", "beta:3"])
      for scale in (1e-309, 1e-312, 1e-320)),
    *((f"far apart {axis!r}", 1.0, [(-a, -0.6), (0, -0.7), (a, -0.7)], ["z:3", "C", "beta:2"])
      for axis in (1, 1 + 1j) for a in [sys.float_info.max / 2 / abs(axis) * (1 - 2e-5) * axis]),
    ("tetrahedron", 1.0, [(1, -0.5), (-1, -0.5), (1j, -0.5), (-1j, -0.5)],
     ["beta:1", "z:0", "z:5", "w:9"]),
]


# the files of the cli digest, by their relative names: a generic metric,
# the tetrahedron's branch points, a metric whose exponents do not sum to
# -2 and a file that is not JSON (missing.json is never written)
_CLI_FILES = {
    "metric.json": json.dumps({"C": 1.3, "vertices": [
        {"z": [0, 0], "b": -0.7}, {"z": [1, 0], "b": -0.4},
        {"z": [0.3, 0.8], "b": -0.5}, {"z": [-0.6, 0.2], "b": -0.4}]}),
    "points.json": json.dumps({"points": [[1, 0], [-1, 0], [0, 1], [0, -1]]}),
    "bad.json": json.dumps({"C": 1.0, "vertices": [
        {"z": [0, 0], "b": -0.5}, {"z": [1, 0], "b": -0.5}, {"z": [2, 0], "b": -0.5}]}),
    "text.json": "not json\n",
}
_CLI_INPUTS = ("bad.json", "missing.json", "text.json")
_CLI_FORMS = ([], ["--json"], ["--csv"])
# every command in every output form it has, on its valid input and each
# faulty one, and the help of the parser and of every subcommand
_CLI_CASES = [
    [*argv, *form] for argv in [
        *(argv for f in ("metric.json", *_CLI_INPUTS) for argv in (
            ["det", "--metric", f], ["area", "--metric", f],
            ["compare", "--m1", f, "--m2", "metric.json"],
            ["grad", "--metric", f, "--channel", "z:1"],
            ["grad", "--metric", f, "--channel", "beta:02", "--richardson"],
            ["grad", "--metric", f, "--channel", "C"],
            ["grad", "--metric", f, "--channel", "w:2"],
            ["grad", "--metric", f, "--channel", "beta:1"],
            ["verify", "fd", "--metric", f], ["verify", "fd", "--metric", f, "--richardson"])),
        *(["verify", "tetra", "--points", f] for f in ("points.json", *_CLI_INPUTS))]
    for form in _CLI_FORMS
] + [
    ["verify", "hadamard"], ["verify", "hadamard", "--beta", "0"],
    ["verify", "hadamard", "--beta", "1e-300"], ["verify", "hadamard", "--beta", "2.5", "40"],
] + [
    [*argv, "-h"] for argv in ([], ["det"], ["area"], ["grad"], ["compare"], ["verify"],
                               ["verify", "tetra"], ["verify", "fd"],
                               ["verify", "hadamard"])
]


def _hex(x) -> str:
    """float.hex of a real value, of both parts of a complex one."""
    if isinstance(x, complex):
        return f"{x.real.hex()},{x.imag.hex()}"
    return float(x).hex()


if __name__ == "__main__":
    main()
