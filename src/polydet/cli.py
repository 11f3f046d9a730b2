"""Command-line front end.

Subcommands
-----------
    det      --metric m.json [--json|--csv]      determinant report
    area     --metric m.json [--json|--csv]      metric area
    grad     --metric m.json --channel z:i|beta:i|C [--richardson]
    compare  --m1 a.json --m2 b.json             same-angle log det ratio
    verify   tetra --points p.json | cone | fd --metric m.json | hadamard

Exit codes: 0 success, 2 validation error (machine-readable JSON on
stderr), 3 an error estimate above its fixed accuracy contract.
``verify fd`` exits 0 only when every channel matches to 1e-5 relative.
Floats are serialized as shortest round-trip decimals (17 significant
digits in human output).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

import numpy as np

from . import detlap, elliptic, verify
from .cone import ConePoint, heat_kernel_cone, heat_kernel_images, resolvent_cone, resolvent_images
from .errors import InvalidMetricJSON, PolydetError, ToleranceNotReached
from .metric import Angle, Position, Scale, load_metric, make_metric
from .quad import area
from .regint import SPLIT_RADIUS, hadamard_finite_parts, q_of_beta, q_of_beta_contour

FD_PASS_TOL = 1e-5


# --------------------------------------------------------------------------
# serialization helpers
# --------------------------------------------------------------------------

def _jsonable(x):
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if dataclasses.is_dataclass(x):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(x).items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _emit(obj, args) -> None:
    if getattr(args, "csv", False):
        _emit_csv(obj)
    elif getattr(args, "json", False):
        print(json.dumps(_jsonable(obj)))
    else:
        _emit_human(obj)


def _flatten(prefix, x, out):
    x = _jsonable(x)
    if isinstance(x, dict):
        for k, v in x.items():
            _flatten(f"{prefix}{'.' if prefix else ''}{k}", v, out)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out[prefix] = x


def _emit_csv(obj) -> None:
    rows = obj if isinstance(obj, list) else [obj]
    flat_rows = []
    for row in rows:
        out = {}
        _flatten("", row, out)
        flat_rows.append(out)
    fields = sorted({k for row in flat_rows for k in row})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\r\n")
    writer.writeheader()
    for row in flat_rows:
        writer.writerow({k: _fmt(row.get(k)) for k in fields})
    sys.stdout.write(buf.getvalue())


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return x


def _emit_human(obj) -> None:
    flat = {}
    if isinstance(obj, list):
        for i, row in enumerate(obj):
            _flatten(f"[{i}]", row, flat)
    else:
        _flatten("", obj, flat)
    width = max((len(k) for k in flat), default=0)
    for k, v in flat.items():
        print(f"{k:<{width}}  {_fmt(v)}")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_det(args) -> int:
    m = load_metric(args.metric)
    report = detlap.log_det_as(m)
    _emit(report, args)
    return 0


def _cmd_area(args) -> int:
    m = load_metric(args.metric)
    res = area(m)
    _emit(res, args)
    return 0


def _parse_channel(text: str):
    if text == "C":
        return Scale()
    kind, _, idx = text.partition(":")
    if kind == "z" and idx.isdecimal():
        return Position(int(idx))
    if kind == "beta" and idx.isdecimal():
        return Angle(int(idx))
    raise PolydetError(f"bad channel {text!r}; use z:i, beta:i or C")


def _cmd_grad(args) -> int:
    m = load_metric(args.metric)
    channel = _parse_channel(args.channel)
    fdcfg = verify.FDConfig(richardson=args.richardson)
    fd = verify.fd_gradient(m, channel, fdcfg=fdcfg)
    if isinstance(channel, Position):
        analytic = detlap.grad_position(m, channel.i)
    elif isinstance(channel, Angle):
        analytic = detlap.grad_angle(m, channel.i)
    else:
        analytic = detlap.grad_scale(m)
    report = detlap.GradientReport.compare(args.channel, analytic, fd)
    _emit(report, args)
    return 0


def _cmd_compare(args) -> int:
    m1 = load_metric(args.m1)
    m2 = load_metric(args.m2)
    val = detlap.chs_compare_same_angles(m1, m2)
    _emit({"log_det_ratio": val}, args)
    return 0


def _load_points(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return [complex(float(p[0]), float(p[1]))
                    for p in json.load(fh)["points"]]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise InvalidMetricJSON(
                f'malformed points JSON, want {{"points": [[re, im], ...]}}: {exc}'
            ) from exc


def _cmd_verify_tetra(args) -> int:
    pts = _load_points(args.points)
    data = elliptic.periods(pts)
    m = make_metric(1.0, [(z, -0.5) for z in pts])
    ar = area(m).value
    det_x = elliptic.det_tetrahedron(pts, area_x=ar)
    torus = elliptic.det_torus(data, ar)
    log_det = math.log(ar) + detlap.log_det_over_area(m)
    out = {
        "tau": data.tau,
        "jacobi_residual": elliptic.jacobi_residual(data),
        "thomae_residual": elliptic.thomae_check(pts, data),
        "eta_distance_residual": elliptic.eta_distance_identity(pts, data),
        "det_tetrahedron": det_x,
        "det_torus_over_det_sq": torus / det_x / det_x,
        "as_vs_tetr_rel": abs(math.exp(log_det) - det_x) / det_x,
        # Area(E)/2 = |Im(A conj B)|/2, halved before it can pass the float range
        "area_consistency": abs(
            abs((0.5 * data.period_a * data.period_b.conjugate()).imag) - ar) / ar,
    }
    _emit(out, args)
    return 0


def _cmd_verify_cone(args) -> int:
    if args.pairs < 1:
        raise PolydetError(f"--pairs must be at least 1, got {args.pairs}")
    rng = np.random.default_rng(args.seed)
    worst_plane = 0.0
    worst_images = 0.0
    worst_resolvent = 0.0
    for _ in range(args.pairs):
        r, rp = rng.uniform(0.2, 2.0, 2)
        for t in (0.1, 1.0):
            phi, phip = rng.uniform(0.0, 2.0 * math.pi, 2)
            h = heat_kernel_cone(2.0 * math.pi, t, ConePoint(r, phi), ConePoint(rp, phip))
            d2 = r * r + rp * rp - 2.0 * r * rp * math.cos(phi - phip)
            plane = math.exp(-d2 / (4.0 * t)) / (4.0 * math.pi * t)
            worst_plane = max(worst_plane, abs(h - plane))
            for n in (2, 3):
                beta = 2.0 * math.pi / n
                p = ConePoint(r, phi * beta / (2.0 * math.pi))
                q = ConePoint(rp, phip * beta / (2.0 * math.pi))
                h = heat_kernel_cone(beta, t, p, q)
                worst_images = max(worst_images, abs(h - heat_kernel_images(n, t, p, q)))
        phi = rng.uniform(0.0, math.pi / 2.0)
        p = ConePoint(r, 0.1)
        q = ConePoint(rp if abs(rp - r) > 1e-6 else rp + 0.1, 0.1 + phi)
        worst_resolvent = max(
            worst_resolvent,
            abs(resolvent_cone(math.pi, -4.0, p, q) - resolvent_images(2, -4.0, p, q)),
        )
    out = {
        "pairs": args.pairs,
        "seed": args.seed,
        "max_plane_deviation": worst_plane,
        "max_image_sum_deviation": worst_images,
        "max_resolvent_deviation": worst_resolvent,
    }
    _emit(out, args)
    return 0


def _cmd_verify_fd(args) -> int:
    m = load_metric(args.metric)
    fdcfg = verify.FDConfig(richardson=args.richardson)
    reports = verify.run_suite(m, fdcfg=fdcfg)
    _emit(reports, args)
    return 0 if all(r.rel_err <= FD_PASS_TOL for r in reports) else 1


def _cmd_verify_hadamard(args) -> int:
    half = SPLIT_RADIUS / 2.0
    # both finite parts at every angle, at both splits
    r1, r1h, r2, r2h = (hadamard_finite_parts(kind, args.beta, split)
                        for kind in ("coth_over_sinh_sq", "coth_coth_over_theta")
                        for split in (SPLIT_RADIUS, half))
    out = []
    for beta, a, ah, b, bh in zip(args.beta, r1, r1h, r2, r2h):
        out.append({
            "beta": beta,
            "coth_over_sinh_sq": _jsonable(a),
            "coth_coth_over_theta": _jsonable(b),
            "cutoff_halving_shift": {
                "coth_over_sinh_sq": abs(a.finite_part - ah.finite_part),
                "coth_coth_over_theta": abs(b.finite_part - bh.finite_part),
            },
            # what the two runs' rounding and truncation alone may move
            "cutoff_halving_estimate": {
                "coth_over_sinh_sq": a.error_estimate + ah.error_estimate,
                "coth_coth_over_theta": b.error_estimate + bh.error_estimate,
            },
            "q_of_beta": q_of_beta(beta),
            "q_contour_deviation": abs(q_of_beta_contour(beta) - q_of_beta(beta)),
        })
    _emit(out, args)
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _add_output_flags(p):
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--csv", action="store_true", help="emit RFC-4180 CSV")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polydet",
        description="Determinants of Laplacians on genus-zero polyhedral surfaces",
    )
    ap.add_argument("--seed", type=int, default=2024,
                    help="seed for randomized verification suites")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("det", help="determinant report for a metric")
    p.add_argument("--metric", required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("area", help="metric area")
    p.add_argument("--metric", required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_area)

    p = sub.add_parser("grad", help="analytic vs finite-difference gradient")
    p.add_argument("--metric", required=True)
    p.add_argument("--channel", required=True, help="z:i | beta:i | C")
    p.add_argument("--richardson", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_grad)

    p = sub.add_parser("compare", help="same-angle determinant ratio")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_compare)

    pv = sub.add_parser("verify", help="cross-validation suites")
    vsub = pv.add_subparsers(dest="suite", required=True)

    p = vsub.add_parser("tetra", help="elliptic-curve identity chain")
    p.add_argument("--points", required=True,
                   help='JSON file {"points": [[re, im], ...]} with 4 points')
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify_tetra, json=True)

    p = vsub.add_parser("cone", help="heat-kernel and resolvent oracles")
    p.add_argument("--pairs", type=int, default=20)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify_cone, json=True)

    p = vsub.add_parser("fd", help="finite-difference gradient suite")
    p.add_argument("--metric", required=True)
    p.add_argument("--richardson", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_verify_fd, json=True)

    p = vsub.add_parser("hadamard", help="finite-part diagnostics")
    p.add_argument("--beta", type=float, nargs="*",
                   default=[math.pi / 2.0, math.pi, 2.0 * math.pi, 3.0 * math.pi])
    p.set_defaults(func=_cmd_verify_hadamard, json=True)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PolydetError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": str(exc)}) + "\n")
        return 3 if isinstance(exc, ToleranceNotReached) else 2
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "IOError", "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
