"""Command-line front end.

Subcommands
-----------
    det      --metric m.json [--json|--csv]      determinant report
    area     --metric m.json [--json|--csv]      metric area
    grad     --metric m.json --channel z:i|beta:i|C [--richardson]
    compare  --m1 a.json --m2 b.json             log(det' m1/det' m2)
    verify   tetra --points p.json | fd --metric m.json | hadamard

``grad`` reports one channel and ``verify fd`` every one, each as the
same report of ``verify.gradient_reports``, under the channel's own name
(``z:01`` is reported as ``z:1``).  ``compare`` is the difference of
the two metrics' ``detlap.log_det_as`` values, at any angles and scales.
``verify tetra`` compares the tetrahedron's closed form with
``detlap.log_det_as``.

Each ``_cmd_*`` returns ``(exit_code, result)`` and prints nothing;
``main`` writes the result as JSON, RFC-4180 CSV or aligned lines.
Exit codes: 0 success, 2 validation error (machine-readable JSON on
stderr), 3 an error estimate above its fixed accuracy contract.
``verify fd`` exits 0 only when every channel passes ``verify.FD_PASS_TOL``
and exits 1 otherwise.
Floats are serialized as shortest round-trip decimals (17 significant
digits in human output).
Only the core (``detlap``, ``errors``, ``metric``, ``quad``) is imported
at module level; ``verify``, ``elliptic``, ``csv`` and ``regint`` are
imported by the commands that use them, so ``det``, ``area``,
``compare`` and ``verify hadamard`` never load ``verify`` or
``elliptic``.  ``cli`` imports no numpy itself.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import detlap
from .errors import InvalidMetricJSON, PolydetError, ToleranceNotReached
from .metric import _json_point, load_metric, make_metric
from .quad import area


# --------------------------------------------------------------------------
# serialization helpers
# --------------------------------------------------------------------------

def _jsonable(x):
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    if hasattr(x, "_asdict"):      # a result record (typing.NamedTuple)
        return {k: _jsonable(v) for k, v in x._asdict().items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def _flatten(prefix, x, out):
    """``out`` with the leaves of ``x`` added under keys like a.b[0]."""
    if isinstance(x, dict):
        for k, v in x.items():
            _flatten(f"{prefix}{'.' if prefix else ''}{k}", v, out)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            _flatten(f"{prefix}[{i}]", v, out)
    else:
        out[prefix] = x
    return out


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.17g}"
    return x


def _emit(result, args) -> None:
    """Write a command's result as CSV (one row per list entry), JSON, or
    one ``key  value`` line per leaf."""
    data = _jsonable(result)
    if getattr(args, "csv", False):
        import csv

        rows = [_flatten("", row, {}) for row in (data if isinstance(data, list) else [data])]
        fields = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(sys.stdout, fieldnames=fields, lineterminator="\r\n")
        writer.writeheader()
        writer.writerows({k: _fmt(row.get(k)) for k in fields} for row in rows)
    elif getattr(args, "json", False):
        print(json.dumps(data))
    else:
        flat = _flatten("", data, {})
        width = max((len(k) for k in flat), default=0)
        for k, v in flat.items():
            print(f"{k:<{width}}  {_fmt(v)}")


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_det(args):
    return 0, detlap.log_det_as(load_metric(args.metric))


def _cmd_area(args):
    return 0, area(load_metric(args.metric))


def _cmd_grad(args):
    from . import verify

    m = load_metric(args.metric)
    fdcfg = verify.FDConfig(richardson=args.richardson)
    return 0, verify.gradient_reports(m, [args.channel], fdcfg)[0]


def _cmd_compare(args):
    m1, m2 = load_metric(args.m1), load_metric(args.m2)
    return 0, {"log_det_ratio": detlap.log_det_as(m1).log_det - detlap.log_det_as(m2).log_det}


def _load_points(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return [_json_point(p) for p in json.load(fh)["points"]]
        except (ValueError, RecursionError, KeyError, TypeError, OverflowError) as exc:
            raise InvalidMetricJSON(
                f'malformed points JSON, want {{"points": [[re, im], ...]}}: {exc}'
            ) from exc


def _cmd_verify_tetra(args):
    from . import elliptic

    pts = _load_points(args.points)
    data = elliptic.periods(pts)
    report = detlap.log_det_as(make_metric(1.0, [(z, -0.5) for z in pts]))
    ar = report.area
    det_x = elliptic.det_tetrahedron(pts, ar)
    torus = elliptic.det_torus(data, ar)
    return 0, {
        "tau": data.tau,
        "jacobi_residual": elliptic.jacobi_residual(data),
        "thomae_residual": elliptic.thomae_check(pts, data),
        "eta_distance_residual": elliptic.eta_distance_identity(pts, data),
        "det_tetrahedron": det_x,
        "det_torus_over_det_sq": torus / det_x / det_x,
        "as_vs_tetr_rel": abs(math.exp(report.log_det) - det_x) / det_x,
        # Area(E)/2 = |Im(A conj B)|/2, halved before it can pass the float range
        "area_consistency": abs(
            abs((0.5 * data.period_a * data.period_b.conjugate()).imag) - ar) / ar,
    }


def _cmd_verify_fd(args):
    from . import verify

    m = load_metric(args.metric)
    fdcfg = verify.FDConfig(richardson=args.richardson)
    reports = verify.run_suite(m, fdcfg=fdcfg)
    return (0 if all(r.rel_err <= verify.FD_PASS_TOL for r in reports) else 1), reports


def _cmd_verify_hadamard(args):
    from .regint import (hadamard_coth_coth_over_theta, hadamard_coth_over_sinh_sq,
                         q_of_beta, q_of_beta_contour)

    out = []
    for beta in args.beta:
        # both finite parts, at both splits
        a, ah, b, bh = (fp(beta, halved)
                        for fp in (hadamard_coth_over_sinh_sq, hadamard_coth_coth_over_theta)
                        for halved in (False, True))
        out.append({
            "beta": beta,
            "coth_over_sinh_sq": a,
            "coth_coth_over_theta": b,
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
    return 0, out


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

    p = sub.add_parser("compare", help="log ratio of two determinants")
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
        code, result = args.func(args)
        _emit(result, args)
        return code
    except PolydetError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": str(exc)}) + "\n")
        return 3 if isinstance(exc, ToleranceNotReached) else 2
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "IOError", "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
