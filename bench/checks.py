"""Checks of every item's output against the independent references.

Each check gives a deviation and a tolerance.  ``exact`` checks compare
with an exact value (closed form, exact identity, high-precision
reference) and feed ``ref_digits``; checks against an asymptote or a
finite difference only decide pass or fail.

Deviations are relative: for a log-determinant, |delta log det'| is the
relative deviation of det' itself; a value that can come near zero is
compared relative to max(|ref|, floor).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import corpus
import reference as ref

TWO_PI = 2.0 * math.pi

AREA_TOL = 1e-9        # the quadrature's own contract: rel_tol = 1e-9
EXACT_TOL = 1e-9
FD_TOL = 1e-5          # analytic gradient vs central differences


@dataclass
class Check:
    name: str
    deviation: float
    tol: float
    exact: bool = True

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tol   # NaN fails


@dataclass
class Outcome:
    """Pass/fail per attempted item, and the exact deviations that passed."""

    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)
    worst: tuple = (0.0, "none")  # largest passing exact deviation, and where

    def record(self, what: str, checks, error=None, known_fault=None):
        """One item: it fails on a failing check, an exception or no check.
        ``known_fault`` names the one check or exception type whose failure
        is expected on this item; any other failure makes the run incorrect."""
        self.attempted += 1
        bad = [c for c in checks if not c.passed]
        failures = [c.name for c in bad]
        if error:
            failures.append(error.split(":", 1)[0])
        elif not checks:
            failures.append("no check")
        if failures:
            self.failed += 1
            if any(f != known_fault for f in failures):
                detail = error or ", ".join(
                    f"{c.name} {c.deviation:.3g} > {c.tol:.1g}" for c in bad) or "no check"
                self.unexpected.append(f"{what}: {detail}")
        for c in checks:
            if c.exact and c.passed and c.deviation >= self.worst[0]:
                self.worst = (c.deviation, f"{what} {c.name}")

    @property
    def correct(self) -> bool:
        return not self.unexpected

    def digits(self) -> float:
        """-log10 of the largest exact deviation that passed, capped at 16."""
        return 16.0 if self.worst[0] <= 1e-16 else min(16.0, -math.log10(self.worst[0]))


def rel(x, r, floor=0.0) -> float:
    return abs(x - r) / max(abs(r), floor)


def _zb(metric):
    return [z for z, _ in metric["verts"]], [b for _, b in metric["verts"]]


# --------------------------------------------------------------------------
# det_corpus
# --------------------------------------------------------------------------

def det_checks(items, outs) -> list:
    """Checks per item of one round; ``outs[k]`` is item k's output or None."""
    checks = [[] for _ in items]
    groups: dict = {}
    for k, (item, out) in enumerate(zip(items, outs)):
        if out is None:
            continue
        groups.setdefault(item.get("group"), []).append(k)
        zs, bs = _zb(item["metric"])
        if len(zs) == 3:
            checks[k].append(Check("area/triangle", rel(
                out["area"], ref.triangle_area(item["metric"]["C"], zs, bs)), AREA_TOL))
        if item["kind"] == "four_pi":
            checks[k].append(Check("log_det/four_pi", abs(
                out["log_det"] - ref.four_pi_log_det(zs, out["area"])), EXACT_TOL))
            checks[k].append(Check("area/periods", rel(
                out["area"], ref.periods(zs)[2]), AREA_TOL))
        if item["kind"] == "orbifold":
            checks[k].append(Check("log_det/orbifold", abs(
                out["log_det"] - ref.orbifold_log_det(item["n"], item["tau"],
                                                      out["area"])), EXACT_TOL))
    for group, ks in groups.items():
        if group is None or len(ks) != 2:
            continue  # a member failed to run; it is failed already
        (a, b), (oa, ob) = ks, (outs[ks[0]], outs[ks[1]])
        if group.startswith("twin"):
            pair = [Check("twin/log_det", abs(oa["log_det"] - ob["log_det"]), EXACT_TOL),
                    Check("twin/area", rel(ob["area"], oa["area"]), AREA_TOL)]
        else:
            s = ref.heat_trace_sum(_zb(items[a]["metric"])[1])
            pair = [Check("equal_angle/scaling", abs(
                (ob["log_det"] - oa["log_det"])
                - (1.0 - s) * (math.log(ob["area"]) - math.log(oa["area"]))), EXACT_TOL)]
        checks[a].extend(pair)
        checks[b].extend(pair)
    return checks


# --------------------------------------------------------------------------
# analytic: gradient items
# --------------------------------------------------------------------------

def position_closed_form(metric):
    """d log(det'/Area)/dz_i where it is known in closed form: three
    vertices (S sum_{j!=i} (1+b_k)/(z_i-z_j)) and four angles pi
    ((1/12) sum_{j!=i} 1/(z_i-z_j)); None otherwise."""
    zs, bs = _zb(metric)
    if len(zs) == 3:
        s = ref.heat_trace_sum(bs)
        return [s * sum((1.0 + bs[3 - i - j]) / (zs[i] - zs[j])
                        for j in range(3) if j != i) for i in range(3)]
    if len(zs) == 4 and all(b == -0.5 for b in bs):
        return [sum(1.0 / (zs[i] - zs[j]) for j in range(4) if j != i) / 12.0
                for i in range(4)]
    return None


def grad_checks(item, out) -> list:
    metric = item["metric"]
    zs, bs = _zb(metric)
    s = ref.heat_trace_sum(bs)
    checks = [Check("grad_scale/-S/C", rel(out["scale"], -s / metric["C"], 1.0), EXACT_TOL)]
    closed = position_closed_form(metric)
    if closed is not None:
        for i, (g, c) in enumerate(zip(out["position"], closed)):
            checks.append(Check(f"grad_position/{i + 1}",
                                rel(complex(*g), c, 1.0), EXACT_TOL))
    expected = len(zs) + (len(zs) - 1) + 1
    checks.append(Check("suite/channels", abs(len(out["suite"]) - expected), 0, False))
    for channel, rel_err in out["suite"]:
        checks.append(Check(f"fd/{channel}", rel_err, FD_TOL, exact=False))
    return checks


# --------------------------------------------------------------------------
# analytic: oracle items
# --------------------------------------------------------------------------

def oracle_checks(item, out) -> list:
    kind = item["kind"]
    if kind == "periods":
        abs_a, tau, _ = ref.periods(item["points"])
        got_tau = complex(*out["tau"])
        checks = [Check("periods/tau", rel(got_tau, tau), EXACT_TOL),
                  Check("periods/|A|", rel(out["abs_a"], abs_a), EXACT_TOL),
                  Check("eta", rel(complex(*out["eta"]), ref.eta(tau)), EXACT_TOL),
                  Check("jacobi", out["jacobi"], 1e-10, False),
                  Check("thomae", out["thomae"], 1e-7, False),
                  Check("eta_distance", out["eta_distance"], 1e-7, False)]
        for k, (got, want) in enumerate(zip(out["thetas"], ref.thetas(tau))):
            checks.append(Check(f"theta_{k + 2}", rel(complex(*got), want), EXACT_TOL))
        return checks
    if kind == "heat_2pi":
        return [Check("heat/plane", rel(out["value"], ref.plane_heat(
            item["t"], item["p"], item["q"])), EXACT_TOL)]
    if kind == "heat_images":
        return [Check("heat/images", rel(out["value"], ref.image_heat(
            item["n"], item["t"], item["p"], item["q"])), EXACT_TOL)]
    if kind.startswith("resolvent"):
        want = ref.image_resolvent(item["n"], item["mu"], item["p"], item["q"])
        return [Check("resolvent/images", rel(complex(*out["value"]), want), EXACT_TOL)]
    if kind == "a_mu_disk":
        return [Check("a_mu/Q(beta)", abs(out["value"] - ref.q_of_beta(item["beta"])),
                      1e-6, exact=False)]
    if kind == "q_contour":
        return [Check("Q/contour", rel(out["value"], ref.q_of_beta(item["beta"]), 1.0),
                      EXACT_TOL)]
    if kind == "hadamard":
        beta = item["beta"]
        checks = [Check(f"hadamard/{name}", rel(out[name], ref.hadamard(name, beta), 1.0),
                        EXACT_TOL)
                  for name in ("coth_over_sinh_sq", "coth_coth_over_theta")]
        if beta == TWO_PI:
            checks.append(Check("hadamard/-1/(6pi)", rel(
                out["coth_over_sinh_sq"], -1.0 / (6.0 * math.pi), 1.0), EXACT_TOL))
        return checks
    raise ValueError(f"unknown oracle kind {kind!r}")


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

def _round_trip(stdout: str) -> Check:
    """JSON output re-parses to bit-identical floats: dumping the parsed
    object reproduces the text exactly."""
    text = stdout.rstrip("\n")
    try:
        same = json.dumps(json.loads(text)) == text
    except ValueError:
        same = False
    return Check("json/round_trip", 0.0 if same else 1.0, 0.0, exact=False)


def _c(obj) -> complex:
    return complex(obj["re"], obj["im"]) if isinstance(obj, dict) else complex(obj)


def cli_checks(command: str, out: dict, inputs: dict, first_stdout: str) -> list:
    checks = [Check("exit_code", float(out["rc"] != 0), 0.0, exact=False),
              Check("stdout/repeatable", float(out["stdout"] != first_stdout), 0.0,
                    exact=False),
              _round_trip(out["stdout"])]
    if not checks[-1].passed:
        return checks
    data = json.loads(out["stdout"])
    if command == "det":
        zs, _ = _zb(corpus.metric_from_file(inputs["four_pi.json"]))
        checks.append(Check("log_det/four_pi", abs(
            data["log_det"] - ref.four_pi_log_det(zs, data["area"])), EXACT_TOL))
        checks.append(Check("area/periods", rel(data["area"], ref.periods(zs)[2]),
                            AREA_TOL))
    elif command == "area":
        metric = corpus.metric_from_file(inputs["three.json"])
        zs, bs = _zb(metric)
        checks.append(Check("area/triangle", rel(
            data["value"], ref.triangle_area(metric["C"], zs, bs)), AREA_TOL))
    elif command == "grad":
        checks.append(Check("fd/beta:2", data["rel_err"], FD_TOL, exact=False))
    elif command == "verify_fd":
        metric = corpus.metric_from_file(inputs["three.json"])
        closed = position_closed_form(metric)
        s = ref.heat_trace_sum(_zb(metric)[1])
        for rep in data:
            checks.append(Check(f"fd/{rep['channel']}", rep["rel_err"], FD_TOL, exact=False))
            kind, _, idx = rep["channel"].partition(":")
            if kind == "z":
                checks.append(Check(f"grad_position/{idx}", rel(
                    _c(rep["analytic"]), closed[int(idx) - 1], 1.0), EXACT_TOL))
            elif kind == "C":
                checks.append(Check("grad_scale/-S/C", rel(
                    rep["analytic"], -s / metric["C"], 1.0), EXACT_TOL))
    elif command == "verify_hadamard":
        for row in data:
            beta = row["beta"]
            for name in ("coth_over_sinh_sq", "coth_coth_over_theta"):
                checks.append(Check(f"hadamard/{name}", rel(
                    row[name]["finite_part"], ref.hadamard(name, beta), 1.0), EXACT_TOL))
                checks.append(Check(f"cutoff_halving/{name}",
                                    row["cutoff_halving_shift"][name], 1e-8, exact=False))
            checks.append(Check("Q/closed", rel(row["q_of_beta"], ref.q_of_beta(beta), 1.0),
                                EXACT_TOL))
            checks.append(Check("Q/contour", row["q_contour_deviation"], EXACT_TOL))
            if beta == TWO_PI:
                checks.append(Check("hadamard/-1/(6pi)", rel(
                    row["coth_over_sinh_sq"]["finite_part"], -1.0 / (6.0 * math.pi), 1.0),
                    EXACT_TOL))
    elif command == "verify_tetra":
        zs = [complex(*p) for p in inputs["quartic.json"]["points"]]
        _, tau, area_x = ref.periods(zs)
        det_ref = math.exp(ref.four_pi_log_det(zs, area_x))
        checks += [
            Check("det_tetrahedron/closed", rel(data["det_tetrahedron"], det_ref), AREA_TOL),
            Check("tau", rel(_c(data["tau"]), tau), EXACT_TOL),
            Check("jacobi", data["jacobi_residual"], 1e-10, exact=False),
            Check("thomae", data["thomae_residual"], 1e-7, exact=False),
            Check("eta_distance", data["eta_distance_residual"], 1e-7, exact=False),
            Check("det_torus/det^2", abs(data["det_torus_over_det_sq"] - 1.0), AREA_TOL),
            Check("as_vs_tetr", data["as_vs_tetr_rel"], AREA_TOL),
            Check("area_consistency", data["area_consistency"], AREA_TOL),
        ]
    else:
        raise ValueError(f"unknown cli command {command!r}")
    return checks


# --------------------------------------------------------------------------
# a whole run
# --------------------------------------------------------------------------

def check_run(workload: str, seed: int, records: list) -> Outcome:
    """Check every record a workload process returned."""
    outcome = Outcome()
    if workload == "det_corpus":
        items = corpus.det_corpus(seed)
        by_round: dict = {}
        for rec in records:
            by_round.setdefault(rec["round"], [None] * len(items))[rec["index"]] = rec
        for r, recs in sorted(by_round.items()):
            outs = [rec["out"] if rec else None for rec in recs]
            for item, rec, checks in zip(items, recs, det_checks(items, outs)):
                if rec is not None:
                    outcome.record(f"round {r} {item['id']}", checks, rec["error"],
                                   item.get("known_fault"))
    elif workload == "analytic":
        rounds: dict = {}
        for rec in records:
            if rec["round"] not in rounds:
                rounds[rec["round"]] = corpus.analytic_round(seed, rec["round"])
            item = rounds[rec["round"]][rec["index"]]
            check = grad_checks if item["family"] == "grad" else oracle_checks
            outcome.record(f"round {rec['round']} item {rec['index']} {rec['label']}",
                           check(item, rec["out"]) if rec["out"] else [], rec["error"])
    elif workload == "cli":
        inputs = corpus.cli_inputs(seed)
        first: dict = {}
        for rec in records:
            command = rec["label"]
            if rec["out"] is None:
                outcome.record(command, [], rec["error"])
                continue
            first.setdefault(command, rec["out"]["stdout"])
            outcome.record(f"round {rec['round']} {command}",
                           cli_checks(command, rec["out"], inputs, first[command]),
                           rec["error"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return outcome
