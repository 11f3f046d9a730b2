"""Each check of the benchmark accepts the exact value and rejects a
perturbed one.  Run with ``python3 -m pytest -q bench``; needs no polydet.
"""

import json
import math
import re

import pytest

import checks
import corpus
import hostspeed
import reference as ref
from run import percentile, tail_percentile

SEED = 7
PERTURB = 1e-6


# --------------------------------------------------------------------------
# det_corpus
# --------------------------------------------------------------------------

def ideal_det_outputs(items):
    """Outputs a correct program would return for one det_corpus round."""
    outs = [None] * len(items)
    by_group = {}
    for k, item in enumerate(items):
        by_group.setdefault(item.get("group"), []).append(k)
    for k, item in enumerate(items):
        zs = [z for z, _ in item["metric"]["verts"]]
        bs = [b for _, b in item["metric"]["verts"]]
        if len(zs) == 3:
            area = ref.triangle_area(item["metric"]["C"], zs, bs)
        elif item["kind"] == "four_pi":
            area = ref.periods(zs)[2]
        else:
            area = 3.0 + 0.1 * len(zs)
        if item["kind"] == "four_pi":
            log_det = ref.four_pi_log_det(zs, area)
        elif item["kind"] == "orbifold":
            log_det = ref.orbifold_log_det(item["n"], item["tau"], area)
        else:
            log_det = 0.5 + 0.01 * len(zs)
        outs[k] = {"log_det": log_det, "area": area, "log_det_over_area": 0.0}
    for group, (a, b) in ((g, ks) for g, ks in by_group.items() if g):
        if group.startswith("twin"):
            outs[b] = dict(outs[a], area=outs[a]["area"])
        else:
            s = ref.heat_trace_sum([bb for _, bb in items[a]["metric"]["verts"]])
            outs[b]["log_det"] = outs[a]["log_det"] + (1.0 - s) * (
                math.log(outs[b]["area"]) - math.log(outs[a]["area"]))
    return outs


def failing(items, outs):
    return [items[k]["id"] for k, cs in enumerate(checks.det_checks(items, outs))
            if not all(c.passed for c in cs)]


def test_det_checks_accept_exact_values():
    items = corpus.det_corpus(SEED)
    assert len(items) == 40
    assert failing(items, ideal_det_outputs(items)) == []


@pytest.mark.parametrize("kind,field", [
    ("generic", "log_det"), ("generic", "area"), ("extreme", "log_det"),
    ("collinear", "area"), ("near_pair", "log_det"), ("equal_angle", "log_det"),
    ("equal_angle", "area"), ("four_pi", "log_det"), ("four_pi", "area"),
    ("orbifold", "log_det")])
def test_det_checks_reject_perturbation(kind, field):
    items = corpus.det_corpus(SEED)
    outs = ideal_det_outputs(items)
    k = next(k for k, it in enumerate(items) if it["kind"] == kind)
    outs[k][field] *= 1.0 + PERTURB
    assert items[k]["id"] in failing(items, outs)


def record_round(items, outs, errors=None):
    errors = errors or {}
    outcome = checks.Outcome()
    for k, (item, cs) in enumerate(zip(items, checks.det_checks(items, outs))):
        outcome.record(item["id"], cs, errors.get(k), item.get("known_fault"))
    return outcome


def known_faults_of_today(items, outs):
    """The outputs as today's program gives them: the orbifold offsets."""
    for k, item in enumerate(items):
        if item["kind"] == "orbifold":
            outs[k]["log_det"] += {"S2(3,3,3)": -0.03654, "S2(2,4,4)": -0.06134,
                                   "S2(2,3,6)": -0.09956}[item["orbifold"]]
    return {}


def test_today_known_faults_fail_and_count_as_known_fault():
    items = corpus.det_corpus(SEED)
    outs = ideal_det_outputs(items)
    errors = known_faults_of_today(items, outs)
    outcome = record_round(items, outs, errors)
    assert (outcome.attempted, outcome.failed, outcome.correct) == (40, 3, True)
    assert outcome.digits() > 9


def test_known_fault_excuses_only_its_own_check():
    items = corpus.det_corpus(SEED)
    outs = ideal_det_outputs(items)
    errors = known_faults_of_today(items, outs)
    k = next(k for k, it in enumerate(items) if it["kind"] == "orbifold")
    outs[k]["area"] *= 1.0 + PERTURB
    assert not record_round(items, outs, errors).correct


@pytest.mark.parametrize("kind", ["orbifold", "near_pair"])
def test_another_exception_is_unexpected(kind):
    items = corpus.det_corpus(SEED)
    outs = ideal_det_outputs(items)
    errors = known_faults_of_today(items, outs)
    k = max(k for k, it in enumerate(items) if it["kind"] == kind)
    outs[k], errors[k] = None, "ValueError: something else"
    outcome = record_round(items, outs, errors)
    assert (outcome.failed, outcome.correct) == (3 if kind == "orbifold" else 4, False)


def test_unexpected_failure_makes_the_run_incorrect():
    outcome = checks.Outcome()
    outcome.record("x", [checks.Check("c", 1.0, 0.5)])
    outcome.record("y", [], error="ToleranceNotReached: stalled")
    assert (outcome.failed, outcome.correct) == (2, False)


# --------------------------------------------------------------------------
# analytic: gradient items
# --------------------------------------------------------------------------

def ideal_grad_output(item):
    metric = item["metric"]
    zs = [z for z, _ in metric["verts"]]
    bs = [b for _, b in metric["verts"]]
    closed = checks.position_closed_form(metric) or [0.1j] * len(zs)
    suite = ([[f"z:{i}", 1e-9] for i in range(1, len(zs) + 1)]
             + [[f"beta:{i}", 1e-9] for i in range(2, len(zs) + 1)] + [["C", 1e-9]])
    return {"position": [[g.real, g.imag] for g in map(complex, closed)],
            "angle": [0.0] * (len(zs) - 1),
            "scale": -ref.heat_trace_sum(bs) / metric["C"], "suite": suite}


@pytest.mark.parametrize("k", range(10))
def test_grad_checks(k):
    item = corpus.grad_round(SEED, 0)[k]
    out = ideal_grad_output(item)
    assert all(c.passed for c in checks.grad_checks(item, out))
    bad = [dict(out, scale=out["scale"] * (1 + PERTURB) + PERTURB),
           dict(out, suite=out["suite"][:-1]),
           dict(out, suite=[[c, 2e-5] for c, _ in out["suite"]])]
    if item["kind"] in ("three", "four_pi"):
        moved = [list(p) for p in out["position"]]
        moved[0][0] += PERTURB
        bad.append(dict(out, position=moved))
    for b in bad:
        assert not all(c.passed for c in checks.grad_checks(item, b))


# --------------------------------------------------------------------------
# analytic: oracle items
# --------------------------------------------------------------------------

def ideal_oracle_output(item):
    kind = item["kind"]
    c = lambda z: [complex(z).real, complex(z).imag]  # noqa: E731
    if kind == "periods":
        abs_a, tau, _ = ref.periods(item["points"])
        return {"tau": c(tau), "abs_a": abs_a, "eta": c(ref.eta(tau)),
                "thetas": [c(t) for t in ref.thetas(tau)],
                "jacobi": 1e-15, "thomae": 1e-12, "eta_distance": 1e-12}
    if kind == "heat_2pi":
        return {"value": ref.plane_heat(item["t"], item["p"], item["q"])}
    if kind == "heat_images":
        return {"value": ref.image_heat(item["n"], item["t"], item["p"], item["q"])}
    if kind.startswith("resolvent"):
        return {"value": c(ref.image_resolvent(item["n"], item["mu"], item["p"], item["q"]))}
    if kind == "a_mu_disk":
        return {"value": ref.q_of_beta(item["beta"]) + 1e-8}
    if kind == "q_contour":
        return {"value": ref.q_of_beta(item["beta"])}
    return {name: ref.hadamard(name, item["beta"])
            for name in ("coth_over_sinh_sq", "coth_coth_over_theta")}


def _perturbed(out):
    """Every variant of ``out`` with one number moved by PERTURB."""
    for key, val in out.items():
        if key in ("jacobi", "thomae", "eta_distance"):
            yield dict(out, **{key: 1e-3})
        elif isinstance(val, float):
            yield dict(out, **{key: val * (1 + PERTURB) + PERTURB})
        elif key == "thetas":
            for k in range(3):
                ts = [list(t) for t in val]
                ts[k][0] += PERTURB
                yield dict(out, thetas=ts)
        else:
            yield dict(out, **{key: [val[0] + PERTURB, val[1]]})


@pytest.mark.parametrize("k", range(16))
def test_oracle_checks(k):
    item = corpus.oracle_round(SEED, 0)[k]
    out = ideal_oracle_output(item)
    assert all(c.passed for c in checks.oracle_checks(item, out))
    for bad in _perturbed(out):
        if item["kind"] == "a_mu_disk":
            bad = dict(bad, value=bad["value"] + 1e-5)
        assert not all(c.passed for c in checks.oracle_checks(item, bad)), bad


def test_hadamard_reference_at_2pi_is_exact():
    assert ref.hadamard("coth_over_sinh_sq", 2 * math.pi) == pytest.approx(
        -1.0 / (6.0 * math.pi), abs=1e-15)
    assert ref.q_of_beta(2 * math.pi) == 0.0


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

def ideal_cli_data(command, inputs):
    if command == "det":
        zs = [complex(*v["z"]) for v in inputs["four_pi.json"]["vertices"]]
        area = ref.periods(zs)[2]
        return {"log_det": ref.four_pi_log_det(zs, area), "area": area}
    if command == "area":
        m = corpus.metric_from_file(inputs["three.json"])
        return {"value": ref.triangle_area(
            m["C"], [z for z, _ in m["verts"]], [b for _, b in m["verts"]]),
            "error_estimate": 1e-12, "cell_count": 10}
    if command == "grad":
        return {"channel": "beta:2", "analytic": 0.1, "finite_difference": 0.1,
                "abs_err": 1e-10, "rel_err": 1e-10}
    if command == "verify_fd":
        m = corpus.metric_from_file(inputs["three.json"])
        closed = checks.position_closed_form(m)
        s = ref.heat_trace_sum([b for _, b in m["verts"]])
        data = [{"channel": f"z:{i + 1}", "analytic": {"re": g.real, "im": g.imag},
                 "rel_err": 1e-9} for i, g in enumerate(closed)]
        data.append({"channel": "C", "analytic": -s / m["C"], "rel_err": 1e-9})
        return data
    if command == "verify_hadamard":
        data = []
        for beta in (math.pi / 2, math.pi, 2 * math.pi, 3 * math.pi):
            row = {"beta": beta, "q_of_beta": ref.q_of_beta(beta),
                   "q_contour_deviation": 1e-16, "cutoff_halving_shift": {}}
            for name in ("coth_over_sinh_sq", "coth_coth_over_theta"):
                row[name] = {"finite_part": ref.hadamard(name, beta)}
                row["cutoff_halving_shift"][name] = 1e-15
            data.append(row)
        return data
    zs = [complex(*p) for p in inputs["quartic.json"]["points"]]
    _, tau, area = ref.periods(zs)
    return {"tau": {"re": tau.real, "im": tau.imag}, "jacobi_residual": 1e-16,
            "thomae_residual": 1e-14, "eta_distance_residual": 1e-14,
            "det_tetrahedron": math.exp(ref.four_pi_log_det(zs, area)),
            "det_torus_over_det_sq": 1.0, "as_vs_tetr_rel": 1e-13,
            "area_consistency": 1e-13}


def _bump(obj, *path, value=None):
    """Copy of ``obj`` with the number at ``path`` moved by PERTURB
    (or set to ``value``)."""
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    node[path[-1]] = value if value is not None else old * (1 + PERTURB) + PERTURB
    return obj


CLI_PERTURBATIONS = {
    "det": [("log_det",), ("area",)],
    "area": [("value",)],
    "grad": [("rel_err",)],
    "verify_fd": [(0, "analytic", "re"), (-1, "analytic"), (1, "rel_err")],
    "verify_hadamard": [(0, "coth_over_sinh_sq", "finite_part"),
                        (2, "coth_over_sinh_sq", "finite_part"),
                        (1, "coth_coth_over_theta", "finite_part"), (3, "q_of_beta"),
                        (0, "q_contour_deviation"),
                        (0, "cutoff_halving_shift", "coth_coth_over_theta")],
    "verify_tetra": [("det_tetrahedron",), ("tau", "im"), ("jacobi_residual",),
                     ("thomae_residual",), ("eta_distance_residual",),
                     ("det_torus_over_det_sq",), ("as_vs_tetr_rel",),
                     ("area_consistency",)],
}


def _passes(command, rc, stdout, inputs, first=None):
    out = {"rc": rc, "stdout": stdout}
    return all(c.passed for c in checks.cli_checks(
        command, out, inputs, stdout if first is None else first))


@pytest.mark.parametrize("command", corpus.CLI_CYCLE)
def test_cli_checks(command):
    inputs = corpus.cli_inputs(SEED)
    data = ideal_cli_data(command, inputs)
    stdout = json.dumps(data) + "\n"
    assert _passes(command, 0, stdout, inputs)
    assert not _passes(command, 3, stdout, inputs)
    assert not _passes(command, 0, stdout, inputs, first=stdout.replace(" ", "  ", 1))
    for path in CLI_PERTURBATIONS[command]:
        residual = "residual" in path[-1] or path[-1] in (
            "rel_err", "q_contour_deviation", "coth_coth_over_theta", "as_vs_tetr_rel",
            "area_consistency")
        bad = _bump(data, *path, value=1e-3 if residual else None)
        assert not _passes(command, 0, json.dumps(bad) + "\n", inputs), path
    # the same doubles printed with a digit more than repr: not bit-identical text
    padded = re.sub(r"(\d\.\d+)(?=[,}\]])", r"\g<1>0", stdout, count=1)
    assert padded != stdout
    assert not _passes(command, 0, padded, inputs)


def test_analytic_run_checks_both_families():
    items = corpus.analytic_round(SEED, 1)
    assert sorted({it["family"] for it in items}) == ["grad", "oracle"]
    records = [{"round": 1, "index": k, "label": it["family"], "error": None,
                "out": (ideal_grad_output(it) if it["family"] == "grad"
                        else ideal_oracle_output(it))}
               for k, it in enumerate(items)]
    outcome = checks.check_run("analytic", SEED, records)
    assert (outcome.attempted, outcome.failed, outcome.correct) == (len(items), 0, True)
    k = next(k for k, it in enumerate(items) if it["kind"] == "periods")
    records[k]["out"] = dict(records[k]["out"], abs_a=records[k]["out"]["abs_a"] * 1.01)
    outcome = checks.check_run("analytic", SEED, records)
    assert (outcome.failed, outcome.correct) == (1, False)


def test_tail_percentile_keeps_ten_items_beyond():
    def beyond(n, p):
        return n - 1 - math.floor((n - 1) * p / 100.0)

    for n in (40, 42, 48, 3600, 4000):
        p = tail_percentile(n)
        assert beyond(n, p) >= 10 > beyond(n, p + 0.1)


def test_percentile_interpolates_between_order_statistics():
    assert percentile(range(1, 41), 75) == pytest.approx(30.25)
    assert percentile([5.0], 99) == 5.0


def test_hostspeed_scale_is_reference_over_geometric_mean():
    assert hostspeed.scale(hostspeed.REF_S, hostspeed.REF_S) == pytest.approx(1.0)
    assert hostspeed.scale(2 * hostspeed.REF_S, 8 * hostspeed.REF_S) == pytest.approx(0.25)
    assert hostspeed.loop_seconds() > 0.0
