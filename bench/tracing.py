"""Spans around the calls into polydet's modules, recorded from outside.

``installed(tracer, polydet)`` replaces every public function of the
layer modules -- in its own module and in every polydet module that
imported it by name -- with a wrapper that records a span (name, start,
end, parent).  It also wraps the ``quad`` name that ``quad``, ``regint``
and ``cone`` bound from ``scipy.integrate``, to count QUADPACK calls and
the returns that carry a convergence warning (``full_output=1`` puts the
message in a fourth slot, which the program discards).  Everything is
restored on exit.  No program file is touched.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import types
from collections import defaultdict

LAYERS = ("metric", "quad", "regint", "detlap", "verify", "elliptic", "cone", "cli")
QUADPACK_BINDINGS = {"quad": "quad1d", "regint": "quad", "cone": "quad"}
CLI_COMMANDS = ("det", "area", "grad", "verify_fd", "verify_hadamard", "verify_tetra")


class Tracer:
    """Spans as [name, start, end, parent, note], kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.cache = {"hits": 0, "misses": 0}  # finite-part lookups while installed

    def begin(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])

    def end(self, note=None) -> None:
        span = self.spans[self.stack.pop()]
        span[2] = time.perf_counter()
        span[4] = note

    def wrap(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            res = None
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                self.end(note(res) if note is not None and res is not None else None)
        return traced

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"],
                       "spans": self.spans, "summary": summary(self),
                       "cache": self.cache}, fh)


def _quadpack_note(res):
    return {"warning": isinstance(res, tuple) and len(res) >= 4}


def _area_note(res):
    return {"cells": res.cell_count}


def _fp_caches(regint):
    return [getattr(regint, n) for n in ("_fp_coth_csch2", "_fp_coth_coth")
            if hasattr(getattr(regint, n, None), "cache_info")]


@contextlib.contextmanager
def installed(tracer: Tracer, polydet):
    modules = {name: sys.modules[f"polydet.{name}"] for name in LAYERS
               if f"polydet.{name}" in sys.modules}
    replace = {}  # id(original) -> wrapper
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                note = _area_note if (layer, attr) == ("quad", "area") else None
                replace[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj, note))
    saved = []
    for mod in [polydet, *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replace and replace[id(obj)][0] is obj:
                saved.append((mod, attr, obj))
                setattr(mod, attr, replace[id(obj)][1])
    for layer, attr in QUADPACK_BINDINGS.items():
        mod = modules[layer]
        obj = getattr(mod, attr)
        saved.append((mod, attr, obj))
        setattr(mod, attr, tracer.wrap(f"{layer}.quadpack", obj, _quadpack_note))
    caches = _fp_caches(modules["regint"])
    before = [c.cache_info() for c in caches]
    try:
        yield tracer
    finally:
        after = [c.cache_info() for c in caches]
        tracer.cache = {
            "hits": sum(a.hits - b.hits for a, b in zip(after, before)),
            "misses": sum(a.misses - b.misses for a, b in zip(after, before)),
        }
        for mod, attr, obj in saved:
            setattr(mod, attr, obj)


# --------------------------------------------------------------------------
# per-layer metrics from the spans
# --------------------------------------------------------------------------

def summary(tracer: Tracer) -> dict:
    """calls, total and self seconds per span name; self time is the span
    minus the spans it directly contains."""
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for k, (name, start, end, _, _) in enumerate(tracer.spans):
        s = out[name]
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child[k]
    return dict(out)


def _ancestor(spans, k, name):
    """Index of the nearest enclosing span called ``name``, or -1."""
    k = spans[k][3]
    while k >= 0 and spans[k][0] != name:
        k = spans[k][3]
    return k


def layer_metrics(tracer: Tracer, n_items: int, walls, plain) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced pass of
    ``n_items`` items; ``walls`` (cli only) are the process times and
    ``plain`` the untraced in-process times of the same commands."""
    spans = tracer.spans
    s = summary(tracer)

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def mean(name, unit=1.0, field="total_s"):
        n = calls(name)
        return s[name][field] / n * unit if n else 0.0

    def per_item(*names):
        return sum(calls(n) for n in names) / n_items

    def nested(child_name, parent_name):
        """(count, seconds) of ``child_name`` spans inside ``parent_name``."""
        ks = [k for k, sp in enumerate(spans) if sp[0] == child_name
              and _ancestor(spans, k, parent_name) >= 0]
        return len(ks), sum(spans[k][2] - spans[k][1] for k in ks)

    def warnings(layer):
        return sum(1 for sp in spans if sp[0] == f"{layer}.quadpack"
                   and sp[4] and sp[4]["warning"])

    area_in_ldas = nested("quad.area", "detlap.log_det_as")[1]
    ldas_total = s.get("detlap.log_det_as", {}).get("total_s", 0.0)
    cells = [sp[4]["cells"] for sp in spans if sp[0] == "quad.area" and sp[4]]
    fp_names = ("regint.hadamard_coth_over_sinh_sq",
                "regint.hadamard_coth_coth_over_theta")
    fp_calls = sum(calls(n) for n in fp_names)
    fp_time = sum(s.get(n, {}).get("total_s", 0.0) for n in fp_names)
    lookups = tracer.cache["hits"] + tracer.cache["misses"]
    eta_theta = ("elliptic.dedekind_eta", "elliptic.theta_constants")
    eta_calls = sum(calls(n) for n in eta_theta)

    m = {
        "metric.make_metric_calls": per_item("metric.make_metric"),
        "metric.make_metric_us": mean("metric.make_metric", 1e6),
        "metric.load_metric_us": mean("metric.load_metric", 1e6),
        "quad.area_ms": mean("quad.area", 1e3),
        "quad.area_share": area_in_ldas / ldas_total if ldas_total else 0.0,
        "quad.cells": sum(cells) / len(cells) if cells else 0.0,
        "quad.area_calls": per_item("quad.area"),
        "quad.quadpack_calls": per_item("quad.quadpack"),
        "quad.quadpack_unconverged": warnings("quad"),
        "regint.fp_evals": fp_calls / n_items,
        "regint.fp_ms": fp_time / fp_calls * 1e3 if fp_calls else 0.0,
        "regint.fp_cache_hit_ratio": tracer.cache["hits"] / lookups if lookups else 0.0,
        "regint.quadpack_calls": per_item("regint.quadpack"),
        "regint.quadpack_unconverged": warnings("regint"),
        "regint.q_contour_ms": mean("regint.q_of_beta_contour", 1e3),
        "detlap.log_det_as_self_ms": mean("detlap.log_det_as", 1e3, "self_s"),
        "detlap.log_det_over_area_us": mean("detlap.log_det_over_area", 1e6),
        "detlap.w_function_us": mean("detlap.w_function", 1e6),
        "detlap.grad_position_us": mean("detlap.grad_position", 1e6),
        "detlap.grad_angle_us": mean("detlap.grad_angle", 1e6),
        "detlap.grad_scale_us": mean("detlap.grad_scale", 1e6),
        "verify.run_suite_ms": mean("verify.run_suite", 1e3),
        "verify.ldoa_calls": (nested("detlap.log_det_over_area", "verify.run_suite")[0]
                              / calls("verify.run_suite")
                              if calls("verify.run_suite") else 0.0),
        "elliptic.periods_ms": mean("elliptic.periods", 1e3),
        "elliptic.eta_theta_us": (sum(s.get(n, {}).get("total_s", 0.0) for n in eta_theta)
                                  / eta_calls * 1e6 if eta_calls else 0.0),
        "cone.heat_kernel_ms": mean("cone.heat_kernel_cone", 1e3),
        "cone.resolvent_ms": mean("cone.resolvent_cone", 1e3),
        "cone.a_mu_disk_ms": mean("cone.a_mu_disk_integral", 1e3),
        "cone.quadpack_calls": per_item("cone.quadpack"),
        "cone.quadpack_unconverged": warnings("cone"),
    }
    for command in CLI_COMMANDS:
        ks = [k for k, sp in enumerate(spans) if sp[0] == "cli.main"
              and spans[sp[3]][0] == f"item.{command}"]
        m[f"cli.main_ms.{command}"] = (
            sum(spans[k][2] - spans[k][1] for k in ks) / len(ks) * 1e3 if ks else 0.0)
    m["cli.startup_ms"] = (
        (sum(r["latency"] for r in walls) / len(walls)
         - sum(r["latency"] for r in plain) / len(plain)) * 1e3 if walls else 0.0)
    return m
