"""One workload in one fresh process: import polydet, build the seeded
inputs, then run whole rounds of items with one caller in a closed loop.

    python3 bench/worker.py --workload W --seed N --seconds T --mode M --out F

``--mode setup`` stops after the inputs are built (a cold start for
``setup_s``); ``run`` measures a fixed number of rounds (``n_rounds``);
``trace`` runs an untraced pass and then a traced pass over the same
number of rounds.  The line ``ready <before> <after>`` on stdout marks the
end of set-up; it carries two readings of the host's speed taken inside
this process, before ``import polydet`` and after the inputs are built.
Results go to the JSON file ``--out``; the outputs are checked by the
parent process, which never imports polydet.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402  (benchmark modules next to this file)
import hostspeed  # noqa: E402

# Every run attempts a fixed number of whole rounds, set by --seconds and
# never by the clock: --seconds over the nominal seconds of one round on
# the reference machine (README.md), but at least MIN_ITEMS items, so that
# item_tail_ms keeps 10 items beyond its percentile.
MIN_ITEMS = 40
ROUND_SECONDS = {"det_corpus": 20.0, "analytic": 1.0, "cli": 7.0}
TRACE_ITEMS = 200  # keeps the spans of a traced pass to a few MB
SPEED_EVERY = 0.25  # seconds of item time between two readings of the host's speed


def n_rounds(workload: str, round_size: int, seconds: float) -> int:
    return max(math.ceil(MIN_ITEMS / round_size),
               round(seconds / ROUND_SECONDS[workload]))


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


# --------------------------------------------------------------------------
# workloads: inputs and one item each
# --------------------------------------------------------------------------

class DetCorpus:
    def __init__(self, seed, pd):
        self.pd = pd
        self.items = corpus.det_corpus(seed)

    def round(self, r):
        return self.items

    def label(self, item):
        return item["kind"]

    def run(self, item):
        pd = self.pd
        m = pd.metric.make_metric(item["metric"]["C"], item["metric"]["verts"])
        rep = pd.detlap.log_det_as(m)
        return {"log_det": rep.log_det, "area": rep.area,
                "log_det_over_area": rep.log_det_over_area}


class Analytic:
    """Gradient items and oracle evaluations, interleaved
    (corpus.analytic_round); a fresh round per index."""

    def __init__(self, seed, pd):
        self.pd = pd
        self.seed = seed

    def round(self, r):
        return corpus.analytic_round(self.seed, r)

    def label(self, item):
        return f"{item['family']}.{item['cache'] if item['family'] == 'grad' else item['kind']}"

    def run(self, item):
        return self.grad(item) if item["family"] == "grad" else self.oracle(item)

    def grad(self, item):
        pd = self.pd
        m = pd.metric.make_metric(item["metric"]["C"], item["metric"]["verts"])
        n = m.num_vertices
        pos = [pd.detlap.grad_position(m, i) for i in range(1, n + 1)]
        ang = [pd.detlap.grad_angle(m, i) for i in range(2, n + 1)]
        scale = pd.detlap.grad_scale(m)
        reports = pd.verify.run_suite(
            m, fdcfg=pd.verify.FDConfig(richardson=item["richardson"]))
        return {"position": [_c(g) for g in pos], "angle": ang, "scale": scale,
                "suite": [[r.channel, r.rel_err] for r in reports]}

    def oracle(self, item):
        pd = self.pd
        kind = item["kind"]
        if kind == "periods":
            pts = item["points"]
            data = pd.elliptic.periods(pts)
            return {"tau": _c(data.tau), "abs_a": abs(data.period_a),
                    "eta": _c(data.eta),
                    "thetas": [_c(t) for t in data.theta_constants],
                    "jacobi": pd.elliptic.jacobi_residual(data),
                    "thomae": pd.elliptic.thomae_check(pts, data),
                    "eta_distance": pd.elliptic.eta_distance_identity(pts, data)}
        if kind == "a_mu_disk":
            return {"value": pd.cone.a_mu_disk_integral(
                item["beta"], item["mu"], item["eps"])}
        if kind == "q_contour":
            return {"value": pd.regint.q_of_beta_contour(item["beta"])}
        if kind == "hadamard":
            beta = item["beta"]
            return {"coth_over_sinh_sq":
                    pd.regint.hadamard_coth_over_sinh_sq(beta).finite_part,
                    "coth_coth_over_theta":
                    pd.regint.hadamard_coth_coth_over_theta(beta).finite_part}
        p = pd.cone.ConePoint(*item["p"])
        q = pd.cone.ConePoint(*item["q"])
        if kind.startswith("heat"):
            return {"value": pd.cone.heat_kernel_cone(item["beta"], item["t"], p, q)}
        return {"value": _c(pd.cone.resolvent_cone(item["beta"], item["mu"], p, q))}


class Cli:
    """Each item is one ``python -m polydet.cli`` process; in the traced
    pass the same argv also runs through ``polydet.cli.main`` in-process."""

    def __init__(self, seed, pd):
        self.pd = pd
        self.dir = BENCH / "out" / f"cli-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, obj in corpus.cli_inputs(seed).items():
            (self.dir / name).write_text(json.dumps(obj) + "\n", encoding="utf-8")
        self.items = [{"command": c} for c in corpus.CLI_CYCLE]
        # the thread settings of run.CHILD_ENV are inherited
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def round(self, r):
        return self.items

    def label(self, item):
        return item["command"]

    def argv(self, item):
        return [str(self.dir / a) if a.endswith(".json") else a
                for a in corpus.cli_argv(item["command"])]

    def run(self, item):
        """``python -m polydet.cli`` through cli_main.py, which adds the
        process's own readings of the host's speed (``hostspeed``)."""
        proc = subprocess.run([sys.executable, str(BENCH / "cli_main.py"),
                               *self.argv(item)],
                              env=self.env, capture_output=True, text=True,
                              timeout=120)
        tag, before, after = (proc.stderr.splitlines() or [""])[-1].split()
        if tag != "hostspeed":
            raise RuntimeError(f"no hostspeed line on stderr: {proc.stderr[-300:]!r}")
        return {"rc": proc.returncode, "stdout": proc.stdout,
                "hostspeed": [float(before), float(after)]}

    def run_inprocess(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.pd.cli.main(self.argv(item))
        return {"rc": rc, "stdout": buf.getvalue()}


WORKLOADS = {"det_corpus": DetCorpus, "analytic": Analytic, "cli": Cli}


# --------------------------------------------------------------------------
# closed loop
# --------------------------------------------------------------------------

def run_rounds(wl, first_round, rounds, call=None, tracer=None, inside=False):
    """``rounds`` whole rounds from ``first_round``, one item at a time.
    The host's speed is read before the first item and after every
    SPEED_EVERY seconds of items; each record's ``scale`` turns its
    latency into reference seconds (hostspeed.py).  With ``inside`` each
    item is a process that reads the host's speed itself (Cli.run): the
    readings' time is taken off its latency, and its scale comes from its
    own two readings."""
    call = call or wl.run
    records = []
    block, busy = [], 0.0
    reading = None if inside else hostspeed.loop_seconds()
    for r in range(first_round, first_round + rounds):
        for index, item in enumerate(wl.round(r)):
            label = wl.label(item)
            if tracer is not None:
                tracer.begin("item." + label)
            a = time.perf_counter()
            try:
                out, err = call(item), None
            except Exception as exc:  # recorded as a failed item and checked
                out, err = None, f"{type(exc).__name__}: {exc}"
            b = time.perf_counter()
            if tracer is not None:
                tracer.end()
            latency, own = b - a, None
            if inside and out is not None:
                own = out.pop("hostspeed")
                latency -= hostspeed.REPS * sum(own)
            records.append({"round": r, "index": index, "label": label,
                            "latency": latency, "out": out, "error": err})
            if inside:
                records[-1]["scale"] = hostspeed.scale(*own) if own else 1.0
                continue
            block.append(records[-1])
            busy += latency
            if busy >= SPEED_EVERY:
                reading = _close_block(block, reading)
                block, busy = [], 0.0
    if block:
        _close_block(block, reading)
    return records


def _close_block(block, before):
    after = hostspeed.loop_seconds()
    factor = hostspeed.scale(before, after)
    for rec in block:
        rec["scale"] = factor
    return after


def ref_seconds(records) -> float:
    return sum(r["latency"] * r["scale"] for r in records)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    before = hostspeed.loop_seconds()
    n_modules = len(sys.modules)
    t_import = time.perf_counter()
    import polydet
    import_s = time.perf_counter() - t_import
    import_modules = len(sys.modules) - n_modules

    wl = WORKLOADS[args.workload](args.seed, polydet)
    print(f"ready {before!r} {hostspeed.loop_seconds()!r}", flush=True)
    try:
        if args.mode == "setup":
            return 0
        result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
                  "import_s": import_s, "import_modules": import_modules}
        rounds = n_rounds(args.workload, len(wl.round(0)), args.seconds)
        if args.mode == "run":
            result["records"] = run_rounds(wl, 0, rounds,
                                           inside=args.workload == "cli")
        else:
            result.update(trace_run(wl, args, rounds))
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
               else resource.RUSAGE_SELF)
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    finally:
        if hasattr(wl, "close"):
            wl.close()
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


def trace_run(wl, args, rounds) -> dict:
    """An untraced pass over the run's rounds (at most about TRACE_ITEMS
    items), then a traced pass over as many rounds.  For ``cli`` the
    untraced pass runs processes and the two timed passes run
    ``polydet.cli.main`` in-process, untraced and traced."""
    import tracing

    rounds = min(rounds, max(1, TRACE_ITEMS // len(wl.round(0))))
    first = run_rounds(wl, 0, rounds, inside=args.workload == "cli")
    if args.workload == "cli":
        import polydet.cli  # noqa: F401  (main() runs in-process below)

        plain = run_rounds(wl, 0, rounds, call=wl.run_inprocess)
        start, walls = 0, first
    else:
        plain, start, walls = first, rounds, None
    tracer = tracing.Tracer()
    with tracing.installed(tracer, wl.pd):
        traced = run_rounds(wl, start, rounds,
                            call=wl.run_inprocess if walls else None, tracer=tracer)
    tracer.write(BENCH / "out" / f"trace-{args.workload}-{args.seed}.json")
    layers = tracing.layer_metrics(tracer, n_items=len(traced), walls=walls,
                                   plain=plain)
    layers["trace.overhead"] = ref_seconds(traced) / ref_seconds(plain)
    records = first + (plain if walls else []) + traced
    return {"records": records, "layers": layers}


if __name__ == "__main__":
    sys.exit(main())
