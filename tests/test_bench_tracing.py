"""The per-layer tracer of the benchmark (bench/tracing.py) installs over
the package: every binding it wraps must exist, spans must be recorded
for the determinant and the contour oracles, and no QUADPACK call may
appear among them."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import polydet
import polydet.cli  # noqa: F401  (the tracer wraps every loaded layer)
from polydet import ConePoint

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_and_records_spans():
    tracing = _tracing()
    tracer = tracing.Tracer()
    originals = (polydet.log_det_as, polydet.heat_kernel_cone,
                 polydet.q_of_beta_contour, polydet.regint.quad)
    with tracing.installed(tracer, polydet):
        polydet.log_det_as(polydet.tetrahedron_metric())
        polydet.heat_kernel_cone(1.3 * math.pi, 0.5, ConePoint(0.8, 0.2),
                                 ConePoint(1.1, 1.4))
        polydet.q_of_beta_contour(1.3 * math.pi)
    names = {span[0] for span in tracer.spans}
    assert {"detlap.log_det_as", "quad.area", "cone.heat_kernel_cone",
            "regint.q_of_beta_contour"} <= names
    # the QUADPACK bindings still resolve, but nothing in polydet calls them
    assert not [name for name in names if name.endswith(".quadpack")]
    assert all(end >= start for _, start, end, _, _ in tracer.spans)
    assert (polydet.log_det_as, polydet.heat_kernel_cone,
            polydet.q_of_beta_contour, polydet.regint.quad) == originals


def test_tracer_installs_over_a_bare_import():
    # the state of a traced det_corpus run: only ``import polydet`` has
    # run, so the tracer finds every layer it indexes among the modules
    # that import loads (the imports above cannot show one it stopped
    # loading)
    code = ("import importlib.util, json, sys\n"
            "import polydet\n"
            "spec = importlib.util.spec_from_file_location('bench_tracing', sys.argv[1])\n"
            "tracing = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(tracing)\n"
            "tracer = tracing.Tracer()\n"
            "original = polydet.log_det_as\n"
            "with tracing.installed(tracer, polydet):\n"
            "    polydet.log_det_as(polydet.tetrahedron_metric())\n"
            "print(json.dumps([sorted({s[0] for s in tracer.spans}),\n"
            "                  polydet.log_det_as is original]))")
    env = dict(os.environ, PYTHONPATH=str(Path(polydet.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(TRACING)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names, restored = json.loads(proc.stdout.splitlines()[-1])
    assert {"detlap.log_det_as", "quad.area"} <= set(names)
    assert restored
