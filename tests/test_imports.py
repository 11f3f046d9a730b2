"""What ``import polydet`` loads, checked in fresh interpreters: the core
eagerly, ``elliptic`` and ``verify`` only on first use, and every name
the package exports resolving to its own module's object."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import polydet

# every public name of the package, by the module that defines it
EXPORTS = {
    "cone": ["ConePoint", "a_mu", "a_mu_disk_integral", "heat_kernel_cone",
             "heat_kernel_images", "heat_trace_correction", "resolvent_cone",
             "resolvent_images"],
    "detlap": ["DetReport", "f_function", "grad_angle", "grad_position", "grad_scale",
               "log_det_as", "log_det_over_area", "w_function"],
    "elliptic": ["EllipticData", "dedekind_eta", "det_tetrahedron", "det_torus",
                 "eta_distance_identity", "jacobi_residual", "periods", "theta_constants",
                 "thomae_check"],
    "errors": ["PolydetError"],
    "metric": ["ConicalVertex", "PolyhedralMetric", "dump_metric", "load_metric",
               "make_metric", "metric_from_json_dict", "metric_to_json_dict",
               "tetrahedron_metric"],
    "quad": ["QuadResult", "area", "segment_integral"],
    "regint": ["HadamardResult", "hadamard_coth_coth_over_theta",
               "hadamard_coth_over_sinh_sq", "q_of_beta", "q_of_beta_contour"],
    "verify": ["FDConfig", "GradientReport", "fd_gradient", "gradient_reports", "run_suite"],
}
EAGER = ["errors", "metric", "quad", "regint", "cone", "detlap"]
LAZY = ["elliptic", "verify"]

LOADED = ("lambda: {m: 'polydet.' + m in sys.modules "
          "for m in ('errors', 'metric', 'quad', 'regint', 'cone', 'detlap', "
          "'elliptic', 'verify')}")


def _fresh(code: str, *args: str):
    """Run ``code`` in a fresh interpreter with the package on its path;
    the JSON of its last line of stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(polydet.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_the_core_only():
    loaded = _fresh(f"import json, sys\nimport polydet\nprint(json.dumps(({LOADED})()))")
    assert loaded == {**dict.fromkeys(EAGER, True), **dict.fromkeys(LAZY, False)}


def test_core_commands_load_no_oracle(tmp_path):
    # each command runs after the last in one process: the modules loaded
    # after each must still be the core alone
    metric = tmp_path / "tetra.json"
    polydet.dump_metric(polydet.tetrahedron_metric(), str(metric))
    commands = [["det", "--metric", str(metric), "--json"],
                ["area", "--metric", str(metric), "--csv"],
                ["compare", "--m1", str(metric), "--m2", str(metric)],
                ["verify", "hadamard", "--beta", "3.0"]]
    code = ("import contextlib, io, json, sys\n"
            "from polydet.cli import main\n"
            f"loaded = {LOADED}\n"
            "out = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    out.append([code, loaded()])\n"
            "print(json.dumps(out))")
    core = {**dict.fromkeys(EAGER, True), **dict.fromkeys(LAZY, False)}
    assert _fresh(code, json.dumps(commands)) == [[0, core]] * len(commands)


def test_every_export_resolves_to_its_module():
    # looked up before anything else imports elliptic or verify, each name
    # is its module's own object, and each lazy module is the module
    code = ("import importlib, json, sys\n"
            "import polydet\n"
            "exports = json.loads(sys.argv[1])\n"
            "same = {name: getattr(polydet, name) is "
            "getattr(importlib.import_module('polydet.' + module), name)\n"
            "        for module, names in exports.items() for name in names}\n"
            "modules = {m: getattr(polydet, m) is sys.modules['polydet.' + m]\n"
            "           for m in json.loads(sys.argv[2])}\n"
            "try:\n"
            "    polydet.no_such_name\n"
            "    unknown = 'resolved'\n"
            "except AttributeError as exc:\n"
            "    unknown = str(exc)\n"
            "print(json.dumps([same, modules, unknown]))")
    same, modules, unknown = _fresh(code, json.dumps(EXPORTS), json.dumps(EAGER + LAZY))
    assert same == {name: True for names in EXPORTS.values() for name in names}
    assert modules == dict.fromkeys(EAGER + LAZY, True)
    assert unknown == "module 'polydet' has no attribute 'no_such_name'"


def test_lazy_names_are_not_bound_in_the_package():
    # a lazy name is looked up in its module on every access, so a function
    # replaced there is what the package serves next
    code = ("import json\n"
            "import polydet\n"
            "first = polydet.run_suite\n"
            "polydet.verify.run_suite = wrapped = lambda *a, **k: None\n"
            "served = polydet.run_suite is wrapped\n"
            "polydet.verify.run_suite = first\n"
            "print(json.dumps([served, polydet.run_suite is first,\n"
            "                  'run_suite' in vars(polydet), 'periods' in vars(polydet)]))")
    assert _fresh(code) == [True, True, False, False]


def _imported(nodes):
    """The modules an import among ``nodes`` names: ``from . import x``
    gives ``x``, ``from .m import x`` gives ``.m``."""
    imported = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= ({alias.name for alias in node.names} if node.module is None
                         else {"." * node.level + node.module})
    return imported


CLI_TREE = ast.parse(Path(polydet.__file__).with_name("cli.py").read_text())


def test_cli_imports_only_the_core_at_module_level():
    # the commands that need regint, verify, elliptic or csv import them
    # themselves: cli.py's own top-level imports are the core
    assert _imported(CLI_TREE.body) == {"__future__", "argparse", "json", "math", "sys",
                                        "detlap", ".errors", ".metric", ".quad"}


def test_cli_imports_neither_numpy_nor_cone_anywhere():
    # inside the commands too: no command draws numpy random points or runs
    # the cone kernels
    imported = _imported(ast.walk(CLI_TREE))
    assert imported == {"__future__", "argparse", "json", "math", "sys", "csv",
                        "detlap", ".errors", ".metric", ".quad",
                        "verify", "elliptic", ".regint"}
    assert not {name for name in imported
                if name.split(".")[0] == "numpy" or name.lstrip(".") == "cone"}


RULE_NAMES = {"NODES", "_chebyshev", "_rule", "_panel_sums"}


def _rule_names_used(tree):
    """The names of RULE_NAMES that a module imports from ``quad`` or reads
    as an attribute of a name bound to module ``quad``."""
    aliases, used = {"quad"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            if module == "quad":
                used |= {alias.name for alias in node.names} & RULE_NAMES
            elif module in ("", "polydet"):
                aliases |= {alias.asname or alias.name for alias in node.names
                            if alias.name == "quad"}
        elif isinstance(node, ast.Import):
            aliases |= {alias.asname for alias in node.names
                        if alias.name.endswith(".quad") and alias.asname}
        elif (isinstance(node, ast.Attribute) and node.attr in RULE_NAMES
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            used.add(node.attr)
    return used


def test_only_quad_names_the_panel_rule():
    # quad builds, refuses, sums and bisects the Chebyshev panels; every
    # other module goes through its integrators, not the rule's parts
    package = Path(polydet.__file__).parent
    used = {path.name: _rule_names_used(ast.parse(path.read_text()))
            for path in sorted(package.glob("*.py")) if path.name != "quad.py"}
    assert used == {name: set() for name in used}
