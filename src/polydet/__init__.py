"""Determinants of Laplacians on genus-zero polyhedral surfaces.

Closed-form zeta-regularized determinants for flat conical metrics on the
sphere, their gradients in vertex positions, cone angles and overall
scale, and the numerical oracles (cone heat kernels, Hadamard finite
parts, elliptic-curve identities, finite differences) that cross-validate
every formula.

``import polydet`` loads the core: ``errors``, ``metric``, ``quad``,
``detlap``, and ``regint`` and ``cone``, whose placeholder QUADPACK
names the benchmark's tracer wraps at install.  The oracles
``elliptic`` and ``verify``, and the names this package re-exports from
them, are imported on first access (``__getattr__``).
"""

import importlib

from .cone import (
    ConePoint,
    a_mu,
    a_mu_disk_integral,
    heat_kernel_cone,
    heat_kernel_images,
    heat_trace_correction,
    resolvent_cone,
    resolvent_images,
)
from .detlap import (
    DetReport,
    f_function,
    grad_angle,
    grad_position,
    grad_scale,
    log_det_as,
    log_det_over_area,
    w_function,
)
from .errors import PolydetError
from .metric import (
    ConicalVertex,
    PolyhedralMetric,
    dump_metric,
    load_metric,
    make_metric,
    metric_from_json_dict,
    metric_to_json_dict,
    tetrahedron_metric,
)
from .quad import QuadResult, area, segment_integral
from .regint import (
    HadamardResult,
    hadamard_coth_coth_over_theta,
    hadamard_coth_over_sinh_sq,
    q_of_beta,
    q_of_beta_contour,
)

__version__ = "0.1.0"

# name -> the module that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("elliptic", "EllipticData", "dedekind_eta", "det_tetrahedron",
                     "det_torus", "eta_distance_identity", "jacobi_residual", "periods",
                     "theta_constants", "thomae_check"), "elliptic"),
    **dict.fromkeys(("verify", "FDConfig", "GradientReport", "fd_gradient",
                     "gradient_reports", "run_suite"), "verify"),
}


def __getattr__(name: str):
    """A lazy name, looked up in its module on every access: nothing is
    bound here, so no wrapper set on the module's function stays behind."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)
