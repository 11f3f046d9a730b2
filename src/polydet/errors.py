"""Exception hierarchy shared by all polydet modules.

Every error carries a stable machine-readable ``code`` (its class name) so the
CLI can emit structured error JSON without string matching.
"""

from __future__ import annotations


class PolydetError(Exception):
    """Base class for all library errors."""

    @property
    def code(self) -> str:
        return type(self).__name__


# ---- metric construction and variation channels ----

class GaussBonnetViolation(PolydetError):
    """Vertex exponents do not sum to -2 within tolerance."""


class DuplicateVertex(PolydetError):
    """Two conical points share the same position."""


class InvalidExponent(PolydetError):
    """Vertex exponent b <= -1 (non-positive cone angle)."""


class NonpositiveScale(PolydetError):
    """Overall metric scale C must be positive."""


class GaugeVertexVariation(PolydetError):
    """Angle variation requested for the gauge (compensating) vertex 1."""


class InvalidMetricJSON(PolydetError):
    """Metric (or ``verify tetra`` points) JSON file does not match the
    documented schema."""


# ---- quadrature ----

class ToleranceNotReached(PolydetError):
    """A quadrature's error estimate stayed above its tolerance: the area
    (``quad.area``) above quad.REL_TOL times the area, a period
    above elliptic.PERIOD_REL_TOL times its size, or a bisected panel
    integral (``quad._panel_integral``: regint's finite parts and
    cotangent contour) after its budget of bisections.  The CLI exits 3.

    ``partial`` carries the result so far, a ``quad.QuadResult``.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


# ---- regularized 1D integrals ----

class NonpositiveAngle(PolydetError):
    """Cone angle beta must be positive."""


# ---- cone kernels ----

class CoincidentPoints(PolydetError):
    """Resolvent kernel evaluated on the diagonal."""


# ---- elliptic oracle ----

class DegenerateQuartic(PolydetError):
    """Branch points of the quartic are too close for reliable periods."""


# ---- finite-difference harness ----

class PerturbationLeavesDomain(PolydetError):
    """A finite-difference step would leave the admissible metric domain."""
