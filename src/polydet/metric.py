"""Flat conical metrics on the Riemann sphere.

A genus-zero polyhedral surface is the plane carrying the metric

    m = C * prod_k |z - z_k|^(2 b_k) |dz|^2,        C > 0,  b_k > -1,

with cone angle beta_k = 2*pi*(b_k + 1) at the vertex z_k and the
Gauss-Bonnet constraint sum_k b_k = -2 (no cone point at infinity).
This module owns the data model.  A metric also keeps the record of its
parts that the determinant, its gradients and their finite differences
read (``PolyhedralMetric``).

Conventions
-----------
The gradients are taken along three kinds of variation channel, each
known by its name alone, which ``verify.parse_channel`` reads:

    z:i              the position z_i of vertex i (complex)
    beta:i, i > 1    the cone angle beta_i, growing at unit rate while
                     beta_1 compensates, so the constraint sum_k b_k = -2
                     is preserved
    C                the overall scale C

Vertex indices are 1-based throughout the public API; vertex 1 is the
fixed gauge vertex for angle variations.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence, Tuple

from .errors import (
    DuplicateVertex,
    GaussBonnetViolation,
    InvalidExponent,
    InvalidMetricJSON,
    NonpositiveAngle,
    NonpositiveScale,
    PolydetError,
)

TWO_PI = 2.0 * math.pi
# the cone angles that F, dF/dbeta, the finite parts and the cone kernels
# take: they hold beta^+-2 and, in the finite parts near th = 0, th^3 with
# th ~ 1/beta, all inside the float range here
ANGLE_RANGE = (1e-100, 1e100)

GAUSS_BONNET_TOL = 1e-12


# --------------------------------------------------------------------------
# data model
# --------------------------------------------------------------------------

class ConicalVertex(NamedTuple):
    """One conical singularity: position z_k and exponent b_k.

    The cone angle is derived, never stored independently, so
    ``angle == 2*pi*(exponent + 1)`` holds exactly by construction.
    """

    position: complex
    exponent: float

    @property
    def angle(self) -> float:
        return TWO_PI * (self.exponent + 1.0)


class _Parts(NamedTuple):
    """The parts of a metric that the determinant and its gradients read
    (module ``detlap``), each pair's at its index in ``_pairs``."""

    positions: Tuple[complex, ...]
    exponents: Tuple[float, ...]
    angles: Tuple[float, ...]
    distances: Tuple[float, ...]      # |z_k - z_l|
    logs: Tuple[float, ...]           # log|z_k - z_l|
    coefficients: Tuple[float, ...]   # b_k b_l (1/beta_k + 1/beta_l)
    w_terms: Tuple[float, ...]        # W's pair terms, coefficient * log


@dataclass(frozen=True)
class PolyhedralMetric:
    """Validated flat conical metric: scale C plus ordered vertex list.

    Build one with ``make_metric``, which validates it.  Construction also
    records, as ``_parts`` (a ``_Parts``), the position, exponent and
    angle tuples and every vertex pair's distance, log distance, W
    coefficient and W term, which the determinant, its gradients and the
    finite-difference steps of module ``verify`` read in place; it raises
    ``DuplicateVertex`` or PolydetError for a pair distance that is 0 or
    not a finite float.  The only thing filled later is ``_gradients``,
    the slots of every vertex's Wirtinger position gradient and angle
    block, which module ``detlap`` fills when a gradient call first asks;
    a slot filled twice, as two threads may, gets the same value.  Neither
    is a field, so ``==``, ``hash``, ``repr`` and the JSON see only C and
    the vertices.
    """

    scale: float
    vertices: Tuple[ConicalVertex, ...]

    def __post_init__(self) -> None:
        zs = tuple([v.position for v in self.vertices])
        bs = tuple([v.exponent for v in self.vertices])
        angles = tuple([v.angle for v in self.vertices])
        pairs = _pairs(len(zs))
        distances = _distances(zs, pairs)
        logs = tuple([math.log(d) for d in distances])
        coefficients = _coefficients(bs, angles, pairs)
        object.__setattr__(self, "_parts", _Parts(
            zs, bs, angles, distances, logs, coefficients,
            tuple([c * d for c, d in zip(coefficients, logs)])))
        object.__setattr__(self, "_gradients", ([None] * len(zs), [None] * len(zs)))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def positions(self) -> Tuple[complex, ...]:
        return self._parts.positions

    def exponents(self) -> Tuple[float, ...]:
        return self._parts.exponents

    def angles(self) -> Tuple[float, ...]:
        return self._parts.angles

    def check_index(self, i: int) -> None:
        """Raise PolydetError unless ``i`` is a 1-based vertex index."""
        if not 1 <= i <= len(self.vertices):
            raise PolydetError(
                f"vertex index {i} out of range 1..{len(self.vertices)}")

    def with_scale(self, scale: float) -> "PolyhedralMetric":
        return make_metric(scale, [(v.position, v.exponent) for v in self.vertices])

    def with_position(self, i: int, z: complex) -> "PolyhedralMetric":
        self.check_index(i)
        verts = [(v.position, v.exponent) for v in self.vertices]
        verts[i - 1] = (z, verts[i - 1][1])
        return make_metric(self.scale, verts)


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------

def make_metric(scale: float, verts: Sequence[Tuple[complex, float]]) -> PolyhedralMetric:
    """Validate and build a PolyhedralMetric.

    Parameters
    ----------
    scale : positive float, the overall factor C.
    verts : sequence of (position, exponent) pairs, at least 3 entries,
        each exponent > -1, positions finite and pairwise distinct, each
        distance |z_k - z_l| a finite float, exponent sum within 1e-12
        of -2.
    """
    _check_scale(scale)
    verts = [(complex(z), float(b)) for z, b in verts]
    for z, b in verts:
        if not b > -1.0 or not math.isfinite(b):
            raise InvalidExponent(f"exponent must satisfy b > -1, got {b}")
        _check_position(z)
    if len(verts) < 3:
        raise GaussBonnetViolation(
            f"need at least 3 vertices, got {len(verts)}"
        )
    _check_gauss_bonnet([b for _, b in verts])
    return PolyhedralMetric(
        scale=float(scale),
        vertices=tuple(ConicalVertex(z, b) for z, b in verts),
    )


# The checks of ``make_metric`` that a finite-difference step of ``verify``
# runs on the one quantity it changes.

def _check_scale(scale: float) -> None:
    if not scale > 0.0 or not math.isfinite(scale):
        raise NonpositiveScale(f"scale must be a positive finite real, got {scale}")


def _check_position(z: complex) -> None:
    if not cmath.isfinite(z):
        raise PolydetError(f"vertex position must be finite, got {z}")


def _check_angle(beta: float) -> None:
    if not beta > 0.0 or not math.isfinite(beta):
        raise NonpositiveAngle(f"cone angle must be positive, got {beta}")
    if not ANGLE_RANGE[0] <= beta <= ANGLE_RANGE[1]:
        raise PolydetError(f"cone angle {beta!r} outside {ANGLE_RANGE}")


def _check_gauss_bonnet(bs: Sequence[float]) -> None:
    try:
        bsum = math.fsum(bs)
    except OverflowError:       # a partial sum past the float range
        bsum = math.inf
    if abs(bsum + 2.0) > GAUSS_BONNET_TOL:
        raise GaussBonnetViolation(f"exponents must sum to -2 (Gauss-Bonnet), got {bsum!r}")


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    """Every vertex pair (k, l), 0-based, k < l."""
    return tuple((k, l) for k in range(n) for l in range(k + 1, n))


@lru_cache(maxsize=None)
def _incident(n: int) -> tuple:
    """For every vertex q, 0-based, the pairs that hold it: (j, p) for every
    j != q in order, p the index in ``_pairs(n)`` of the pair of j and q."""
    index = {pair: p for p, pair in enumerate(_pairs(n))}
    return tuple(tuple((j, index[min(j, q), max(j, q)]) for j in range(n) if j != q)
                 for q in range(n))


def _distances(zs: Sequence[complex], pairs) -> tuple:
    """|z_k - z_l| of each pair (k, l) of ``pairs``: DuplicateVertex naming
    the first pair at distance 0, which only equal positions have, and
    PolydetError if a distance is not a finite float."""
    try:
        out = tuple([abs(zs[k] - zs[l]) for k, l in pairs])
    except OverflowError:       # a modulus past the float range, its parts finite
        out = (math.inf,)
    if 0.0 in out:
        k, l = pairs[out.index(0.0)]
        raise DuplicateVertex(f"vertices {k + 1} and {l + 1} share position {zs[k]}")
    if math.inf in out:
        raise PolydetError("a vertex distance |z_k - z_l| is not a finite float")
    return out


def _coefficients(bs: Sequence[float], angles: Sequence[float], pairs) -> tuple:
    """b_k b_l (1/beta_k + 1/beta_l) of each pair (k, l) of ``pairs``: the
    coefficient of log|z_k - z_l| in W (module ``detlap``)."""
    return tuple([bs[k] * bs[l] * (1.0 / angles[k] + 1.0 / angles[l]) for k, l in pairs])


def tetrahedron_metric() -> PolyhedralMetric:
    """The equilateral-square tetrahedron: vertices {1, -1, i, -i}, all
    cone angles pi (b_k = -1/2), at C = 1."""
    return make_metric(1.0, [(1, -0.5), (-1, -0.5), (1j, -0.5), (-1j, -0.5)])


# --------------------------------------------------------------------------
# JSON interchange
# --------------------------------------------------------------------------
# Schema: {"C": <float>, "vertices": [{"z": [<re>, <im>], "b": <float>}, ...]}

def metric_to_json_dict(m: PolyhedralMetric) -> dict:
    return {
        "C": m.scale,
        "vertices": [
            {"z": [v.position.real, v.position.imag], "b": v.exponent}
            for v in m.vertices
        ],
    }


def metric_from_json_dict(obj: dict) -> PolyhedralMetric:
    try:
        scale = _json_number(obj["C"])
        verts = [(_json_point(v["z"]), _json_number(v["b"])) for v in obj["vertices"]]
    except (KeyError, TypeError, OverflowError) as exc:
        raise InvalidMetricJSON(f"malformed metric JSON: {exc}") from exc
    return make_metric(scale, verts)


def _json_number(value) -> float:
    """A JSON number (int or float, not bool) as a float: TypeError for
    anything else, a string that spells a number included, and
    OverflowError for an int past the float range."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"want a JSON number, got {value!r}")
    return float(value)


def _json_point(value) -> complex:
    """A JSON pair [re, im] of numbers as a complex: TypeError for anything
    else, a list of another length included."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise TypeError(f"want a point [re, im], got {value!r}")
    return complex(_json_number(value[0]), _json_number(value[1]))


def load_metric(path: str) -> PolyhedralMetric:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:   # not JSON, not UTF-8, or too deep
            raise InvalidMetricJSON(f"{path} is not JSON: {exc}") from exc
    return metric_from_json_dict(obj)


def dump_metric(m: PolyhedralMetric, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metric_to_json_dict(m), fh)
        fh.write("\n")
