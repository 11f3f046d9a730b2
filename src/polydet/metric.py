"""Flat conical metrics on the Riemann sphere.

A genus-zero polyhedral surface is the plane carrying the metric

    m = C * prod_k |z - z_k|^(2 b_k) |dz|^2,        C > 0,  b_k > -1,

with cone angle beta_k = 2*pi*(b_k + 1) at the vertex z_k and the
Gauss-Bonnet constraint sum_k b_k = -2 (no cone point at infinity).
This module owns the data model, pointwise density evaluation, and the
three infinitesimal variation fields (vertex position, cone angle with
vertex 1 compensating, overall scale).  A metric also keeps the record of
its parts that the determinant, its gradients and their finite
differences read, each computed once, on first use.

Conventions
-----------
Writing the conformal factor as m = exp(-phi) |dz|^2,

    -phi(z) = log C + sum_k 2 b_k log|z - z_k|,

the variation fields phi-dot are:

    position of vertex i :  b_i / (z - z_i)                 (complex)
    angle of vertex i>1  :  (1/pi) log|(z - z_1)/(z - z_i)| (real; beta_i
                            grows at unit rate while beta_1 compensates,
                            so the constraint sum_k b_k = -2 is preserved)
    overall scale        :  -1/C                            (real)

Vertex indices are 1-based throughout the public API; vertex 1 is the
fixed gauge vertex for angle variations.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence, Tuple, Union

from .errors import (
    DuplicateVertex,
    EvaluationAtVertex,
    GaussBonnetViolation,
    GaugeVertexVariation,
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

@dataclass(frozen=True)
class ConicalVertex:
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
    logs: Tuple[float, ...]           # log|z_k - z_l|
    coefficients: Tuple[float, ...]   # b_k b_l (1/beta_k + 1/beta_l)
    w_terms: Tuple[float, ...]        # W's pair terms, coefficient * log


@dataclass(frozen=True)
class PolyhedralMetric:
    """Validated flat conical metric: scale C plus ordered vertex list.

    Immutable after construction; safe to share across threads.  Besides
    its two fields a metric keeps a record of its parts: the distance of
    every vertex pair, which ``make_metric`` computes; the parts of
    ``_Parts``, its position, exponent and angle tuples, the log distance
    and W coefficient of every pair and W's pair terms; and the distance
    sum of every angle gradient block, which only ``grad_angle`` reads.
    Each is computed on first use and kept by ``functools.cached_property``
    in the instance's ``__dict__``.  None is a field, so ``==``, ``hash``,
    ``repr`` and the JSON see only C and the vertices, and a part computed
    twice, as two threads may, has the same value.
    """

    scale: float
    vertices: Tuple[ConicalVertex, ...]

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

    def min_pairwise_distance(self) -> float:
        return min(self._pair_distances)

    def with_scale(self, scale: float) -> "PolyhedralMetric":
        return make_metric(scale, [(v.position, v.exponent) for v in self.vertices])

    def with_position(self, i: int, z: complex) -> "PolyhedralMetric":
        self.check_index(i)
        verts = [(v.position, v.exponent) for v in self.vertices]
        verts[i - 1] = (z, verts[i - 1][1])
        return make_metric(self.scale, verts)

    @cached_property
    def _pair_distances(self) -> Tuple[float, ...]:
        """|z_k - z_l| of every pair of ``_pairs``; ``make_metric`` sets it."""
        return _distances([v.position for v in self.vertices], _pairs(len(self.vertices)))

    @cached_property
    def _parts(self) -> _Parts:
        zs = tuple([v.position for v in self.vertices])
        bs = tuple([v.exponent for v in self.vertices])
        angles = tuple([v.angle for v in self.vertices])
        logs = tuple([math.log(d) for d in self._pair_distances])
        coefficients = _coefficients(bs, angles, _pairs(len(zs)))
        return _Parts(zs, bs, angles, logs, coefficients,
                      tuple([c * d for c, d in zip(coefficients, logs)]))

    @cached_property
    def _b_sums(self) -> Tuple[float, ...]:
        """The distance sum (1/6) sum_{j != q} (1/beta_j + 2pi/beta_q^2) b_j
        log|z_j - z_q| of the angle gradient block B_q of every vertex q."""
        _, bs, angles, logs, _, _ = self._parts
        # the M - 1 terms of each block in turn
        terms = [(1.0 / angles[j] + TWO_PI / (tq * tq)) * bs[j] * logs[p]
                 for tq, incident in zip(angles, _incident(len(angles))) for j, p in incident]
        width = len(angles) - 1
        return tuple([math.fsum(terms[q:q + width]) / 6.0
                      for q in range(0, len(terms), width)])


@dataclass(frozen=True)
class MetricDensity:
    """Pointwise density e^{-phi(z)} together with its (finite) logarithm."""

    value: float
    log_value: float


# --------------------------------------------------------------------------
# variation channels
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Position:
    """Vary the position of vertex ``i`` (1-based)."""

    i: int


@dataclass(frozen=True)
class Angle:
    """Vary the cone angle of vertex ``i`` (1-based, i != 1); vertex 1
    compensates so the exponent sum stays at -2."""

    i: int


@dataclass(frozen=True)
class Scale:
    """Vary the overall scale factor C."""


VariationChannel = Union[Position, Angle, Scale]


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
    zs = [z for z, _ in verts]
    distances = _distances(zs, _pairs(len(zs)))
    m = PolyhedralMetric(
        scale=float(scale),
        vertices=tuple(ConicalVertex(z, b) for z, b in verts),
    )
    vars(m)["_pair_distances"] = distances      # cached_property's slot
    return m


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
    bsum = math.fsum(bs)
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


def tetrahedron_metric(scale: float = 1.0) -> PolyhedralMetric:
    """The equilateral-square tetrahedron: vertices {1, -1, i, -i}, all
    cone angles pi (b_k = -1/2)."""
    return make_metric(scale, [(1, -0.5), (-1, -0.5), (1j, -0.5), (-1j, -0.5)])


# --------------------------------------------------------------------------
# pointwise evaluation
# --------------------------------------------------------------------------

def log_density(m: PolyhedralMetric, z: complex) -> float:
    """log of the metric density: log C + sum_k 2 b_k log|z - z_k| = -phi(z).

    Raises EvaluationAtVertex exactly at a vertex position (where the log
    diverges for b_k < 0 and the derivative for any b_k != 0).
    """
    z = complex(z)
    terms = [math.log(m.scale)]
    for v in m.vertices:
        d = abs(z - v.position)
        if d == 0.0:
            raise EvaluationAtVertex(f"z coincides with vertex at {v.position}")
        terms.append(2.0 * v.exponent * math.log(d))
    return math.fsum(terms)


def density(m: PolyhedralMetric, z: complex) -> MetricDensity:
    lv = log_density(m, z)
    return MetricDensity(value=math.exp(lv), log_value=lv)


def variation_field(
    m: PolyhedralMetric, channel: VariationChannel, z: complex
) -> Union[complex, float]:
    """The variation phi-dot(z) of the conformal factor along ``channel``.

    Position(i) returns the complex field b_i/(z - z_i); Angle(i) returns
    the real field (1/pi) log|(z - z_1)/(z - z_i)| (unit growth of beta_i,
    compensated by beta_1); Scale returns the constant -1/C.
    """
    z = complex(z)
    if isinstance(channel, Scale):
        return -1.0 / m.scale
    if isinstance(channel, Position):
        m.check_index(channel.i)
        z_i = m.vertices[channel.i - 1].position
        if z == z_i:
            raise EvaluationAtVertex(f"z coincides with vertex {channel.i}")
        return m.vertices[channel.i - 1].exponent / (z - z_i)
    if isinstance(channel, Angle):
        if channel.i == 1:
            raise GaugeVertexVariation(
                "vertex 1 is the gauge vertex; vary an i != 1 angle instead"
            )
        m.check_index(channel.i)
        z_1 = m.vertices[0].position
        z_i = m.vertices[channel.i - 1].position
        if z == z_i or z == z_1:
            raise EvaluationAtVertex("z coincides with a varied vertex")
        return math.log(abs(z - z_1) / abs(z - z_i)) / math.pi
    raise TypeError(f"unknown variation channel {channel!r}")


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
        scale = float(obj["C"])
        verts = [
            (complex(float(v["z"][0]), float(v["z"][1])), float(v["b"]))
            for v in obj["vertices"]
        ]
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise InvalidMetricJSON(f"malformed metric JSON: {exc}") from exc
    return make_metric(scale, verts)


def load_metric(path: str) -> PolyhedralMetric:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:   # not JSON, or not UTF-8
            raise InvalidMetricJSON(f"{path} is not JSON: {exc}") from exc
    return metric_from_json_dict(obj)


def dump_metric(m: PolyhedralMetric, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metric_to_json_dict(m), fh)
        fh.write("\n")
