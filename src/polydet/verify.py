"""Finite-difference harness for the analytic gradient formulas.

Differentiates log(det/Area) -- assembled without any 2D quadrature --
along the three variation channels and pairs each result with its
closed-form counterpart:

    Position(i)  vs  grad_position   (Wirtinger derivative from two real
                                      central differences)
    Angle(i!=1)  vs  grad_angle      (b_i and b_1 perturbed by -+h/2pi)
    Scale        vs  grad_scale

The relative step is fixed, STEP = 1e-4, and scaled to the perturbed
quantity: h = STEP * min-vertex-gap for positions (so near-degenerate
pairs stay inside the quadratic accuracy regime), h = STEP * min(beta_i,
beta_1) for angles, h = STEP * C for the scale (which therefore stays
positive).  The optional Richardson switch combines D(h) and D(h/2) into
the fourth-order extrapolation (4 D(h/2) - D(h))/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Union

from .detlap import (
    GradientReport,
    grad_angle,
    grad_position,
    grad_scale,
    log_det_over_area,
)
from .errors import GaugeVertexVariation, PerturbationLeavesDomain
from .metric import Angle, PolyhedralMetric, Position, Scale, VariationChannel

TWO_PI = 2.0 * math.pi

STEP = 1e-4   # relative finite-difference step


@dataclass(frozen=True)
class FDConfig:
    richardson: bool = False


def _central(f: Callable[[float], float], h: float) -> float:
    return (f(h) - f(-h)) / (2.0 * h)


def _derivative(f: Callable[[float], float], h: float, richardson: bool) -> float:
    d1 = _central(f, h)
    if not richardson:
        return d1
    d2 = _central(f, 0.5 * h)
    return (4.0 * d2 - d1) / 3.0


def fd_gradient(
    m: PolyhedralMetric,
    channel: VariationChannel,
    fdcfg: FDConfig = FDConfig(),
) -> Union[float, complex]:
    """Central finite difference of log(det/Area) along ``channel``."""
    L = log_det_over_area

    if isinstance(channel, Scale):
        h = STEP * m.scale
        return _derivative(
            lambda e: L(m.with_scale(m.scale + e)), h, fdcfg.richardson
        )

    if isinstance(channel, Position):
        i = channel.i
        m.check_index(i)
        z0 = m.vertices[i - 1].position
        h = STEP * m.min_pairwise_distance()
        dx = _derivative(
            lambda e: L(m.with_position(i, z0 + e)), h, fdcfg.richardson
        )
        dy = _derivative(
            lambda e: L(m.with_position(i, z0 + 1j * e)), h, fdcfg.richardson
        )
        return 0.5 * complex(dx, -dy)

    if isinstance(channel, Angle):
        i = channel.i
        if i == 1:
            raise GaugeVertexVariation("vertex 1 is the gauge vertex")
        m.check_index(i)
        # the compensating vertex moves too, so the stiffer (smaller) of
        # the two angles sets the step scale
        h = STEP * min(m.vertices[i - 1].angle, m.vertices[0].angle)
        db = h / TWO_PI
        margin = 1e-12
        b_i = m.vertices[i - 1].exponent
        b_1 = m.vertices[0].exponent
        if b_i - db <= -1.0 + margin or b_1 - db <= -1.0 + margin:
            raise PerturbationLeavesDomain(
                "angle step pushes an exponent to the b = -1 boundary"
            )
        return _derivative(
            lambda e: L(m.with_exponent_shift(i, e / TWO_PI)), h, fdcfg.richardson
        )

    raise TypeError(f"unknown variation channel {channel!r}")


def run_suite(
    m: PolyhedralMetric, fdcfg: FDConfig = FDConfig()
) -> List[GradientReport]:
    """One report per channel: Position(1..M), Angle(2..M), Scale."""
    reports = []
    for i in range(1, m.num_vertices + 1):
        reports.append(GradientReport.compare(
            f"z:{i}", grad_position(m, i), fd_gradient(m, Position(i), fdcfg)
        ))
    for i in range(2, m.num_vertices + 1):
        reports.append(GradientReport.compare(
            f"beta:{i}", grad_angle(m, i), fd_gradient(m, Angle(i), fdcfg)
        ))
    reports.append(GradientReport.compare(
        "C", grad_scale(m), fd_gradient(m, Scale(), fdcfg)
    ))
    return reports
