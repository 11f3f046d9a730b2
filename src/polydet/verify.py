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
from typing import List, Union

from .detlap import (
    GradientReport,
    _fill_finite_parts,
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


def _steps(h: float, richardson: bool):
    """The offsets at which a family is evaluated: +-h, and +-h/2 for
    Richardson."""
    return (h, -h, 0.5 * h, -(0.5 * h)) if richardson else (h, -h)


def _derivative(values, h: float, richardson: bool) -> float:
    """The central difference (f(h) - f(-h))/2h of the values at ``_steps``,
    or its Richardson extrapolation (4 D(h/2) - D(h))/3."""
    d1 = (values[0] - values[1]) / (2.0 * h)
    if not richardson:
        return d1
    d2 = (values[2] - values[3]) / (2.0 * (0.5 * h))
    return (4.0 * d2 - d1) / 3.0


def _families(m: PolyhedralMetric, channel: VariationChannel):
    """The step h along ``channel`` and the one-parameter families
    e -> metric whose derivatives at 0 make up its gradient: one for the
    scale and an angle, x and y for a position."""
    if isinstance(channel, Scale):
        return STEP * m.scale, [lambda e: m.with_scale(m.scale + e)]

    if isinstance(channel, Position):
        i = channel.i
        m.check_index(i)
        z0 = m.vertices[i - 1].position
        h = STEP * m.min_pairwise_distance()
        return h, [lambda e: m.with_position(i, z0 + e),
                   lambda e: m.with_position(i, z0 + 1j * e)]

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
        return h, [lambda e: m.with_exponent_shift(i, e / TWO_PI)]

    raise TypeError(f"unknown variation channel {channel!r}")


def _fd_gradients(m: PolyhedralMetric, channels, fdcfg: FDConfig) -> list:
    """Central finite differences of log(det/Area) along every channel.
    The metrics of all the differences are built first, and the finite
    parts at all their angles computed in one batch."""
    plans = []
    for channel in channels:
        h, families = _families(m, channel)
        plans.append((channel, h, [[family(e) for e in _steps(h, fdcfg.richardson)]
                                   for family in families]))
    # position and scale steps keep the angles of m
    _fill_finite_parts([m] + [mm for channel, _, grid in plans if isinstance(channel, Angle)
                              for row in grid for mm in row])
    out = []
    for channel, h, grid in plans:
        d = [_derivative([log_det_over_area(mm) for mm in row], h, fdcfg.richardson)
             for row in grid]
        out.append(0.5 * complex(d[0], -d[1]) if isinstance(channel, Position) else d[0])
    return out


def fd_gradient(
    m: PolyhedralMetric,
    channel: VariationChannel,
    fdcfg: FDConfig = FDConfig(),
) -> Union[float, complex]:
    """Central finite difference of log(det/Area) along ``channel``."""
    return _fd_gradients(m, [channel], fdcfg)[0]


def run_suite(
    m: PolyhedralMetric, fdcfg: FDConfig = FDConfig()
) -> List[GradientReport]:
    """One report per channel: Position(1..M), Angle(2..M), Scale."""
    n = m.num_vertices
    channels = ([Position(i) for i in range(1, n + 1)]
                + [Angle(i) for i in range(2, n + 1)] + [Scale()])
    fds = _fd_gradients(m, channels, fdcfg)
    analytic = ([grad_position(m, i) for i in range(1, n + 1)]
                + [grad_angle(m, i) for i in range(2, n + 1)] + [grad_scale(m)])
    names = ([f"z:{i}" for i in range(1, n + 1)]
             + [f"beta:{i}" for i in range(2, n + 1)] + ["C"])
    return [GradientReport.compare(*r) for r in zip(names, analytic, fds)]
