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
positive).  A difference is divided by the steps actually taken, the
perturbed quantity less its base value, which rounding may make other
than +-h far from the origin.  The optional Richardson switch combines
D(h) and D(h/2) into the fourth-order extrapolation (4 D(h/2) - D(h))/3.

No metric is built per step.  The base metric's parts are kept: its
log|z_k - z_l| of every pair, W's pair terms, its F terms and its
prefactor; each step redoes only what it changes and sums the parts with
the assembly of ``detlap.log_det_over_area``, whose value it equals bit
for bit (``math.fsum`` is exactly rounded, so the order of the terms does
not matter):

    position step  the moved vertex's M - 1 logs and W terms
    angle step     the W terms of vertices i and 1, and F at their two new
                   angles (F at every angle the angle steps visit is
                   taken in one call, its mode series in one pass)
    scale step     the prefactor and every F term

Each step first runs the checks ``make_metric`` would run on what it
changes, from the same helpers: a finite positive scale; a finite moved
position distinct from the others; the exponent sum (exponents above -1
are checked against the margin below).  A position step lost to
rounding (z + e == z) raises PerturbationLeavesDomain, and a log(det/Area)
that is not finite, at the base metric or at a step, PolydetError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Union

from .detlap import (
    GradientReport,
    _assemble,
    _f_terms,
    _log_distances,
    _prefactor,
    _w_sum,
    _w_terms,
    grad_angle,
    grad_position,
    grad_scale,
)
from .errors import GaugeVertexVariation, PerturbationLeavesDomain
from .metric import (
    Angle,
    PolyhedralMetric,
    Position,
    Scale,
    VariationChannel,
    _check_gauss_bonnet,
    _check_position,
    _check_scale,
    _pairs,
)

TWO_PI = 2.0 * math.pi

STEP = 1e-4   # relative finite-difference step


@dataclass(frozen=True)
class FDConfig:
    richardson: bool = False


def _steps(h: float, richardson: bool):
    """The offsets at which a family is evaluated: +-h, and +-h/2 for
    Richardson."""
    return (h, -h, 0.5 * h, -(0.5 * h)) if richardson else (h, -h)


def _derivative(row, richardson: bool) -> float:
    """The central difference (f(t+) - f(t-))/(t+ - t-) of a row of
    (step, t) pairs at ``_steps``, t the offset actually taken, or its
    Richardson extrapolation (4 D(h/2) - D(h))/3."""
    values = [step() for step, _ in row]
    taken = [t for _, t in row]
    d1 = (values[0] - values[1]) / (taken[0] - taken[1])
    if not richardson:
        return d1
    d2 = (values[2] - values[3]) / (taken[2] - taken[3])
    return (4.0 * d2 - d1) / 3.0


class _Steps:
    """log(det/Area) at the finite-difference steps from a metric ``m``,
    each assembled from m's parts with only what the step changes redone.

    Planning steps (``position_steps``, ``angle_steps``, ``scale_steps``)
    runs the checks of ``make_metric`` on what each changes, redoes its W
    terms and returns per step a callable that assembles its value once F
    is known, and the offset the step actually takes.  ``finish`` takes F
    at m's angles and at every angle an angle step visits in one
    ``_f_terms`` call, whose mode series runs in one pass, and checks
    that log(det/Area) at m is finite.
    """

    def __init__(self, m: PolyhedralMetric):
        self.zs, self.bs, self.angles = m.positions(), m.exponents(), m.angles()
        self.scale = m.scale
        self.min_gap = m.min_pairwise_distance()
        self.pairs = _pairs(len(self.zs))
        self.logs = _log_distances(self.zs, self.pairs)
        self.w_terms = _w_terms(self.bs, self.angles, self.pairs, self.logs)
        self.w = _w_sum(self.w_terms)
        self.pre = _prefactor(self.scale)
        self.step_angles = []   # the new angles of the angle steps

    def _split(self, moved):
        """W's pair terms at m that touch no vertex of ``moved``; the pairs
        that do, and their logs."""
        kept, pairs, logs = [], [], []
        for pair, d, t in zip(self.pairs, self.logs, self.w_terms):
            if pair[0] in moved or pair[1] in moved:
                pairs.append(pair)
                logs.append(d)
            else:
                kept.append(t)
        return kept, pairs, logs

    def position_steps(self, p: int, axis: complex, offsets) -> list:
        """Vertex p (0-based) moved by each offset along ``axis``, 1 or 1j:
        its M - 1 distances, checked as ``make_metric`` checks them, and W
        terms are redone."""
        z0 = self.zs[p]
        kept, pairs, _ = self._split((p,))
        out = []
        for e in offsets:
            z = z0 + axis * e
            if z == z0:
                raise PerturbationLeavesDomain(
                    f"position step {e!r} is lost to rounding at vertex {p + 1}, {z0}")
            _check_position(z)
            zs = list(self.zs)
            zs[p] = z
            w = _w_sum(kept + _w_terms(self.bs, self.angles, pairs, _log_distances(zs, pairs)))
            taken = z - z0
            out.append((partial(self._at_position, w),
                        taken.real if axis == 1 else taken.imag))
        return out

    def _at_position(self, w) -> float:
        return _assemble(self.pre, w, self.f_terms)

    def angle_steps(self, q: int, shifts) -> list:
        """b_q (0-based q != 0) shifted by each shift and b_1 by minus it:
        the W terms of the two vertices and their two F terms are redone."""
        kept, pairs, logs = self._split((0, q))
        out = []
        for db in shifts:
            bs = list(self.bs)
            bs[q] += db
            bs[0] -= db
            _check_gauss_bonnet(bs)
            angles = list(self.angles)
            angles[q] = TWO_PI * (bs[q] + 1.0)
            angles[0] = TWO_PI * (bs[0] + 1.0)
            self.step_angles += (angles[0], angles[q])
            w = _w_sum(kept + _w_terms(bs, angles, pairs, logs))
            out.append((partial(self._at_angle, w, q, angles), angles[q] - self.angles[q]))
        return out

    def _at_angle(self, w, q, angles) -> float:
        f_terms = list(self.f_terms)
        f_terms[0] = self.f_at[angles[0]]
        f_terms[q] = self.f_at[angles[q]]
        return _assemble(self.pre, w, f_terms)

    def scale_steps(self, offsets) -> list:
        """C moved by each offset: the prefactor and every F term are redone."""
        out = []
        for e in offsets:
            scale = self.scale + e
            _check_scale(scale)
            out.append((partial(self._at_scale, scale), scale - self.scale))
        return out

    def _at_scale(self, scale) -> float:
        return _assemble(_prefactor(scale), self.w, _f_terms(self.angles, scale))

    def finish(self) -> None:
        visited = (*self.angles, *self.step_angles)
        self.f_at = dict(zip(visited, _f_terms(visited, self.scale)))
        self.f_terms = [self.f_at[beta] for beta in self.angles]
        _assemble(self.pre, self.w, self.f_terms)


def _plan(m: PolyhedralMetric, steps: _Steps, channel: VariationChannel, richardson: bool):
    """The rows of steps along ``channel`` whose derivatives at 0 make up
    its gradient: one for the scale and an angle, x and y for a position."""
    if isinstance(channel, Scale):
        return [steps.scale_steps(_steps(STEP * m.scale, richardson))]

    if isinstance(channel, Position):
        i = channel.i
        m.check_index(i)
        offsets = _steps(STEP * steps.min_gap, richardson)
        return [steps.position_steps(i - 1, 1, offsets),
                steps.position_steps(i - 1, 1j, offsets)]

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
        return [steps.angle_steps(i - 1, [e / TWO_PI for e in _steps(h, richardson)])]

    raise TypeError(f"unknown variation channel {channel!r}")


def _fd_gradients(m: PolyhedralMetric, channels, fdcfg: FDConfig) -> list:
    """Central finite differences of log(det/Area) along every channel.
    Every step is planned and checked first, then F taken at all their
    angles in one call, then the steps evaluated."""
    steps = _Steps(m)
    plans = [(channel, _plan(m, steps, channel, fdcfg.richardson)) for channel in channels]
    steps.finish()
    out = []
    for channel, rows in plans:
        d = [_derivative(row, fdcfg.richardson) for row in rows]
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
