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

No metric is built per step.  The base metric's parts are read from its
own record (``metric._Parts``, computed once per metric): its
log|z_k - z_l| and coefficient b_k b_l (1/beta_k + 1/beta_l) of every
pair and W's pair terms; the steps keep only W's sum, the F terms and the
prefactor.  Each step redoes only what it changes and sums the parts with
the assembly of ``detlap.log_det_over_area``, whose value it equals bit
for bit (``math.fsum`` is exactly rounded, so the order of the terms does
not matter):

    position step  the moved vertex's M - 1 logs, each times the pair's
                   coefficient (the pairs are split once per vertex, for
                   both axes)
    angle step     the W terms of vertices i and 1, and F at their two new
                   angles (F at every angle the angle steps visit is
                   taken in one call)
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
    _angle_terms,
    _assemble,
    _f_terms,
    _prefactor,
    _w_sum,
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
    _coefficients,
    _distances,
    _incident,
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


def _derivative(row) -> float:
    """The central difference (f(t+) - f(t-))/(t+ - t-) of a row of
    (step, t) pairs at ``_steps``, t the offset actually taken, or for a
    Richardson row of four its extrapolation (4 D(h/2) - D(h))/3; the
    steps are evaluated in row order."""
    (f0, t0), (f1, t1), *half = row
    d1 = (f0() - f1()) / (t0 - t1)
    if not half:
        return d1
    (f2, t2), (f3, t3) = half
    return (4.0 * ((f2() - f3()) / (t2 - t3)) - d1) / 3.0


class _Steps:
    """log(det/Area) at the finite-difference steps from a metric ``m``,
    each assembled from m's parts with only what the step changes redone.

    The parts at m are m's own record (``metric._Parts``): its pair
    logs, coefficients and W terms.  Planning steps
    (``position_steps``, ``angle_steps``, ``scale_steps``) runs the checks
    of ``make_metric`` on what each changes, redoes its W terms and returns
    per step a callable that assembles its value once F is known, and the
    offset the step actually takes.  ``finish`` looks up F at m's angles
    and at every angle an angle step visits in one call, keeps m's pairs
    for the scale steps and checks that log(det/Area) at m is finite.
    """

    def __init__(self, m: PolyhedralMetric):
        self.m = m
        self.parts = m._parts
        self.w = _w_sum(self.parts.w_terms)
        self.pre = _prefactor(m.scale)
        self.step_angles = []   # the new angles of the angle steps

    def _split(self, moved):
        """W's pair terms at m that touch no vertex of ``moved``, and the
        indices in ``_pairs`` of the pairs that do."""
        incident = _incident(self.m.num_vertices)
        touched = sorted({p for q in moved for _, p in incident[q]})
        kept = list(self.parts.w_terms)
        for p in reversed(touched):
            del kept[p]
        return kept, touched

    def position_steps(self, p: int, offsets) -> list:
        """Vertex p (0-based) moved by each offset along x, then along y:
        one row per axis.  Its M - 1 distances, checked as ``make_metric``
        checks them, and W terms are redone."""
        zs = self.parts.positions
        z0 = zs[p]
        incident = _incident(len(zs))[p]
        kept, _ = self._split((p,))
        others = [zs[j] for j, _ in incident]
        coefficients = [self.parts.coefficients[k] for _, k in incident]
        rows = []
        for axis in (1, 1j):
            row = []
            for e in offsets:
                z = z0 + axis * e
                if z == z0:
                    raise PerturbationLeavesDomain(
                        f"position step {e!r} is lost to rounding at vertex {p + 1}, {z0}")
                _check_position(z)
                try:
                    w = _w_sum(kept + [c * math.log(abs(z - zj))
                                       for c, zj in zip(coefficients, others)])
                except (OverflowError, ValueError):     # abs past the float range, log(0)
                    w = math.nan
                if not math.isfinite(w):    # only a distance 0 or past the float range
                    stepped = list(zs)
                    stepped[p] = z
                    _distances(stepped, _pairs(len(zs)))    # raises, naming the fault
                taken = z - z0
                row.append((partial(self._at_position, w),
                            taken.real if axis == 1 else taken.imag))
            rows.append(row)
        return rows

    def _at_position(self, w) -> float:
        return _assemble(self.pre, w, self.f_terms)

    def angle_steps(self, q: int, shifts) -> list:
        """b_q (0-based q != 0) shifted by each shift and b_1 by minus it:
        the W terms of the two vertices and their two F terms are redone."""
        bs0, angles0 = self.parts.exponents, self.parts.angles
        kept, touched = self._split((0, q))
        pairs = [_pairs(len(bs0))[k] for k in touched]
        logs = [self.parts.logs[k] for k in touched]
        out = []
        for db in shifts:
            bs = list(bs0)
            bs[q] += db
            bs[0] -= db
            _check_gauss_bonnet(bs)
            angles = list(angles0)
            angles[q] = TWO_PI * (bs[q] + 1.0)
            angles[0] = TWO_PI * (bs[0] + 1.0)
            self.step_angles += (angles[0], angles[q])
            w = _w_sum(kept + [c * d for c, d in zip(_coefficients(bs, angles, pairs), logs)])
            out.append((partial(self._at_angle, w, q, angles), angles[q] - angles0[q]))
        return out

    def _at_angle(self, w, q, angles) -> float:
        f_terms = list(self.f_terms)
        f_terms[0] = self.f_at[angles[0]]
        f_terms[q] = self.f_at[angles[q]]
        return _assemble(self.pre, w, f_terms)

    def scale_steps(self, offsets) -> list:
        """C moved by each offset: the prefactor and every F term are redone."""
        scale0 = self.m.scale
        out = []
        for e in offsets:
            scale = scale0 + e
            _check_scale(scale)
            out.append((partial(self._at_scale, scale), scale - scale0))
        return out

    def _at_scale(self, scale) -> float:
        return _assemble(_prefactor(scale), self.w,
                         _f_terms(self.parts.angles, scale, self.pairs))

    def finish(self) -> None:
        angles = self.parts.angles
        visited = (*angles, *self.step_angles)
        pairs = _angle_terms.lookup(visited)
        self.pairs = pairs[:len(angles)]    # F and dF/dbeta at C = 1 of m's angles
        self.f_at = dict(zip(visited, _f_terms(visited, self.m.scale, pairs)))
        self.f_terms = [self.f_at[beta] for beta in angles]
        _assemble(self.pre, self.w, self.f_terms)


def _plan(steps: _Steps, channel: VariationChannel, richardson: bool):
    """The rows of steps along ``channel`` whose derivatives at 0 make up
    its gradient: one for the scale and an angle, x and y for a position."""
    m = steps.m
    if isinstance(channel, Scale):
        return [steps.scale_steps(_steps(STEP * m.scale, richardson))]

    if isinstance(channel, Position):
        i = channel.i
        m.check_index(i)
        return steps.position_steps(i - 1, _steps(STEP * m.min_pairwise_distance(), richardson))

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
    plans = [(channel, _plan(steps, channel, fdcfg.richardson)) for channel in channels]
    steps.finish()
    out = []
    for channel, rows in plans:
        d = [_derivative(row) for row in rows]
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
