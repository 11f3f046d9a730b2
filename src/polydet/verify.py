"""Finite-difference harness for the analytic gradient formulas.

Differentiates log(det/Area) -- assembled without any 2D quadrature --
along the three variation channels and pairs each result with its
closed-form counterpart in a report named as ``parse_channel`` reads it:

    z:i     Position(i)   grad_position   (Wirtinger derivative from two
                                           real central differences)
    beta:i  Angle(i!=1)   grad_angle      (b_i and b_1 perturbed by -+h/2pi)
    C       Scale         grad_scale

``gradient_reports`` is the one path from channels to reports, which
``fd_gradient``, ``run_suite`` and the CLI's ``grad`` and ``verify fd``
take.  This module also decides what counts as agreement: a report's
relative error is its absolute error over max(|analytic|, |fd|,
REL_ERR_FLOOR), since gradients are O(1) and below that scale the
absolute error rules, and a channel passes at a relative error of at
most FD_PASS_TOL (``verify fd`` exits 1 otherwise).

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
                   angles
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
from typing import List, Union

from .detlap import (
    _assemble,
    _f_terms,
    _prefactor,
    _w_sum,
    grad_angle,
    grad_position,
    grad_scale,
)
from .errors import PerturbationLeavesDomain, PolydetError
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
REL_ERR_FLOOR = 1.0   # the scale below which the absolute error rules
FD_PASS_TOL = 1e-5    # the largest relative error of a passing channel


@dataclass(frozen=True)
class GradientReport:
    """One channel's analytic gradient, its finite difference and their
    errors (module docstring)."""

    channel: str
    analytic: Union[float, complex]
    finite_difference: Union[float, complex]
    abs_err: float
    rel_err: float


@dataclass(frozen=True)
class FDConfig:
    richardson: bool = False


def _steps(h: float, richardson: bool):
    """The offsets at which a family is evaluated: +-h, and +-h/2 for
    Richardson."""
    return (h, -h, 0.5 * h, -(0.5 * h)) if richardson else (h, -h)


def _derivative(row) -> float:
    """The central difference (f(t+) - f(t-))/(t+ - t-) of a row of
    (f, t) pairs at ``_steps``, t the offset actually taken, or for a
    Richardson row of four its extrapolation (4 D(h/2) - D(h))/3."""
    (f0, t0), (f1, t1), *half = row
    d1 = (f0 - f1) / (t0 - t1)
    if not half:
        return d1
    (f2, t2), (f3, t3) = half
    return (4.0 * ((f2 - f3) / (t2 - t3)) - d1) / 3.0


class _Steps:
    """log(det/Area) at the finite-difference steps from a metric ``m``,
    each assembled from m's parts with only what the step changes redone.

    The parts at m are m's own record (``metric._Parts``): its pair
    logs, coefficients and W terms, to which ``__init__`` adds W's sum,
    the F terms and the prefactor, and checks that log(det/Area) at m is
    finite.  Building steps (``position_steps``, ``angle_steps``,
    ``scale_steps``) runs the checks of ``make_metric`` on what each
    changes and returns per step its value and the offset it actually
    takes.
    """

    def __init__(self, m: PolyhedralMetric):
        self.m = m
        self.parts = m._parts
        self.w = _w_sum(self.parts.w_terms)
        self.pre = _prefactor(m.scale)
        self.f_terms = list(_f_terms(self.parts.angles, m.scale))
        _assemble(self.pre, self.w, self.f_terms)

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
                row.append((_assemble(self.pre, w, self.f_terms),
                            taken.real if axis == 1 else taken.imag))
            rows.append(row)
        return rows

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
            w = _w_sum(kept + [c * d for c, d in zip(_coefficients(bs, angles, pairs), logs)])
            f_terms = list(self.f_terms)
            f_terms[0], f_terms[q] = _f_terms((angles[0], angles[q]), self.m.scale)
            out.append((_assemble(self.pre, w, f_terms), angles[q] - angles0[q]))
        return out

    def scale_steps(self, offsets) -> list:
        """C moved by each offset: the prefactor and every F term are redone."""
        scale0 = self.m.scale
        out = []
        for e in offsets:
            scale = scale0 + e
            _check_scale(scale)
            out.append((_assemble(_prefactor(scale), self.w, _f_terms(self.parts.angles, scale)),
                        scale - scale0))
        return out


def parse_channel(text: str) -> VariationChannel:
    """The channel named ``z:i``, ``beta:i`` or ``C``, as ``_channel`` names it."""
    if text == "C":
        return Scale()
    kind, _, idx = text.partition(":")
    if kind == "z" and idx.isdecimal():
        return Position(int(idx))
    if kind == "beta" and idx.isdecimal():
        return Angle(int(idx))
    raise PolydetError(f"bad channel {text!r}; use z:i, beta:i or C")


def _channel(steps: _Steps, channel: VariationChannel, richardson: bool):
    """The channel's name, its analytic gradient, which checks the vertex
    index and the gauge vertex of an angle, and the rows of steps whose
    derivatives at 0 make up its finite difference: one for the scale and
    an angle, x and y for a position."""
    m = steps.m
    if isinstance(channel, Position):
        i = channel.i
        return (f"z:{i}", grad_position(m, i), steps.position_steps(
            i - 1, _steps(STEP * m.min_pairwise_distance(), richardson)))

    if isinstance(channel, Angle):
        i = channel.i
        analytic = grad_angle(m, i)
        # the compensating vertex moves too, so the stiffer (smaller) of
        # the two angles sets the step scale
        h = STEP * min(m.vertices[i - 1].angle, m.vertices[0].angle)
        if min(m.vertices[i - 1].exponent, m.vertices[0].exponent) - h / TWO_PI <= -1.0 + 1e-12:
            raise PerturbationLeavesDomain("angle step pushes an exponent to the b = -1 boundary")
        return (f"beta:{i}", analytic,
                [steps.angle_steps(i - 1, [e / TWO_PI for e in _steps(h, richardson)])])

    if isinstance(channel, Scale):
        return "C", grad_scale(m), [steps.scale_steps(_steps(STEP * m.scale, richardson))]

    raise TypeError(f"unknown variation channel {channel!r}")


def gradient_reports(m: PolyhedralMetric, channels,
                     fdcfg: FDConfig = FDConfig()) -> List[GradientReport]:
    """The analytic gradient of log(det/Area) along every channel of
    ``channels``, each paired with its central finite difference (for a
    position, from its x and y rows, the Wirtinger derivative
    (d/dx - i d/dy)/2) and their errors (module docstring)."""
    steps = _Steps(m)
    reports = []
    for channel in channels:
        name, analytic, rows = _channel(steps, channel, fdcfg.richardson)
        d = [_derivative(row) for row in rows]
        fd = 0.5 * complex(d[0], -d[1]) if len(d) == 2 else d[0]
        abs_err = abs(analytic - fd)
        reports.append(GradientReport(
            name, analytic, fd, abs_err,
            abs_err / max(abs(analytic), abs(fd), REL_ERR_FLOOR)))
    return reports


def fd_gradient(m: PolyhedralMetric, channel: VariationChannel,
                fdcfg: FDConfig = FDConfig()) -> Union[float, complex]:
    """Central finite difference of log(det/Area) along ``channel``."""
    return gradient_reports(m, [channel], fdcfg)[0].finite_difference


def run_suite(m: PolyhedralMetric, fdcfg: FDConfig = FDConfig()) -> List[GradientReport]:
    """One report per channel: Position(1..M), Angle(2..M), Scale."""
    n = m.num_vertices
    return gradient_reports(m, [Position(i) for i in range(1, n + 1)]
                            + [Angle(i) for i in range(2, n + 1)] + [Scale()], fdcfg)
