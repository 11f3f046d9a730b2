"""Finite-difference harness for the analytic gradient formulas.

Differentiates log(det/Area) -- assembled without any 2D quadrature --
along the three kinds of variation channel and pairs each result with
its closed-form counterpart in a report under the channel's name:

    z:i          grad_position   (Wirtinger derivative from two real
                                  central differences)
    beta:i, i>1  grad_angle      (b_i and b_1 perturbed by -+h/2pi)
    C            grad_scale

A channel is its name, which ``parse_channel`` alone reads (``z:01`` is
reported as ``z:1``).  ``gradient_reports`` is the one path from names to
reports, which ``fd_gradient``, ``run_suite`` and the CLI's ``grad`` and
``verify fd`` take.  This module also decides what counts as agreement: a
report's relative error is its absolute error over max(|analytic|, |fd|,
REL_ERR_FLOOR), since gradients are O(1) and below that scale the
absolute error rules, and a channel passes at a relative error of at
most FD_PASS_TOL (``verify fd`` exits 1 otherwise).

The relative step is fixed, STEP = 1e-4, and scaled to the perturbed
quantity: h = STEP times vertex i's own nearest gap for z:i (so a
near-degenerate pair stays inside the quadratic accuracy regime, and the
other vertices keep steps on their own scale), h = STEP * min(beta_i,
beta_1) for angles, h = STEP * C for the scale (which therefore stays
positive).  A difference is divided by the steps actually taken, the
perturbed quantity less its base value, which rounding may make other
than +-h far from the origin.  The optional Richardson switch combines
D(h) and D(h/2) into the fourth-order extrapolation (4 D(h/2) - D(h))/3.

The analytic side of a report is the gradient kept in the metric's
gradient slots (``detlap``), formed by whichever call asks first.

No metric is built per step.  ``gradient_reports`` forms the prefactor,
W's sum and the F terms, one per vertex, once and hands them to the
function of each channel's kind (``_position``, ``_angle``, ``_scale``),
which forms its analytic gradient, step size and rows of steps; its
docstring says what a step forms anew.  A step copies the rest from the
metric's record (``PolyhedralMetric``) and hands its prefactor, W and F
terms to ``detlap._assemble``, the one sum of log det', which
``detlap.log_det_over_area`` takes too, so a step equals that value bit
for bit.

Each step first runs the checks ``make_metric`` would run on what it
changes, from the same helpers: a finite positive scale; a finite moved
position distinct from the others; the exponent sum (exponents above -1
are checked against the margin below, and angles against
``metric.ANGLE_RANGE`` as F takes them).  A step lost to rounding (z + e
== z, C + e == C, or an angle that does not move) raises
PerturbationLeavesDomain.  A log(det/Area) that is not finite, at the
base metric or at a step, and a finite difference past the float range
raise PolydetError.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple, Union

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
    PolyhedralMetric,
    _check_gauss_bonnet,
    _check_position,
    _check_scale,
    _distances,
    _incident,
    _pairs,
)

TWO_PI = 2.0 * math.pi

STEP = 1e-4   # relative finite-difference step
REL_ERR_FLOOR = 1.0   # the scale below which the absolute error rules
FD_PASS_TOL = 1e-5    # the largest relative error of a passing channel


class GradientReport(NamedTuple):
    """One channel's analytic gradient, its finite difference and their
    errors (module docstring)."""

    channel: str
    analytic: Union[float, complex]
    finite_difference: Union[float, complex]
    abs_err: float
    rel_err: float


class FDConfig(NamedTuple):
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


def parse_channel(text: str) -> Tuple[str, Optional[int]]:
    """The kind (``z``, ``beta`` or ``C``) and vertex index (None for C)
    of the channel named ``z:i``, ``beta:i`` or ``C``, i in ASCII digits."""
    if text == "C":
        return "C", None
    kind, _, idx = text.partition(":")
    if kind in ("z", "beta") and idx.isascii() and idx.isdecimal():
        return kind, int(idx)
    raise PolydetError(f"bad channel {text!r}; use z:i, beta:i or C")


def _position(m: PolyhedralMetric, base, i: int, richardson: bool):
    """z:i: ``grad_position``, which checks the index, and two rows of
    steps, vertex i moved by each offset of ``_steps`` along x, then
    along y.  Vertex i's own nearest gap sets the step scale, so a close
    pair elsewhere leaves it alone.  A step forms anew the W terms of the
    M - 1 pairs of vertex i, the pair's coefficient times its new log
    distance, checked as ``make_metric`` checks them."""
    analytic = grad_position(m, i)
    pre, _, f = base
    parts, p = m._parts, i - 1
    zs, coefficients = parts.positions, parts.coefficients
    z0, incident = zs[p], _incident(len(zs))[p]
    offsets = _steps(STEP * min([parts.distances[k] for _, k in incident]), richardson)
    rows = []
    for axis in (1, 1j):
        row = []
        for e in offsets:
            z = z0 + axis * e
            if z == z0:
                raise PerturbationLeavesDomain(
                    f"position step {e!r} is lost to rounding at vertex {i}, {z0}")
            _check_position(z)
            w_terms = list(parts.w_terms)
            try:
                for j, k in incident:
                    w_terms[k] = coefficients[k] * math.log(abs(z - zs[j]))
                w = _w_sum(w_terms)
            except (OverflowError, ValueError):     # abs past the float range, log(0)
                w = math.nan
            if not math.isfinite(w):    # only a distance 0 or past the float range
                stepped = list(zs)
                stepped[p] = z
                _distances(stepped, _pairs(len(zs)))    # raises, naming the fault
            taken = (z - z0).real if axis == 1 else (z - z0).imag
            row.append((_assemble(pre, w, f), taken))
        rows.append(row)
    return analytic, rows


def _angle(m: PolyhedralMetric, base, i: int, richardson: bool):
    """beta:i: ``grad_angle``, which checks the index and the gauge vertex,
    and one row of steps, b_i shifted by each offset of ``_steps`` over
    2 pi and b_1 by minus that.  The compensating vertex moves too, so
    the stiffer (smaller) of the two angles sets the step scale.  A step
    forms anew the W terms of the 2M - 3 pairs that hold vertex i or 1,
    the pair's coefficient b_k b_l (1/beta_k + 1/beta_l) from the step's
    exponents and angles (that of ``metric._coefficients`` to the bit, as
    * and + commute) times its log, and F at the two new angles."""
    analytic = grad_angle(m, i)
    pre, _, f0 = base
    parts, q = m._parts, i - 1
    angles0, bs0, logs = parts.angles, parts.exponents, parts.logs
    h = STEP * min(angles0[q], angles0[0])
    if min(bs0[q], bs0[0]) - h / TWO_PI <= -1.0 + 1e-12:
        raise PerturbationLeavesDomain("angle step pushes an exponent to the b = -1 boundary")
    incident = _incident(len(angles0))
    inverses = [1.0 / beta for beta in angles0]     # entries 0 and q set per step
    row = []
    for e in _steps(h, richardson):
        db = e / TWO_PI
        bs = list(bs0)
        bs[q] += db
        bs[0] -= db
        _check_gauss_bonnet(bs)
        beta_0, beta_q = TWO_PI * (bs[0] + 1.0), TWO_PI * (bs[q] + 1.0)
        if beta_q == angles0[q]:
            raise PerturbationLeavesDomain(
                f"angle step {db * TWO_PI!r} is lost to rounding at vertex {i}, "
                f"beta = {angles0[q]!r}")
        inverses[0], inverses[q] = 1.0 / beta_0, 1.0 / beta_q
        w_terms = list(parts.w_terms)
        for k in (0, q):
            b_k, inv_k = bs[k], inverses[k]
            for j, p in incident[k]:
                w_terms[p] = b_k * bs[j] * (inv_k + inverses[j]) * logs[p]
        f = list(f0)
        f[0], f[q] = _f_terms((beta_0, beta_q), m.scale)
        row.append((_assemble(pre, _w_sum(w_terms), f), beta_q - angles0[q]))
    return analytic, [row]


def _scale(m: PolyhedralMetric, base, i: None, richardson: bool):
    """C: one row of steps, C moved by each offset of ``_steps`` (h =
    STEP * C), then ``grad_scale``.  The steps come first, so a step lost
    to rounding is named as such: at that C the analytic gradient is past
    the float range too.  A step forms anew the prefactor and every F
    term."""
    _, w, _ = base
    scale0, angles = m.scale, m._parts.angles
    row = []
    for e in _steps(STEP * scale0, richardson):
        scale = scale0 + e
        if scale == scale0:
            raise PerturbationLeavesDomain(
                f"scale step {e!r} is lost to rounding at C = {scale0!r}")
        _check_scale(scale)
        row.append((_assemble(_prefactor(scale), w, _f_terms(angles, scale)), scale - scale0))
    return grad_scale(m), [row]


# a channel kind's function: (m, base terms, i, richardson) -> (analytic
# gradient, rows of (log(det/Area) at a step, offset taken))
_CHANNELS = {"z": _position, "beta": _angle, "C": _scale}


def gradient_reports(m: PolyhedralMetric, channels,
                     fdcfg: FDConfig = FDConfig()) -> List[GradientReport]:
    """The analytic gradient of log(det/Area) along the channel of every
    name of ``channels``, each paired with its central finite difference
    (for a position, from its x and y rows, the Wirtinger derivative
    (d/dx - i d/dy)/2) and their errors (module docstring).  PolydetError
    for a malformed name, before anything is computed, and if a gradient
    or its difference is not a finite float."""
    parsed = [parse_channel(name) for name in channels]
    parts = m._parts
    base = (_prefactor(m.scale), _w_sum(parts.w_terms), _f_terms(parts.angles, m.scale))
    _assemble(*base)
    reports = []
    for kind, i in parsed:
        name = kind if i is None else f"{kind}:{i}"
        analytic, rows = _CHANNELS[kind](m, base, i, fdcfg.richardson)
        d = list(map(_derivative, rows))
        fd = 0.5 * complex(d[0], -d[1]) if len(d) == 2 else d[0]
        if not (cmath.isfinite(analytic) and cmath.isfinite(fd)):
            raise PolydetError(f"along {name} the analytic gradient {analytic!r} and its finite "
                               f"difference {fd!r} are not both finite floats")
        abs_err = abs(analytic - fd)
        reports.append(GradientReport(
            name, analytic, fd, abs_err,
            abs_err / max(abs(analytic), abs(fd), REL_ERR_FLOOR)))
    return reports


def fd_gradient(m: PolyhedralMetric, channel: str,
                fdcfg: FDConfig = FDConfig()) -> Union[float, complex]:
    """Central finite difference of log(det/Area) along the channel named
    ``channel``."""
    return gradient_reports(m, [channel], fdcfg)[0].finite_difference


def run_suite(m: PolyhedralMetric, fdcfg: FDConfig = FDConfig()) -> List[GradientReport]:
    """One report per channel: z:1..M, beta:2..M, C."""
    return gradient_reports(m, _suite_channels(m.num_vertices), fdcfg)


@lru_cache(maxsize=None)
def _suite_channels(n: int) -> tuple:
    """The names z:1..n, beta:2..n, C."""
    return tuple([f"z:{i}" for i in range(1, n + 1)]
                 + [f"beta:{i}" for i in range(2, n + 1)] + ["C"])
