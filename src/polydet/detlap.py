"""Closed-form determinant of the Laplacian on the conical sphere and its
analytic gradients.

The zeta-regularized determinant (zero mode excluded) of the metric
m = C prod |z - z_k|^(2 b_k) |dz|^2 is assembled as

    log det = log Area - log((4C)^(1/3) pi) + W + sum_j F(beta_j, C)
              - 4 F(pi, 1),

with the two ingredients

    W = (pi/3) sum_{k<l} b_k b_l (1/beta_k + 1/beta_l) log|z_k - z_l|,

    F(beta, C) = bracket(2 pi) - bracket(beta),
    bracket(d) = (1/8) H[coth(pi th) coth(d th/2)/th]
               + (1/12)(d/2pi + 2pi/d) log(2 pi^2 C / d)
               + (1/12)(d/4pi - 2pi/d) + pi gamma/(3 d),

where H is the Hadamard finite part from ``regint`` and gamma is the
Euler-Mascheroni constant.  The non-logarithmic bracket term is
implemented as d/4pi - 2pi/d; the variant with 4pi/d that sometimes
appears in print is inconsistent with the angle-gradient formula (the two
differ by pi/(6 d), whose d-derivative -pi/(6 d^2) survives in dF/dbeta),
and the finite-difference acceptance gate pins the version used here.

Gradients of log(det/Area) in closed form:

    d/dz_i   = (pi/6) sum_{j != i} b_i b_j (1/beta_i + 1/beta_j)/(z_i - z_j)
               (Wirtinger derivative, equal to dW/dz_i),
    d/dbeta_i = B_i - B_1  with
    B_q = (1/6) sum_{j != q} (1/beta_j + 2pi/beta_q^2) b_j log|z_j - z_q|
          + Qt'(beta_q) + pi gamma/(3 beta_q^2)
          + (1/(6 beta_q)) (2pi/beta_q - beta_q/2pi) log(2 pi sqrt(C)/beta_q),
    d/dC     = sum_j (1/12C)(2 - beta_j/2pi - 2pi/beta_j) - 1/(3C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple, Union

from .errors import AngleMultisetMismatch, GaugeVertexVariation, PolydetError, ScaleMismatch
from .metric import PolyhedralMetric
from .quad import QuadResult, area
from .regint import _fp_coth_coth, _fp_coth_csch2, q_tilde_prime

PI = math.pi
TWO_PI = 2.0 * math.pi

REL_ERR_FLOOR = 1.0  # gradients are O(1); below this scale abs error rules

# Euler-Mascheroni, 30 significant digits
EULER_GAMMA = 0.577215664901532860606512090082


@dataclass(frozen=True)
class DetReport:
    """Assembled determinant with every ingredient retained.

    The exact floating-point identity (fixed summation order, math.fsum)

        log_det == fsum([log(area), prefactor, w_term, *f_terms,
                         -reference_term])

    holds by construction.
    """

    log_det: float
    log_det_over_area: float
    area: float
    w_term: float
    f_terms: Tuple[float, ...]
    reference_term: float
    prefactor: float


@dataclass(frozen=True)
class GradientReport:
    channel: str
    analytic: Union[float, complex]
    finite_difference: Union[float, complex]
    abs_err: float
    rel_err: float

    @classmethod
    def compare(cls, channel: str, analytic, fd) -> "GradientReport":
        """Pair an analytic gradient with its finite difference; the
        relative error is taken against max(|analytic|, |fd|, 1), since
        gradients are O(1) and below that scale the absolute error rules."""
        abs_err = abs(analytic - fd)
        return cls(channel=channel, analytic=analytic, finite_difference=fd,
                   abs_err=abs_err,
                   rel_err=abs_err / max(abs(analytic), abs(fd), REL_ERR_FLOOR))


# --------------------------------------------------------------------------
# W and F
# --------------------------------------------------------------------------

def w_function(m: PolyhedralMetric) -> float:
    """W = (pi/3) sum_{k<l} b_k b_l (1/beta_k + 1/beta_l) log|z_k - z_l|.

    The terms are summed with ``math.fsum``, exactly rounded, so the value
    is reproducible bit-for-bit in any order of the pairs.
    """
    zs = m.positions()
    pairs = _pairs(len(zs))
    return _w_sum(_w_terms(m.exponents(), m.angles(), pairs, _log_distances(zs, pairs)))


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    """Every vertex pair (k, l), 0-based, k < l."""
    return tuple((k, l) for k in range(n) for l in range(k + 1, n))


def _log_distances(zs, pairs) -> list:
    """log|z_k - z_l| of each pair (k, l) of ``pairs``."""
    return [math.log(abs(zs[k] - zs[l])) for k, l in pairs]


def _w_terms(bs, angles, pairs, logs) -> list:
    """The terms b_k b_l (1/beta_k + 1/beta_l) log|z_k - z_l| of W's sum of
    the pairs ``pairs``, given their logs ``logs``."""
    return [bs[k] * bs[l] * (1.0 / angles[k] + 1.0 / angles[l]) * d
            for (k, l), d in zip(pairs, logs)]


def _w_sum(terms) -> float:
    """W from all its pair terms."""
    return (PI / 3.0) * math.fsum(terms)


def _f_bracket(delta: float, scale: float, fp: float) -> float:
    """bracket(delta) at scale C, with fp = H[coth coth / th] at delta."""
    return math.fsum([
        fp / 8.0,
        (delta / TWO_PI + TWO_PI / delta) * math.log(2.0 * PI * PI * scale / delta) / 12.0,
        (delta / (4.0 * PI) - TWO_PI / delta) / 12.0,
        PI * EULER_GAMMA / (3.0 * delta),
    ])


def _f_terms(angles, scale: float) -> Tuple[float, ...]:
    """F(beta, C) of ``f_function`` at every angle of ``angles``: their
    finite parts looked up in one call, which computes the missing ones
    in one batch, and bracket(2 pi) taken once."""
    (flat, _), *fps = _fp_coth_coth.lookup((TWO_PI, *angles))
    flat = _f_bracket(TWO_PI, scale, flat)
    return tuple(flat - _f_bracket(beta, scale, fp) for beta, (fp, _) in zip(angles, fps))


def f_function(beta: float, scale: float) -> float:
    """F(beta, C): the per-vertex angle contribution to log det.

    Vanishes identically at beta = 2 pi.  Its partial derivatives satisfy

        dF/dC    = (1/12C)(2 - beta/2pi - 2pi/beta)
        dF/dbeta = Qt'(beta) + pi gamma/(3 beta^2)
                   + (1/(6 beta))(2pi/beta - beta/2pi) log(2 pi sqrt(C)/beta)

    both of which are exercised against finite differences in the tests.
    """
    return _f_terms((beta,), scale)[0]


def f_function_dC(beta: float, scale: float) -> float:
    """Closed-form dF/dC."""
    return (2.0 - beta / TWO_PI - TWO_PI / beta) / (12.0 * scale)


# --------------------------------------------------------------------------
# determinant assembly
# --------------------------------------------------------------------------

def log_det_over_area(m: PolyhedralMetric) -> float:
    """log(det/Area) without any 2D quadrature: prefactor + W + sum F - ref.

    This is the quantity whose gradients the variational formulas give;
    ``verify`` differentiates it, from the parts of this same assembly.
    """
    return _assemble(_prefactor(m.scale), w_function(m), _f_terms(m.angles(), m.scale))


def log_det_as(m: PolyhedralMetric) -> DetReport:
    """Full determinant report; the area comes from module ``quad``."""
    ar: QuadResult = area(m)
    w = w_function(m)
    f_terms = _f_terms(m.angles(), m.scale)
    pre = _prefactor(m.scale)
    return DetReport(
        log_det=_assemble(pre, w, f_terms, math.log(ar.value)),
        log_det_over_area=_assemble(pre, w, f_terms),
        area=ar.value,
        w_term=w,
        f_terms=f_terms,
        reference_term=_reference_term(),
        prefactor=pre,
    )


def _assemble(pre: float, w: float, f_terms, log_area: float = 0.0) -> float:
    """log(det/Area) = fsum([pre, W, *F, -ref]) from its parts, or log det
    given log Area; PolydetError unless the sum is a finite float (an angle
    term's log(2 pi^2 C / beta) overflows for C near the float limit)."""
    try:
        value = math.fsum([log_area, pre, w, *f_terms, -_reference_term()])
    except (OverflowError, ValueError):     # inf - inf, or past the float range
        value = math.nan
    if not math.isfinite(value):
        raise PolydetError(f"the terms of log det' sum to {value!r}, not a finite float")
    return value


def _prefactor(scale: float) -> float:
    return -math.log((4.0 * scale) ** (1.0 / 3.0) * PI)


@lru_cache(maxsize=None)
def _reference_term() -> float:
    """4 F(pi, 1), the tetrahedron's angle terms: computed once."""
    return 4.0 * f_function(PI, 1.0)


# --------------------------------------------------------------------------
# analytic gradients of log(det/Area)
# --------------------------------------------------------------------------

def grad_position(m: PolyhedralMetric, i: int) -> complex:
    """d log(det/A) / dz_i as a Wirtinger derivative (d/dx - i d/dy)/2;
    vertex index 1-based."""
    m.check_index(i)
    zs = m.positions()
    bs = m.exponents()
    angles = m.angles()
    zi = zs[i - 1]
    bi = bs[i - 1]
    ti = angles[i - 1]
    acc_re, acc_im = [], []
    for j in range(len(zs)):
        if j == i - 1:
            continue
        w = bi * bs[j] * (1.0 / ti + 1.0 / angles[j]) / (zi - zs[j])
        acc_re.append(w.real)
        acc_im.append(w.imag)
    return (PI / 6.0) * complex(math.fsum(acc_re), math.fsum(acc_im))


def _b_term(m: PolyhedralMetric, q: int) -> float:
    """B_q, the per-vertex angle-gradient block (q is 1-based)."""
    zs = m.positions()
    bs = m.exponents()
    angles = m.angles()
    zq = zs[q - 1]
    tq = angles[q - 1]
    dist = [
        (1.0 / angles[j] + TWO_PI / (tq * tq)) * bs[j] * math.log(abs(zs[j] - zq))
        for j in range(len(zs))
        if j != q - 1
    ]
    return math.fsum([
        math.fsum(dist) / 6.0,
        q_tilde_prime(tq),
        PI * EULER_GAMMA / (3.0 * tq * tq),
        (TWO_PI / tq - tq / TWO_PI)
        * math.log(TWO_PI * math.sqrt(m.scale) / tq) / (6.0 * tq),
    ])


def grad_angle(m: PolyhedralMetric, i: int) -> float:
    """d log(det/A) / dbeta_i under the gauge beta_1-dot = -beta_i-dot:
    B_i - B_1."""
    if i == 1:
        raise GaugeVertexVariation("vertex 1 is the compensating gauge vertex")
    m.check_index(i)
    _fp_coth_csch2.lookup(m.angles())       # every angle's finite part in one batch
    return _b_term(m, i) - _b_term(m, 1)


def grad_scale(m: PolyhedralMetric) -> float:
    """d log(det/A) / dC = sum_j dF/dC(beta_j) - 1/(3C), in closed form."""
    terms = [f_function_dC(beta, m.scale) for beta in m.angles()]
    terms.append(-1.0 / (3.0 * m.scale))
    return math.fsum(terms)


# --------------------------------------------------------------------------
# same-angle comparison (CHS restricted case)
# --------------------------------------------------------------------------

ANGLE_MATCH_TOL = 1e-12


def chs_compare_same_angles(m1: PolyhedralMetric, m2: PolyhedralMetric) -> float:
    """log(det' m1 / det' m2) for metrics with equal exponent multisets:

        log(Area_1/Area_2) + W(m1) - W(m2)

    with W of ``w_function``.  The per-vertex terms F(beta_j, C) cancel
    only when the angle multisets agree, and the scale enters through
    them, so equal scales are required as well.
    """
    e1 = sorted(m1.exponents())
    e2 = sorted(m2.exponents())
    if len(e1) != len(e2) or any(
        abs(a - b) > ANGLE_MATCH_TOL for a, b in zip(e1, e2)
    ):
        raise AngleMultisetMismatch(
            "exponent multisets must agree for the same-angle comparison"
        )
    if m1.scale != m2.scale:
        raise ScaleMismatch(
            "same-angle comparison requires equal overall scales"
        )
    a1 = area(m1)
    a2 = area(m2)
    return math.fsum([
        math.log(a1.value) - math.log(a2.value),
        w_function(m1) - w_function(m2),
    ])
