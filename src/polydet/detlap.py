"""Closed-form determinant of the Laplacian on the conical sphere and its
analytic gradients.

The zeta-regularized determinant (zero mode excluded) of the metric
m = C prod |z - z_k|^(2 b_k) |dz|^2 is assembled as

    log det = log Area - (log 4 + log C)/3 - log pi + W
              + sum_j F(beta_j, C) - 4 F(pi, 1),

with the two ingredients

    W = (pi/3) sum_{k<l} b_k b_l (1/beta_k + 1/beta_l) log|z_k - z_l|,

    F(beta, C) = bracket(2 pi) - bracket(beta),
    bracket(d) = (1/2) H_cc(d) + (1/12)(d/2pi + 2pi/d) log C
                 + pi (gamma + log pi)/(3 d),

where H_cc(d) is the Hadamard finite part of coth(pi th) coth(d th/2)/th
from ``regint`` and gamma is the Euler-Mascheroni constant.  This module
is the only one that knows the terms of F and of dF/dbeta.

Where F comes from
------------------
F is the constant a cone point of angle beta adds to the Polyakov
formula.  The unit z-disk with the metric |z|^(2b) |dz|^2 is the flat
cone of angle beta = 2 pi (b + 1) and radius q = 2 pi/beta.  Cdisk(beta)
is its Dirichlet log-determinant less that of the flat unit disk, plus
b/2, which removes Alvarez's boundary term -(1/4pi) oint d_n phi = -b/2
of phi = b log|z| (Alvarez, Nucl. Phys. B 216 (1983); Osgood-Phillips-
Sarnak, J. Funct. Anal. 80 (1988)).  In Bessel modes of order nu = q k
(Bordag-Kirsten-Dowker, Commun. Math. Phys. 182 (1996)), with
zeta_beta(0) = q/12 + 1/(12 q):

    Cdisk(beta) = D(beta) - D(2 pi) + (beta/2pi - 1)/2,
    D(beta) = -zeta'_beta(0) - 2 log q zeta_beta(0),
    zeta'_beta(0) = 2 sum_{k>=1} Z'(q k) + (q/6)(1 - log 2q) - 2 q zeta_R'(-1)
                    - (1/2) log q - (1/q)(log 2q - gamma - 5/2)/6,
    Z'(nu) = log Gamma(nu + 1) + nu - (1/2) log(2 pi nu) - nu log nu - 1/(12 nu).

By Binet's integral 2 sum_k Z'(q k) is H_cc(beta)/2 plus elementary
terms, and F(beta, 1) = Cdisk(beta) + kappa (beta/2pi - 1) with
kappa = (2 log pi + 2 gamma - 1)/12.  A term linear in beta drops out of
log det (sum_j beta_j = 4 pi, matched by 4 F(pi, 1)) and of the gauged
angle gradients.  The tests check F against this mode sum and log det
against the flat orbifolds S^2(3,3,3), S^2(2,4,4) and S^2(2,3,6).

Gradients of log(det/Area) in closed form:

    d/dz_i   = (pi/6) sum_{j != i} b_i b_j (1/beta_i + 1/beta_j)/(z_i - z_j)
               (Wirtinger derivative, equal to dW/dz_i),
    d/dbeta_i = B_i - B_1  with
    B_q = (1/6) sum_{j != q} (1/beta_j + 2pi/beta_q^2) b_j log|z_j - z_q|
          + dF/dbeta(beta_q, C),
    dF/dbeta = (1/4) H_cs(beta) + pi (gamma + log pi)/(3 beta^2)
               + (1/(12 beta))(2pi/beta - beta/2pi) log C,
    d/dC     = sum_j (1/12C)(2 - beta_j/2pi - 2pi/beta_j) - 1/(3C),

where H_cs is the finite part of coth(pi th)/sinh^2(beta th/2), which is
-2 dH_cc/dbeta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple, Union

from .errors import AngleMultisetMismatch, GaugeVertexVariation, PolydetError, ScaleMismatch
from .metric import PolyhedralMetric, _distances, _pairs
from .quad import QuadResult, area
from .regint import _fp_coth_coth, _fp_coth_csch2

PI = math.pi
TWO_PI = 2.0 * math.pi

REL_ERR_FLOOR = 1.0  # gradients are O(1); below this scale abs error rules

# Euler-Mascheroni, 30 significant digits
EULER_GAMMA = 0.577215664901532860606512090082
# pi (gamma + log pi)/3, the numerator of F's 1/beta term
_GAMMA_TERM = PI * (EULER_GAMMA + math.log(PI)) / 3.0


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


def _log_distances(zs, pairs) -> list:
    """log|z_k - z_l| of each pair (k, l) of ``pairs``, each distance checked
    as ``make_metric`` checks it (``metric._distances``)."""
    try:
        logs = [math.log(abs(zs[k] - zs[l])) for k, l in pairs]
    except (OverflowError, ValueError):     # abs past the float range, log(0)
        logs = [math.inf]
    if math.inf in logs:
        _distances(zs, pairs)               # raises, naming the fault
    return logs


def _w_terms(bs, angles, pairs, logs) -> list:
    """The terms b_k b_l (1/beta_k + 1/beta_l) log|z_k - z_l| of W's sum of
    the pairs ``pairs``, given their logs ``logs``."""
    return [bs[k] * bs[l] * (1.0 / angles[k] + 1.0 / angles[l]) * d
            for (k, l), d in zip(pairs, logs)]


def _w_sum(terms) -> float:
    """W from all its pair terms."""
    return (PI / 3.0) * math.fsum(terms)


def _f_bracket(delta: float, scale: float, fp: float) -> float:
    """bracket(delta) at scale C, with fp = H_cc(delta)."""
    return math.fsum([
        fp / 2.0,
        (delta / TWO_PI + TWO_PI / delta) * math.log(scale) / 12.0,
        _GAMMA_TERM / delta,
    ])


def _f_terms(angles, scale: float) -> Tuple[float, ...]:
    """F(beta, C) of ``f_function`` at every angle of ``angles``: their
    finite parts looked up in one call, which computes the missing ones
    in one batch, and bracket(2 pi) taken once."""
    (flat, _), *fps = _fp_coth_coth.lookup((TWO_PI, *angles))
    flat = _f_bracket(TWO_PI, scale, flat)
    return tuple(flat - _f_bracket(beta, scale, fp) for beta, (fp, _) in zip(angles, fps))


def _f_dbeta(beta: float, scale: float, fp: float) -> float:
    """dF/dbeta at scale C, with fp = H_cs(beta)."""
    return math.fsum([
        fp / 4.0,
        _GAMMA_TERM / (beta * beta),
        (TWO_PI / beta - beta / TWO_PI) * math.log(scale) / (12.0 * beta),
    ])


def f_function(beta: float, scale: float) -> float:
    """F(beta, C): the per-vertex angle contribution to log det (module
    docstring).  Vanishes identically at beta = 2 pi."""
    return _f_terms((beta,), scale)[0]


def f_function_dbeta(beta: float, scale: float) -> float:
    """Closed-form dF/dbeta."""
    ((fp, _),) = _fp_coth_csch2.lookup((beta,))
    return _f_dbeta(beta, scale, fp)


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
    given log Area; PolydetError unless the sum is a finite float."""
    try:
        value = math.fsum([log_area, pre, w, *f_terms, -_reference_term()])
    except (OverflowError, ValueError):     # inf - inf, or past the float range
        value = math.nan
    if not math.isfinite(value):
        raise PolydetError(f"the terms of log det' sum to {value!r}, not a finite float")
    return value


def _prefactor(scale: float) -> float:
    """-log((4C)^(1/3) pi), from log C: finite for every finite C > 0."""
    return -(math.log(4.0) + math.log(scale)) / 3.0 - math.log(PI)


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


def _b_term(m: PolyhedralMetric, q: int, fp: float) -> float:
    """B_q, the per-vertex angle-gradient block (q is 1-based), with
    fp = H_cs at vertex q's angle."""
    zs = m.positions()
    bs = m.exponents()
    angles = m.angles()
    tq = angles[q - 1]
    pairs = [(j, q - 1) for j in range(len(zs)) if j != q - 1]
    dist = [(1.0 / angles[j] + TWO_PI / (tq * tq)) * bs[j] * d
            for (j, _), d in zip(pairs, _log_distances(zs, pairs))]
    return math.fsum(dist) / 6.0 + _f_dbeta(tq, m.scale, fp)


def grad_angle(m: PolyhedralMetric, i: int) -> float:
    """d log(det/A) / dbeta_i under the gauge beta_1-dot = -beta_i-dot:
    B_i - B_1."""
    if i == 1:
        raise GaugeVertexVariation("vertex 1 is the compensating gauge vertex")
    m.check_index(i)
    fps = _fp_coth_csch2.lookup(m.angles())     # every angle's finite part in one batch
    return _b_term(m, i, fps[i - 1][0]) - _b_term(m, 1, fps[0][0])


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
