"""Closed-form determinant of the Laplacian on the conical sphere and its
analytic gradients.

The zeta-regularized determinant (zero mode excluded) of the metric
m = C prod |z - z_k|^(2 b_k) |dz|^2 is assembled as

    log det = log Area - (log 4 + log C)/3 - log pi + W
              + sum_j F(beta_j, C) - 4 F(pi, 1),

with the two ingredients

    W = (pi/3) sum_{k<l} b_k b_l (1/beta_k + 1/beta_l) log|z_k - z_l|,

    F(beta, C) = F(beta, 1) + (1/12)(2 - beta/2pi - 2pi/beta) log C,

where F(beta, 1) is the cone-disk determinant below, computed from its
Bessel-mode series.  This module is the only one that knows the terms of
F and of dF/dbeta.  The log of a ratio of two determinants is the
difference of two such sums, whatever the angles and scales (``polydet
compare``).

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
    zeta'_beta(0) = 2 S(q) + (q/6)(1 - log 2q) - 2 q zeta_R'(-1)
                    - (1/2) log q - (1/q)(log 2q - gamma - 5/2)/6,
    S(q) = sum_{k>=1} Z'(q k),
    Z'(nu) = log Gamma(nu + 1) + nu - (1/2) log(2 pi nu) - nu log nu - 1/(12 nu),

and F(beta, 1) = Cdisk(beta) + kappa (beta/2pi - 1) with
kappa = (2 log pi + 2 gamma - 1)/12, gamma the Euler-Mascheroni
constant.  A term linear in beta drops out of log det (sum_j beta_j =
4 pi, matched by 4 F(pi, 1)) and of the gauged angle gradients.  The
q log q terms cancel, which leaves, for beta <= 2 pi and s = q >= 1,

    F(beta, 1) = a (s - 1) + L (1/s - 1) + (1/2) log s - 2 (S(s) - S(1)),
    dF/dbeta   = (s^2/2pi) (2 S'(s) + c + L (1/s - r0)^2),

with a = 2 zeta_R'(-1) - (1 - log 2)/6, L = log(2 pi)/6, r0 = 1/(4 L),
c = -a - 1/(16 L) > 0 and S'(s) = sum_k k Z''(s k).  For beta > 2 pi the
mirror identity

    Cdisk(beta) - Cdisk(4 pi^2/beta) = (x - 1/x)/12 + (x + 1/x - 3)(log x)/6,

x = beta/2pi, and its beta derivative give, with s = x >= 1,

    F(beta, 1) = a+ (s - 1) + b+ (1/s - 1) + (s + 1/s)(log s)/6 - 2 (S(s) - S(1)),
    dF/dbeta   = (a+ + 1/6 + (1/6 - b+)/s^2 + (1 - 1/s^2)(log s)/6 - 2 S'(s))/2pi,

with a+ = 2 zeta_R'(-1) + (log 2 pi + gamma - 1)/6 and b+ = (log 2 - gamma)/6.
Both dF/dbeta forms are sums of terms of one sign but for the small
2 S'(s) of the mirror.  By Binet's integral 2 S(q) is also H_cc(beta)/2
plus elementary terms, H_cc the Hadamard finite part of coth(pi th)
coth(beta th/2)/th of module ``regint``, and dF/dbeta is H_cs(beta)/4 +
pi (gamma + log pi)/(3 beta^2) at C = 1, H_cs that of coth(pi th)/
sinh^2(beta th/2); ``regint`` is the oracle of this module's F.  The
tests check F and dF/dbeta against those finite parts, against a
40-digit mpmath mode sum, and log det against the flat orbifolds
S^2(3,3,3), S^2(2,4,4) and S^2(2,3,6) and the tetrahedron.

The mode series
---------------
S(s) and S'(s) are smooth in u = 1/s on [0, 1].  The mode table holds
each as a Chebyshev series in u on the panels [0, 1/8], [1/8, 1/4],
[1/4, 1/2] and [1/2, 1], interpolated at 16 first-kind points on each.
It is a literal (``_PANELS``, with S(1) as ``_S_ONE``), so no call and no
import builds it; ``tests/mode_series.py`` sums the modes at the 64
nodes in one numpy pass (Stirling's remainder for modes at or above 12,
shifted up to 12 below that) and prints it, and the tests rebuild it bit
for bit.  ``_table_sums`` evaluates both series at an angle's u by
Clenshaw's recurrence in plain floats, about 3 us an angle, and
``_angle_terms`` assembles F and dF/dbeta from them, one angle a call,
keeping the last ANGLE_CACHE_SIZE angles in a ``functools.lru_cache``;
S(1) comes from the same evaluation, so F(2 pi, 1) is 0.0.  Against the
mode sums at the nodes, on 4001 s geometric from 1 to 1e6, on both sides
of the inner panel edges and at s = 1 and 1e100, the table errs by at
most 4.8e-18 on S and 7.9e-18 on S'; its coefficients of degree 15 are
below 1e-18 on every panel.  Every term of S and of S' has one sign,
so no digits are lost.  Against a 40-digit mpmath mode sum, on 81 angles
geometric from 0.01 pi to 100 pi, F and dF/dbeta from the table err by
at most 3.4e-16 max(1, |value|), and by at most 4 units in the last
place where |value| > 0.05, as they did from a pass per angle; F and
dF/dbeta from the finite parts err by up to 7.4e-16 max(1, |value|)
there.

Gradients of log(det/Area) in closed form:

    d/dz_i   = (pi/6) sum_{j != i} b_i b_j (1/beta_i + 1/beta_j)/(z_i - z_j)
               (Wirtinger derivative, equal to dW/dz_i),
    d/dbeta_i = B_i - B_1  with
    B_q = (1/6) sum_{j != q} (1/beta_j + 2pi/beta_q^2) b_j log|z_j - z_q|
          + dF/dbeta(beta_q, C),
    dF/dbeta(beta, C) = dF/dbeta(beta, 1) + (1/(12 beta))(2pi/beta - beta/2pi) log C,
    d/dC     = sum_j (1/12C)(2 - beta_j/2pi - 2pi/beta_j) - 1/(3C).

These sums read the metric's record (``metric.PolyhedralMetric``), and
keep their values in its gradient slots: ``grad_position`` forms vertex
i's sum, and ``grad_angle`` the blocks B_i and B_1, each of M - 1 pair
terms, on the first call that needs them, after its index and gauge
checks; every later call, ``verify``'s included, reads the slot.  So a
call raises only where forming its own vertices raises, and a sum that
is not a finite float raises PolydetError.  The scale gradient, M + 1
closed-form terms, is summed anew by each call.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Tuple

from .errors import GaugeVertexVariation, PolydetError
from .metric import PolyhedralMetric, _check_angle, _check_scale, _incident
from .quad import QuadResult, area

PI = math.pi
TWO_PI = 2.0 * math.pi


class DetReport(NamedTuple):
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


# --------------------------------------------------------------------------
# W and F
# --------------------------------------------------------------------------

def w_function(m: PolyhedralMetric) -> float:
    """W = (pi/3) sum_{k<l} b_k b_l (1/beta_k + 1/beta_l) log|z_k - z_l|.

    The terms, the metric's own (``metric._Parts``), are summed
    with ``math.fsum``, exactly rounded, so the value is reproducible
    bit-for-bit in any order of the pairs.
    """
    return _w_sum(m._parts.w_terms)


def _w_sum(terms) -> float:
    """W from all its pair terms."""
    return (PI / 3.0) * math.fsum(terms)


def _f_terms(angles, scale: float) -> Tuple[float, ...]:
    """F(beta, C) of ``f_function`` at every angle of ``angles``."""
    log_c = math.log(scale) / 12.0
    terms = []
    for beta in angles:     # a loop, not a comprehension: cheaper for two angles
        terms.append(_angle_terms(beta)[0]
                     + (1.0 - beta / TWO_PI) * (1.0 - TWO_PI / beta) * log_c)
    return tuple(terms)


def _f_dbeta(beta: float, scale: float, dfdb: float) -> float:
    """dF/dbeta at scale C, with dfdb = dF/dbeta(beta, 1)."""
    return dfdb + (TWO_PI / beta - beta / TWO_PI) * math.log(scale) / (12.0 * beta)


def f_function(beta: float, scale: float) -> float:
    """F(beta, C): the per-vertex angle contribution to log det (module
    docstring).  Vanishes identically at beta = 2 pi."""
    _check_angle(beta)
    _check_scale(scale)
    return _f_terms((beta,), scale)[0]


def f_function_dbeta(beta: float, scale: float) -> float:
    """dF/dbeta(beta, C) (module docstring)."""
    _check_angle(beta)
    _check_scale(scale)
    return _f_dbeta(beta, scale, _angle_terms(beta)[1])


def _f_dc(beta: float, scale: float) -> float:
    """dF/dC(beta, C) in closed form; the caller checks beta and C."""
    return (2.0 - beta / TWO_PI - TWO_PI / beta) / (12.0 * scale)


# --------------------------------------------------------------------------
# F(beta, 1) and dF/dbeta(beta, 1): the mode series (module docstring)
# --------------------------------------------------------------------------

# F and dF/dbeta from S(s) and S'(s) (module docstring), to 17 digits
_A = -0.3819844239742443           # 2 zeta_R'(-1) - (1 - log 2)/6
_L = 0.3063128444015576            # log(2 pi)/6
_C = 0.17794466154735017           # -a - 1/(16 L)
_R0 = 0.8161590497075766           # 1/(4 L)
_A_MIRROR = -0.0949934988490888    # 2 zeta_R'(-1) + (log 2 pi + gamma - 1)/6
_B_MIRROR = 0.019321919276402075   # (log 2 - gamma)/6
_DA_MIRROR = 0.07167316781757786   # a+ + 1/6
_DB_MIRROR = 0.1473447473902646    # 1/6 - b+
# S(s) and S'(s) as Chebyshev series in u = 1/s on four panels (module
# docstring): per panel its top edge, a and b of x = a u - b on it, and
# the (S, S') coefficient pairs from degree 15 down; then S(1) from the
# table, so that F(2 pi, 1) is 0.0.  Printed by tests/mode_series.py.
_PANELS = (
    (0.125, 16.0, 1.0, (
        (-1.5881867761018131e-22, -1.1911400820763599e-22),
        (3.705769144237564e-21, -5.492479267352104e-21),
        (7.623296525288703e-21, -1.2890782666026383e-20),
        (1.087907941629742e-20, -6.20716331659792e-21),
        (-2.8852059765849605e-20, 5.34438085048061e-19),
        (-1.6302207861093078e-18, -5.715778328072019e-18),
        (2.7744352429077794e-17, -2.0737410015770523e-16),
        (7.190803222956331e-16, 5.4228518753034896e-15),
        (-2.8308359587281555e-14, 1.0831321607618634e-13),
        (-4.5258731850926465e-13, -6.808111168653547e-12),
        (4.6012175006578774e-11, -8.789031845378103e-11),
        (4.781981845593633e-10, 1.86137413571426e-08),
        (-2.0162601964506509e-07, 1.5119565346761135e-07),
        (-1.2169777249095872e-06, 5.312387300988305e-07),
        (-3.046790718673669e-06, 1.0639611227367818e-06),
        (-2.0318707758294815e-06, 6.652233252303729e-07),
    )),
    (0.25, 16.0, 3.0, (
        (-9.740878893424454e-21, 1.1011428314305904e-20),
        (1.2281977735187355e-20, -2.3928680759933985e-20),
        (-6.776263578034403e-21, 5.505714157152952e-21),
        (-9.317362419797304e-21, 2.498747194400186e-20),
        (3.3881317890172014e-20, -4.1504614415460717e-20),
        (-2.583450489125616e-19, 5.634039648661979e-18),
        (-1.829845275953465e-17, -1.1018204577883939e-16),
        (6.992731318034712e-16, -1.6570107441650668e-15),
        (-1.091005541117851e-15, 1.5739233045469606e-13),
        (-8.598397567680018e-13, -2.547182654212489e-12),
        (2.871770469063434e-11, -2.0272663456611832e-10),
        (1.2413390239890483e-09, 1.553734255604265e-08),
        (-1.87418397527072e-07, 4.2736377204659847e-07),
        (-3.562733540857026e-06, 4.0491992909122535e-06),
        (-2.226560791042309e-05, 1.7449149427830673e-05),
        (-2.5388246039229624e-05, 1.624171453387507e-05),
    )),
    (0.5, 8.0, 3.0, (
        (-7.453889935837843e-20, 1.4568966692773966e-19),
        (1.0164395367051604e-20, 6.437450399132683e-20),
        (4.0657581468206416e-20, -2.236166980751353e-19),
        (-4.404571325722362e-20, 5.942783157936171e-18),
        (-9.615518017230817e-18, -7.124563525945371e-17),
        (2.4327125058322407e-16, 7.746624522408929e-17),
        (-2.9258618639872724e-15, 1.9167196855292973e-14),
        (-1.0379822950592685e-14, -4.980629657888678e-13),
        (1.4197441779075642e-12, 5.261794885707497e-12),
        (-3.327859390034088e-11, 9.892776982529158e-11),
        (8.572325552717473e-11, -6.51679624849512e-09),
        (2.66694693265763e-08, 1.454256929583474e-07),
        (-1.2064213562316728e-06, 5.75528022304857e-06),
        (-2.640814327291317e-05, 5.8943170003637085e-05),
        (-0.00017071699895449498, 0.00026193949066944706),
        (-0.0001969445627699031, 0.0002467823244997855),
    )),
    (1.0, 4.0, 3.0, (
        (-4.87890977618477e-19, 7.589415207398531e-19),
        (1.395910297075087e-18, 2.656295322589486e-18),
        (-1.2793585635328952e-17, 2.0816681711721685e-17),
        (1.0251131540850444e-16, -6.728016581358798e-16),
        (-2.9644797901184905e-16, 1.0773716987988458e-14),
        (-9.164327283150975e-15, -1.220099325391355e-13),
        (2.421661504138639e-13, 8.518137367338752e-13),
        (-3.670297247550247e-12, 3.0597440271555587e-12),
        (3.502515904260997e-11, -2.4615906155881634e-10),
        (2.061355760022386e-11, 5.465487605896269e-09),
        (-1.083002448295069e-08, -7.852101597280534e-08),
        (3.170969205481427e-07, 2.506573046512795e-07),
        (-5.042070474397826e-06, 5.9061828821604673e-05),
        (-0.00016957865787901524, 0.0007290843478728335),
        (-0.0012011522034316407, 0.0034943181524942353),
        (-0.0014321929276721191, 0.003397520019404564),
    )),
)
_S_ONE = -0.0028076595403598924


def _table_sums(panels, u: float) -> Tuple[float, float]:
    """S(s) and S'(s) at u = 1/s in [0, 1], by Clenshaw's recurrence on the
    panel of the mode table that holds u."""
    for top, a, b, coefficients in panels:
        if u <= top:
            break
    x = a * u - b
    x2 = x + x
    v1 = v2 = d1 = d2 = 0.0
    for cv, cd in coefficients[:-1]:
        v1, v2 = x2 * v1 - v2 + cv, v1
        d1, d2 = x2 * d1 - d2 + cd, d1
    cv, cd = coefficients[-1]
    return x * v1 - v2 + cv, x * d1 - d2 + cd


ANGLE_CACHE_SIZE = 4096   # angles whose (F, dF/dbeta) the cache keeps


@lru_cache(maxsize=ANGLE_CACHE_SIZE)
def _angle_terms(beta: float) -> Tuple[float, float]:
    """(F(beta, 1), dF/dbeta(beta, 1)) from the mode table (module
    docstring): the one source of F and dF/dbeta, for the angle terms,
    angle gradients and finite differences.  An angle that fails
    ``metric._check_angle`` raises and is not cached."""
    _check_angle(beta)
    mirror = beta > TWO_PI
    s = beta / TWO_PI if mirror else TWO_PI / beta
    sums, slopes = _table_sums(_PANELS, 1.0 / s)
    log_s, r = math.log(s), 1.0 / s
    if mirror:
        f = _A_MIRROR * (s - 1.0) + _B_MIRROR * (r - 1.0) + (s + r) * log_s / 6.0
        dfdb = (_DA_MIRROR + _DB_MIRROR * r * r + (1.0 - r * r) * log_s / 6.0
                - 2.0 * slopes) / TWO_PI
    else:
        f = _A * (s - 1.0) + _L * (r - 1.0) + 0.5 * log_s
        dfdb = (2.0 * slopes + _C + _L * (r - _R0) ** 2) * (s * s) / TWO_PI
    return f - 2.0 * (sums - _S_ONE), dfdb


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
    """log(det/Area) = fsum([pre, W, *F, -ref]), or log det given log Area:
    the one sum of log det' (``math.fsum``, exactly rounded, so in any
    order); PolydetError unless it is a finite float."""
    return _finite_sum([log_area, w, pre, *f_terms, -_reference_term()],
                       "the terms of log det' sum to {!r}, not a finite float")


def _finite_sum(terms, message: str, *args) -> float:
    """``math.fsum`` of ``terms``; PolydetError with ``message``, formatted
    with the sum and ``args``, unless it is a finite float."""
    try:
        value = math.fsum(terms)
    except (OverflowError, ValueError):     # inf - inf, or past the float range
        value = math.nan
    if not math.isfinite(value):
        raise PolydetError(message.format(value, *args))
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
    vertex index 1-based.  Formed on the first call for the vertex and
    kept in the metric's gradient slots."""
    m.check_index(i)
    slots = m._gradients[0]
    if slots[i - 1] is None:
        slots[i - 1] = _position_gradient(m, i - 1)
    return slots[i - 1]


def grad_angle(m: PolyhedralMetric, i: int) -> float:
    """d log(det/A) / dbeta_i under the gauge beta_1-dot = -beta_i-dot:
    B_i - B_1, the angle blocks of ``_angle_block``, each formed on the
    first call that needs it and kept in the metric's gradient slots."""
    if i == 1:
        raise GaugeVertexVariation("vertex 1 is the compensating gauge vertex")
    m.check_index(i)
    blocks = m._gradients[1]
    for q in (i - 1, 0):
        if blocks[q] is None:
            blocks[q] = _angle_block(m, q)
    return blocks[i - 1] - blocks[0]


def grad_scale(m: PolyhedralMetric) -> float:
    """d log(det/A) / dC = sum_j dF/dC(beta_j) - 1/(3C), in closed form;
    PolydetError unless it is a finite float (C far below 1e-308 takes it
    past the float range)."""
    terms = [_f_dc(beta, m.scale) for beta in m.angles()]
    terms.append(-1.0 / (3.0 * m.scale))
    return _finite_sum(terms, "d log(det/A)/dC at C = {1!r} is past the float range", m.scale)


def _position_gradient(m: PolyhedralMetric, q: int) -> complex:
    """(pi/6) sum_{j != q} b_q b_j (1/beta_q + 1/beta_j)/(z_q - z_j), its
    real and imaginary parts each summed with ``math.fsum``; PolydetError
    unless both sums are finite floats (neighbours at subnormal distances
    take a term past the float range)."""
    zs, coefficients = m.positions(), m._parts.coefficients
    zq = zs[q]
    acc_re, acc_im = [], []
    for j, p in _incident(len(zs))[q]:
        w = coefficients[p] / (zq - zs[j])
        acc_re.append(w.real)
        acc_im.append(w.imag)
    message = "d log(det/A)/dz_{1} has a part {0!r}, not a finite float"
    return (PI / 6.0) * complex(_finite_sum(acc_re, message, q + 1),
                                _finite_sum(acc_im, message, q + 1))


def _angle_block(m: PolyhedralMetric, q: int) -> float:
    """B_q: (1/6) sum_{j != q} (1/beta_j + 2pi/beta_q^2) b_j log|z_j - z_q|,
    its M - 1 terms summed with ``math.fsum``, plus dF/dbeta(beta_q, C)."""
    parts = m._parts
    bs, angles, logs = parts.exponents, parts.angles, parts.logs
    tq = angles[q]
    terms = [(1.0 / angles[j] + TWO_PI / (tq * tq)) * bs[j] * logs[p]
             for j, p in _incident(len(angles))[q]]
    return math.fsum(terms) / 6.0 + _f_dbeta(tq, m.scale, _angle_terms(tq)[1])
