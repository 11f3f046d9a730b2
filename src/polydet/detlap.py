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
F and of dF/dbeta.

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
[1/4, 1/2] and [1/2, 1] (``TABLE_EDGES``), interpolated at 16 first-kind
points on each (``TABLE_NODES``).  Its 64 nodes take one pass of
``_mode_sums``, about 1 ms, which the first angle-term miss makes, not
the import (``_mode_table``).  ``_table_sums`` evaluates both series at
an angle's u by Clenshaw's recurrence in plain floats, about 3 us an
angle, and ``_angle_terms`` assembles F and dF/dbeta from them, one
angle a call, keeping the last ANGLE_CACHE_SIZE angles in a
``functools.lru_cache``; S(1) comes from the same evaluation, so
F(2 pi, 1) is 0.0.  Against ``_mode_sums`` at the nodes, on 4001 s
geometric from 1 to 1e6, on both sides of the inner panel edges and at
s = 1 and 1e100, the table errs by at most 4.8e-18 on S and 7.9e-18 on
S'; its coefficients of degree 15 are below 1e-18 on every panel.

``_mode_sums``, the table's source and its test oracle, takes S(s) and
S'(s) at an array of s >= 1 in one numpy pass.  A mode
nu = s k >= NU0 = 12 takes Stirling's remainder

    Z'(nu) = sum_{n=2..8} B_2n/(2n (2n - 1)) nu^(1 - 2n),

truncated before a term below 1e-19 at nu = 12; summed over k >= k0 it is
sum_n B_2n/(2n (2n - 1)) s^(1 - 2n) zeta(2n - 1, k0), the Hurwitz zeta
values from zeta(3), ..., zeta(15) less their partial sums.  A mode
below NU0 is not taken as log Gamma(nu + 1) - nu log nu, which cancels
digits (errors up to 2.5e-14 from 0.1 pi to 10 pi), but shifted up to NU0,

    Z'(nu) = sum_{j < J} delta(nu + j) + Z'(nu + J),   J = ceil(NU0 - nu),
    delta(mu) = Z'(mu) - Z'(mu + 1)
              = sum_{i>=2} (1/(2i + 1) - 1/3) y^(2i),   y = 1/(2 mu + 1) <= 1/3,

summed to i = 21, past which the terms are below 1e-18 of the sum.  Z''
follows from the derivatives of the same series: delta'(mu) = sum_i
4i (1/3 - 1/(2i + 1)) y^(2i+1).  Every term of S and of S' has one sign,
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

The parts of these sums that depend on the metric alone are its record
(``metric.PolyhedralMetric``), computed once per metric: the pair
coefficients b_k b_l (1/beta_k + 1/beta_l), W's pair terms and the
distance sum of every block B_q.  ``w_function``, ``grad_position`` and
``grad_angle`` read them, so a gradient call adds only its own sum, and
``grad_angle`` only dF/dbeta of its two angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple, Union

import numpy as np

from .errors import AngleMultisetMismatch, GaugeVertexVariation, PolydetError, ScaleMismatch
from .metric import PolyhedralMetric, _check_angle, _check_scale, _incident
from .quad import QuadResult, area

PI = math.pi
TWO_PI = 2.0 * math.pi

REL_ERR_FLOOR = 1.0  # gradients are O(1); below this scale abs error rules


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
    return tuple([_angle_terms(beta)[0] + (1.0 - beta / TWO_PI) * (1.0 - TWO_PI / beta) * log_c
                  for beta in angles])


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


def f_function_dC(beta: float, scale: float) -> float:
    """Closed-form dF/dC."""
    _check_angle(beta)
    _check_scale(scale)
    return _f_dc(beta, scale)


def _f_dc(beta: float, scale: float) -> float:
    """dF/dC of ``f_function_dC``; the caller checks beta and C."""
    return (2.0 - beta / TWO_PI - TWO_PI / beta) / (12.0 * scale)


# --------------------------------------------------------------------------
# F(beta, 1) and dF/dbeta(beta, 1): the mode series (module docstring)
# --------------------------------------------------------------------------

NU0 = 12.0                         # modes below it are shifted up to it
_NEAR_K = np.arange(1.0, NU0)      # the k of modes s k < NU0, as s >= 1
_CHAIN = _NEAR_K - 1.0             # the j of a chain nu + j, below NU0
# delta/y^4 and delta'/y^5 in powers of t = y^2, i = 2..21: the coefficient
# of t^(4q + r) at (q, value or slope, r), for Horner's rule in t^4 over q
# (Estrin's scheme)
_I = np.arange(2.0, 22.0)
_DELTA = np.array([1.0 / (2.0 * _I + 1.0) - 1.0 / 3.0,
                   4.0 * _I * (1.0 / 3.0 - 1.0 / (2.0 * _I + 1.0))]
                  ).reshape(2, 5, 4).transpose(1, 0, 2)[..., None].copy()
# Stirling's remainder at nu = 1/w in powers of x = w^2: Z' = w sum_n c_n x^(n-1)
# and Z'' = -sum_n (2n - 1) c_n x^n, c_n = B_2n/(2n (2n - 1)), n = 2..8 (rows
# value and slope, columns x..x^8); row 0 at a chain end, and row k0 = 1..NU0
# the tail from k0 on, which is that at w = 1/s with each term times
# zeta(2n - 1, k0)
_STIRLING = np.array([-1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
                      -3617 / 122400])
_ZETA_ODD = (1.2020569031595942, 1.03692775514337, 1.008349277381923, 1.0020083928260821,
             1.0004941886041194, 1.0001227133475785, 1.000030588236307)
_HURWITZ = np.array([[math.fsum([z, *(-(k ** -n) for k in range(1, k0))])
                      for z, n in zip(_ZETA_ODD, range(3, 16, 2))]
                     for k0 in range(1, int(NU0) + 1)])
_ENDS = np.zeros((int(NU0) + 1, 2, 8))
_ENDS[0, 0, :7] = _STIRLING
_ENDS[0, 1, 1:] = -np.arange(3.0, 16.0, 2.0) * _STIRLING
_ENDS[1:, 0, :7] = _HURWITZ
_ENDS[1:, 1, 1:] = _HURWITZ
_ENDS[1:] *= _ENDS[0]
_TAILS = _ENDS[1:]
# F and dF/dbeta from S(s) and S'(s) (module docstring), to 17 digits
_A = -0.3819844239742443           # 2 zeta_R'(-1) - (1 - log 2)/6
_L = 0.3063128444015576            # log(2 pi)/6
_C = 0.17794466154735017           # -a - 1/(16 L)
_R0 = 0.8161590497075766           # 1/(4 L)
_A_MIRROR = -0.0949934988490888    # 2 zeta_R'(-1) + (log 2 pi + gamma - 1)/6
_B_MIRROR = 0.019321919276402075   # (log 2 - gamma)/6
_DA_MIRROR = 0.07167316781757786   # a+ + 1/6
_DB_MIRROR = 0.1473447473902646    # 1/6 - b+
# S(s) and S'(s) as Chebyshev series in u = 1/s on the panels between
# these edges, each through TABLE_NODES first-kind points: one pass of
# 64 nodes builds the table
TABLE_EDGES = (0.0, 0.125, 0.25, 0.5, 1.0)
TABLE_NODES = 16


def _mode_sums(s):
    """S(s) = sum_k Z'(s k) and S'(s) = sum_k k Z''(s k) at every s >= 1 of
    the array ``s`` (module docstring, "The mode series"), each summed in
    one order: the shifts of each chain, the chain ends, the tail."""
    n = len(s)
    # the near modes nu = s k < NU0, in the order (angle, k), and their
    # chains nu + j < NU0, in the order (mode, j)
    rows, cols = (s[:, None] * _NEAR_K < NU0).nonzero()
    k = cols + 1.0
    nu = s[rows] * k
    m = len(nu)
    mu = nu[:, None] + _CHAIN
    chain = mu < NU0
    mode = chain.nonzero()[0]
    # delta and delta' on every chain nu, nu + 1, ..., nu + J - 1
    y = 0.5 / (mu[chain] + 0.5)
    t = y * y
    t4 = t * t
    t4 *= t4
    acc = _DELTA[-1] * t4
    for c in _DELTA[-2:0:-1]:
        acc += c
        acc *= t4
    acc += _DELTA[0]
    shifts = ((acc[:, 3] * t + acc[:, 2]) * t + acc[:, 1]) * t + acc[:, 0]
    shifts *= t * t
    shifts[1] *= y
    # Stirling's Z' and Z'' at the chain ends nu + J >= NU0, and the tails
    # from k0 = 1 + the number of an angle's near modes
    w = 1.0 / np.concatenate([nu + np.bincount(mode, minlength=m), s])
    powers = (w * w)[:, None].repeat(8, axis=1).cumprod(axis=1)[:, None, :]
    stirling = np.add.reduce(np.concatenate([powers[:m] * _ENDS[0],
                                             powers[m:] * _TAILS[np.bincount(rows, minlength=n)]]),
                             axis=2)
    stirling[:, 0] *= w
    owner = np.concatenate([rows[mode], rows, np.arange(n)])
    return (np.bincount(owner, np.concatenate([shifts[0], stirling[:, 0]]), n),
            np.bincount(owner, np.concatenate([shifts[1] * k[mode], stirling[:m, 1] * k,
                                               stirling[m:, 1]]), n))


def _table_nodes() -> np.ndarray:
    """The u of the table's nodes, (panel, node): the first-kind points
    x_j = cos(pi (j + 1/2)/TABLE_NODES) mapped onto each panel."""
    x = np.cos(np.pi * (np.arange(TABLE_NODES) + 0.5) / TABLE_NODES)
    lo, hi = np.array(TABLE_EDGES[:-1]), np.array(TABLE_EDGES[1:])
    return ((hi + lo) / 2.0)[:, None] + ((hi - lo) / 2.0)[:, None] * x


@lru_cache(maxsize=None)
def _mode_table() -> Tuple[tuple, float]:
    """The panels of the mode table, each (top edge, a, b, coefficients)
    with x = a u - b on it and the (S, S') coefficient pairs from the
    highest degree down, and S(1) from the table, so that F(2 pi, 1) is
    0.0.  Built by one ``_mode_sums`` pass on the first call."""
    u = _table_nodes()
    n_panels, n = u.shape
    values = np.stack(_mode_sums(1.0 / u.ravel())).reshape(2, n_panels, n)
    # c_k = (2/n) sum_j f(x_j) cos(pi k (j + 1/2)/n), c_0 halved
    basis = np.cos(np.pi * np.outer(np.arange(n), np.arange(n) + 0.5) / n) * (2.0 / n)
    basis[0] /= 2.0
    coefficients = (values[..., None, :] * basis).sum(axis=-1)
    panels = tuple((hi, 2.0 / (hi - lo), (hi + lo) / (hi - lo),
                    tuple(map(tuple, coefficients[:, p, ::-1].T.tolist())))
                   for p, (lo, hi) in enumerate(zip(TABLE_EDGES, TABLE_EDGES[1:])))
    return panels, _table_sums(panels, 1.0)[0]


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
    panels, s_one = _mode_table()
    mirror = beta > TWO_PI
    s = beta / TWO_PI if mirror else TWO_PI / beta
    sums, slopes = _table_sums(panels, 1.0 / s)
    log_s, r = math.log(s), 1.0 / s
    if mirror:
        f = _A_MIRROR * (s - 1.0) + _B_MIRROR * (r - 1.0) + (s + r) * log_s / 6.0
        dfdb = (_DA_MIRROR + _DB_MIRROR * r * r + (1.0 - r * r) * log_s / 6.0
                - 2.0 * slopes) / TWO_PI
    else:
        f = _A * (s - 1.0) + _L * (r - 1.0) + 0.5 * log_s
        dfdb = (2.0 * slopes + _C + _L * (r - _R0) ** 2) * (s * s) / TWO_PI
    return f - 2.0 * (sums - s_one), dfdb


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
    zs, coefficients = m.positions(), m._parts.coefficients
    zi = zs[i - 1]
    acc_re, acc_im = [], []
    for j, p in _incident(len(zs))[i - 1]:
        w = coefficients[p] / (zi - zs[j])
        acc_re.append(w.real)
        acc_im.append(w.imag)
    return (PI / 6.0) * complex(math.fsum(acc_re), math.fsum(acc_im))


def grad_angle(m: PolyhedralMetric, i: int) -> float:
    """d log(det/A) / dbeta_i under the gauge beta_1-dot = -beta_i-dot:
    B_i - B_1, B_q the metric's distance sum of block q
    (``PolyhedralMetric._b_sums``) plus dF/dbeta(beta_q, C)."""
    if i == 1:
        raise GaugeVertexVariation("vertex 1 is the compensating gauge vertex")
    m.check_index(i)
    angles, sums = m.angles(), m._b_sums
    return ((sums[i - 1] + _f_dbeta(angles[i - 1], m.scale, _angle_terms(angles[i - 1])[1]))
            - (sums[0] + _f_dbeta(angles[0], m.scale, _angle_terms(angles[0])[1])))


def grad_scale(m: PolyhedralMetric) -> float:
    """d log(det/A) / dC = sum_j dF/dC(beta_j) - 1/(3C), in closed form."""
    terms = [_f_dc(beta, m.scale) for beta in m.angles()]
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
