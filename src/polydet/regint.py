"""Regularized one-dimensional integrals of the cone-angle calculus.

Three quantities live here, all functions of a cone angle beta > 0:

* ``q_of_beta``           -- the heat-trace constant
                             Q(beta) = -(1/12) (beta/2pi - 2pi/beta),
                             together with its contour form
                             ``q_of_beta_contour`` used as a cross-check.
* ``hadamard_coth_over_sinh_sq`` -- the Hadamard finite part
                             H int_0^inf coth(pi th)/sinh^2(beta th/2) dth,
                             divergent like theta^-3 + theta^-1 at zero.
* ``hadamard_coth_coth_over_theta`` -- that of coth(pi th) coth(beta th/2)/th,
                             divergent at infinity too.

The two finite parts are the oracle of the angle term F(beta, 1) and of
dF/dbeta, which module ``detlap`` computes from the Bessel-mode series of
the cone disk.  By Binet's integral that series is H_cc/2 plus elementary
terms, and dF/dbeta = H_cs/4 + pi (gamma + log pi)/(3 beta^2) at C = 1
(gamma the Euler-Mascheroni constant; derivation in ``detlap``).  No hot
path calls them: ``verify hadamard``, the tests and the benchmark's
oracle items do, uncached.

The cotangent contour
---------------------
Q(beta) and the kernels of module ``cone`` are contour integrals

    (1/(2 i beta)) int_C cot(pi (th + dphi)/beta) g(sin(th/2)) dth

of a kernel g of the half-chord sigma = sin(th/2), even in sigma (for
Q(beta), g = beta/(8 pi sigma^2)).  C is the pair of lines
th = +-(pi - i s), s in R, plus anticlockwise circles around the cotangent
poles th* = m beta - dphi with |Re th*| < pi; the symmetric densities
(Q(beta), ``cone.a_mu``) leave out the circle at th* = 0.  ``_cot_contour``
evaluates all of them as

    sum_{th*} w g(|sin(th*/2)|) + (1/beta) int_0^T g(cosh(s/2)) L(s) ds:

a circle counts fully (w = 1) inside the strip and half (w = 1/2) for a
pole on a line, the limit of a deterministic contour shift with the line
integral taken as a principal value.  On the lines sin(th/2) =
+-cosh(s/2), and th -> -conj(th) folds the two lines into one real
integral over s >= 0 with the weight
L(s) = Re[cot(pi(dphi - pi - is)/beta) - cot(pi(dphi + pi - is)/beta)].
The line integral runs on the panels below over [0, T],
T = 40, with dyadic edges from 1/2 up and, for a pole a distance w off a
line, edges graded geometrically down to 0.3 w, where its Lorentzian
bump sits.  A pole within POLE_TOL = 1e-12 of a line counts as on it.

Hadamard prescription
---------------------
The counterterms subtracted at theta -> 0 are exactly the divergent terms
of the integrand's Laurent expansion (the only choice that produces a
finite limit):

    coth(pi th)/sinh^2(beta th/2) = 4/(pi beta^2 th^3)
                                    + (4 pi/(3 beta^2) - 1/(3 pi))/th + O(th)
    coth(pi th) coth(beta th/2)/th = 2/(pi beta th^3)
                                    + (beta/(6 pi) + 2 pi/(3 beta))/th + O(th)

The coth*coth/th integrand additionally tends to 1/th at infinity; its
finite part subtracts log T there (equivalently, integrates the convergent
difference coth*coth/th - 1/th on [1, inf)).  That normalization constant
is beta-independent, so it cancels in every angle difference and angle
derivative this library exposes.

Numerically the finite part is computed cutoff-free,

    FP = -a3/2 + int_0^1 (f - a3/th^3 - a1/th) dth + int_1^inf tail.

Both integrands are real on the real axis and analytic in 0 < |th| < R =
min(1, 2pi/beta), inside the poles of coth(pi th) at i Z and of the
beta th/2 factor at 2 pi i Z/beta.  On [0, rho], where the subtraction
would cancel catastrophically, the regular part is Cauchy's integral

    (1/(2 pi i)) oint_{|z| = r} f(z) (-log(1 - rho/z)) dz,   rho < r < R:

the kernel has only negative powers of z, so the principal part
a3/z^3 + a1/z adds no residue and f enters unsubtracted.  rho = ``split``
R (default SPLIT_RADIUS = 1/4), r = sqrt(rho R), and the trapezoid sum on
CIRCLE_NODES = 64 points converges like (rho/R)^32 = 2^-64 (Trefethen
and Weideman, SIAM Rev. 56, 2014); the lower half circle holds the
conjugates of the upper, so 32 points are evaluated.  Its error estimate
is that truncation times the size of the terms summed, plus a rounding
floor; up to the default split the truncation lies below the floor.
Above it the truncation outgrows that estimate (105-fold at split =
0.4), so a split outside (0, SPLIT_RADIUS] raises PolydetError.
[rho, 1] takes the pointwise difference on max(2, ceil(log4(1/rho)))
geometric panels ([rho, sqrt(rho), 1] up to beta = 8 pi), and the tail
dyadic panels of width 1/rate, 2/rate, ... from 1, e^(-rate th) being
its fastest exponential: no bisection from 0.05 pi to 300 pi.  Halving
``split`` moves the result within the two runs' error estimates, which
``verify hadamard`` reports.

``hadamard_coth_over_sinh_sq`` and ``hadamard_coth_coth_over_theta``
each take one angle, and check it and the split before anything is
computed.

Panels
------
``_panel_integral`` is the one quadrature of this module.  It takes a
list of panel edges and integrates every panel by the Chebyshev rule of
the area (``quad._rule`` with weight 1) on PANEL_NODES = 33 points, its
error estimate the size of the last two Chebyshev coefficients of each
panel (``quad._panel_sums``), held to one tolerance pair for every
call, PANEL_ABS_TOL = 1e-14 and PANEL_REL_TOL = 1e-13.  A pass evaluates
all panels in one integrand call; while the estimate is too large the
next pass has the worst panels bisected, and one past MAX_PANEL_SPLITS
bisections raises ToleranceNotReached with its partial result, so no
integral fails to converge silently.  For integrands analytic on the
panel, as all of these are, the rule is about as accurate per node as
Gauss-Legendre (Trefethen, SIAM Rev. 50, 2008).  The contour's line is
one call; a finite part is two, its near and its far panels.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .errors import PolydetError, ToleranceNotReached
from .metric import _check_angle
from .quad import QuadResult, _chebyshev, _panel_sums, _rule

PI = math.pi
TWO_PI = 2.0 * math.pi

quad = None   # a placeholder: bench/tracing.py wraps this name, and nothing calls it


# --------------------------------------------------------------------------
# overflow-safe hyperbolics (real or complex numpy arrays)
# --------------------------------------------------------------------------

def _coth(x):
    return 1.0 / np.tanh(x)


def _csch2(x):
    # 4 e^-2x/(1 - e^-2x)^2: no overflow for real x > 0; takes complex x too
    return 4.0 * np.exp(-2.0 * x) / np.expm1(-2.0 * x) ** 2


# --------------------------------------------------------------------------
# panels
# --------------------------------------------------------------------------

PANEL_NODES = 33        # Chebyshev points per panel, both ends included
MAX_PANEL_SPLITS = 64   # panel bisections per integral
PANEL_ABS_TOL = 1e-14   # an integral is settled at an estimate of at most
PANEL_REL_TOL = 1e-13   # max(PANEL_ABS_TOL, PANEL_REL_TOL |I|, rounding floor)
ROUNDING = 4.0 * float(np.finfo(float).eps)


@lru_cache(maxsize=4)
def _panel_rule(n: int):
    """The n points, the rows and m0 of their rule, and its full weights
    (rows[0] with the vertex term m0 at the first point), which are
    positive."""
    rows, m0 = _rule(n, 0.0)
    weights = rows[0].copy()
    weights[0] += m0
    weights.flags.writeable = False     # cached, shared by callers
    return _chebyshev(n)[0], rows, m0, weights


def _panel_integral(f, edges, cancel: float) -> QuadResult:
    """int f on the panels between consecutive ``edges``, ``cancel`` the
    integral of terms that cancel inside f there.  ``f`` maps the nodes of
    some panels (panel, node) to the values, real or complex, there.

    A pass calls ``f`` once on every panel.  The error estimate is the sum
    over the panels of the size of the last two coefficients
    (``quad._panel_sums``) plus a rounding floor, ROUNDING times the size
    of the terms summed: the integral of |f| by the rule's weights, which
    are positive, plus ``cancel``.  While the coefficient part exceeds
    max(PANEL_ABS_TOL, PANEL_REL_TOL |I|, floor), the next pass has every
    panel holding more than its share of that bound bisected; past
    MAX_PANEL_SPLITS bisections ToleranceNotReached carries the partial
    result.
    """
    x, rows, m0, weights = _panel_rule(PANEL_NODES)
    splits = 0
    while True:
        lo, hi = np.array([edges[:-1], edges[1:]])
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        vals = f(mid[:, None] + half[:, None] * x)
        sums = _panel_sums(rows, m0, half, vals)
        # per panel the coefficient estimate; the integral of |f|
        coef = np.abs(sums[:, 1:]).sum(axis=1)
        size = (half * (np.abs(vals) @ weights)).sum().item()
        value, err = sums[:, 0].sum().item(), coef.sum().item()
        floor = ROUNDING * (size + cancel)
        bound = max(PANEL_ABS_TOL, PANEL_REL_TOL * abs(value), floor)
        result = QuadResult(value, err + floor, len(half))
        if err <= bound:
            return result
        split = np.flatnonzero(~(coef <= bound / len(half)))   # nan panels too
        splits += len(split)
        if splits > MAX_PANEL_SPLITS:
            raise ToleranceNotReached(
                f"panel error estimate {result.error_estimate:.3e} exceeds "
                f"{bound:.3e} after {MAX_PANEL_SPLITS} bisections",
                partial=result)
        edges = sorted([*edges, *mid[split].tolist()])


# --------------------------------------------------------------------------
# the cotangent contour (convention in the module docstring)
# --------------------------------------------------------------------------

CONTOUR_TRUNCATION = 40.0  # s cut on the lines; every kernel decays like e^-s
POLE_TOL = 1e-12           # a pole this close to a line counts as on it
# poles a contour may hold, about (2 pi + 2)/beta: reached at beta ~ 1.26e-4,
# where a contour peaks near 110 MB (about 1.6 kB a pole)
MAX_POLES = 65536


def _poles(beta: float, dphi: float):
    """The cotangent poles th* = m beta - dphi with |th*| <= pi + 1, as
    (m, th*, on), with ``on`` for a pole on a line (within POLE_TOL of
    +-pi).  PolydetError refuses more than MAX_POLES of them before any
    is listed."""
    if 2.0 * (PI + 1.0) > (MAX_POLES - 1) * beta:
        raise PolydetError(f"cone angle {beta!r} puts more than {MAX_POLES} "
                           f"poles on the contour")
    ms = range(math.ceil((dphi - PI - 1.0) / beta), math.floor((dphi + PI + 1.0) / beta) + 1)
    ths = [m * beta - dphi for m in ms]
    return [(m, th, abs(abs(th) - PI) <= POLE_TOL) for m, th in zip(ms, ths)]


def _line_edges(gaps):
    """Panel edges on [0, CONTOUR_TRUNCATION]: dyadic from 1/2 up, and,
    for a cotangent pole a distance w off the contour, edges graded
    geometrically down to 0.3 w.  The pole leaves a Lorentzian bump of
    width w at the foot of the line, which panels of size 1/2 would step
    over.

    Poles with w <= POLE_TOL are handled by the half-residue rule instead;
    ``_line_weight`` leaves their bump out.
    """
    pts = {0.0, CONTOUR_TRUNCATION}
    x = 0.5
    while x < CONTOUR_TRUNCATION:
        pts.add(x)
        x *= 2.0
    for w in gaps:
        if not POLE_TOL < w < 0.5:
            continue
        x = 0.3 * w
        while x < 1.0:
            pts.add(x)
            x *= 3.0
    return sorted(pts)


def _line_weight(beta: float, dphi: float, feet):
    """The folded line weight s -> L(s) of the module docstring.

    Each term is Re cot(x - iy) = 2e sin 2x / ((1 - e)^2 + 4e sin^2 x) with
    e = exp(-2y), y = pi s/beta: no overflow however large y, and no
    cancellation next to a pole at the line foot.  The term of a foot in
    ``feet``, those with a pole on them, is left out: it is the limit of a
    bump whose mass the half residue already counts.
    """
    k = PI / beta
    coeffs = []
    for c, foot in ((1.0, -PI), (-1.0, PI)):
        if foot in feet:
            continue
        x = k * (dphi + foot)
        coeffs.append((2.0 * c * math.sin(2.0 * x), 4.0 * math.sin(x) ** 2))

    def weight(s):
        em = np.expm1(-2.0 * k * s)
        e, d = em + 1.0, em * em
        acc = 0.0
        for num, sin2 in coeffs:
            acc = acc + num / (d + e * sin2)
        return e * acc

    return weight


def _cot_contour(beta: float, dphi: float, g, tip: bool = False):
    """The contour integral of kernel ``g`` (module docstring); ``tip``
    leaves out the circle at th* = 0.

    ``g`` maps an array of half-chords to an array of values, real or
    complex; a complex g gives a complex result.  The caller validates
    beta.
    """
    poles = _poles(beta, dphi)
    # circles fully inside the strip count once, those on a line half
    circles = [(th, 0.5 if on else 1.0) for m, th, on in poles
               if (on or abs(th) < PI) and not (tip and m == 0)]
    total = np.float64(0.0)
    if circles:
        th, w = np.array(circles).T
        total = np.dot(w, g(np.abs(np.sin(0.5 * th))))
    weight = _line_weight(beta, dphi, [math.copysign(PI, th) for _, th, on in poles if on])
    gaps = [abs(th - foot) for _, th, _ in poles for foot in (PI, -PI)]
    line = _panel_integral(lambda s: g(np.cosh(0.5 * s)) * weight(s), _line_edges(gaps), 0.0)
    return (total + line.value / beta).item()


# --------------------------------------------------------------------------
# closed form and contour form of Q(beta)
# --------------------------------------------------------------------------

def q_of_beta(beta: float) -> float:
    """Q(beta) = -(1/12)(beta/2pi - 2pi/beta); vanishes at the flat angle 2pi."""
    _check_angle(beta)
    return -(beta / TWO_PI - TWO_PI / beta) / 12.0


def q_of_beta_contour(beta: float) -> float:
    """Contour evaluation of Q(beta) with the kernel g = beta/(8 pi sigma^2)
    and no circle at the tip; agrees with the closed form to ~1e-15."""
    _check_angle(beta)
    return _cot_contour(beta, 0.0, lambda sigma: beta / (8.0 * PI * sigma * sigma),
                        tip=True)


# --------------------------------------------------------------------------
# Hadamard finite parts
# --------------------------------------------------------------------------

class HadamardResult(NamedTuple):
    """Finite part plus the counterterm coefficients actually subtracted.

    The subtraction was D(eps) = subtracted_quadratic/eps^2
    + subtracted_log * log(eps); ``error_estimate`` aggregates the
    quadrature error reports.
    """

    finite_part: float
    subtracted_quadratic: float
    subtracted_log: float
    error_estimate: float


SPLIT_RADIUS = 0.25   # the circle sum covers [0, SPLIT_RADIUS * R]
CIRCLE_NODES = 64     # trapezoid nodes on the circle; half are evaluated


def _coeffs_coth_csch2(b: float) -> Tuple[float, float]:
    """Laurent coefficients (a3, a1) of coth(pi th)/sinh^2(b th/2) at 0."""
    return 4.0 / (PI * b * b), -1.0 / (3.0 * PI) + 4.0 * PI / (3.0 * b * b)


def _coeffs_coth_coth(b: float) -> Tuple[float, float]:
    """Laurent coefficients (a3, a1) of coth(pi th) coth(b th/2)/th at 0."""
    return 2.0 / (PI * b), b / (6.0 * PI) + 2.0 * PI / (3.0 * b)


@lru_cache(maxsize=4)
def _circle_rule(split: float):
    """Nodes u of the upper unit half circle and weights w with which the
    circle sum of the module docstring is r Re sum_j f(r u_j) w_j: on
    |z| = r = sqrt(rho R), rho/z = sqrt(split) conj(u)."""
    half = CIRCLE_NODES // 2
    u = np.exp(1j * PI * (np.arange(half) + 0.5) / half)
    return u, u * -np.log1p(-math.sqrt(split) * u.conj()) / half


class _Integrand(NamedTuple):
    """One finite part of the module docstring: the Laurent coefficients
    (a3, a1) of its integrand f at 0; g(th, beta) for real or complex th,
    with f = g/th and the tail (g - 1)/th if ``over_theta``, and f = g on
    all of [0, inf) if not; and the (upper, rate) of the tail panels, rate
    the tail's fastest decay."""

    coeffs: Callable
    g: Callable
    over_theta: bool
    tail_panels: Callable


def _coth_csch2(t, beta):
    return _coth(PI * t) * _csch2(0.5 * beta * t)


def _coth_coth(t, beta):
    return _coth(PI * t) * _coth(0.5 * beta * t)


_COTH_CSCH2 = _Integrand(_coeffs_coth_csch2, _coth_csch2, False,
                         lambda beta: (max(3.0, 100.0 / beta), beta + TWO_PI))
_COTH_COTH = _Integrand(_coeffs_coth_coth, _coth_coth, True,
                        lambda beta: (max(3.0, 90.0 / min(beta, TWO_PI)), max(beta, TWO_PI)))


def _near_edges(rho: float):
    """Geometric panels on [rho, 1], each ending at most 4 times as far
    from 0 as it starts; rho^(k/n) as sqrt(rho^(2k/n)), so that n = 2
    gives sqrt(rho)."""
    n = max(2, math.ceil(-0.5 * math.log2(rho)))
    return [rho] + [math.sqrt(rho ** (2.0 * k / n)) for k in range(n - 1, 0, -1)] + [1.0]


def _far_edges(upper: float, rate: float):
    """Dyadic panels of width 1/rate, 2/rate, ... from 1 to ``upper``."""
    edges = [1.0]
    step = 1.0 / rate
    while edges[-1] + step < upper:
        edges.append(edges[-1] + step)
        step *= 2.0
    edges.append(upper)
    return edges


def _finite_part(integrand: _Integrand, beta: float, split: float) -> HadamardResult:
    """The finite part of ``integrand`` at one angle (module docstring):
    the regular part on the near panels, the tail on the far ones, then
    the circle sum.  An invalid angle raises NonpositiveAngle or
    PolydetError, and so does a split outside (0, SPLIT_RADIUS], before
    anything is computed."""
    _check_angle(beta)
    if not 0.0 < split <= SPLIT_RADIUS:
        raise PolydetError(f"need 0 < split <= {SPLIT_RADIUS}, got {split}")
    a3, a1 = integrand.coeffs(beta)
    radius = min(1.0, TWO_PI / beta)
    rho = split * radius

    def regular(t):
        vals = integrand.g(t, beta)
        if integrand.over_theta:
            vals /= t
        vals -= a3 / t**3
        vals -= a1 / t
        return vals

    def tail(t):
        vals = integrand.g(t, beta)
        if integrand.over_theta:
            vals -= 1.0
            vals /= t
        return vals

    # the regular part inherits the rounding of the subtracted
    # counterterms, whose integral is its ``cancel``
    near = _panel_integral(regular, _near_edges(rho),
                           0.5 * a3 * (rho ** -2 - 1.0) - abs(a1) * math.log(rho))
    far = _panel_integral(tail, _far_edges(*integrand.tail_panels(beta)), 0.0)

    # the circle sum, the lower half circle holding the conjugate terms
    u, w = _circle_rule(split)
    r = math.sqrt(split) * radius
    z = r * u
    terms = integrand.g(z, beta)
    if integrand.over_theta:
        terms /= z
    terms *= w
    truncation = ROUNDING + split ** (CIRCLE_NODES // 2)
    return HadamardResult(
        finite_part=math.fsum([-a3 / 2.0, r * terms.real.sum().item(), near.value, far.value]),
        subtracted_quadratic=a3 / 2.0,
        subtracted_log=-a1,
        error_estimate=(truncation * (r * np.abs(terms).sum().item())
                        + near.error_estimate + far.error_estimate),
    )


def hadamard_coth_over_sinh_sq(beta: float, split: float = SPLIT_RADIUS) -> HadamardResult:
    """Finite part of int_0^inf coth(pi th)/sinh^2(beta th/2) dth.

    At beta = 2pi the value is exactly -1/(6 pi) (the integrand has the
    elementary antiderivative -coth^2(pi th)/(2 pi) there), which the unit
    tests pin down.  The log counterterm coefficient vanishes at beta = 2pi.
    """
    return _finite_part(_COTH_CSCH2, beta, split)


def hadamard_coth_coth_over_theta(beta: float, split: float = SPLIT_RADIUS) -> HadamardResult:
    """Finite part of int_0^inf coth(pi th) coth(beta th/2) dth/th.

    Divergent at both ends; besides the theta -> 0 counterterms the 1/th
    tail is removed by subtracting log T at infinity (the convergent
    integral of f - 1/th on [1, inf) with the bound placed where the
    exponential corrections are below 1e-18).
    """
    return _finite_part(_COTH_COTH, beta, split)
