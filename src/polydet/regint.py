"""Regularized one-dimensional integrals of the cone-angle calculus.

Four quantities live here, all functions of a cone angle beta > 0:

* ``q_of_beta``           -- the heat-trace constant
                             Q(beta) = -(1/12) (beta/2pi - 2pi/beta),
                             together with its contour form
                             ``q_of_beta_contour`` used as a cross-check.
* ``hadamard_coth_over_sinh_sq`` -- the Hadamard finite part
                             H int_0^inf coth(pi th)/sinh^2(beta th/2) dth,
                             divergent like theta^-3 + theta^-1 at zero.
* ``q_tilde_prime``       -- Qt'(beta) = (1/16) H[coth/sinh^2] + 1/(48 pi)
                             - log(beta/2)/(12 beta) (beta/2pi - 2pi/beta).
* ``q_tilde``             -- Qt(beta) = -(1/8) H[coth coth / th]
                             - (log(beta/2)/12)(beta/2pi + 2pi/beta)
                             + (1/12)(3 beta/4pi - 2pi/beta),
                             with d Qt/d beta = Qt'(beta).

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

    FP = -a3/2 + int_0^1 (f - a3/th^3 - a1/th) dth + int_1^inf tail,

with the regular part evaluated from a frozen odd Taylor series below a
switch radius ``series_radius`` (default 0.05) to avoid catastrophic
cancellation.  Halving the switch radius moves the result at the 1e-14
level, which is what the cutoff-stability tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

from scipy.integrate import quad

from .errors import NonpositiveAngle

PI = math.pi
TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# overflow-safe hyperbolics
# --------------------------------------------------------------------------

def _coth(x: float) -> float:
    # relative error < e^-80 for the large-argument shortcut
    if x > 20.0:
        return 1.0
    return math.cosh(x) / math.sinh(x)


def _csch2(x: float) -> float:
    if x > 20.0:
        return 4.0 * math.exp(-2.0 * x)
    s = math.sinh(x)
    return 1.0 / (s * s)


# --------------------------------------------------------------------------
# the cotangent contour (convention in the module docstring)
# --------------------------------------------------------------------------

CONTOUR_TRUNCATION = 40.0  # s cut on the lines; every kernel decays like e^-s
CONTOUR_ABS_TOL = 1e-13
CONTOUR_REL_TOL = 1e-12
POLE_TOL = 1e-10           # a pole this close to a line counts as on it


def _strip_poles(beta: float, dphi: float, tip: bool):
    """Cotangent poles th* = m beta - dphi of the strip as (th*, weight):
    weight 1 strictly inside |Re th| < pi, 1/2 on a line.  ``tip`` drops
    the m = 0 pole."""
    mlo = int(math.ceil((dphi - PI) / beta)) - 1
    mhi = int(math.floor((dphi + PI) / beta)) + 1
    for m in range(mlo, mhi + 1):
        if tip and m == 0:
            continue
        th = m * beta - dphi
        if abs(abs(th) - PI) <= POLE_TOL:
            yield th, 0.5
        elif abs(th) < PI:
            yield th, 1.0


def _line_pole_gaps(beta: float, dphi: float):
    """Distances from the cotangent poles within 1 of a line foot +-pi to
    that foot: the widths of the near-line bumps of the folded integrand."""
    mlo = int(math.ceil((dphi - PI - 1.0) / beta))
    mhi = int(math.floor((dphi + PI + 1.0) / beta))
    gaps = []
    for m in range(mlo, mhi + 1):
        th = m * beta - dphi
        gaps.append(abs(th - PI))
        gaps.append(abs(th + PI))
    return gaps


def _bump_breakpoints(gaps):
    """Panel boundaries for a line integrand with cotangent poles a distance
    w off the contour: the pole leaves a Lorentzian bump of width w at the
    foot of the line, which blind adaptive panels skip entirely once
    w << interval.  Returns breakpoints clustered at those scales.

    Poles with w <= POLE_TOL are handled by the half-residue rule instead
    (their bump must then stay unresolved, which is what the exclusion
    guarantees: without hints the first panel never samples below ~0.2).
    """
    pts = set()
    for w in gaps:
        if not POLE_TOL < w < 0.5:
            continue
        x = 0.3 * w
        while x < 1.0:
            pts.add(x)
            x *= 3.0
    return sorted(pts) or None


def _line_weight(beta: float, dphi: float):
    """The folded line weight s -> L(s) of the module docstring.

    Each term is Re cot(x - iy) = 2e sin 2x / ((1 - e)^2 + 4e sin^2 x) with
    e = exp(-2y), y = pi s/beta: no overflow however large y, and no
    cancellation next to a pole at the line foot.
    """
    k = PI / beta
    coeffs = [(2.0 * c * math.sin(2.0 * x), 4.0 * math.sin(x) ** 2)
              for c, x in ((1.0, k * (dphi - PI)), (-1.0, k * (dphi + PI)))]

    def weight(s: float) -> float:
        e = math.exp(-2.0 * k * s)
        d = math.expm1(-2.0 * k * s) ** 2
        acc = 0.0
        for num, sin2 in coeffs:
            acc += num / (d + e * sin2)
        return e * acc

    return weight


def _cot_contour(beta: float, dphi: float, g, tip: bool = False):
    """The contour integral of kernel ``g`` (module docstring); ``tip``
    leaves out the circle at th* = 0.

    ``g`` may return complex values; the real and imaginary parts of the
    line integral are then integrated separately, and the result is
    complex.  The caller validates beta.
    """
    total = sum(w * g(abs(math.sin(0.5 * th)))
                for th, w in _strip_poles(beta, dphi, tip))
    weight = _line_weight(beta, dphi)

    def line(s: float):
        v = g(math.cosh(0.5 * s))
        return v * weight(s) if v else 0.0

    if isinstance(g(1.0), complex):
        parts = [lambda s: line(s).real, lambda s: line(s).imag]
    else:
        parts = [line]
    points = _bump_breakpoints(_line_pole_gaps(beta, dphi))
    vals = [quad(f, 0.0, CONTOUR_TRUNCATION, epsabs=CONTOUR_ABS_TOL,
                 epsrel=CONTOUR_REL_TOL, limit=400, points=points,
                 full_output=1)[0]
            for f in parts]
    return total + (vals[0] if len(vals) == 1 else complex(*vals)) / beta


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

@dataclass(frozen=True)
class HadamardResult:
    """Finite part plus the counterterm coefficients actually subtracted.

    The subtraction was D(eps) = subtracted_quadratic/eps^2
    + subtracted_log * log(eps); ``error_estimate`` aggregates the
    quadrature error reports.
    """

    finite_part: float
    subtracted_quadratic: float
    subtracted_log: float
    error_estimate: float


SERIES_RADIUS = 0.05  # switch to the frozen Taylor series below this theta
FP_ABS_TOL = 1e-14
FP_REL_TOL = 1e-13


def _coeffs_coth_csch2(beta: float) -> Tuple[float, float, Tuple[float, ...]]:
    """Laurent data of coth(pi th)/sinh^2(beta th/2) at th=0.

    Returns (a3, a1, regular odd coefficients for th^1..th^9).  The
    integrand is odd, so even powers vanish identically.
    """
    b = beta
    a3 = 4.0 / (PI * b * b)
    a1 = -1.0 / (3.0 * PI) + 4.0 * PI / (3.0 * b * b)
    c1 = b * b / (60.0 * PI) - PI / 9.0 - 4.0 * PI**3 / (45.0 * b * b)
    c3 = (-b**4 / (1512.0 * PI) + PI * b * b / 180.0 + PI**3 / 135.0
          + 8.0 * PI**5 / (945.0 * b * b))
    c5 = (b**6 / (43200.0 * PI) - PI * b**4 / 4536.0 - PI**3 * b * b / 2700.0
          - 2.0 * PI**5 / 2835.0 - 4.0 * PI**7 / (4725.0 * b * b))
    c7 = (-b**8 / (1330560.0 * PI) + PI * b**6 / 129600.0
          + PI**3 * b**4 / 68040.0 + PI**5 * b * b / 28350.0
          + PI**7 / 14175.0 + 8.0 * PI**9 / (93555.0 * b * b))
    c9 = (691.0 * b**10 / (29719872000.0 * PI) - PI * b**8 / 3991680.0
          - PI**3 * b**6 / 1944000.0 - PI**5 * b**4 / 714420.0
          - PI**7 * b * b / 283500.0 - 2.0 * PI**9 / 280665.0
          - 5528.0 * PI**11 / (638512875.0 * b * b))
    return a3, a1, (c1, c3, c5, c7, c9)


def _coeffs_coth_coth(beta: float) -> Tuple[float, float, Tuple[float, ...]]:
    """Laurent data of coth(pi th) coth(beta th/2)/th at th=0."""
    b = beta
    a3 = 2.0 / (PI * b)
    a1 = b / (6.0 * PI) + 2.0 * PI / (3.0 * b)
    c1 = -b**3 / (360.0 * PI) + PI * b / 18.0 - 2.0 * PI**3 / (45.0 * b)
    c3 = (b**5 / (15120.0 * PI) - PI * b**3 / 1080.0 - PI**3 * b / 270.0
          + 4.0 * PI**5 / (945.0 * b))
    c5 = (-b**7 / (604800.0 * PI) + PI * b**5 / 45360.0
          + PI**3 * b**3 / 16200.0 + PI**5 * b / 2835.0
          - 2.0 * PI**7 / (4725.0 * b))
    c7 = (b**9 / (23950080.0 * PI) - PI * b**7 / 1814400.0
          - PI**3 * b**5 / 680400.0 - PI**5 * b**3 / 170100.0
          - PI**7 * b / 28350.0 + 4.0 * PI**9 / (93555.0 * b))
    c9 = (-691.0 * b**11 / (653837184000.0 * PI) + PI * b**9 / 71850240.0
          + PI**3 * b**7 / 27216000.0 + PI**5 * b**5 / 7144200.0
          + PI**7 * b**3 / 1701000.0 + PI**9 * b / 280665.0
          - 2764.0 * PI**11 / (638512875.0 * b))
    return a3, a1, (c1, c3, c5, c7, c9)


def _finite_part(
    f: Callable[[float], float],
    tail: Callable[[float], float],
    tail_upper: float,
    a3: float,
    a1: float,
    regular: Tuple[float, ...],
    th0: float,
) -> Tuple[float, float]:
    """Cutoff-free finite part of int_0^inf f with f ~ a3/th^3 + a1/th.

    ``tail`` must be the integrable continuation of f on [1, tail_upper]
    (already including any subtraction needed at infinity); ``th0`` is the
    series switch radius.  Returns (finite part, error estimate).
    """

    def series(t: float) -> float:
        t2 = t * t
        acc = 0.0
        for c in reversed(regular):
            acc = (acc + c) * t2
        return acc / t

    def regular_part(t: float) -> float:
        return f(t) - a3 / t**3 - a1 / t

    i0, e0 = quad(series, 0.0, th0, epsabs=FP_ABS_TOL,
                  epsrel=FP_REL_TOL, limit=200, full_output=1)[:2]
    i1, e1 = quad(regular_part, th0, 1.0, epsabs=FP_ABS_TOL,
                  epsrel=FP_REL_TOL, limit=200, full_output=1)[:2]
    i2, e2 = quad(tail, 1.0, tail_upper, epsabs=FP_ABS_TOL,
                  epsrel=FP_REL_TOL, limit=200, full_output=1)[:2]
    return -a3 / 2.0 + i0 + i1 + i2, abs(e0) + abs(e1) + abs(e2)


def hadamard_coth_over_sinh_sq(
    beta: float, series_radius: float = SERIES_RADIUS
) -> HadamardResult:
    """Finite part of int_0^inf coth(pi th)/sinh^2(beta th/2) dth.

    At beta = 2pi the value is exactly -1/(6 pi) (the integrand has the
    elementary antiderivative -coth^2(pi th)/(2 pi) there), which the unit
    tests pin down.  The log counterterm coefficient vanishes at beta = 2pi.
    """
    _check_angle(beta)
    a3, a1, regular = _coeffs_coth_csch2(beta)

    def f(t: float) -> float:
        return _coth(PI * t) * _csch2(0.5 * beta * t)

    upper = max(3.0, 100.0 / beta)
    fp, err = _finite_part(f, f, upper, a3, a1, regular, series_radius)
    return HadamardResult(
        finite_part=fp,
        subtracted_quadratic=a3 / 2.0,
        subtracted_log=-a1,
        error_estimate=err,
    )


def hadamard_coth_coth_over_theta(
    beta: float, series_radius: float = SERIES_RADIUS
) -> HadamardResult:
    """Finite part of int_0^inf coth(pi th) coth(beta th/2) dth/th.

    Divergent at both ends; besides the theta -> 0 counterterms the 1/th
    tail is removed by subtracting log T at infinity (the convergent
    integral of f - 1/th on [1, inf) with the bound placed where the
    exponential corrections are below 1e-18).
    """
    _check_angle(beta)
    a3, a1, regular = _coeffs_coth_coth(beta)

    def f(t: float) -> float:
        return _coth(PI * t) * _coth(0.5 * beta * t) / t

    def tail(t: float) -> float:
        return (_coth(PI * t) * _coth(0.5 * beta * t) - 1.0) / t

    upper = max(3.0, 90.0 / min(beta, TWO_PI))
    fp, err = _finite_part(f, tail, upper, a3, a1, regular, series_radius)
    return HadamardResult(
        finite_part=fp,
        subtracted_quadratic=a3 / 2.0,
        subtracted_log=-a1,
        error_estimate=err,
    )


# cached scalar access for the hot paths (angle gradients hit these a lot)

@lru_cache(maxsize=4096)
def _fp_coth_csch2(beta: float) -> float:
    return hadamard_coth_over_sinh_sq(beta).finite_part


@lru_cache(maxsize=4096)
def _fp_coth_coth(beta: float) -> float:
    return hadamard_coth_coth_over_theta(beta).finite_part


# --------------------------------------------------------------------------
# Q-tilde and its beta derivative
# --------------------------------------------------------------------------

def q_tilde_prime(beta: float) -> float:
    """Qt'(beta) = (1/16) H[coth(pi th)/sinh^2(beta th/2)] + 1/(48 pi)
    - log(beta/2)/(12 beta) * (beta/2pi - 2pi/beta)."""
    _check_angle(beta)
    fp = _fp_coth_csch2(beta)
    return (fp / 16.0 + 1.0 / (48.0 * PI)
            - math.log(0.5 * beta) / (12.0 * beta) * (beta / TWO_PI - TWO_PI / beta))


def q_tilde(beta: float) -> float:
    """Qt(beta) = -(1/8) H[coth coth / th]
    - (log(beta/2)/12)(beta/2pi + 2pi/beta) + (1/12)(3 beta/4pi - 2pi/beta).

    Satisfies d Qt/d beta = q_tilde_prime(beta); the finite-difference
    consistency of the pair is one of the acceptance gates.
    """
    _check_angle(beta)
    fp = _fp_coth_coth(beta)
    return (-fp / 8.0
            - math.log(0.5 * beta) / 12.0 * (beta / TWO_PI + TWO_PI / beta)
            + (3.0 * beta / (4.0 * PI) - TWO_PI / beta) / 12.0)


def _check_angle(beta: float) -> None:
    if not beta > 0.0 or not math.isfinite(beta):
        raise NonpositiveAngle(f"cone angle must be positive, got {beta}")
