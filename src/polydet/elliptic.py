"""Independent tetrahedron oracle through the covering elliptic curve.

A flat metric with four cone angles pi is the quotient of an elliptic
curve E (the double cover of the sphere branched over z_1..z_4) carrying
the smooth flat metric |omega|^2,

    omega = dz / sqrt((z - z_1)(z - z_2)(z - z_3)(z - z_4)).

This module computes the periods A, B of omega over an (a, b) cycle pair
(twice the integrals of omega between two branch points, from
``quad.segment_integral`` with all exponents -1/2: the same Chebyshev
product-integration panels that give the area), the modulus tau = B/A,
Dedekind eta and the theta constants by q-series, and checks the
classical identity chain:

    Jacobi:        2 pi eta^3 = pi theta_2 theta_3 theta_4
    Thomae:        theta_k^8 = (2 pi)^-4 A^4 (z_j1 - z_j2)^2 (z_j3 - z_j4)^2
    eta-distance:  |eta(B/A)|^2 = |A| / (2^(5/3) pi) * prod_{i<j} |z_i - z_j|^(1/6)

culminating in the closed determinant formula

    det' = (2^(2/3) pi)^-1 * Area(X) * prod_{i<j} |z_i - z_j|^(1/6),

where Area(X) is the metric area computed by module ``quad`` with C = 1
and all exponents -1/2.  The torus-side value Area(E) Im(tau) |eta(tau)|^4
equals det'^2 with Area(E) = |Im(A conj B)| = 2 Area(X).

Basis conventions: the a-cycle encircles the first two and the b-cycle
the middle two of the four branch points sorted by angle around their
centroid.  Any such pair is a symplectic basis; every identity above is
covariant under changing it, and the Thomae pairing of theta indices to
branch-point splittings is resolved by residual matching.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations
from typing import NamedTuple, Optional, Sequence, Tuple

from .errors import DegenerateQuartic, PolydetError, ToleranceNotReached
from .metric import make_metric
from .quad import area, segment_integral

PI = math.pi
TWO_PI = 2.0 * math.pi

SERIES_TOL = 1e-18
DEGENERATE_TOL = 1e-8       # relative branch-point gap and |Im tau| floor
PERIOD_REL_TOL = 1e-12      # relative error estimate demanded of a period
BRANCH_EXPONENTS = (-0.5, -0.5, -0.5, -0.5)


class EllipticData(NamedTuple):
    period_a: complex
    period_b: complex
    tau: complex
    theta_constants: Tuple[complex, complex, complex]  # theta_2, theta_3, theta_4
    eta: complex
    sorted_points: Tuple[complex, ...]


# --------------------------------------------------------------------------
# periods
# --------------------------------------------------------------------------

def _half_period(pts, u: int, v: int) -> complex:
    """int omega from pts[u] to pts[v] along the straight segment, the
    branch of the square root continued from its principal value at the
    start; omega = prod (z - z_k)^(-1/2) dz is the metric's form with all
    exponents -1/2 and C = 1; it must be finite, nonzero (far from the
    origin the product of the factors underflows) and meet PERIOD_REL_TOL."""
    chord = segment_integral(pts, BRANCH_EXPONENTS, u, v)
    if not cmath.isfinite(chord.value):
        raise PolydetError(f"period integral between branch points {u} and {v}, "
                           f"{chord.value!r}, is not a finite float")
    if chord.value == 0.0:
        raise PolydetError(f"period integral between branch points {u} and {v}, "
                           f"{chord.value!r}, is not a nonzero float: its integrand "
                           f"underflows")
    if not chord.error_estimate <= PERIOD_REL_TOL * abs(chord.value):
        raise ToleranceNotReached(
            f"period integral between branch points {u} and {v}: error "
            f"estimate {chord.error_estimate:.3e} exceeds PERIOD_REL_TOL * |value|",
            partial=chord)
    return chord.value


def periods(points: Sequence[complex]) -> EllipticData:
    """Periods of omega over the (a, b) cycles, normalized to Im tau > 0."""
    pts = [complex(z) for z in points]
    if len(pts) != 4:
        raise DegenerateQuartic(f"need exactly 4 branch points, got {len(pts)}")
    if not all(map(cmath.isfinite, pts)):
        raise PolydetError(f"branch points must be finite, got {pts}")
    try:
        scale = max(abs(p - q) for p in pts for q in pts)
    except OverflowError:       # a gap past the float range, its parts finite
        scale = math.inf
    if scale == math.inf:
        raise PolydetError(f"a gap between the branch points {pts} is not a finite float")
    for i, j in combinations(range(4), 2):
        if abs(pts[i] - pts[j]) < DEGENERATE_TOL * scale or scale == 0.0:
            raise DegenerateQuartic(
                f"branch points {i} and {j} closer than {DEGENERATE_TOL} relative")
    cen = sum(pts) / 4.0
    pts.sort(key=lambda z: math.atan2((z - cen).imag, (z - cen).real))

    A = 2.0 * _half_period(pts, 0, 1)
    B = 2.0 * _half_period(pts, 1, 2)
    tau = B / A
    if abs(tau.imag) < DEGENERATE_TOL:
        raise DegenerateQuartic(f"modulus degenerate: tau = {tau}")
    if tau.imag < 0.0:
        B = -B
        tau = -tau
    eta = dedekind_eta(tau)
    return EllipticData(A, B, tau, theta_constants(tau), eta, tuple(pts))


# --------------------------------------------------------------------------
# eta and theta constants
# --------------------------------------------------------------------------

def dedekind_eta(tau: complex) -> complex:
    """eta(tau) = q^(1/24) prod (1 - q^n), q = e^(2 pi i tau), after
    reducing tau into the fundamental domain with the multiplier system
    eta(tau+1) = e^(i pi/12) eta(tau), eta(-1/tau) = sqrt(-i tau) eta(tau).
    PolydetError unless Im tau > 0 and the product converges, and where
    eta, which has no zeros, underflows to 0."""
    tau = given = complex(tau)
    if tau.imag <= 0.0:
        raise PolydetError(f"need Im tau > 0, got {tau}")
    mult = 1.0 + 0.0j
    for _ in range(200):
        n = round(tau.real)
        if n != 0:
            tau -= n
            mult *= cmath.exp(1j * PI * n / 12.0)
        if abs(tau) < 1.0 - 1e-15:
            # eta(tau) = eta(-1/tau)/sqrt(-i tau)
            mult /= cmath.sqrt(-1j * tau)
            tau = -1.0 / tau
        else:
            break
    q = cmath.exp(2j * PI * tau)
    prod = 1.0 + 0.0j
    qn = 1.0 + 0.0j
    for _ in range(1, 400):
        qn *= q
        prod *= 1.0 - qn
        if abs(qn) < SERIES_TOL:
            break
    else:
        raise PolydetError(f"eta product has not converged in 400 factors at reduced tau = {tau}")
    eta = mult * cmath.exp(1j * PI * tau / 12.0) * prod
    if eta == 0:
        raise PolydetError(f"dedekind_eta underflows to 0 at tau = {given}")
    return eta


def theta_constants(tau: complex) -> Tuple[complex, complex, complex]:
    """(theta_2, theta_3, theta_4)(0 | tau) by q-series in the nome
    q = e^(i pi tau); terms below SERIES_TOL are dropped.  PolydetError
    unless Im tau > 0 and both series fall below SERIES_TOL in 400 terms,
    and where a theta constant, none of which has zeros, underflows to 0
    (theta_2 once q does, above Im tau of about 237)."""
    tau = complex(tau)
    if tau.imag <= 0.0:
        raise PolydetError(f"need Im tau > 0, got {tau}")
    q = cmath.exp(1j * PI * tau)
    th3 = 1.0 + 0.0j
    th4 = 1.0 + 0.0j
    for n in range(1, 400):
        qn2 = q ** (n * n)
        th3 += 2.0 * qn2
        th4 += 2.0 * ((-1) ** n) * qn2
        if abs(qn2) < SERIES_TOL and n > 2:
            break
    else:
        raise PolydetError(f"theta series have not converged in 400 terms at tau = {tau}")
    th2 = 0.0 + 0.0j     # its terms are below theta_3's: it ends by the same n
    for n in range(0, 400):
        t = q ** ((n + 0.5) ** 2)
        th2 += 2.0 * t
        if abs(t) < SERIES_TOL and n > 2:
            break
    if 0 in (th2, th3, th4):
        raise PolydetError(f"theta_constants underflows to 0 at tau = {tau}")
    return th2, th3, th4


def jacobi_residual(data: EllipticData) -> float:
    """Relative residual of 2 pi eta^3 = pi theta_2 theta_3 theta_4."""
    lhs = TWO_PI * data.eta**3
    th2, th3, th4 = data.theta_constants
    rhs = PI * th2 * th3 * th4
    return abs(lhs - rhs) / abs(lhs)


# --------------------------------------------------------------------------
# identity checks
# --------------------------------------------------------------------------

def _distance_root(pts) -> float:
    """prod_{i<j} |z_i - z_j|^(1/6), a product of sixth roots: the product
    of the distances themselves leaves the float range for points of size
    below about 1e-52 or above 1e52."""
    return math.prod(abs(p - q) ** (1.0 / 6.0) for p, q in combinations(pts, 2))


def thomae_check(points: Sequence[complex], data: EllipticData) -> float:
    """Max relative residual of the Thomae eighth-power identities.

    Each of theta_2^8, theta_3^8, theta_4^8 must equal
    (2 pi)^-4 A^4 (z_j1 - z_j2)^2 (z_j3 - z_j4)^2 for one of the three
    splittings of the sorted branch points into two pairs; the assignment
    is resolved by choosing, per theta, the splitting with the smallest
    residual (identical values can share a splitting at symmetric
    configurations).  A (z_j1 - z_j2) does not depend on the points'
    size, so the right side is squared from it and stays in the float range.
    """
    z1, z2, z3, z4 = data.sorted_points
    a = data.period_a / TWO_PI
    rhs = [(a * (z1 - z2) * a * (z3 - z4)) ** 2,
           (a * (z1 - z3) * a * (z2 - z4)) ** 2,
           (a * (z1 - z4) * a * (z2 - z3)) ** 2]
    worst = 0.0
    for th in data.theta_constants:
        lhs = th**8
        best = min(abs(lhs - r) / abs(lhs) for r in rhs)
        worst = max(worst, best)
    return worst


def eta_distance_identity(points: Sequence[complex], data: EllipticData) -> float:
    """Relative residual of
    |eta(B/A)|^2 = |A|/(2^(5/3) pi) * prod_{i<j} |z_i - z_j|^(1/6)."""
    lhs = abs(data.eta) ** 2
    rhs = (abs(data.period_a) / (2.0 ** (5.0 / 3.0) * PI)
           * _distance_root(data.sorted_points))
    return abs(lhs - rhs) / abs(lhs)


# --------------------------------------------------------------------------
# the determinant itself
# --------------------------------------------------------------------------

def det_tetrahedron(points: Sequence[complex],
                    area_x: Optional[float] = None) -> float:
    """det' of the Laplacian for the metric prod |z - z_k|^-1 |dz|^2:

        (2^(2/3) pi)^-1 * Area(X) * prod_{i<j} |z_i - z_j|^(1/6),

    with Area(X) = ``area_x`` when the caller has it, else from module
    ``quad``."""
    pts = [complex(z) for z in points]
    if len(pts) != 4:
        raise DegenerateQuartic(f"need exactly 4 points, got {len(pts)}")
    if area_x is None:
        area_x = area(make_metric(1.0, [(z, -0.5) for z in pts])).value
    det = area_x * _distance_root(pts) / (2.0 ** (2.0 / 3.0) * PI)
    if not 0.0 < det < math.inf:
        raise PolydetError(f"det' {det!r} is not a positive finite float")
    return det


def det_torus(data: EllipticData, area_x: float) -> float:
    """det' on the covering torus: Area(E) Im(tau) |eta(tau)|^4 with
    Area(E) = 2 Area(X).  Equals det_tetrahedron(...)^2.  Area(X) comes
    last, so an area near the top of the float range is not doubled past
    it."""
    return area_x * (2.0 * data.tau.imag * abs(data.eta) ** 4)
