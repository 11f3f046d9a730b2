"""Heat kernel and resolvent on the infinite cone, via the classical
contour representation, plus the rotationally symmetric resolvent density
a_mu and independent method-of-images oracles.

On the cone of opening beta with polar coordinates (r, phi), the heat
kernel is

    H_t(p, q) = (8 pi i beta t)^-1 int_C exp(-rho^2(th)/4t)
                 cot(pi (th + phi - phi')/beta) dth,
    rho^2(th) = r^2 - 2 r r' cos th + r'^2 = (r - r')^2 + 4 r r' sin^2(th/2),

over the cotangent contour C of module ``regint``, which states its
convention and evaluates it for a kernel g of sigma = sin(th/2).  Here g
is the plane kernel exp(-rho^2/4t)/(4 pi t), so each pole is one
rotational image of q and the m = 0 pole the plane kernel at the geodesic
distance.  The resolvent and a_mu take its Laplace transform in t through
int_0^inf exp(mu t - a/t) dt/t = 2 K_0(2 sqrt(a (-mu))); on the lines
sigma^2 = cosh^2(s/2) > 0, so the principal square root keeps every
Bessel argument real and positive (the unit tests check this branch
against direct Laplace quadrature).  A complex mu with Re mu < 0 gives
arguments with |arg| < pi/4.

K_0 and K_1 are evaluated here (``_bessel_k``), on real or complex arrays,
so no kernel needs scipy.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import CoincidentPoints
from .metric import PolyhedralMetric, _check_angle
from .quad import _quadpack_binding
from .regint import _cot_contour, q_of_beta

PI = math.pi
TWO_PI = 2.0 * math.pi

__getattr__ = _quadpack_binding("quad", __name__)


class ConePoint(NamedTuple):
    """Point on the cone: radius r >= 0 and angle phi in [0, beta).

    The angular range depends on the cone opening, so it is validated by
    the kernels, not the constructor.
    """

    r: float
    phi: float


def _rho2(r: float, rp: float, sigma):
    """Squared chord between radii r and r' at half-chord sigma = sin(th/2)."""
    return (r - rp) ** 2 + 4.0 * r * rp * sigma * sigma


def heat_kernel_cone(beta: float, t: float, p: ConePoint, q: ConePoint) -> float:
    """Heat kernel H_t(p, q) on the infinite cone of opening beta."""
    _check_angle(beta)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")

    def plane(sigma):
        return np.exp(-_rho2(p.r, q.r, sigma) / (4.0 * t)) / (4.0 * PI * t)

    return _cot_contour(beta, p.phi - q.phi, plane)


def _image_rho2(n: int, p: ConePoint, q: ConePoint) -> list:
    """The squared plane distances from p to the n rotational images of q
    on the cone of opening 2 pi / n."""
    beta = TWO_PI / n
    return [p.r * p.r + q.r * q.r - 2.0 * p.r * q.r * math.cos(p.phi - q.phi - m * beta)
            for m in range(n)]


def heat_kernel_images(n: int, t: float, p: ConePoint, q: ConePoint) -> float:
    """Method-of-images oracle for the cone of opening 2 pi / n: the sum of
    plane kernels over the n rotational images of q."""
    return sum(math.exp(-rho2 / (4.0 * t)) / (4.0 * PI * t) for rho2 in _image_rho2(n, p, q))


def resolvent_cone(beta: float, mu: complex, p: ConePoint, q: ConePoint) -> float:
    """Resolvent kernel of the (nonnegative) cone Laplacian at spectral
    parameter mu with Re mu < 0, for points with |phi - phi'| < pi.

    The m = 0 pole is the free resolvent (2 pi)^-1 K_0(d sqrt(-mu)) at the
    geodesic distance d; the image poles and the folded line integral add
    the cone's correction.  Real mu gives a real kernel; genuinely complex
    mu returns the complex value.
    """
    _check_angle(beta)
    mu = complex(mu)
    if not mu.real < 0.0:
        raise ValueError(f"need Re mu < 0, got {mu}")
    dphi = p.phi - q.phi
    if _rho2(p.r, q.r, math.sin(0.5 * dphi)) <= 0.0:
        raise CoincidentPoints("resolvent kernel diverges on the diagonal")
    if abs(dphi) >= PI:
        raise ValueError(
            "resolvent split requires |phi - phi'| < pi (points close enough)"
        )
    sq = cmath.sqrt(-mu) if mu.imag else math.sqrt(-mu.real)

    def free(sigma):
        return _bessel_k(0, np.sqrt(_rho2(p.r, q.r, sigma)) * sq) / TWO_PI

    return _cot_contour(beta, dphi, free)


def resolvent_images(n: int, mu: float, p: ConePoint, q: ConePoint) -> float:
    """Image-sum oracle for the resolvent on the cone of opening 2 pi / n."""
    k0 = _bessel_k(0, np.sqrt(_image_rho2(n, p, q)) * math.sqrt(-mu))
    return (k0.sum() / TWO_PI).item()


def a_mu(beta: float, mu: float, r: float) -> float:
    """Rotationally symmetric resolvent density

    a_mu(r) = (-mu/(8 pi i beta)) int_{C~} cot(pi th/beta)
              [int_0^inf exp(mu t - r^2 sin^2(th/2)/t) dt/t] dth,

    the inner integral evaluated as 2 K_0(2 r |sin(th/2)| sqrt(-mu)); the
    contour excludes the circle at th = 0.  Vanishes identically at
    beta = 2 pi, and its area integral over a disk of radius eps around
    the tip tends to Q(beta) as mu -> -inf.
    """
    _check_angle(beta)
    if not mu < 0.0:
        raise ValueError(f"need mu < 0, got {mu}")
    if not r > 0.0:
        raise ValueError(f"need r > 0, got {r}")
    two_r_sq = 2.0 * r * math.sqrt(-mu)
    return _cot_contour(beta, 0.0,
                        lambda sigma: -mu / TWO_PI * _bessel_k(0, two_r_sq * sigma),
                        tip=True)


def a_mu_disk_integral(beta: float, mu: float, eps: float = 1.0) -> float:
    """int_{K(eps)} a_mu dS = beta int_0^eps a_mu(r) r dr ; converges to
    Q(beta) superpolynomially as mu -> -inf.

    The radial integral is taken under the contour in closed form
    (``_radial_k0``), so the kernel is beta int_0^eps r g(r, sigma) dr for
    the kernel g(r, sigma) of ``a_mu``; as mu -> -inf it tends to the
    kernel beta/(8 pi sigma^2) of ``q_of_beta_contour``.
    """
    _check_angle(beta)
    if not mu < 0.0:
        raise ValueError(f"need mu < 0, got {mu}")
    if not eps > 0.0:
        raise ValueError(f"need eps > 0, got {eps}")
    two_sq = 2.0 * math.sqrt(-mu)
    return _cot_contour(
        beta, 0.0,
        lambda sigma: beta * -mu / TWO_PI * _radial_k0(two_sq * sigma, eps),
        tip=True)


def _radial_k0(a, eps: float):
    """int_0^eps r K_0(a r) dr = (1 - a eps K_1(a eps))/a^2 for a > 0."""
    x = a * eps
    return (1.0 - x * _bessel_k(1, x)) / (a * a)


def heat_trace_correction(m: PolyhedralMetric) -> float:
    """The t^0 coefficient of the short-time heat trace on the polyhedral
    sphere: sum_k Q(beta_k) (the trace is A/(4 pi t) + this + exp. small)."""
    return math.fsum(q_of_beta(beta) for beta in m.angles())


# --------------------------------------------------------------------------
# K_0 and K_1, real or complex, for Re z > 0.  For |z| <= 2 the power series
# in q = z^2/4 (A&S 9.6.13 and 9.6.11)
#   K_0 = sum q^k/(k!)^2 (psi(k+1) - L),
#   K_1 = 1/z + (z/2) sum q^k/(k! (k+1)!) (L - (psi(k+1) + psi(k+2))/2),
# L = log(z/2), whose terms fall below 1e-19 of the sums by k = 13.  Past
# |z| = 2 the integral DLMF 10.32.8 with t = v^2,
#   K_0 = sqrt(2/z) e^-z int_0^inf e^(-v^2) (1 + v^2/2z)^(-1/2) dv,
#   K_1 = 2 sqrt(2/z) e^-z int_0^inf v^2 e^(-v^2) (1 + v^2/2z)^(1/2) dv,
# by the trapezoid rule (Trefethen and Weideman, SIAM Rev. 56, 2014): for
# |arg z| < pi/4 the branch points v = +-i sqrt(2z) lie more than 1.8 off the
# real axis, so the step h = 0.25 errs by about exp(-2 pi 1.8/h) ~ 1e-20, and
# 26 nodes reach v = 6.25, past which e^(-v^2) < 1e-17.  Square roots are
# principal.  Against 30-digit mpmath (test_cone) the relative error stays
# below 2e-15, largest next to |z| = 2, where the series cancels; past
# Re z ~ 745 e^-z underflows and the value is 0.
# --------------------------------------------------------------------------

SERIES_TERMS = 14
BESSEL_SPLIT = 2.0
TRAPEZOID_STEP = 0.25
TRAPEZOID_NODES = 26


def _series_table(terms: int):
    """Per nu, the rows (coefficient of L, constant) of the two series."""
    psi = [-0.57721566490153286]            # psi(1) = -gamma
    fact = [1.0]
    for k in range(1, terms + 1):
        psi.append(psi[-1] + 1.0 / k)
        fact.append(fact[-1] * k)
    k0 = [(-1.0 / fact[k] ** 2, psi[k] / fact[k] ** 2) for k in range(terms)]
    k1 = [(1.0 / (fact[k] * fact[k + 1]), -0.5 * (psi[k] + psi[k + 1]) / (fact[k] * fact[k + 1]))
          for k in range(terms)]
    # highest power first, for Horner's rule
    return k0[::-1], k1[::-1]


_SERIES = _series_table(SERIES_TERMS)
_T = (TRAPEZOID_STEP * np.arange(TRAPEZOID_NODES)) ** 2     # t = v^2 at the nodes
_W = TRAPEZOID_STEP * np.exp(-_T)
_W[0] *= 0.5                                                # the end node of int_0^inf
_TRAPEZOID_WEIGHTS = (_W, 2.0 * _T * _W)


def _bessel_k_series(nu: int, z):
    q = 0.25 * z * z
    a = b = 0.0
    for ca, cb in _SERIES[nu]:
        a = a * q + ca
        b = b * q + cb
    v = b + np.log(0.5 * z) * a
    return v if nu == 0 else 1.0 / z + 0.5 * z * v


def _bessel_k_trapezoid(nu: int, z):
    root = np.sqrt(1.0 + _T * (0.5 / z)[..., None])
    return np.sqrt(2.0 / z) * np.exp(-z) * ((root if nu else 1.0 / root) @ _TRAPEZOID_WEIGHTS[nu])


def _bessel_k(nu: int, z):
    """K_nu(z) for nu = 0 or 1, elementwise on a real or complex array
    with Re z > 0 and |arg z| <= pi/4; real input gives real output."""
    z = np.asarray(z)
    near = np.abs(z) <= BESSEL_SPLIT
    if near.all():
        return _bessel_k_series(nu, z)
    if not near.any():
        return _bessel_k_trapezoid(nu, z)
    out = np.empty(z.shape, np.result_type(z, float))
    out[near] = _bessel_k_series(nu, z[near])
    out[~near] = _bessel_k_trapezoid(nu, z[~near])
    return out
