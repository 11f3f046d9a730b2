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
against direct Laplace quadrature).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoints
from .metric import PolyhedralMetric, _check_angle
from .quad import _quadpack_binding
from .regint import _cot_contour, q_of_beta

PI = math.pi
TWO_PI = 2.0 * math.pi

__getattr__ = _quadpack_binding("quad", __name__)


@dataclass(frozen=True)
class ConePoint:
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


def _image_sum(n: int, p: ConePoint, q: ConePoint, kernel) -> float:
    """The sum of kernel(rho^2) over the n rotational images of q on the
    cone of opening 2 pi / n, rho the plane distance from p."""
    beta = TWO_PI / n
    return sum(kernel(p.r * p.r + q.r * q.r - 2.0 * p.r * q.r * math.cos(p.phi - q.phi - m * beta))
               for m in range(n))


def heat_kernel_images(n: int, t: float, p: ConePoint, q: ConePoint) -> float:
    """Method-of-images oracle for the cone of opening 2 pi / n: the sum of
    plane kernels over the n rotational images of q."""
    return _image_sum(n, p, q, lambda rho2: math.exp(-rho2 / (4.0 * t)) / (4.0 * PI * t))


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
        return _k0(np.sqrt(_rho2(p.r, q.r, sigma)) * sq) / TWO_PI

    return _cot_contour(beta, dphi, free)


def resolvent_images(n: int, mu: float, p: ConePoint, q: ConePoint) -> float:
    """Image-sum oracle for the resolvent on the cone of opening 2 pi / n."""
    from scipy.special import k0

    sq = math.sqrt(-mu)
    return _image_sum(n, p, q, lambda rho2: k0(math.sqrt(rho2) * sq) / TWO_PI)


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
    from scipy.special import k0

    two_r_sq = 2.0 * r * math.sqrt(-mu)
    return _cot_contour(beta, 0.0,
                        lambda sigma: -mu / TWO_PI * k0(two_r_sq * sigma),
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
    from scipy.special import k1

    x = a * eps
    return (1.0 - x * k1(x)) / (a * a)


def heat_trace_correction(m: PolyhedralMetric) -> float:
    """The t^0 coefficient of the short-time heat trace on the polyhedral
    sphere: sum_k Q(beta_k) (the trace is A/(4 pi t) + this + exp. small)."""
    return math.fsum(q_of_beta(beta) for beta in m.angles())


# --------------------------------------------------------------------------
# complex-capable K_0 (scipy's k0 is real-only; complex arguments only
# occur for complex spectral parameters, where kv(0, z) takes them)
# --------------------------------------------------------------------------

def _k0(z):
    from scipy.special import k0, kv

    if not np.iscomplexobj(z):
        return k0(z)
    # kv gives nan past |z| ~ 1e9, where K_0 has long underflowed to 0
    return np.where(z.real < 700.0, kv(0, z), 0.0)
