"""Heat kernel and resolvent on the infinite cone, via the classical
contour representation, plus the rotationally symmetric resolvent density
a_mu and independent method-of-images oracles.

On the cone of opening beta with polar coordinates (r, phi), the heat
kernel is

    H_t(p, q) = (8 pi i beta t)^-1 int_C exp(-rho^2(th)/4t)
                 cot(pi (th + phi - phi')/beta) dth,
    rho^2(th) = r^2 - 2 r r' cos th + r'^2,

where C is the union of the lines th = +-(pi - i s), s in R, and
anticlockwise circles around the cotangent poles th = (phi'-phi) + m beta
inside the strip |Re th| < pi.  Each circle contributes a plane heat
kernel between p and one rotational image of q; the m = 0 circle alone is
the plane kernel at the geodesic distance.

Implementation notes
--------------------
* By the symmetry th -> -conj(th) the two lines fold into one real
  integral over s >= 0 of the real part of the integrand; the imaginary
  part is the principal-value-odd piece and drops out exactly.
* Poles falling exactly on the lines (|phi - phi' - m beta| = pi, or
  m beta = pi for the symmetric density) receive half weight: that is the
  limit of shifting the lines by +-eps, carried out deterministically.
* The Laplace transforms of the line Gaussians are evaluated through the
  closed form int_0^inf exp(mu t - a/t) dt/t = 2 K_0(2 sqrt(a (-mu)));
  on the lines sin^2(th/2) = cosh^2(s/2) > 0, so the principal square
  root keeps every Bessel argument real and positive.  The unit tests
  validate this branch choice against direct numerical Laplace quadrature
  at random contour points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.special import k0 as bessel_k0, kv

from .errors import CoincidentPoints, NonpositiveAngle
from .metric import PolyhedralMetric
from .regint import _bump_breakpoints, _cot_lower, q_of_beta

PI = math.pi
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ConePoint:
    """Point on the cone: radius r >= 0 and angle phi in [0, beta).

    The angular range depends on the cone opening, so it is validated by
    the kernels, not the constructor.
    """

    r: float
    phi: float


@dataclass(frozen=True)
class ConeKernelConfig:
    contour_truncation: float = 40.0
    quad_tol: float = 1e-12
    pole_tol: float = 1e-10


def _check_cone(beta: float) -> None:
    if not beta > 0.0 or not math.isfinite(beta):
        raise NonpositiveAngle(f"cone opening must be positive, got {beta}")


def _strip_poles(beta: float, dphi: float, pole_tol: float):
    """Cotangent poles th = -dphi + m*beta relative to the strip.

    Yields (theta_star, weight) with weight 1.0 strictly inside
    |Re th| < pi and 0.5 exactly on the lines.
    """
    mlo = int(math.ceil((dphi - PI) / beta)) - 1
    mhi = int(math.floor((dphi + PI) / beta)) + 1
    for m in range(mlo, mhi + 1):
        th = -dphi + m * beta
        if abs(abs(th) - PI) <= pole_tol:
            yield th, 0.5
        elif abs(th) < PI:
            yield th, 1.0


def _line_factor(beta: float, dphi: float, s: float) -> float:
    """Re[ cot(pi(dphi - is - pi)/beta) - cot(pi(dphi - is + pi)/beta) ],

    the folded two-line cotangent weight at height s >= 0."""
    g = (_cot_lower(PI * complex(dphi - PI, -s) / beta)
         - _cot_lower(PI * complex(dphi + PI, -s) / beta))
    return g.real


def _line_pole_gaps(beta: float, dphi: float):
    """Distances from the cotangent poles -dphi + m beta to the two line
    feet +-pi: the widths of the near-line bumps of the folded integrand."""
    mlo = int(math.ceil((dphi - PI) / beta)) - 2
    mhi = int(math.floor((dphi + PI) / beta)) + 2
    gaps = []
    for m in range(mlo, mhi + 1):
        th = -dphi + m * beta
        gaps.append(abs(th - PI))
        gaps.append(abs(th + PI))
    return gaps


def heat_kernel_cone(
    beta: float,
    t: float,
    p: ConePoint,
    q: ConePoint,
    cfg: ConeKernelConfig = ConeKernelConfig(),
) -> float:
    """Heat kernel H_t(p, q) on the infinite cone of opening beta."""
    _check_cone(beta)
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t}")
    r, rp = p.r, q.r
    dphi = p.phi - q.phi

    total = 0.0
    for th, weight in _strip_poles(beta, dphi, cfg.pole_tol):
        rho2 = r * r + rp * rp - 2.0 * r * rp * math.cos(th)
        total += weight * math.exp(-rho2 / (4.0 * t)) / (4.0 * PI * t)

    four_t = 4.0 * t

    def integrand(s: float) -> float:
        rho2 = r * r + rp * rp + 2.0 * r * rp * math.cosh(s)
        e = -rho2 / four_t
        if e < -745.0:
            return 0.0
        return math.exp(e) * _line_factor(beta, dphi, s)

    val, _ = quad(integrand, 0.0, cfg.contour_truncation,
                  epsabs=cfg.quad_tol, epsrel=cfg.quad_tol,
                  limit=400, full_output=1,
                  points=_bump_breakpoints(_line_pole_gaps(beta, dphi),
                                           cfg.contour_truncation,
                                           cfg.pole_tol))[:2]
    total += val / (4.0 * PI * beta * t)
    return total


def heat_kernel_images(n: int, t: float, p: ConePoint, q: ConePoint) -> float:
    """Method-of-images oracle for the cone of opening 2 pi / n: the sum of
    plane kernels over the n rotational images of q."""
    beta = TWO_PI / n
    tot = 0.0
    for m in range(n):
        rho2 = (p.r * p.r + q.r * q.r
                - 2.0 * p.r * q.r * math.cos(p.phi - q.phi - m * beta))
        tot += math.exp(-rho2 / (4.0 * t)) / (4.0 * PI * t)
    return tot


def resolvent_cone(
    beta: float,
    mu: complex,
    p: ConePoint,
    q: ConePoint,
    cfg: ConeKernelConfig = ConeKernelConfig(),
) -> float:
    """Resolvent kernel of the (nonnegative) cone Laplacian at spectral
    parameter mu with Re mu < 0, for points with |phi - phi'| < pi.

    Assembled as free resolvent (2 pi)^-1 K_0(d sqrt(-mu)) at the geodesic
    distance plus the image poles (m != 0) and the folded line integral,
    each Laplace-transformed in closed form.  Real mu gives a real kernel;
    genuinely complex mu returns the complex value.
    """
    _check_cone(beta)
    mu = complex(mu)
    if not mu.real < 0.0:
        raise ValueError(f"need Re mu < 0, got {mu}")
    r, rp = p.r, q.r
    dphi = p.phi - q.phi
    d2 = r * r + rp * rp - 2.0 * r * rp * math.cos(dphi)
    if d2 <= 0.0:
        raise CoincidentPoints("resolvent kernel diverges on the diagonal")
    if abs(dphi) >= PI:
        raise ValueError(
            "resolvent split requires |phi - phi'| < pi (points close enough)"
        )
    sq = _sqrt_minus(mu)

    total = _k0(math.sqrt(d2) * sq) / TWO_PI
    for th, weight in _strip_poles(beta, dphi, cfg.pole_tol):
        if abs(th + dphi) <= cfg.pole_tol * max(1.0, beta):
            continue  # m = 0 image is the free-resolvent term above
        rho2 = r * r + rp * rp - 2.0 * r * rp * math.cos(th)
        total += weight * _k0(math.sqrt(rho2) * sq) / TWO_PI

    def line_term(s: float) -> complex:
        rho = math.sqrt(r * r + rp * rp + 2.0 * r * rp * math.cosh(s))
        return 2.0 * _k0(rho * sq) * _line_factor(beta, dphi, s)

    bumps = _bump_breakpoints(_line_pole_gaps(beta, dphi),
                              cfg.contour_truncation, cfg.pole_tol)
    re, _ = quad(lambda s: line_term(s).real, 0.0, cfg.contour_truncation,
                 epsabs=cfg.quad_tol, epsrel=cfg.quad_tol,
                 limit=400, full_output=1, points=bumps)[:2]
    total += re / (4.0 * PI * beta)
    if mu.imag != 0.0:
        im, _ = quad(lambda s: line_term(s).imag, 0.0, cfg.contour_truncation,
                     epsabs=cfg.quad_tol, epsrel=cfg.quad_tol,
                     limit=400, full_output=1, points=bumps)[:2]
        return complex(total) + 1j * im / (4.0 * PI * beta)
    return float(total.real) if isinstance(total, complex) else float(total)


def resolvent_images(n: int, mu: float, p: ConePoint, q: ConePoint) -> float:
    """Image-sum oracle for the resolvent on the cone of opening 2 pi / n."""
    beta = TWO_PI / n
    sq = math.sqrt(-mu)
    tot = 0.0
    for m in range(n):
        rho2 = (p.r * p.r + q.r * q.r
                - 2.0 * p.r * q.r * math.cos(p.phi - q.phi - m * beta))
        tot += bessel_k0(math.sqrt(rho2) * sq) / TWO_PI
    return tot


def a_mu(
    beta: float,
    mu: float,
    r: float,
    cfg: ConeKernelConfig = ConeKernelConfig(),
) -> float:
    """Rotationally symmetric resolvent density

    a_mu(r) = (-mu/(8 pi i beta)) int_{C~} cot(pi th/beta)
              [int_0^inf exp(mu t - r^2 sin^2(th/2)/t) dt/t] dth,

    the inner integral evaluated as 2 K_0(2 r |sin(th/2)| sqrt(-mu)); the
    contour excludes the circle at th = 0.  Vanishes identically at
    beta = 2 pi, and its area integral over a disk of radius eps around
    the tip tends to Q(beta) as mu -> -inf.
    """
    _check_cone(beta)
    if not mu < 0.0:
        raise ValueError(f"need mu < 0, got {mu}")
    if not r > 0.0:
        raise ValueError(f"need r > 0, got {r}")
    sq = math.sqrt(-mu)
    two_r_sq = 2.0 * r * sq

    total = 0.0
    m = 1
    while m * beta < PI + cfg.pole_tol:
        x = m * beta
        contrib = (-mu) / TWO_PI * bessel_k0(two_r_sq * abs(math.sin(0.5 * x)))
        if abs(x - PI) <= cfg.pole_tol:
            total += contrib          # half residue at each of +-m
        else:
            total += 2.0 * contrib
        m += 1

    def integrand(s: float) -> float:
        arg = two_r_sq * math.cosh(0.5 * s)
        if arg > 700.0:
            return 0.0
        cot = _cot_lower(PI * complex(PI, -s) / beta)
        return cot.real * 2.0 * bessel_k0(arg)

    pole_gaps = [abs(m * beta - PI)
                 for m in range(1, int((PI + 1.0) / beta) + 2)]
    val, _ = quad(integrand, 0.0, cfg.contour_truncation,
                  epsabs=cfg.quad_tol, epsrel=cfg.quad_tol,
                  limit=400, full_output=1,
                  points=_bump_breakpoints(pole_gaps, cfg.contour_truncation,
                                           cfg.pole_tol))[:2]
    total += mu / (2.0 * PI * beta) * val
    return total


def a_mu_disk_integral(
    beta: float,
    mu: float,
    eps: float = 1.0,
    cfg: ConeKernelConfig = ConeKernelConfig(),
) -> float:
    """int_{K(eps)} a_mu dS = beta int_0^eps a_mu(r) r dr ; converges to
    Q(beta) superpolynomially as mu -> -inf."""
    val, _ = quad(lambda r: a_mu(beta, mu, r, cfg) * r, 0.0, eps,
                  epsabs=1e-13, epsrel=1e-11, limit=300, full_output=1)[:2]
    return beta * val


def heat_trace_correction(m: PolyhedralMetric) -> float:
    """The t^0 coefficient of the short-time heat trace on the polyhedral
    sphere: -sum_k Q(beta_k) (the trace is A/(4 pi t) + this + exp. small)."""
    return -math.fsum(q_of_beta(beta) for beta in m.angles())


# --------------------------------------------------------------------------
# complex-capable K_0 (scipy's k0 is real-only; complex arguments only
# occur for complex spectral parameters, where kv(0, z) takes them)
# --------------------------------------------------------------------------

def _sqrt_minus(mu: complex):
    if mu.imag == 0.0:
        return math.sqrt(-mu.real)
    import cmath

    return cmath.sqrt(-mu)


def _k0(z):
    if isinstance(z, complex) and z.imag != 0.0:
        return complex(kv(0, z))
    x = z.real if isinstance(z, complex) else z
    return float(bessel_k0(x))
