"""Independent references for the benchmark's checks.

Nothing here imports polydet or reuses its derivations: each value comes
from a closed form, from a different quadrature rule, or from mpmath at
high precision.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import mpmath

PI = math.pi
TWO_PI = 2.0 * math.pi


def q_of_beta(beta: float) -> float:
    """Heat-trace constant Q(beta) = -(1/12)(beta/2pi - 2pi/beta)."""
    return -(beta / TWO_PI - TWO_PI / beta) / 12.0


def heat_trace_sum(bs) -> float:
    """S = sum_k Q(beta_k) with beta_k = 2 pi (1 + b_k)."""
    return math.fsum(q_of_beta(TWO_PI * (1.0 + b)) for b in bs)


# --------------------------------------------------------------------------
# areas and determinants in closed form
# --------------------------------------------------------------------------

def triangle_area(C: float, zs, bs) -> float:
    """Area of a 3-vertex metric: the double of a Euclidean triangle with
    angles alpha_k = pi (1 + b_k), through the Schwarz-Christoffel map,

        C prod_{i<j} |z_i - z_j|^(-2(1 + b_k)) B(1+b_1, 1+b_2)^2
          sin alpha_1 sin alpha_2 / sin alpha_3,

    with k the vertex not in the pair (i, j)."""
    (z1, z2, z3), (b1, b2, b3) = zs, bs
    dist = (abs(z1 - z2) ** (-2.0 * (1.0 + b3))
            * abs(z1 - z3) ** (-2.0 * (1.0 + b2))
            * abs(z2 - z3) ** (-2.0 * (1.0 + b1)))
    a1, a2, a3 = (PI * (1.0 + b) for b in (b1, b2, b3))
    beta = float(mpmath.beta(1.0 + b1, 1.0 + b2))
    return C * dist * beta * beta * math.sin(a1) * math.sin(a2) / math.sin(a3)


def four_pi_log_det(zs, area: float) -> float:
    """log det' for four cone angles pi and C = 1:
    log Area + (1/6) sum_{i<j} log|z_i - z_j| - log(2^(2/3) pi)."""
    logs = [math.log(abs(zs[i] - zs[j])) for i in range(4) for j in range(i + 1, 4)]
    return math.log(area) + math.fsum(logs) / 6.0 - math.log(2.0 ** (2.0 / 3.0) * PI)


ETA_ABS = {
    # |eta(i)| and |eta(e^{i pi/3})| from Gamma values
    "i": math.gamma(0.25) / (2.0 * PI ** 0.75),
    "rho": 3.0 ** 0.125 * math.gamma(1.0 / 3.0) ** 1.5 / TWO_PI,
}
TAU_IM = {"i": 1.0, "rho": math.sqrt(3.0) / 2.0}


def orbifold_log_det(n: int, tau: str, area: float) -> float:
    """log det' of S^2 = T/Z_n: (1/n) log(n Area Im tau |eta(tau)|^4)."""
    return math.log(n * area * TAU_IM[tau] * ETA_ABS[tau] ** 4) / n


# --------------------------------------------------------------------------
# periods of dz / sqrt(quartic) by Gauss-Chebyshev quadrature
# --------------------------------------------------------------------------

def _segment(za: complex, zb: complex, others, nodes: int) -> complex:
    """int_za^zb dz / sqrt((z-za)(z-zb)(z-o1)(z-o2)) up to sign.

    With z = c + h x the endpoint factor is i h sqrt(1 - x^2), so the
    integral is (1/i) int_{-1}^{1} g(x) dx / sqrt(1 - x^2) with
    g = 1/sqrt((z-o1)(z-o2)), a Gauss-Chebyshev integral.  The branch of
    the square root is followed by continuity along the ordered nodes."""
    c, h = 0.5 * (za + zb), 0.5 * (zb - za)
    total = 0.0j
    prev = None
    for k in range(nodes, 0, -1):
        x = math.cos((2 * k - 1) * PI / (2 * nodes))
        z = c + h * x
        w = cmath.sqrt((z - others[0]) * (z - others[1]))
        if prev is not None and abs(w - prev) > abs(w + prev):
            w = -w
        prev = w
        total += 1.0 / w
    return total * (PI / nodes) / 1j


def periods(points, nodes: int = 512):
    """(|A|, tau, Area(X)) for the branch points sorted by angle about
    their centroid: A over the first two, B over the middle two, both
    doubled; tau = B/A normalised to Im tau > 0; Area(X) = |Im(A conj B)|/2."""
    pts = [complex(z) for z in points]
    cen = sum(pts) / 4.0
    pts.sort(key=lambda z: math.atan2((z - cen).imag, (z - cen).real))
    z1, z2, z3, z4 = pts
    A = 2.0 * _segment(z1, z2, (z3, z4), nodes)
    B = 2.0 * _segment(z2, z3, (z1, z4), nodes)
    tau = B / A
    if tau.imag < 0.0:
        tau = -tau
    return abs(A), tau, abs((A * B.conjugate()).imag) / 2.0


def eta(tau: complex) -> complex:
    with mpmath.workdps(30):
        return complex(mpmath.eta(tau))


def thetas(tau: complex):
    """(theta_2, theta_3, theta_4)(0 | tau) with nome q = e^{i pi tau}."""
    with mpmath.workdps(30):
        q = mpmath.exp(1j * mpmath.pi * tau)
        return tuple(complex(mpmath.jtheta(k, 0, q)) for k in (2, 3, 4))


# --------------------------------------------------------------------------
# cone kernels: plane kernel and image sums, written out
# --------------------------------------------------------------------------

def _dist2(p, q, rot=0.0) -> float:
    (r, phi), (rp, php) = p, q
    return r * r + rp * rp - 2.0 * r * rp * math.cos(phi - php - rot)


def plane_heat(t: float, p, q) -> float:
    return math.exp(-_dist2(p, q) / (4.0 * t)) / (4.0 * PI * t)


def image_heat(n: int, t: float, p, q) -> float:
    """Heat kernel on the cone of opening 2pi/n: plane kernels summed over
    the n rotations of q."""
    return math.fsum(math.exp(-_dist2(p, q, m * TWO_PI / n) / (4.0 * t))
                     / (4.0 * PI * t) for m in range(n))


def image_resolvent(n: int, mu: complex, p, q) -> complex:
    """Resolvent on the cone of opening 2pi/n: (2pi)^-1 K_0(d sqrt(-mu))
    summed over the images, principal square root, mpmath Bessel K."""
    with mpmath.workdps(30):
        s = mpmath.sqrt(-mpmath.mpc(mu))
        tot = mpmath.mpf(0)
        for m in range(n):
            d = mpmath.sqrt(_dist2(p, q, m * TWO_PI / n))
            tot += mpmath.besselk(0, d * s)
        return complex(tot / (2 * mpmath.pi))


# --------------------------------------------------------------------------
# Hadamard finite parts at 40 digits
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def hadamard(kind: str, beta: float) -> float:
    """Finite part of int_0^inf f, f = coth(pi t)/sinh^2(beta t/2)
    ('coth_over_sinh_sq') or coth(pi t) coth(beta t/2)/t
    ('coth_coth_over_theta', whose 1/t tail is subtracted on [1, inf)).

    With f ~ a3/t^3 + a1/t + c1 t at 0 (a3, a1 from the Laurent series of
    coth and csch^2), FP = -a3/2 + int_0^1 (f - a3/t^3 - a1/t) + tail.  The
    piece on [0, d], d = 1e-4, is c1 d^2/2 (error ~ d^4), with c1 read off
    f at t = 1e-12 at 60 digits."""
    with mpmath.workdps(60):
        b = mpmath.mpf(beta)
        pi = mpmath.pi
        if kind == "coth_over_sinh_sq":
            a3 = 4 / (pi * b * b)
            a1 = 4 * pi / (3 * b * b) - 1 / (3 * pi)

            def f(t):
                return mpmath.coth(pi * t) / mpmath.sinh(b * t / 2) ** 2

            tail = f
        else:
            a3 = 2 / (pi * b)
            a1 = b / (6 * pi) + 2 * pi / (3 * b)

            def f(t):
                return mpmath.coth(pi * t) * mpmath.coth(b * t / 2) / t

            def tail(t):
                return f(t) - 1 / t

        def reg(t):
            return f(t) - a3 / t ** 3 - a1 / t

        tiny = mpmath.mpf("1e-12")
        c1 = reg(tiny) / tiny
        d = mpmath.mpf("1e-4")
        with mpmath.workdps(40):
            head = mpmath.quad(reg, [d, mpmath.mpf("0.01"), mpmath.mpf("0.1"), 1])
            rest = mpmath.quad(tail, [1, 4, 16, mpmath.inf])
        return float(-a3 / 2 + c1 * d * d / 2 + head + rest)
