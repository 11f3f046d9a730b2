import math

import numpy as np
import pytest
from scipy.integrate import quad

from polydet import (
    ConePoint,
    a_mu,
    a_mu_disk_integral,
    heat_kernel_cone,
    heat_kernel_images,
    heat_trace_correction,
    make_metric,
    q_of_beta,
    resolvent_cone,
    resolvent_images,
    tetrahedron_metric,
)
from polydet.errors import CoincidentPoints, PolydetError

PI = math.pi
TWO_PI = 2 * math.pi

RNG = np.random.default_rng(20240811)


def _plane_kernel(t, d2):
    return math.exp(-d2 / (4 * t)) / (4 * PI * t)


# ---- heat kernel ----

def test_flat_cone_reduces_to_plane():
    for _ in range(6):
        r, rp = RNG.uniform(0.2, 2, 2)
        phi, phip = RNG.uniform(0, TWO_PI, 2)
        h = heat_kernel_cone(TWO_PI, 0.7, ConePoint(r, phi), ConePoint(rp, phip))
        d2 = r * r + rp * rp - 2 * r * rp * math.cos(phi - phip)
        assert abs(h - _plane_kernel(0.7, d2)) < 1e-12


def test_half_plane_cone_matches_two_images():
    p, q = ConePoint(1.0, 0.3), ConePoint(1.2, 1.0)
    h = heat_kernel_cone(PI, 0.5, p, q)
    d0 = 1.0 + 1.44 - 2 * 1.2 * math.cos(0.3 - 1.0)
    d1 = 1.0 + 1.44 - 2 * 1.2 * math.cos(0.3 - 1.0 - PI)
    assert h == pytest.approx(_plane_kernel(0.5, d0) + _plane_kernel(0.5, d1),
                              abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_image_sum_equivalence(n):
    beta = TWO_PI / n
    for t in (0.1, 1.0):
        for _ in range(4):
            r, rp = RNG.uniform(0.2, 2, 2)
            phi, phip = RNG.uniform(0, beta, 2)
            p, q = ConePoint(r, phi), ConePoint(rp, phip)
            assert abs(heat_kernel_cone(beta, t, p, q)
                       - heat_kernel_images(n, t, p, q)) < 1e-10


def test_kernel_symmetry():
    for beta in (PI, 1.3 * PI, 2.4 * PI):
        for _ in range(4):
            r, rp = RNG.uniform(0.2, 2, 2)
            phi, phip = RNG.uniform(0, beta, 2)
            a = heat_kernel_cone(beta, 0.4, ConePoint(r, phi), ConePoint(rp, phip))
            b = heat_kernel_cone(beta, 0.4, ConePoint(rp, phip), ConePoint(r, phi))
            assert abs(a - b) < 1e-12


def test_kernel_rotational_invariance_and_positivity():
    beta = 1.7 * PI
    for _ in range(4):
        r, rp = RNG.uniform(0.2, 2, 2)
        phi, phip = RNG.uniform(0, beta / 2, 2)
        c = RNG.uniform(0, beta / 2)
        a = heat_kernel_cone(beta, 0.3, ConePoint(r, phi), ConePoint(rp, phip))
        b = heat_kernel_cone(beta, 0.3, ConePoint(r, phi + c), ConePoint(rp, phip + c))
        assert a > 0
        assert abs(a - b) < 1e-12


def test_semigroup_property_beta_pi():
    # int over the cone of H_t(p, .) H_s(., q) = H_{t+s}(p, q), with the
    # two-image closed form as the integrand (independent of the contour)
    beta = PI
    t, s = 0.35, 0.6
    p, q = ConePoint(0.8, 0.4), ConePoint(1.1, 2.2)

    def integrand(r, phi):
        mid = ConePoint(r, phi)
        return (heat_kernel_images(2, t, p, mid)
                * heat_kernel_images(2, s, mid, q) * r)

    val = 0.0
    # radial x angular tensor Gauss grid is plenty for smooth Gaussians
    xs, ws = np.polynomial.legendre.leggauss(120)
    R = 12.0
    rs = 0.5 * R * (xs + 1)
    wr = 0.5 * R * ws
    xs2, ws2 = np.polynomial.legendre.leggauss(80)
    phis = 0.5 * beta * (xs2 + 1)
    wp = 0.5 * beta * ws2
    for r, w1 in zip(rs, wr):
        for phi, w2 in zip(phis, wp):
            val += w1 * w2 * integrand(r, phi)
    assert val == pytest.approx(heat_kernel_images(2, t + s, p, q), abs=1e-6)


# ---- resolvent ----

def test_flat_resolvent_is_free_resolvent():
    from scipy.special import k0

    for _ in range(4):
        r, rp = RNG.uniform(0.3, 1.5, 2)
        phi, phip = RNG.uniform(0, 2.0, 2)
        v = resolvent_cone(TWO_PI, -3.0, ConePoint(r, phi), ConePoint(rp, phip))
        d = math.sqrt(r * r + rp * rp - 2 * r * rp * math.cos(phi - phip))
        assert abs(v - k0(d * math.sqrt(3.0)) / TWO_PI) < 1e-12


def test_resolvent_matches_images_beta_pi():
    # one fixed pair and five seeded ones: radii in [0.2, 2], angular gap
    # in [0, pi/2]
    rng = np.random.default_rng(2024)
    pairs = [(ConePoint(1.0, 0.2), ConePoint(1.0, 1.1))]
    for _ in range(5):
        r, rp = rng.uniform(0.2, 2.0, 2)
        pairs.append((ConePoint(r, 0.1), ConePoint(rp, 0.1 + rng.uniform(0.0, PI / 2))))
    for p, q in pairs:
        assert abs(resolvent_cone(PI, -4.0, p, q)
                   - resolvent_images(2, -4.0, p, q)) < 1e-10, (p, q)


def test_resolvent_decay_superpolynomial():
    p, q = ConePoint(1.0, 0.2), ConePoint(1.4, 1.0)
    v2 = resolvent_cone(1.3 * PI, -100.0, p, q)
    v3 = resolvent_cone(1.3 * PI, -1000.0, p, q)
    assert v3 < v2 * (100.0 / 1000.0) ** 3


def test_resolvent_monotone_in_mu():
    p, q = ConePoint(0.9, 0.1), ConePoint(1.2, 0.9)
    vals = [resolvent_cone(1.6 * PI, mu, p, q) for mu in (-100.0, -30.0, -5.0, -1.0)]
    assert all(v > 0 for v in vals)
    assert vals == sorted(vals)


def test_resolvent_coincident_points_rejected():
    with pytest.raises(CoincidentPoints):
        resolvent_cone(PI, -1.0, ConePoint(1.0, 0.5), ConePoint(1.0, 0.5))


@pytest.mark.parametrize("beta, p, q", [
    (2.0, ConePoint(1.0, 2.1), ConePoint(1.0, 0.1)),
    (0.5, ConePoint(1.0, 1.1), ConePoint(1.0, 0.1)),
    (PI, ConePoint(0.0, 3.0), ConePoint(0.0, 0.1)),
])
def test_resolvent_coincident_image_rejected(beta, p, q):
    # q turned by a multiple of beta lands on p (p and q at the tip, by
    # any angle): the kernel diverges there, which was returned as inf
    # with a numpy "divide by zero" warning (an error here)
    with pytest.raises(CoincidentPoints):
        resolvent_cone(beta, -1.0, p, q)
    n = round(TWO_PI / beta)
    if TWO_PI / n == beta:
        with pytest.raises(CoincidentPoints):
            resolvent_images(n, -1.0, p, q)


@pytest.mark.parametrize("call, why", [
    (lambda: heat_kernel_cone(PI, 0.0, ConePoint(1.0, 0.2), ConePoint(0.7, 1.9)),
     "need a finite time t > 0, got 0.0"),
    (lambda: heat_kernel_images(2, -1.0, ConePoint(1.0, 0.2), ConePoint(0.7, 1.9)),
     "need a finite time t > 0, got -1.0"),
    (lambda: heat_kernel_images(0, 1.0, ConePoint(1.0, 0.2), ConePoint(0.7, 1.9)),
     "need an integer n >= 1 of images, got 0"),
    (lambda: resolvent_cone(PI, 1.0, ConePoint(1.0, 0.2), ConePoint(0.7, 1.9)),
     "need a finite mu with Re mu < 0, got 1.0"),
    (lambda: resolvent_cone(PI, -1.0, ConePoint(1.0, 3.5), ConePoint(0.7, 0.1)),
     "resolvent split requires |phi - phi'| < pi"),
    (lambda: resolvent_images(2, 0.0, ConePoint(1.0, 0.2), ConePoint(0.7, 1.9)),
     "need a finite mu with Re mu < 0, got 0.0"),
    (lambda: a_mu(PI, -1.0, 0.0), "need a finite r > 0, got 0.0"),
    (lambda: a_mu(PI, 0.0, 1.0), "need a finite mu with Re mu < 0, got 0.0"),
    (lambda: a_mu_disk_integral(PI, -1.0, 0.0), "need a finite eps > 0, got 0.0"),
    (lambda: heat_kernel_cone(PI, 0.5, ConePoint(1.0, math.nan), ConePoint(0.7, 1.9)),
     "need points of finite r >= 0 and finite phi - phi'"),
    (lambda: heat_kernel_cone(PI, 0.5, ConePoint(-1.0, 0.2), ConePoint(0.7, 1.9)),
     "need points of finite r >= 0 and finite phi - phi'"),
    (lambda: resolvent_cone(PI, -1.0, ConePoint(1.0, 1.7e308), ConePoint(0.7, -1.7e308)),
     "need points of finite r >= 0 and finite phi - phi'"),
    (lambda: heat_kernel_cone(PI, 5e-324, ConePoint(1.0, 0.2), ConePoint(1.0, 0.2)),
     "heat_kernel_cone is inf, not a finite float"),
])
def test_cone_kernels_refuse_by_type(call, why):
    # each was a bare ValueError, or for a nan phi int(nan) in the poles,
    # or an inf from a time near 0
    with pytest.raises(PolydetError) as info:
        call()
    assert type(info.value) is PolydetError and str(info.value).startswith(why)


def test_bessel_laplace_branch_closed_form():
    # validates the K_0 closed form used on the contour against direct
    # Laplace quadrature, at random line heights
    from scipy.special import k0

    for _ in range(20):
        s = RNG.uniform(0.0, 3.0)
        r = RNG.uniform(0.2, 1.5)
        mu = -RNG.uniform(1.0, 30.0)
        a = (r * math.cosh(s / 2)) ** 2  # r^2 sin^2(th/2) on the lines
        direct = quad(lambda t: math.exp(mu * t - a / t) / t, 0, 50,
                      epsabs=1e-14, epsrel=1e-13, limit=300)[0]
        closed = 2 * k0(2 * math.sqrt(a * (-mu)))
        assert direct == pytest.approx(closed, rel=1e-9, abs=1e-300)


# ---- a_mu ----

def test_a_mu_vanishes_on_flat_cone():
    for r in (0.3, 1.0, 2.5):
        assert abs(a_mu(TWO_PI, -50.0, r)) < 1e-12


def test_a_mu_closed_form_beta_pi():
    # at beta = pi the lines drop and only the half residues survive:
    # a_mu(r) = (-mu/2pi) K_0(2 r sqrt(-mu))
    from scipy.special import k0

    for r in (0.3, 0.7):
        expect = 100.0 / TWO_PI * k0(2 * r * 10.0)
        assert a_mu(PI, -100.0, r) == pytest.approx(expect, rel=1e-10)


def test_a_mu_disk_integral_approaches_q():
    assert abs(a_mu_disk_integral(PI, -100.0, 1.0) - 0.125) < 1e-6


def test_a_mu_radial_decay():
    assert abs(a_mu(PI, -100.0, 3.0)) < 1e-8 * abs(a_mu(PI, -100.0, 0.3))


# ---- heat trace correction ----

SQUARE = ((1.0, 0.0), (0.0, 1.0))
HEXAGONAL = ((1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0))


def _quotient_trace_constant(basis, n, t=0.005):
    """Theta_X(t) - A_X/(4 pi t) of X = E/Z_n, E the flat torus R^2/L with L
    spanned by the rows of ``basis`` and Z_n turning it about a point.

    Theta_E is the sum of exp(-4 pi^2 |k|^2 t) over the dual lattice.  A
    turn fixes only the constant among the modes exp(2 pi i k.x), so its
    trace against the heat kernel is 1 and Theta_X = (Theta_E + n - 1)/n.
    What is left after A_X/(4 pi t) is exponentially small in 1/t but for
    the constant t^0 term."""
    basis = np.array(basis)
    dual = np.linalg.inv(basis).T
    ks = np.arange(-40, 41)
    k = ks[:, None, None] * dual[0] + ks[None, :, None] * dual[1]
    theta = math.fsum(np.exp(-4.0 * PI * PI * t * (k * k).sum(axis=-1)).ravel().tolist())
    area = abs(np.linalg.det(basis)) / n
    return (theta + n - 1) / n - area / (4.0 * PI * t)


def test_heat_trace_tetrahedron():
    # the square torus over Z_2, four cone points of angle pi
    expect = _quotient_trace_constant(SQUARE, 2)
    assert expect == pytest.approx(0.5, abs=1e-12)
    assert heat_trace_correction(tetrahedron_metric()) == pytest.approx(expect, abs=1e-12)


def test_heat_trace_triangle():
    # S^2(3,3,3), the hexagonal torus over Z_3
    m = make_metric(1.0, [(0, -2 / 3), (1, -2 / 3), (-1, -2 / 3)])
    expect = _quotient_trace_constant(HEXAGONAL, 3)
    assert expect == pytest.approx(2 / 3, abs=1e-12)
    assert heat_trace_correction(m) == pytest.approx(expect, abs=1e-12)


def test_heat_trace_quarter_turn():
    # S^2(2,4,4), the square torus over Z_4
    m = make_metric(1.0, [(0, -1 / 2), (1, -3 / 4), (-1, -3 / 4)])
    expect = _quotient_trace_constant(SQUARE, 4)
    assert expect == pytest.approx(0.75, abs=1e-12)
    assert heat_trace_correction(m) == pytest.approx(expect, abs=1e-12)


def test_heat_trace_algebraic_identity(corpus5):
    # sum Q(beta_k) = -(1/12) sum (b_k + 1 - 1/(b_k + 1))
    lhs = math.fsum(q_of_beta(b) for b in corpus5.angles())
    rhs = -math.fsum(b + 1 - 1 / (b + 1) for b in corpus5.exponents()) / 12
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_heat_kernel_near_line_pole_continuity():
    # image pole sliding onto the contour line: the kernel must vary
    # continuously through the half-residue handover at the line
    beta = 2.3 * PI
    vals = []
    for delta in (1e-5, 1e-7, 1e-9, 0.0):
        dphi = beta - PI + delta
        vals.append(heat_kernel_cone(beta, 0.5,
                                     ConePoint(1.0, dphi), ConePoint(1.1, 0.0)))
    for a, b in zip(vals, vals[1:]):
        assert abs(a - b) < 1e-7


@pytest.mark.parametrize("gap", [3e-13, 3e-11, 1e-9])
def test_heat_kernel_pole_near_line_matches_images(gap):
    # at beta = pi (1 + gap) this pair puts a cotangent pole gap off a
    # line: within POLE_TOL it takes half its residue and its bump leaves
    # the line weight, beyond it the line panels resolve the bump; either
    # way the kernel stays within O(gap) of the two-image sum at beta = pi
    beta = PI * (1.0 + gap)
    p, q = ConePoint(0.9, PI - beta + gap), ConePoint(1.1, 0.0)
    assert abs(heat_kernel_cone(beta, 0.5, p, q)
               - heat_kernel_images(2, 0.5, p, q)) < 1e-9


def test_resolvent_complex_spectral_parameter():
    # flat cone with complex mu: equals the free resolvent with the
    # principal square root of -mu.  At mu = -0.5 + 5i the Bessel argument
    # on the lines passes 1e9 before the cut at s = 40, where a complex K_0
    # evaluation can give nan; K_0 has underflowed to 0 long before.
    import cmath

    import mpmath

    p, q = ConePoint(1.0, 0.4), ConePoint(1.3, 1.1)
    d = math.sqrt(p.r**2 + q.r**2 - 2 * p.r * q.r * math.cos(p.phi - q.phi))
    for mu in (complex(-3.0, 0.7), complex(-0.5, 5.0)):
        free = complex(mpmath.besselk(0, d * cmath.sqrt(-mu))) / TWO_PI
        assert abs(resolvent_cone(TWO_PI, mu, p, q) - free) < 1e-12


def test_a_mu_disk_integral_generic_angles():
    # at angles with no poles inside the strip the whole value comes from
    # the line integrals, pinning the contour convention where no
    # method-of-images oracle exists
    for beta in (1.7 * PI, 2.4 * PI):
        assert abs(a_mu_disk_integral(beta, -100.0, 1.0)
                   - q_of_beta(beta)) < 1e-8


def test_semigroup_property_contour_kernel_generic_angle():
    # the contour kernel itself (no image oracle exists at 1.7 pi) must
    # reproduce itself under the cone convolution
    beta = 1.7 * PI
    t, s = 0.4, 0.65
    p, q = ConePoint(0.9, 0.5), ConePoint(1.2, 3.0)
    xs, ws = np.polynomial.legendre.leggauss(40)
    rs, wr = 4.5 * (xs + 1), 4.5 * ws
    xs2, ws2 = np.polynomial.legendre.leggauss(28)
    phis, wp = 0.5 * beta * (xs2 + 1), 0.5 * beta * ws2
    val = 0.0
    for r, w1 in zip(rs, wr):
        for phi, w2 in zip(phis, wp):
            mid = ConePoint(r, phi)
            val += (w1 * w2 * r * heat_kernel_cone(beta, t, p, mid)
                    * heat_kernel_cone(beta, s, mid, q))
    assert val == pytest.approx(heat_kernel_cone(beta, t + s, p, q), abs=1e-9)


@pytest.mark.parametrize("a", [0.5, 5.0, 50.0])
@pytest.mark.parametrize("eps", [0.3, 1.0])
def test_radial_k0_closed_form(a, eps):
    from scipy.special import k0

    from polydet.cone import _radial_k0

    direct = quad(lambda r: r * k0(a * r), 0.0, eps,
                  epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    assert _radial_k0(a, eps) == pytest.approx(direct, rel=1e-12, abs=1e-15)


# log-spaced over the range the kernels reach before K underflows, and
# around |z| = 2, where the series hands over to the trapezoid rule; the
# complex ones up to |arg z| = pi/4
_BESSEL_REAL = np.concatenate([np.geomspace(1e-6, 700.0, 40), np.linspace(1.9, 2.1, 11)])
_BESSEL_COMPLEX = np.concatenate([
    np.outer(np.geomspace(1e-6, 700.0, 14), np.exp(1j * np.array([-PI / 4, -0.4, 0.1, 0.7]))),
    np.outer(np.linspace(1.9, 2.1, 5), np.exp(1j * np.array([-0.78, -0.3, 0.5, 0.78]))),
]).ravel()


@pytest.mark.parametrize("nu", [0, 1])
@pytest.mark.parametrize("z", [_BESSEL_REAL, _BESSEL_COMPLEX], ids=["real", "complex"])
def test_bessel_k_against_mpmath(nu, z):
    # series below |z| = 2 and trapezoid rule above, against 30 digits
    import mpmath

    from polydet.cone import _bessel_k

    got = _bessel_k(nu, z)
    assert got.dtype == z.dtype
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.besselk(nu, mpmath.mpmathify(x))) for x in z.tolist()])
    assert (np.abs(got - want) <= 4e-15 * np.abs(want)).all()


@pytest.mark.parametrize("nu", [0, 1])
def test_bessel_k_underflows_to_zero(nu):
    from polydet.cone import _bessel_k

    assert _bessel_k(nu, np.array(800.0)) == 0.0
    assert _bessel_k(nu, np.array([1e9 * np.exp(0.3j)]))[0] == 0.0


@pytest.mark.parametrize("beta", [0.8 * PI, 1.013 * PI, 1.7 * PI])
def test_a_mu_disk_integral_matches_nested_quadrature(beta):
    # the radial integral under the contour against the outer quadrature
    # of the public density: beta int_0^eps a_mu(r) r dr
    mu, eps = -100.0, 1.0
    nested = beta * quad(lambda r: a_mu(beta, mu, r) * r, 0.0, eps,
                         epsabs=1e-15, epsrel=1e-13, limit=300)[0]
    assert abs(a_mu_disk_integral(beta, mu, eps) - nested) <= 1e-12


def test_a_mu_disk_integral_rejects_bad_input():
    from polydet.errors import NonpositiveAngle

    for mu in (0.0, 3.0):
        with pytest.raises(PolydetError) as info:
            a_mu_disk_integral(PI, mu)
        assert type(info.value) is PolydetError
    for beta in (0.0, -1.0):
        with pytest.raises(NonpositiveAngle):
            a_mu_disk_integral(beta, -100.0)


@pytest.mark.parametrize("beta", [0.7 * PI, PI, 2.3 * PI])
def test_heat_kernel_same_ray_fold(beta):
    # the kernel is continuous in the angle between the points across
    # dphi = 0, where the two line terms are mirror images
    p, q = ConePoint(0.9, 0.2), ConePoint(1.2, 0.2)
    on_ray = heat_kernel_cone(beta, 0.5, p, q)
    for d in (1e-9, -1e-9):
        off = heat_kernel_cone(beta, 0.5, p, ConePoint(1.2, 0.2 + d))
        assert abs(on_ray - off) <= 1e-9
