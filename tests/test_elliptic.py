import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydet import (
    dedekind_eta,
    det_tetrahedron,
    det_torus,
    eta_distance_identity,
    jacobi_residual,
    log_det_as,
    make_metric,
    periods,
    theta_constants,
    thomae_check,
)
from polydet.errors import DegenerateQuartic, PolydetError
from polydet.quad import area, segment_integral

PI = math.pi
LEMNISCATIC = [1, -1, 1j, -1j]

ETA_AT_I = 0.7682254223260566  # Gamma(1/4) / (2 pi^(3/4))


def _random_quartics(n, seed=20240811):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        pts = [complex(a, b) for a, b in rng.uniform(-2, 2, (4, 2))]
        if min(abs(p - q) for i, p in enumerate(pts)
               for q in pts[i + 1:]) > 0.3:
            out.append(pts)
    return out


# ---- periods ----

def test_lemniscatic_modulus_is_square_lattice():
    data = periods(LEMNISCATIC)
    assert abs(data.tau - 1j) < 1e-10
    th2, th3, th4 = theta_constants(data.tau)
    # square-lattice signature: theta_2 = theta_4 and the quartic identity
    assert abs(th2 - th4) < 1e-12
    assert abs(th2**4 + th4**4 - th3**4) < 1e-12


def test_period_translation_invariance():
    data = periods(LEMNISCATIC)
    shifted = periods([z + 0.7 - 0.3j for z in LEMNISCATIC])
    # omega is translation-invariant, so both periods match exactly
    assert abs(abs(shifted.period_a) - abs(data.period_a)) < 1e-10
    assert abs(shifted.tau - data.tau) < 1e-10


def test_segment_orientation_flips_sign_only():
    pts, bs = [1 + 0j, 1j, -1 + 0j, -1j], [-0.5] * 4
    a = segment_integral(pts, bs, 0, 1).value
    b = segment_integral(pts, bs, 1, 0).value
    assert min(abs(a - b), abs(a + b)) < 1e-12
    assert abs(abs(a) - abs(b)) < 1e-12


def test_normalization_gives_upper_half_plane():
    for pts in _random_quartics(3):
        assert periods(pts).tau.imag > 0


def test_degenerate_quartic_rejected():
    with pytest.raises(DegenerateQuartic):
        periods([0, 1e-10, 1, 1j])
    with pytest.raises(DegenerateQuartic):
        periods([0, 1, 1j])


def test_far_quartic_with_an_angle_that_underflows():
    # arg(1e300 + 2.2e-308 i) underflows on the way to the periods, where
    # cmath.phase raises OverflowError; the quartic is a square
    data = periods([0, 1e300j, 1e300 + 2.2e-308j, 1e300 + 1e300j])
    assert abs(data.tau - 1j) < 1e-12


def test_branch_point_gap_past_float_range():
    # a gap of inf, and one whose modulus is past the float range with
    # finite parts: a typed error, not an OverflowError or a degenerate
    # quartic by a relative test against an infinite scale
    for pts in ([1e308, -1e308, 1e308j, -1e308j], [1e308, -1e308, 1e308j, -1.7e308j]):
        with pytest.raises(PolydetError, match="not a finite float") as info:
            periods(pts)
        assert type(info.value) is PolydetError


def _collinear_quartics(n, offset=0.0, seed=20261020):
    """n quartics on a random line through a point of [-2, 2]^2, at
    positions uniform in [-3, 3]; with ``offset``, one point of each moved
    that far off the line."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        centre = complex(*rng.uniform(-2, 2, 2))
        direction = cmath.exp(1j * rng.uniform(0, PI))
        pts = [centre + s * direction for s in rng.uniform(-3, 3, 4)]
        pts[rng.integers(4)] += offset * rng.choice([-1, 1]) * 1j * direction
        out.append(pts)
    return out


def _assert_identities(pts, data):
    # the bounds of ``verify tetra``
    assert jacobi_residual(data) <= 1e-10, pts
    assert thomae_check(pts, data) <= 1e-7, pts
    assert eta_distance_identity(pts, data) <= 1e-7, pts


@pytest.mark.parametrize("pts", [[-1, 0, 1, 3]] + [[-1, -1 + g, 1, 1 + g]
                                                   for g in (1e-6, 1e-4, 1e-2, 0.1, 0.3)])
def test_collinear_branch_points(pts):
    # sorted by angle around the centroid, a chord between consecutive
    # collinear points runs through a third; sorted along the line, tau
    # is imaginary
    data = periods(pts)
    assert abs(data.tau.real) <= 1e-12 * abs(data.tau)
    _assert_identities(pts, data)


def test_seeded_collinear_quartics():
    for pts in _collinear_quartics(300):
        data = periods(pts)
        assert abs(data.tau.real) <= 1e-12 * abs(data.tau), pts
        _assert_identities(pts, data)


@pytest.mark.parametrize("offset", [3e-3, 3e-6, 3e-9, 3e-12, 3e-13, 3e-14, 3e-16])
def test_seeded_near_collinear_quartics(offset):
    # off the line tau has a real part of its own; the identities hold
    for pts in _collinear_quartics(200, offset):
        _assert_identities(pts, periods(pts))


@pytest.mark.parametrize("g", [1e-7, 5e-8, 3e-8, 2.2e-8, 2.001e-8, 2e-8])
def test_two_close_pairs_down_to_the_degenerate_floor(g):
    # Im tau is near 0.08, where theta_4's series at the unreduced tau
    # cancels, down to g = 2.001e-8; at 2e-8 the collinear sort gives
    # tau = 1 + 12.6 i, and below it DegenerateQuartic
    pts = [-1, -1 + g * 1j, 1, 1 + g * 1j]
    _assert_identities(pts, periods(pts))
    with pytest.raises(DegenerateQuartic):
        periods([-1, -1 + 1.99e-8j, 1, 1 + 1.99e-8j])


# ---- eta and theta constants ----

def _mpmath_eta_theta(tau):
    """eta, theta_2, theta_3, theta_4 at tau by mpmath at 80 digits.
    mpmath's theta_2 carries the principal q^(1/4); the true factor is
    e^(i pi tau/4)."""
    with mpmath.workdps(80):
        t = mpmath.mpc(tau.real, tau.imag)
        q = mpmath.exp(1j * mpmath.pi * t)
        th2 = mpmath.jtheta(2, 0, q) * mpmath.exp(1j * mpmath.pi * t / 4) / mpmath.root(q, 4)
        return [complex(x) for x in (mpmath.exp(1j * mpmath.pi * t / 12) * mpmath.qp(q**2),
                                     th2, mpmath.jtheta(3, 0, q), mpmath.jtheta(4, 0, q))]


def _rel_errors(tau):
    got = [dedekind_eta(tau), *theta_constants(tau)]
    return [abs(g - r) / abs(r) for g, r in zip(got, _mpmath_eta_theta(tau))]


@pytest.mark.parametrize("im", np.geomspace(0.05, 300, 13).tolist())
def test_eta_and_theta_against_mpmath(im):
    # reduced into the fundamental domain, every value is good to the
    # rounding of pi Im tau in the exponent; |Re tau| up to 1e15 loses
    # no digit, as the shift n = round(Re tau) is exact
    for re in (0.0, 0.25, -0.5, 0.5, 0.3, -0.1, 1.75, -13.375, 1e3 + 0.625, -1e6 - 0.125,
               1e15, -1e15 + 0.5):
        tau = complex(re, im)
        assert max(_rel_errors(tau)) <= max(1e-14, 1e-16 * im), tau


def test_eta_at_i():
    assert dedekind_eta(1j) == pytest.approx(ETA_AT_I, abs=1e-14)
    assert dedekind_eta(1j) == pytest.approx(
        math.gamma(0.25) / (2 * PI ** 0.75), abs=1e-14)


def test_eta_shift_identity():
    for tau in (0.3 + 0.8j, -1.7 + 0.2j, 2.5 + 3j):
        lhs = dedekind_eta(tau + 1)
        rhs = cmath.exp(1j * PI / 12) * dedekind_eta(tau)
        assert abs(lhs - rhs) < 1e-12


def test_eta_inversion_identity():
    for tau in (0.3 + 0.8j, 0.1 + 0.35j, 2.5 + 3j):
        lhs = abs(dedekind_eta(-1 / tau))
        rhs = abs(tau) ** 0.5 * abs(dedekind_eta(tau))
        assert abs(lhs - rhs) < 1e-12


# Re tau a multiple of 2^-10, so that tau + 1 and tau + 2 are exact
_TAUS = st.builds(lambda k, im: complex(k / 1024, im), st.integers(-2**30, 2**30),
                  st.floats(0.05, 300))
_NEAR_I = st.builds(complex, st.floats(-2, 2), st.floats(0.2, 4))


@given(tau=_TAUS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_shift_identities_property(tau):
    # eta(tau + 1) = e^(i pi/12) eta(tau), theta_3(tau + 1) = theta_4(tau),
    # theta_2(tau + 2) = i theta_2(tau)
    eta, (th2, _, th4) = dedekind_eta(tau), theta_constants(tau)
    assert abs(dedekind_eta(tau + 1) - cmath.exp(1j * PI / 12) * eta) <= 1e-14 * abs(eta)
    assert abs(theta_constants(tau + 1)[1] - th4) <= 1e-14 * abs(th4)
    assert abs(theta_constants(tau + 2)[0] - 1j * th2) <= 1e-14 * abs(th2)


@given(tau=_NEAR_I)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_eta_inversion_property(tau):
    # eta(-1/tau) = sqrt(-i tau) eta(tau), -1/tau rounded once
    lhs = dedekind_eta(-1 / tau)
    assert abs(lhs - cmath.sqrt(-1j * tau) * dedekind_eta(tau)) <= 1e-13 * abs(lhs)


@given(tau=_TAUS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_jacobi_identity_property(tau):
    # 2 eta^3 = theta_2 theta_3 theta_4, within PERIOD_REL_TOL, which the
    # reduction's rounding bound keeps
    th2, th3, th4 = theta_constants(tau)
    two_eta3 = 2 * dedekind_eta(tau) ** 3
    assert abs(th2 * th3 * th4 - two_eta3) <= 1e-12 * abs(two_eta3)


@pytest.mark.parametrize("series", [dedekind_eta, theta_constants])
def test_lower_half_plane_is_a_polydet_error(series):
    with pytest.raises(PolydetError, match="need Im tau > 0"):
        series(-1j)


def test_theta_series_does_not_truncate_silently():
    # at tau = 1e-5 i the inversion's rounding, epsilon 1e5 in -1/tau,
    # exceeds PERIOD_REL_TOL; the true theta_4 is below 1e-300
    why = "^tau = 1e-05j is too near the real axis: after 1 inversions "
    with pytest.raises(PolydetError, match=why):
        theta_constants(1e-5j)


@pytest.mark.parametrize("tau", [0.08j, 0.05j, 0.01j])
def test_theta_4_towards_the_real_axis(tau):
    # theta_4 = sum (-1)^n q^(n^2) is far below the sizes of its terms
    # here (1.6e-33 at 0.01 i); reduced to -1/tau it sums without
    # cancellation
    assert max(_rel_errors(tau)) <= 1e-14


def test_theta_4_is_returned_where_its_rounding_is_small():
    # theta_4(i/10) = sqrt(10) theta_2(10 i) by the modular transform
    th2, th3, th4 = theta_constants(0.1j)
    assert th4.real == pytest.approx(10 ** 0.5 * theta_constants(10j)[0].real, rel=1e-12)


@pytest.mark.parametrize("tau", [1.2 + 0.5j, 2 + 0.3j, -1.5 + 0.8j, 3.7 + 0.9j, 0.3 + 0.8j])
def test_theta_2_past_the_central_strip(tau):
    # a sum of q^((n + 1/2)^2) with the principal log of q would drop k
    # whole turns of i pi tau past |Re tau| = 1, every term off by i^(-k),
    # and the Jacobi residual would read sqrt 2 or 2
    th2, th3, th4 = theta_constants(tau)
    two_eta3 = 2 * dedekind_eta(tau) ** 3
    assert abs(th2 * th3 * th4 - two_eta3) <= 1e-14 * abs(two_eta3)
    assert abs(theta_constants(tau + 2)[0] - 1j * th2) <= 1e-14 * abs(th2)


def test_theta_2_where_the_nome_underflows():
    # the nome e^(-300 pi) underflows; theta_2 = 2 e^(-75 pi)(1 + q^2 + ...)
    # is a normal float, theta_3 and theta_4 are 1 to the last bit
    th2, th3, th4 = theta_constants(300j)
    assert th2 == pytest.approx(2 * math.exp(-75 * PI), rel=1e-13)
    assert th3 == th4 == 1.0


@pytest.mark.parametrize("series, tau, name", [
    # the reduced tau = 1e4 i: q^(1/24) = e^(-pi 1e4/12) underflows
    (dedekind_eta, 1e4j, "dedekind_eta"),
    # theta_2 = 2 e^(-250 pi) at -1/tau = 1000 i, so theta_4(i/1000)
    (theta_constants, 1e-3j, "theta_constants"),
    (theta_constants, 1e3j, "theta_constants"),
    # subnormal, with digits lost: eta(2800 i) = 4.4e-319 (eta(2700 i) =
    # 1.04e-307 is normal) and theta_2 past 903 i
    (dedekind_eta, 2800j, "dedekind_eta"),
    (theta_constants, 905j, "theta_constants"),
])
def test_underflow_to_zero_is_a_polydet_error(series, tau, name):
    # eta and the theta constants have no zeros in the upper half plane;
    # a subnormal value has lost digits
    with pytest.raises(PolydetError, match=rf"^{name} underflows at tau = {tau}$"):
        series(tau)


def test_eta_product_does_not_truncate_silently():
    # 1e-300 above the golden ratio each inversion, at |t| = 0.38,
    # multiplies the rounding of tau by about 6.9: a reduction that does
    # not carry it ran 208 moves and returned eta = 2e74
    why = (r"^tau = \(0.6180339887498949\+1e-300j\) is too near the real axis: "
           r"after 5 inversions")
    with pytest.raises(PolydetError, match=why):
        dedekind_eta(complex((math.sqrt(5.0) - 1.0) / 2.0, 1e-300))


@pytest.mark.parametrize("series, tau", [
    (dedekind_eta, complex(5e-324, 5e-324)),    # |tau|^2 underflows
    (dedekind_eta, complex(math.nan, 5e-324)),
    (theta_constants, complex(1.7e308, 5e-324)),
    (theta_constants, complex(1.7e308, 1.7e308)),
    (dedekind_eta, 1e-5j),                      # the true eta is below 1e-300
])
def test_edge_taus_are_polydet_errors(series, tau):
    # a typed refusal, not an OverflowError or ValueError from round() of
    # an infinite or nan part, nor a division by |tau|^2 = 0
    with pytest.raises(PolydetError) as info:
        series(tau)
    assert type(info.value) is PolydetError


# ---- identity chain ----

def test_jacobi_identity_everywhere():
    for pts in [LEMNISCATIC] + _random_quartics(4):
        assert jacobi_residual(periods(pts)) < 1e-10


def test_thomae_lemniscatic():
    assert thomae_check(LEMNISCATIC, periods(LEMNISCATIC)) < 1e-8


def test_thomae_random_suite():
    for pts in _random_quartics(5):
        assert thomae_check(pts, periods(pts)) < 1e-7


def test_thomae_scale_covariance():
    pts = [0.3 + 0.1j, -1.2 + 0.4j, 0.8 - 1.0j, -0.1 + 1.3j]
    r1 = thomae_check(pts, periods(pts))
    scaled = [2.3 * z for z in pts]
    r2 = thomae_check(scaled, periods(scaled))
    assert r1 < 1e-8 and r2 < 1e-8


def test_eta_distance_lemniscatic():
    assert eta_distance_identity(LEMNISCATIC, periods(LEMNISCATIC)) < 1e-8


def test_eta_distance_generic():
    pts = [0, 1, 3, -2 + 1j]
    assert eta_distance_identity(pts, periods(pts)) < 1e-7


def test_eta_distance_scale_covariance():
    pts = [0.3 + 0.1j, -1.2 + 0.4j, 0.8 - 1.0j, -0.1 + 1.3j]
    sigma = 1.9
    r1 = eta_distance_identity(pts, periods(pts))
    r2 = eta_distance_identity([sigma * z for z in pts],
                               periods([sigma * z for z in pts]))
    assert r1 < 1e-9 and r2 < 1e-9


# ---- the determinant ----

def test_det_tetrahedron_needs_four_points():
    with pytest.raises(DegenerateQuartic, match="^need exactly 4 points, got 3$"):
        det_tetrahedron([1, -1, 1j], 1.0)


@pytest.mark.parametrize("size, area_x", [(10.0, 1e308), (1e-10, 5e-324)])
def test_det_tetrahedron_past_float_range_refused(size, area_x):
    # det' = Area(X) prod |z_i - z_j|^(1/6)/(2^(2/3) pi) is inf or 0.0 here
    with pytest.raises(PolydetError, match="is not a positive finite float"):
        det_tetrahedron([size * z for z in LEMNISCATIC], area_x)


def test_det_tetrahedron_gap_past_float_range_refused():
    # |z_4 - z_1| is past the float range though both points are finite:
    # refused, not an OverflowError from abs
    with pytest.raises(PolydetError, match="^det' inf is not a positive finite float$"):
        det_tetrahedron([0, 1, 1j, 1.7e308 + 1.7e308j], 1.0)


@pytest.mark.parametrize("area_x", [math.nan, math.inf, 0.0, -1.0])
def test_det_torus_refuses_an_area_that_is_not_positive_finite(area_x):
    # an area that is nan, inf, 0 or negative gives no det', not a nan
    with pytest.raises(PolydetError, match="on the torus is not a positive finite float$"):
        det_torus(periods(LEMNISCATIC), area_x)


def test_det_tetrahedron_squared_relation():
    # Area(E) Im tau |eta|^4 = det'^2 with Area(E) = 2 Area(X)
    data = periods(LEMNISCATIC)
    m = make_metric(1.0, [(z, -0.5) for z in LEMNISCATIC])
    ax = area(m).value
    dt = det_tetrahedron(LEMNISCATIC, ax)
    assert det_torus(data, ax) == pytest.approx(dt * dt, rel=1e-7)


def test_area_triple_consistency():
    # |Im(A conj B)| = Area(E) = 2 Area(X): three routes to one number
    pts = [0.3 + 0.1j, -1.2 + 0.4j, 0.8 - 1.0j, -0.1 + 1.3j]
    data = periods(pts)
    m = make_metric(1.0, [(z, -0.5) for z in pts])
    ax = area(m).value
    lattice_area = abs((data.period_a * data.period_b.conjugate()).imag)
    assert lattice_area == pytest.approx(2 * ax, rel=1e-7)


def test_det_ratio_matches_chs():
    # the ratio of two determinants, a difference of log_det_as values,
    # against that of the elliptic closed form
    pts1 = [2, -2, 2j, -2j]
    m1 = make_metric(1.0, [(z, -0.5) for z in pts1])
    m2 = make_metric(1.0, [(z, -0.5) for z in LEMNISCATIC])
    ratio = (det_tetrahedron(pts1, area(m1).value)
             / det_tetrahedron(LEMNISCATIC, area(m2).value))
    diff = log_det_as(m1).log_det - log_det_as(m2).log_det
    assert diff == pytest.approx(math.log(ratio), abs=1e-12)
