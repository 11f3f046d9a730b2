import cmath
import math

import numpy as np
import pytest

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


def test_branch_point_gap_past_float_range():
    # a gap of inf, and one whose modulus is past the float range with
    # finite parts: a typed error, not an OverflowError or a degenerate
    # quartic by a relative test against an infinite scale
    for pts in ([1e308, -1e308, 1e308j, -1e308j], [1e308, -1e308, 1e308j, -1.7e308j]):
        with pytest.raises(PolydetError, match="not a finite float") as info:
            periods(pts)
        assert type(info.value) is PolydetError


# ---- eta ----

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


@pytest.mark.parametrize("series", [dedekind_eta, theta_constants])
def test_lower_half_plane_is_a_polydet_error(series):
    with pytest.raises(PolydetError, match="need Im tau > 0"):
        series(-1j)


def test_theta_series_does_not_truncate_silently():
    # at tau = 1e-5 i the terms fall like exp(-pi 1e-5 n^2): after 400 terms
    # theta_4 would read -0.0066 for a positive number below 1e-300
    why = "^theta series have not converged in 400 terms at tau = 1e-05j$"
    with pytest.raises(PolydetError, match=why):
        theta_constants(1e-5j)


@pytest.mark.parametrize("series, tau, name", [
    # the reduced tau = 1e5 i: q^(1/24) = e^(-pi 1e5/12) underflows
    (dedekind_eta, 1e-5j, "dedekind_eta"),
    (dedekind_eta, 1e4j, "dedekind_eta"),
    # the nome e^(-300 pi) underflows, though theta_2 = 2 e^(-75 pi) is a
    # normal float
    (theta_constants, 300j, "theta_constants"),
])
def test_underflow_to_zero_is_a_polydet_error(series, tau, name):
    # eta and the theta constants have no zeros in the upper half plane
    with pytest.raises(PolydetError, match=rf"^{name} underflows to 0 at tau = {tau}$"):
        series(tau)


def test_eta_product_does_not_truncate_silently():
    # 1e-300 above the golden ratio, 200 reductions leave Im tau at 2.5e-10,
    # where 400 factors of the product are far from converged
    why = "^eta product has not converged in 400 factors at reduced tau"
    with pytest.raises(PolydetError, match=why):
        dedekind_eta(complex((math.sqrt(5.0) - 1.0) / 2.0, 1e-300))


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
        det_tetrahedron([1, -1, 1j])


@pytest.mark.parametrize("size, area_x", [(10.0, 1e308), (1e-10, 5e-324)])
def test_det_tetrahedron_past_float_range_refused(size, area_x):
    # det' = Area(X) prod |z_i - z_j|^(1/6)/(2^(2/3) pi) is inf or 0.0 here
    with pytest.raises(PolydetError, match="is not a positive finite float"):
        det_tetrahedron([size * z for z in LEMNISCATIC], area_x)


def test_det_tetrahedron_squared_relation():
    # Area(E) Im tau |eta|^4 = det'^2 with Area(E) = 2 Area(X)
    data = periods(LEMNISCATIC)
    m = make_metric(1.0, [(z, -0.5) for z in LEMNISCATIC])
    ax = area(m).value
    dt = det_tetrahedron(LEMNISCATIC)
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
    ratio = det_tetrahedron(pts1) / det_tetrahedron(LEMNISCATIC)
    diff = log_det_as(m1).log_det - log_det_as(m2).log_det
    assert diff == pytest.approx(math.log(ratio), abs=1e-12)
