import cmath
import itertools
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polydet import (
    ConePoint,
    area,
    dump_metric,
    grad_position,
    grad_scale,
    hadamard_coth_coth_over_theta,
    hadamard_coth_over_sinh_sq,
    heat_kernel_cone,
    heat_kernel_images,
    log_det_as,
    make_metric,
    q_of_beta,
    q_of_beta_contour,
    quad,
    regint,
    segment_integral,
    tetrahedron_metric,
)
from polydet.cli import main
from polydet.errors import DuplicateVertex, PolydetError, ToleranceNotReached

PI = math.pi

# Area of the lemniscatic tetrahedron in closed form: the covering torus is
# square, Area(E) = |A|^2 with A the lemniscate period, so
# Area(X) = Area(E)/2 = (Gamma(1/4)^2 / (2 sqrt(2 pi)))^2 = Gamma(1/4)^4/(8 pi).
LEMNISCATIC_AREA = (math.gamma(0.25) ** 2 / (2 * math.sqrt(2 * PI))) ** 2


def triangle_area(C, zs, bs):
    """Schwarz-Christoffel closed form: the metric with three vertices is
    the double of a Euclidean triangle with angles pi (1 + b_k), of area

        C prod_{i<j} |z_i - z_j|^(-2(1 + b_k)) B(1+b_1, 1+b_2)^2
          sin(pi(1+b_1)) sin(pi(1+b_2)) / sin(pi(1+b_3)),

    with k the vertex not in the pair (i, j)."""
    (z1, z2, z3), (b1, b2, b3) = zs, bs
    dist = (abs(z1 - z2) ** (-2 * (1 + b3)) * abs(z1 - z3) ** (-2 * (1 + b2))
            * abs(z2 - z3) ** (-2 * (1 + b1)))
    beta = math.exp(math.lgamma(1 + b1) + math.lgamma(1 + b2) - math.lgamma(-b3))
    return (C * dist * beta * beta * math.sin(PI * (1 + b1)) * math.sin(PI * (1 + b2))
            / math.sin(PI * (1 + b3)))


def _random_triangles(n, lo=-0.995, seed=11):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        b1, b2 = rng.uniform(lo, -0.005, 2)
        b3 = -2.0 - b1 - b2
        zs = [complex(*rng.uniform(-2, 2, 2)) for _ in range(3)]
        if lo < b3 < -0.005 and min(abs(zs[0] - zs[1]), abs(zs[0] - zs[2]),
                                    abs(zs[1] - zs[2])) > 0.05:
            out.append((rng.uniform(0.5, 2.0), zs, [b1, b2, b3]))
    return out


def test_tetrahedron_area_closed_form(tetra):
    res = area(tetra)
    assert res.value == pytest.approx(LEMNISCATIC_AREA, rel=1e-13)
    assert res.error_estimate >= 0
    assert res.cell_count > 0


def test_triangle_closed_form():
    for C, zs, bs in _random_triangles(40):
        res = area(make_metric(C, list(zip(zs, bs))))
        assert res.value == pytest.approx(triangle_area(C, zs, bs), rel=1e-12)


def test_triangle_exponent_near_minus_one():
    # in every vertex order: the order changes the tour and the rounding
    zs = [0.3 + 0.1j, -1.1 + 0.5j, 0.6 - 0.9j]
    for b1 in (-0.99, -0.999, -0.9999):
        bs = [b1, -0.5, -1.5 - b1]
        for order in itertools.permutations(range(3)):
            z, b = [zs[i] for i in order], [bs[i] for i in order]
            res = area(make_metric(1.0, list(zip(z, b))))
            assert res.value == pytest.approx(triangle_area(1.0, z, b), rel=1e-12)


def test_angle_above_two_pi_from_double_cover():
    # pulling a triangle metric with vertices 0, w_1, w_2 back by the
    # double cover w = ((z - p)/(z - q))^2 doubles its area; z = q, over the
    # regular point w = infinity, becomes a vertex of angle 4 pi (b = 1),
    # z = p one of exponent 2 b_0 + 1, and w_1, w_2 have two preimages each
    # with C' = 4 C |p - q|^2 prod_k |1 - w_k|^(2 b_k)
    p, q = 0.2 + 0.1j, -0.7 + 0.4j
    C = 1.3
    ws, bs = [0.0, 0.5 + 1.2j, -1.4 - 0.3j], [-0.55, -0.7, -0.75]
    verts = [(p, 2 * bs[0] + 1), (q, 1.0)]
    C_pull = 4 * C * abs(p - q) ** 2
    for w, b in zip(ws[1:], bs[1:]):
        s = cmath.sqrt(w)
        verts += [((p - s * q) / (1 - s), b), ((p + s * q) / (1 + s), b)]
        C_pull *= abs(1 - w) ** (2 * b)
    res = area(make_metric(C_pull, verts))
    assert res.value == pytest.approx(2 * triangle_area(C, ws, bs), rel=1e-12)


def test_two_strategies_agree(tetra):
    # another first vertex starts the tour elsewhere, with other branches
    a = area(tetra)
    verts = [(v.position, v.exponent) for v in tetra.vertices]
    b = area(make_metric(tetra.scale, verts[2:] + verts[:2]))
    assert abs(a.value - b.value) / a.value < 1e-13


def test_area_linear_in_scale(tetra):
    m2 = tetra.with_scale(2.0)
    a1 = area(tetra)
    a2 = area(m2)
    assert a2.value / a1.value == pytest.approx(2.0, abs=1e-12)


def test_degenerate_triangle_integrable():
    m = make_metric(1.0, [(0, -2 / 3), (1, -2 / 3), (-1, -2 / 3)])
    res = area(m)
    assert res.value > 0
    assert math.isfinite(res.value)


def test_scaling_covariance_change_of_variables(tetra):
    # substituting z = sigma w multiplies the integrand by
    # sigma^(2 + sum 2 b_k) = sigma^-2 (computed here as the oracle factor)
    sigma = 1.7
    bsum = math.fsum(tetra.exponents())
    oracle = sigma ** (2.0 + 2.0 * bsum)
    for scale in (1.0, 3.0):
        m = tetra.with_scale(scale)
        ms = make_metric(scale, [(sigma * v.position, v.exponent)
                                 for v in m.vertices])
        ratio = area(ms).value / area(m).value
        assert ratio == pytest.approx(oracle, rel=1e-10)


def test_near_pair_twin_far_from_origin():
    # a 1e-3 vertex pair mapped by z -> a z + c, C -> C |a|^2 to a small
    # scale far from the origin; the closed form takes the mapped (rounded)
    # positions, which move the pair's gap by about 1e-10 relative
    z0 = 0.3 + 0.2j
    verts = [(z0, -0.6), (z0 + 1e-3 * cmath.exp(0.7j), -0.8), (-0.5 + 0.6j, -0.6)]
    a, c = 0.02 * cmath.exp(0.3j), 100.0 * cmath.exp(2j)
    twin = [(a * z + c, b) for z, b in verts]
    exact = triangle_area(abs(a) ** 2, [z for z, _ in twin], [b for _, b in twin])
    res = area(make_metric(abs(a) ** 2, twin))
    assert res.value == pytest.approx(exact, rel=1e-13)


def test_error_estimate_honesty():
    # the estimate covers the true error against the closed form
    for C, zs, bs in _random_triangles(40, seed=12):
        res = area(make_metric(C, list(zip(zs, bs))))
        assert abs(res.value - triangle_area(C, zs, bs)) <= res.error_estimate


def test_error_estimate_covers_exponent_near_minus_one():
    # the triangle of test_triangle_exponent_near_minus_one in every vertex
    # order: the order changes the tour and the rounding of the area
    zs = [0.3 + 0.1j, -1.1 + 0.5j, 0.6 - 0.9j]
    for b1 in (-0.99, -0.999, -0.9999):
        bs = [b1, -0.5, -1.5 - b1]
        for order in itertools.permutations(range(3)):
            z, b = [zs[i] for i in order], [bs[i] for i in order]
            res = area(make_metric(1.0, list(zip(z, b))))
            assert abs(res.value - triangle_area(1.0, z, b)) <= res.error_estimate


def test_error_estimate_covers_truncation(monkeypatch):
    # with 6 nodes per panel the truncation error (1e-8 to 5e-6 relative)
    # is far above the rounding floor: the coefficient tail must cover it
    # (the loose REL_TOL keeps the contract from raising on them)
    monkeypatch.setattr(quad, "NODES", 6)
    monkeypatch.setattr(quad, "REL_TOL", 1.0)
    for C, zs, bs in _random_triangles(40, seed=13):
        res = area(make_metric(C, list(zip(zs, bs))))
        assert abs(res.value - triangle_area(C, zs, bs)) <= res.error_estimate


def _mp_triangle_area(C, zs, bs):
    """``triangle_area`` at 30 digits, of the floats as given."""
    with mpmath.workdps(30):
        (z1, z2, z3), (b1, b2, b3) = map(mpmath.mpc, zs), map(mpmath.mpf, bs)
        dist = (abs(z1 - z2) ** (-2 * (1 + b3)) * abs(z1 - z3) ** (-2 * (1 + b2))
                * abs(z2 - z3) ** (-2 * (1 + b1)))
        return float(C * dist * mpmath.beta(1 + b1, 1 + b2) ** 2 * mpmath.sinpi(1 + b1)
                     * mpmath.sinpi(1 + b2) / mpmath.sinpi(1 + b3))


def test_area_error_statistics(tetra):
    # the area's accuracy as statistics over 300 triangles against a
    # 30-digit closed form: the median and largest relative error, and
    # every error inside its own estimate, as in the exponents near -1 and
    # the tetrahedron (at 16 nodes a panel the median is 1.8e-15 and the
    # largest 9.5e-13)
    errors = []
    for C, zs, bs in _random_triangles(300):
        res = area(make_metric(C, list(zip(zs, bs))))
        exact = _mp_triangle_area(C, zs, bs)
        assert abs(res.value - exact) <= res.error_estimate
        errors.append(abs(res.value - exact) / exact)
    assert np.median(errors) <= 1e-15
    assert max(errors) <= 5e-14
    zs = [0.3 + 0.1j, -1.1 + 0.5j, 0.6 - 0.9j]
    for b1 in (-0.99, -0.999, -0.9999):
        bs = [b1, -0.5, -1.5 - b1]
        for order in itertools.permutations(range(3)):
            z, b = [zs[i] for i in order], [bs[i] for i in order]
            res = area(make_metric(1.0, list(zip(z, b))))
            assert abs(res.value - _mp_triangle_area(1.0, z, b)) <= res.error_estimate
    with mpmath.workdps(30):
        exact = float(mpmath.gamma(0.25) ** 4 / (8 * mpmath.pi))
    res = area(tetra)
    assert abs(res.value - exact) <= res.error_estimate


@st.composite
def generic_metrics(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    weights = [draw(st.floats(min_value=0.55, max_value=1.0)) for _ in range(n)]
    bs = [-2.0 * w / math.fsum(weights) for w in weights[:-1]]
    bs.append(-2.0 - math.fsum(bs))
    # one vertex per sector of angle 2 pi / n, off the origin
    pts = [draw(st.floats(0.3, 2.0))
           * cmath.exp(2j * PI * (k + draw(st.floats(0.0, 0.5))) / n)
           for k in range(n)]
    return draw(st.floats(0.5, 2.0)), pts, bs


@given(data=generic_metrics(), shift=st.integers(1, 7))
@settings(max_examples=25, deadline=None)
def test_area_invariant_under_inversion_and_reordering(data, shift):
    C, zs, bs = data
    original = log_det_as(make_metric(C, list(zip(zs, bs))))
    # w = 1/z pulls m back to C prod |z_k|^(2 b_k) prod |w - 1/z_k|^(2 b_k),
    # the same surface, so its area and log det' are the same
    C_inv = C * math.prod(abs(z) ** (2 * b) for z, b in zip(zs, bs))
    inverted = log_det_as(make_metric(C_inv, [(1 / z, b) for z, b in zip(zs, bs)]))
    k = shift % len(zs)
    reordered = area(make_metric(C, list(zip(zs[k:] + zs[:k], bs[k:] + bs[:k])))).value
    assert inverted.area == pytest.approx(original.area, rel=1e-12)
    assert reordered == pytest.approx(original.area, rel=1e-12)
    assert inverted.log_det == pytest.approx(original.log_det, abs=1e-12)


def _complex_in_square(draw, half):
    return complex(draw(st.floats(-half, half)), draw(st.floats(-half, half)))


def _moebius_pullback(draw, C, zs, bs):
    """z = (a w + b)/(c w + d) with ad - bc = 1 pulls m back to the same
    surface with vertices w_k = (d z_k - b)/(a - c z_k) and scale
    C' = C prod |c w_k + d|^(-2 b_k); |a - c z_k| >= 0.2 bounds the w_k.
    Returns c, d, the w_k, C' and 10 eps max|w|/min gap: the w_k are
    rounded by about eps max|w|, which moves a log|w_k - w_l| by up to
    that over the smallest gap and a pair term 1/(w_k - w_l) by as much
    of its size."""
    a, b, c = (_complex_in_square(draw, 2.0) for _ in range(3))
    assume(abs(a) >= 0.2 and min(abs(a - c * z) for z in zs) >= 0.2)
    d = (1.0 + b * c) / a
    ws = [(d * z - b) / (a - c * z) for z in zs]
    C_map = C * math.prod(abs(c * w + d) ** (-2.0 * bk) for w, bk in zip(ws, bs))
    gap = min(abs(w - v) for k, w in enumerate(ws) for v in ws[k + 1:])
    return c, d, ws, C_map, 10.0 * np.finfo(float).eps * max(map(abs, ws)) / gap


@given(metric=generic_metrics(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_log_det_invariant_under_moebius_maps(metric, data):
    C, zs, bs = metric
    _, _, ws, C_map, rounding = _moebius_pullback(data.draw, C, zs, bs)
    original = log_det_as(make_metric(C, list(zip(zs, bs)))).log_det
    mapped = log_det_as(make_metric(C_map, list(zip(ws, bs)))).log_det
    # W's coefficients are below 1 here, so the rounding of the w_k moves it
    # by up to `rounding`; 1e-12 covers the areas and the assembly
    assert abs(mapped - original) <= 1e-12 + rounding


@given(metric=generic_metrics(), data=st.data())
@settings(max_examples=25, deadline=None)
def test_grad_position_covariant_under_moebius_maps(metric, data):
    C, zs, bs = metric
    # log(det'/Area) is the same function of the w_k and C'(w), and
    # dz_i/dw_i = (c w_i + d)^-2 and dC'/dw_i = -b_i c C'/(c w_i + d), so
    #   grad_position(m', i) = grad_position(m, i)/(c w_i + d)^2
    #                          + b_i c C' grad_scale(m')/(c w_i + d)
    c, d, ws, C_map, rounding = _moebius_pullback(data.draw, C, zs, bs)
    m = make_metric(C, list(zip(zs, bs)))
    mapped = make_metric(C_map, list(zip(ws, bs)))
    scale_term = c * C_map * grad_scale(mapped)
    betas = [2.0 * PI * (1.0 + bk) for bk in bs]
    for i, (w, bi) in enumerate(zip(ws, bs), start=1):
        lhs = grad_position(mapped, i)
        rhs = grad_position(m, i) / (c * w + d) ** 2 + bi * scale_term / (c * w + d)
        # the sizes of the terms of both sides, which may cancel; 1e-12 of
        # them covers the sums' own rounding
        size = abs(bi * scale_term / (c * w + d)) + (PI / 6.0) * sum(
            abs(bi * bk * (1 / betas[i - 1] + 1 / beta) / (w - v))
            for v, bk, beta in zip(ws, bs, betas) if v != w)
        assert abs(lhs - rhs) <= (1e-12 + rounding) * size, i


def _near_pair_metric(gap, turn=0.0, last=False, direction=1.0, third=1.0):
    """C = 1 with vertices 0 (b = 0.5) and gap*exp(i turn) (b = -0.6), a
    third at ``third`` (b = -0.3) and two at exp(2.1i) and exp(-2.3i)
    (b = -0.8 each), all turned by ``direction``; the pair first or
    last.  As the gap closes its area tends to that of the pair merged
    into one vertex at 0 of b = -0.1."""
    pair = [(0.0, 0.5), (gap * cmath.exp(1j * turn) * direction, -0.6)]
    rest = [(third * direction, -0.3), (cmath.exp(2.1j) * direction, -0.8),
            (cmath.exp(-2.3j) * direction, -0.8)]
    return make_metric(1.0, rest + pair if last else pair + rest)


@pytest.mark.parametrize("last", [False, True])
def test_no_tree_edge_runs_through_a_near_vertex(last):
    # below a gap of about 1e-16 the distances from the third vertex to
    # both members of the pair round to 1, and the tree must still join
    # the third vertex to the nearer member: an edge from the other runs
    # exactly through it, and its chord takes one side of that vertex's
    # branch cut (an area 3.3% or 4.0% high, with an estimate of 1e-14)
    turned = area(_near_pair_metric(1e-20, turn=1.0)).value
    assert area(_near_pair_metric(1e-20, last=last)).value == pytest.approx(turned, rel=1e-12)


@given(exponent=st.floats(10.0, 30.0), turn=st.floats(0.0, 2.0 * PI),
       third=st.floats(0.5, 2.0), last=st.booleans())
@settings(max_examples=25, deadline=None)
def test_collinear_near_pair_matches_merged_vertex(exponent, turn, third, last):
    # the pair and the third vertex on one ray, up to the rounding of
    # their positions: the area is that of the merged vertex, or refused.
    # Splitting the vertex moves the area by about gap |d Area/dz|, and
    # |d log Area/dz| stays below 10 here
    direction, gap = cmath.exp(1j * turn), 10.0 ** -exponent
    try:
        res = area(_near_pair_metric(gap, last=last, direction=direction, third=third))
    except PolydetError:
        return
    merged = area(make_metric(1.0, [
        (0.0, -0.1), (third * direction, -0.3), (cmath.exp(2.1j) * direction, -0.8),
        (cmath.exp(-2.3j) * direction, -0.8)]))
    assert abs(res.value - merged.value) <= (res.error_estimate + merged.error_estimate
                                             + 10.0 * gap * merged.value)


def _weighted_exponential(b, lam):
    """int_-1^1 (1 + x)^b e^(lam x) dx
    = e^-lam sum_n lam^n 2^(n+b+1)/(n! (n+b+1)), to 40 digits."""
    with mpmath.workdps(40):
        b, lam = mpmath.mpf(b), mpmath.mpf(lam)
        total = mpmath.nsum(lambda n: lam ** n * 2 ** (n + b + 1)
                            / (mpmath.factorial(n) * (n + b + 1)), [0, mpmath.inf])
        return float(mpmath.exp(-lam) * total)


@pytest.mark.parametrize("b, lam", [
    *itertools.product((-0.999999, -0.9999, -0.99, -0.5, 0.0, 0.7), (1.0, 3.0, 10.0, -20.0)),
    *itertools.product((2.0, 5.0), (1.0, 3.0, 10.0))])
def test_rule_weighted_exponential(b, lam):
    """The moment weights alone on one panel of half length 1, with the
    vertex term added after the other weights (``_panel_sums``), at 64
    points: one panel of quad.NODES = 33 does not resolve e^(-20 x) (at
    b = 0.7 it errs by 1.4e-13 relative), and test_area_error_statistics
    gates the area's own accuracy.  e^(-20 x) is left out from b = 2 up,
    where product integration is ill-conditioned: its Chebyshev
    coefficients 2 I_k(20) reach 8.5e7, 700 times the integral at b = 2
    and 9e4 times at b = 5, and their rounding meets the moments mu_k, so
    the rule errs by 2e-12 and 2e-9 relative there."""
    x, _ = quad._chebyshev(64)
    rows, m0 = quad._rule(64, b)
    g = np.exp(lam * x)
    value = quad._panel_sums(rows[:1], m0, np.ones(1), g[None])[0, 0]
    assert value == pytest.approx(_weighted_exponential(b, lam), rel=1e-13)


def test_package_runs_no_eigensolver(monkeypatch):
    # every panel rule of polydet comes from moments: no LAPACK eigensolver
    # on the area, the determinant, the finite parts or the contour, also
    # with every cached rule and finite part cleared
    from test_regint import _mp_finite_part

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for module in (quad, regint):
        for cached in vars(module).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
    for C, zs, bs in _random_triangles(3, seed=14):
        res = area(make_metric(C, list(zip(zs, bs))))
        assert res.value == pytest.approx(triangle_area(C, zs, bs), rel=1e-12)
    b1, b2 = -0.3137, -0.8521
    chord = segment_integral([0.0, 1.0], [b1, b2], 0, 1)
    exact = cmath.exp(1j * PI * b2) * math.exp(
        math.lgamma(1 + b1) + math.lgamma(1 + b2) - math.lgamma(2 + b1 + b2))
    assert abs(chord.value - exact) < 1e-14

    # det' of the lemniscatic tetrahedron in closed form (elliptic module)
    pts = [1, -1, 1j, -1j]
    det = LEMNISCATIC_AREA * math.prod(
        abs(p - q) ** (1 / 6) for p, q in itertools.combinations(pts, 2)) / (2 ** (2 / 3) * PI)
    assert log_det_as(tetrahedron_metric()).log_det == pytest.approx(math.log(det), abs=1e-14)
    for beta in (PI, 3 * PI):
        for fp in (hadamard_coth_over_sinh_sq, hadamard_coth_coth_over_theta):
            ref = _mp_finite_part(fp.__name__.removeprefix("hadamard_"), beta)
            assert fp(beta).finite_part == pytest.approx(ref, rel=1e-13, abs=1e-13)
        assert q_of_beta_contour(beta) == pytest.approx(q_of_beta(beta), rel=1e-14)
    p, q = ConePoint(0.9, 0.4), ConePoint(1.3, 1.7)
    assert heat_kernel_cone(2 * PI / 3, 0.5, p, q) == pytest.approx(
        heat_kernel_images(3, 0.5, p, q), rel=1e-12)


def test_segment_integral_endpoint_singularities():
    # int_0^1 z^b1 (z - 1)^b2 dz with principal branches at z = 0:
    # arg(z - 1) = pi along the segment, so the value is e^(i pi b2) B(1+b1, 1+b2)
    b1, b2 = -0.3, -0.85
    # a third point at exponent 0 contributes no factor
    chord = segment_integral([0.0, 1.0, 5.0 + 5.0j], [b1, b2, 0.0], 0, 1)
    exact = cmath.exp(1j * PI * b2) * math.exp(
        math.lgamma(1 + b1) + math.lgamma(1 + b2) - math.lgamma(2 + b1 + b2))
    assert abs(chord.value - exact) < 1e-14
    assert chord.error_estimate < 1e-14 + quad.ROUNDING * abs(chord.value)


def _chord(zs, bs, u, v, theta):
    """The chord from z_u to z_v alone, along the row of branches ``theta``
    at z_u (``segment_integral`` takes principal ones)."""
    values, errors, panels = quad._chords(zs, bs, [u], [v], [theta],
                                          [quad._carried(zs, u, v, theta)])
    return quad.QuadResult(complex(values[0]), float(errors[0]), panels[0])


def test_chords_same_bits_alone_or_together(monkeypatch):
    # the area evaluates the first runs of all edges of the tour together,
    # in groups of BATCH values; every chord keeps the bits it has alone,
    # value and estimate
    verts = [(0.3 + 0.2j, -0.6), (0.3 + 0.2j + 1e-3 * cmath.exp(0.7j), -0.8),
             (-0.5 + 0.6j, -0.3), (1.1 - 0.4j, 0.2), (-0.9 - 0.8j, -0.5)]
    zs = [z for z, _ in verts]
    bs = [b for _, b in verts]
    steps = quad._tour(zs, bs, quad._spanning_tree(zs))[:4]     # the first runs
    for batch in (1, 10**9):
        monkeypatch.setattr(quad, "BATCH", batch)
        values, errors, panels = quad._chords(zs, bs, *steps)
        for i, (u, v, theta) in enumerate(zip(*steps[:3])):
            chord = _chord(zs, bs, u, v, theta)
            assert chord.value == values[i]
            assert chord.error_estimate == errors[i]
            assert chord.cell_count == panels[i]


def _seeded_metrics(seed):
    """One metric of each size M = 3 ... 10: exponents above -1 of sum -2,
    vertices in [-1.5, 1.5]^2 at least 0.2 apart."""
    rng = np.random.default_rng(seed)
    for m in range(3, 11):
        bs = [-1.0]
        while min(bs) <= -1.0:      # a weight above the others' sum gives b < -1
            weights = rng.uniform(0.3, 1.0, m)
            bs = [-2.0 * w / weights.sum() for w in weights[:-1]]
            bs.append(-2.0 - math.fsum(bs))
        zs = []
        while len(zs) < m:
            z = complex(*rng.uniform(-1.5, 1.5, 2))
            if all(abs(z - w) > 0.2 for w in zs):
                zs.append(z)
        yield zs, bs


def _near_minus_one_triangles():
    zs = [0.3 + 0.1j, -1.1 + 0.5j, 0.6 - 0.9j]
    for b1 in (-0.99, -0.999, -0.9999):
        bs = [b1, -0.5, -1.5 - b1]
        for order in itertools.permutations(range(3)):
            yield [zs[i] for i in order], [bs[i] for i in order]


@pytest.mark.parametrize("zs, bs", [
    *(metric for seed in (1, 2, 3) for metric in _seeded_metrics(seed)),
    *_near_minus_one_triangles()])
def test_derived_chords_match_their_own_branches(zs, bs):
    # the second run of an edge is not integrated: its chord is the first
    # run's times the holonomy factor of the subtree beyond it, and must be
    # what the second run gives alone along its own branches
    chords, errors, _ = quad._tour_chords(zs, bs)
    adj = quad._spanning_tree(zs)
    u, v, _, at_v, edge, _ = quad._tour(zs, bs, adj)
    second = [t for t, e in enumerate(edge) if e in edge[:t]]
    assert len(second) == len(zs) - 1
    for t in second:
        # run back from z_v after the loop around T_v, which turned the
        # branch at every vertex of T_v by -2 pi
        e = edge[t]
        beyond = _subtree(adj, u[e], v[e])
        theta = [a - 2 * PI if k in beyond else a for k, a in enumerate(at_v[e])]
        own = _chord(zs, bs, v[e], u[e], theta)
        assert abs(chords[t] - own.value) <= 1e-14 * abs(own.value)
        assert errors[t] == errors[edge.index(e)]


def _subtree(adj, u, v):
    """The vertices of the tree ``adj`` on v's side of the edge from u to v."""
    side, todo = {v}, [v]
    while todo:
        for w in adj[todo.pop()]:
            if w != u and w not in side:
                side.add(w)
                todo.append(w)
    return side


@pytest.mark.parametrize("points, adjacency", [
    # 1 and 3 tie from 0, then 2 and 3; 3 keeps 0, as 2 is not nearer
    ([0, 1, 1 + 1j, 1j], [[1, 3], [0, 2], [1], [0]]),
    # 0 and 2 tie from 1
    ([1, 0, 2, 3], [[1, 2], [0], [0, 3], [2]]),
    *(([s, -s, s * 1j, -s * 1j], [[2, 3], [2], [0, 1], [0]])
      for s in (1e300, 1e-155, 1e-170, 1e-190, 1e-205, 1e-300)),
])
def test_spanning_tree_breaks_ties_by_lowest_index(points, adjacency):
    # Prim takes the nearest outside point, the lowest index among equals,
    # and moves a point's nearest tree point only to a strictly nearer one
    assert quad._spanning_tree([complex(z) for z in points]) == adjacency


@pytest.mark.parametrize("size", [1e300, 1e-155, 1e-170, 1e-190, 1e-205, 1e-300])
def test_area_outside_float_range(size):
    # the tetrahedron scaled to +-size has area about 6.9/size^2, which
    # underflows at 1e300 and overflows below 1e-154; from 1e-155 to 1e-300
    # the chords are finite and the shoelace products overflow
    verts = [(size, -0.5), (-size, -0.5), (size * 1j, -0.5), (-size * 1j, -0.5)]
    with pytest.raises(PolydetError, match="not a positive finite float") as exc:
        area(make_metric(1.0, verts))
    assert not isinstance(exc.value, ToleranceNotReached)
    assert "the area is outside the float range" in str(exc.value)


def test_nan_area_not_named_outside_float_range():
    # at 1e-315 the positions are subnormal and a chord is nan: the area
    # is refused without a claim about its range
    size = 1e-315
    verts = [(size, -0.5), (-size, -0.5), (size * 1j, -0.5), (-size * 1j, -0.5)]
    with pytest.raises(PolydetError, match="area nan is not a positive finite float") as exc:
        area(make_metric(1.0, verts))
    assert "outside the float range" not in str(exc.value)


def _cluster(gap):
    # a vertex pair gap apart, a third vertex 1e-150 away, and four 1e10
    # away; the third comes first, so the tree joins the far ones to it
    far = [1e10 * cmath.exp(1j * t) for t in (0.0, 2.1, -2.3, 1.0)]
    return ([(1e-150 * cmath.exp(1.9j), 0.05), (0.0, 0.1), (gap * cmath.exp(0.4j), 0.1)]
            + list(zip(far, (0.3, -0.85, -0.85, -0.85))))


@pytest.mark.parametrize("gap", [1e-299, 1e-300])
def test_close_pair_in_wide_spread(gap):
    # on the pair's edge the far vertices are 1e309 edge lengths away, past
    # the float range, and one of them has a positive exponent; the pair's
    # own region adds about gap^2.4, so the area is that at gap 1e-200,
    # where no quotient leaves the range.  2.237027704174493e-19 is what
    # the area gives from log |z - z_k| taken directly.
    result = area(make_metric(1.0, _cluster(gap)))
    assert result.value == area(make_metric(1.0, _cluster(1e-200))).value
    assert result.value == pytest.approx(2.237027704174493e-19, rel=1e-14)


def _far_spread_pair(gap, last):
    # the near pair of _near_pair_metric with the other three vertices 1e10
    # away: the chord from a far vertex to the pair puts the other member
    # of the pair 1e10/gap edge lengths nearer than its end
    pair = [(0.0, 0.5), (gap, -0.6)]
    rest = [(1e10, -0.3), (1e10 * cmath.exp(2.1j), -0.8), (1e10 * cmath.exp(-2.3j), -0.8)]
    return make_metric(1.0, rest + pair if last else pair + rest)


@pytest.mark.parametrize("last", [False, True])
@pytest.mark.parametrize("gap", [1e-299, 1e-300, 1e-310])
def test_close_pair_among_far_vertices_refused_by_name(gap, last, tmp_path, capsys):
    # 1/rho_k of that chord leaves the float range, where the nodes would
    # give nan (0 inf at s = 0): the area and the CLI name the pair
    names = "vertices 4 and 5" if last else "vertices 1 and 2"
    why = f"{names} are {gap:.3g} apart, closer than the float range allows"
    with pytest.raises(PolydetError, match=why) as exc:
        area(_far_spread_pair(gap, last))
    assert type(exc.value) is PolydetError
    path = tmp_path / "m.json"
    dump_metric(_far_spread_pair(gap, last), str(path))
    assert main(["det", "--metric", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PolydetError" and err["message"].startswith(why)


# a vertex 1e-150 away from a pair 1e-200 apart and three vertices 1e10 away
_CLUSTER = [(1e-150 * cmath.exp(1.9j), -0.2), (0.0, 0.5), (1e-200 * cmath.exp(0.4j), -0.6)]
_CLUSTER_FAR = [(1e10 * cmath.exp(1j * t), -17 / 30) for t in (0.0, 2.1, -2.3)]


def _merged_cases():
    # (cluster, far vertices, the cluster's exponent sum): pairs g apart
    # with b = 0.5 and -0.6 among three vertices R away, and the cluster
    for g in (1e-30, 1e-100):
        for R in (1.0, 1e10):
            far = [(R, -0.3), (1j * R, -0.8), (-R, -0.8)]
            yield pytest.param([(0.0, 0.5), (g, -0.6)], far, -0.1, id=f"g{g:g}-R{R:g}")
    yield pytest.param(_CLUSTER, _CLUSTER_FAR, -0.3, id="cluster")


@pytest.mark.parametrize("last", [False, True])
@pytest.mark.parametrize("cluster, far, b", list(_merged_cases()))
def test_close_cluster_among_far_vertices_matches_its_merged_vertex(cluster, far, b, last):
    # the cluster's own region and its difference from one vertex at 0 with
    # its exponent sum are far below rounding, so the two areas agree within
    # their estimates; a panel is halved down to the float spacing, so the
    # members are resolved in either order, on chords from far vertices too
    merged = area(make_metric(1.0, [(0.0, b)] + far))
    result = area(make_metric(1.0, far + cluster if last else cluster + far))
    assert abs(result.value - merged.value) <= result.error_estimate + merged.error_estimate


def test_area_contract_is_relative(monkeypatch):
    # with 8 nodes a panel the cluster's area, about 9e-20, has an estimate
    # of about 2e-5 of it: 2e-24, which no absolute tolerance may excuse
    monkeypatch.setattr(quad, "NODES", 8)
    with pytest.raises(ToleranceNotReached) as exc:
        area(make_metric(1.0, _CLUSTER + _CLUSTER_FAR))
    partial = exc.value.partial
    assert 0.0 < quad.REL_TOL * partial.value < partial.error_estimate < 1e-12


@pytest.mark.parametrize("size", [1e-300, 1e-155, 1e155, 1e300])
def test_chord_scale_free(size):
    # a chord of the tetrahedron at +-size is the unit one over size: the
    # scale enters as one power of |d|, so no factor leaves the float range
    zs = [1, -1, 1j, -1j]
    unit = segment_integral(zs, [-0.5] * 4, 0, 2)
    chord = segment_integral([size * z for z in zs], [-0.5] * 4, 0, 2)
    assert abs(chord.value * size - unit.value) <= 4e-16 * abs(unit.value)
    assert chord.error_estimate * size == pytest.approx(unit.error_estimate, rel=1e-14)


@pytest.mark.parametrize("size", [2e-154, 2.5e-154, 3e-154])
def test_area_near_top_of_float_range(size):
    # an area near 1e308, whose rounding sum sum |corner| |side| is past it
    verts = [(size, -0.5), (-size, -0.5), (size * 1j, -0.5), (-size * 1j, -0.5)]
    result = area(make_metric(1.0, verts))
    unit = area(make_metric(1.0, [(z / size, b) for z, b in verts]))
    assert abs(result.value - unit.value / size**2) <= (
        result.error_estimate + unit.error_estimate / size**2)


def test_determinism(tetra):
    a = area(tetra)
    b = area(tetra)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.cell_count == b.cell_count


def test_tolerance_not_reached_carries_partial(tetra, monkeypatch):
    # REL_TOL below the rounding floor of the estimate cannot be met
    monkeypatch.setattr(quad, "REL_TOL", 1e-17)
    with pytest.raises(ToleranceNotReached) as exc:
        area(tetra)
    partial = exc.value.partial
    assert partial is not None
    assert partial.value == pytest.approx(LEMNISCATIC_AREA, rel=1e-13)


def test_area_estimate_respects_contract(tetra):
    res = area(tetra)
    assert res.error_estimate <= quad.REL_TOL * res.value


def test_segment_through_a_vertex_is_not_finite():
    # the segment from vertex 0 to vertex 2 runs through vertex 1: a log of
    # 0 at a node makes the chord nan, which is refused by type, with no
    # numpy warning (an error here)
    with pytest.raises(PolydetError, match=(
            r"^the chord from point 0 to point 2, \(nan\+nanj\) with error estimate nan, "
            "is not a finite float$")) as info:
        segment_integral([0, 1, 2, 3], [-0.5] * 4, 0, 2)
    assert type(info.value) is PolydetError


@pytest.mark.parametrize("zs, pair", [([0, 0, 1], "0 and 1"), ([0, 1, 0], "0 and 2"),
                                      ([0, 1, 1], "1 and 2")])
def test_segment_integral_refuses_a_point_on_an_end(zs, pair):
    # a point on z_u or z_v, the other end included, is a duplicate named
    # by its pair, not an IndexError, ZeroDivisionError or bare PolydetError
    with pytest.raises(DuplicateVertex, match=f"^points {pair} \\(0-based\\) share position"):
        segment_integral(zs, [-0.5, -0.5, -1.0], 0, 1)


@pytest.mark.parametrize("zs, pair", [([0, 1, 1e-320, 5], "0 and 2"),
                                      ([0, 1, 1 - 1e-320j, 5], "1 and 2")])
def test_segment_integral_names_a_too_near_point_0_based(zs, pair):
    # the float-range refusal names points as the function's indices do
    # (``area`` names vertices 1-based)
    with pytest.raises(PolydetError, match=(
            f"^points {pair} \\(0-based\\) are 1e-320 apart, closer than the float range "
            "allows beside the segment from point 0 to point 1, 1 long$")):
        segment_integral(zs, [-0.5] * 4, 0, 1)


@pytest.mark.parametrize("bs, u, v, why", [
    ([-0.5] * 3, 0, 0, "^need two distinct points of 0..2, got 0 and 0$"),
    ([-0.5] * 3, 0.9, 1.7, "^point indices must be integers, got 0.9 and 1.7$"),
    ([-0.5] * 3, 0, 3, "^need two distinct points of 0..2, got 0 and 3$"),
    ([-0.5] * 3, -1, 2, "^need two distinct points of 0..2, got -1 and 2$"),
    ([-0.5] * 2, 0, 2, "^need one exponent per point: 3 points, 2 exponents$"),
    ([-1.0, -0.5, -0.5], 0, 1, "^the integral diverges at point 0, whose exponent -1.0 "),
    ([-0.5, -1.0, -0.5], 0, 1, "^the integral diverges at point 1, whose exponent -1.0 "),
    ([-1.5, -0.5, 0.0], 0, 1, "^the integral diverges at point 0, whose exponent -1.5 "),
    ([math.inf, -0.5, -0.5], 0, 1, "^need exponents whose sizes have a finite sum"),
    ([-0.5, -0.5, math.nan], 0, 1, "^need exponents whose sizes have a finite sum"),
    ([-0.5, 1.7e308, 1.7e308], 0, 1, "^need exponents whose sizes have a finite sum"),
    ([1e300, -0.5, -0.5], 0, 1, r"^the weight 2\^\(b \+ 1\) of point 0's exponent 1e\+300 "),
    ([-0.5, 1023.0, -0.5], 0, 1, r"^the weight 2\^\(b \+ 1\) of point 1's exponent 1023.0 "),
    ([1022.9, -0.5, -0.5], 0, 1, r"^the weight 2\^\(b \+ 1\) of point 0's exponent 1022.9 "),
    ([1020.0, -0.5, -0.5], 0, 1, r"^the weight 2\^\(b \+ 1\) of point 0's exponent 1020.0 "),
], ids=["same-ends", "fractional", "past-the-end", "negative", "few-exponents",
        "pole-at-u", "pole-at-v", "below-minus-one", "inf-exponent", "nan-exponent",
        "sum-past-range", "end-weight-past-range", "end-weight-at-2^1024", "end-moment-past-range",
        "end-moment-in-recurrence"])
def test_segment_integral_refuses_what_it_cannot_integrate(bs, u, v, why):
    # the same ends, a fractional or out-of-range index, too few
    # exponents, an end exponent at or below -1 (a divergent integral),
    # exponents that are not finite or whose sizes sum past the float
    # range and an end exponent whose weight 2^(b + 1), or a moment of its
    # rule (2 2^(b + 1) at b = 1022.9, a recurrence term at 1020), overflows
    # are refused by name: not a nan, a truncated or wrapped index, an
    # IndexError, a ZeroDivisionError, an OverflowError or a finite wrong
    # value
    with pytest.raises(PolydetError, match=why) as info:
        segment_integral([0, 1, 2j], bs, u, v)
    assert type(info.value) is PolydetError


def test_segment_integral_takes_a_pole_off_the_segment():
    # only a point that ends the segment takes a product-integration rule,
    # so b = -1 at a point off it is integrated: z^(-1/2) (z - 1)^(-1/2) /
    # (z - 2i) from 0 to 1, arg(z - 1) = pi along the segment
    chord = segment_integral([0, 1, 2j], [-0.5, -0.5, -1.0], 0, 1)
    with mpmath.workdps(30):
        exact = complex(mpmath.quad(lambda t: t ** -0.5 * (1 - t) ** -0.5 * -1j / (t - 2j),
                                    [0, 1]))
    assert abs(chord.value - exact) <= 2e-15 * abs(exact)
    assert chord.error_estimate <= (1e-15 + quad.ROUNDING) * abs(exact)


@pytest.mark.parametrize("b", [0, 2, 10, 20, 40])
def test_chord_estimate_covers_its_rounding(b):
    # a smooth chord whose panels' estimate is below its rounding error:
    # the floor ROUNDING |chord| covers it (against 40-digit mpmath, with
    # arg(z - 1) = pi along the segment)
    chord = segment_integral([0, 1, 2j], [b, -0.5, -0.5], 0, 1)
    with mpmath.workdps(40):
        exact = mpmath.quad(lambda t: t ** b * (1 - t) ** mpmath.mpf(-0.5) * -1j
                            * (t - 2j) ** mpmath.mpf(-0.5), [0, 1])
        assert abs(mpmath.mpc(chord.value) - exact) <= chord.error_estimate


_SQUARE = [(0, -0.5), (1, -0.5), (1 + 1j, -0.5), (1j, -0.5)]


@pytest.mark.parametrize("scale", [1e-300, 1e-310, 1e-315, 1e-320])
def test_area_at_subnormal_scale_keeps_its_contract(scale):
    # C times the area at C = 1 lands in the subnormals below 2.2e-308,
    # where the product rounds to a fixed spacing of 4.9e-324: the estimate
    # holds that rounding, so at 1e-320, 8.9e-6 off relative, the contract
    # refuses the area, and above it the value is within its estimate
    from fractions import Fraction

    unit = area(make_metric(1.0, _SQUARE))
    exact = Fraction(scale) * Fraction(unit.value)
    m = make_metric(scale, _SQUARE)
    if scale == 1e-320:
        with pytest.raises(ToleranceNotReached) as exc:
            area(m)
        result = exc.value.partial
        assert abs(Fraction(result.value) - exact) > quad.REL_TOL * exact
    else:
        result = area(m)
    assert abs(Fraction(result.value) - exact) <= Fraction(result.error_estimate)
    if scale == 1e-300:     # a normal product: the estimate is C times that at C = 1
        assert (result.value, result.error_estimate) == (scale * unit.value,
                                                        scale * unit.error_estimate)


# a generic metric: exponents of sum -2, no three vertices in line
_GENERIC = [(0.31 + 0.22j, -0.55), (-0.74 + 0.61j, -0.35), (-0.52 - 0.83j, -0.6),
            (0.93 - 0.41j, -0.5)]


@given(position=st.floats(-300.0, 300.0), scale=st.floats(-300.0, 300.0))
@settings(max_examples=40, deadline=None)
def test_scaled_metric_keeps_the_float_range_contract(position, scale):
    # positions times 10^position and C times 10^scale, whose chords and
    # area leave the float range at either end: a chord and the area are
    # finite or a typed refusal; Python's ** and cmath raise OverflowError
    # and complex division by zero ZeroDivisionError where numpy gives inf
    # or nan
    zs = [10.0**position * z for z, _ in _GENERIC]
    bs = [b for _, b in _GENERIC]
    for u, v in itertools.permutations(range(len(zs)), 2):
        try:
            chord = segment_integral(zs, bs, u, v)
        except PolydetError:
            continue
        assert cmath.isfinite(chord.value) and math.isfinite(chord.error_estimate)
    try:
        result = area(make_metric(10.0**scale, list(zip(zs, bs))))
    except PolydetError:
        return
    assert 0.0 < result.value < math.inf
