import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydet import area, make_metric, quad, segment_integral
from polydet.errors import PolydetError, ToleranceNotReached

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
    zs = [0.3 + 0.1j, -1.1 + 0.5j, 0.6 - 0.9j]
    for b1 in (-0.99, -0.999, -0.9999):
        bs = [b1, -0.5, -1.5 - b1]
        res = area(make_metric(1.0, list(zip(zs, bs))))
        assert res.value == pytest.approx(triangle_area(1.0, zs, bs), rel=1e-12)


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
    # with 6 nodes per panel the truncation error (about 1e-10) is far
    # above the rounding floor: the coefficient tail must cover it
    # (the loose REL_TOL keeps the contract from raising on them)
    monkeypatch.setattr(quad, "NODES", 6)
    monkeypatch.setattr(quad, "REL_TOL", 1.0)
    for C, zs, bs in _random_triangles(40, seed=13):
        res = area(make_metric(C, list(zip(zs, bs))))
        assert abs(res.value - triangle_area(C, zs, bs)) <= res.error_estimate


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
    a = area(make_metric(C, list(zip(zs, bs)))).value
    # w = 1/z pulls m back to C prod |z_k|^(2 b_k) prod |w - 1/z_k|^(2 b_k)
    C_inv = C * math.prod(abs(z) ** (2 * b) for z, b in zip(zs, bs))
    inverted = area(make_metric(C_inv, [(1 / z, b) for z, b in zip(zs, bs)])).value
    k = shift % len(zs)
    reordered = area(make_metric(C, list(zip(zs[k:] + zs[:k], bs[k:] + bs[:k])))).value
    assert inverted == pytest.approx(a, rel=1e-12)
    assert reordered == pytest.approx(a, rel=1e-12)


def test_segment_integral_endpoint_singularities():
    # int_0^1 z^b1 (z - 1)^b2 dz with principal branches at z = 0:
    # arg(z - 1) = pi along the segment, so the value is e^(i pi b2) B(1+b1, 1+b2)
    b1, b2 = -0.3, -0.85
    # a third point at exponent 0 contributes no factor
    chord = segment_integral([0.0, 1.0, 5.0 + 5.0j], [b1, b2, 0.0], 0, 1)
    exact = cmath.exp(1j * PI * b2) * math.exp(
        math.lgamma(1 + b1) + math.lgamma(1 + b2) - math.lgamma(2 + b1 + b2))
    assert abs(chord.value - exact) < 1e-14
    assert chord.error < 1e-14


def test_chords_same_bits_alone_or_together(monkeypatch):
    # the area evaluates all chords of the tour together, in groups of
    # BATCH values; every chord keeps the bits of segment_integral alone,
    # value and estimate
    verts = [(0.3 + 0.2j, -0.6), (0.3 + 0.2j + 1e-3 * cmath.exp(0.7j), -0.8),
             (-0.5 + 0.6j, -0.3), (1.1 - 0.4j, 0.2), (-0.9 - 0.8j, -0.5)]
    zs = np.array([z for z, _ in verts])
    bs = np.array([b for _, b in verts])
    steps = quad._tour(zs, quad._spanning_tree(zs))
    for batch in (1, 10**9):
        monkeypatch.setattr(quad, "BATCH", batch)
        values, errors, panels = quad._chords(zs, bs, *steps)
        for i, (u, v, theta) in enumerate(zip(*steps[:3])):
            chord = segment_integral(zs, bs, u, v, theta)
            assert chord.value == values[i]
            assert chord.error == errors[i]
            assert chord.panels == panels[i]


@pytest.mark.parametrize("size", [1e300, 1e-155, 1e-170, 1e-190, 1e-205, 1e-300])
def test_area_outside_float_range(size):
    # the tetrahedron scaled to +-size has area about 6.9/size^2, which
    # underflows at 1e300 and overflows below 1e-154; from 1e-155 to 1e-205
    # the chords are finite and the shoelace products overflow
    verts = [(size, -0.5), (-size, -0.5), (size * 1j, -0.5), (-size * 1j, -0.5)]
    with pytest.raises(PolydetError, match="not a positive finite float") as exc:
        area(make_metric(1.0, verts))
    assert not isinstance(exc.value, ToleranceNotReached)


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
    monkeypatch.setattr(quad, "ABS_TOL", 1e-300)
    with pytest.raises(ToleranceNotReached) as exc:
        area(tetra)
    partial = exc.value.partial
    assert partial is not None
    assert partial.value == pytest.approx(LEMNISCATIC_AREA, rel=1e-13)


def test_area_estimate_respects_contract(tetra):
    res = area(tetra)
    assert res.error_estimate <= max(quad.ABS_TOL, quad.REL_TOL * res.value)
