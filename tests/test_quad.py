import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydet import (
    ConePoint,
    area,
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
    """The panel rule alone on one panel of half length 1, with the vertex
    term added after the other weights (``_panel_sums``).  e^(-20 x) is
    left out from b = 2 up, where product integration is ill-conditioned:
    its Chebyshev coefficients 2 I_k(20) reach 8.5e7, 700 times the
    integral at b = 2 and 9e4 times at b = 5, and their rounding meets the
    moments mu_k, so the rule errs by 2e-12 and 2e-9 relative there."""
    x, _ = quad._chebyshev(quad.NODES)
    rows, m0 = quad._rule(quad.NODES, b)
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
    assert chord.error < 1e-14


def test_chords_same_bits_alone_or_together(monkeypatch):
    # the area evaluates the first runs of all edges of the tour together,
    # in groups of BATCH values; every chord keeps the bits of
    # segment_integral alone, value and estimate
    verts = [(0.3 + 0.2j, -0.6), (0.3 + 0.2j + 1e-3 * cmath.exp(0.7j), -0.8),
             (-0.5 + 0.6j, -0.3), (1.1 - 0.4j, 0.2), (-0.9 - 0.8j, -0.5)]
    zs = np.array([z for z, _ in verts])
    bs = np.array([b for _, b in verts])
    tour = quad._tour(zs, bs, quad._spanning_tree(zs))
    once = tour.first
    steps = tour.u[once], tour.v[once], tour.at_u[once], tour.at_v[once]
    for batch in (1, 10**9):
        monkeypatch.setattr(quad, "BATCH", batch)
        values, errors, panels = quad._chords(zs, bs, *steps)
        for i, (u, v, theta) in enumerate(zip(*steps[:3])):
            chord = segment_integral(zs, bs, u, v, theta)
            assert chord.value == values[i]
            assert chord.error == errors[i]
            assert chord.panels == panels[i]


def _seeded_metrics(seed):
    """One metric of each size M = 3 ... 10: exponents of sum -2, vertices
    in [-1.5, 1.5]^2 at least 0.2 apart."""
    rng = np.random.default_rng(seed)
    for m in range(3, 11):
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
    # what segment_integral gives along the second run's own branches
    chords, errors, _ = quad._tour_chords(zs, bs)
    tour = quad._tour(zs, bs, quad._spanning_tree(zs))
    assert (~tour.first).sum() == len(zs) - 1
    for t in np.flatnonzero(~tour.first):
        own = segment_integral(zs, bs, tour.u[t], tour.v[t], tour.at_u[t])
        assert abs(chords[t] - own.value) <= 1e-14 * abs(own.value)
        assert errors[t] == errors[np.flatnonzero(tour.first)[tour.edge[t]]]


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


def test_area_contract_is_relative():
    # a pair 1e-200 apart beside a vertex 1e-150 away and three 1e10 away:
    # the area, about 9e-20, has an estimate nearly as large, which no
    # absolute tolerance may excuse
    near = [(1e-150 * cmath.exp(1.9j), -0.2), (0.0, 0.5), (1e-200 * cmath.exp(0.4j), -0.6)]
    far = [(1e10 * cmath.exp(1j * t), -17 / 30) for t in (0.0, 2.1, -2.3)]
    with pytest.raises(ToleranceNotReached) as exc:
        area(make_metric(1.0, near + far))
    partial = exc.value.partial
    assert 0.0 < quad.REL_TOL * partial.value < partial.error_estimate


@pytest.mark.parametrize("size", [1e-300, 1e-155, 1e155, 1e300])
def test_chord_scale_free(size):
    # a chord of the tetrahedron at +-size is the unit one over size: the
    # scale enters as one power of |d|, so no factor leaves the float range
    zs = [1, -1, 1j, -1j]
    unit = segment_integral(zs, [-0.5] * 4, 0, 2)
    chord = segment_integral([size * z for z in zs], [-0.5] * 4, 0, 2)
    assert abs(chord.value * size - unit.value) <= 4e-16 * abs(unit.value)
    assert chord.error * size == pytest.approx(unit.error, rel=1e-14)


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
