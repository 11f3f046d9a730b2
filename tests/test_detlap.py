import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest

from polydet import (
    area,
    det_tetrahedron,
    f_function,
    grad_angle,
    grad_position,
    grad_scale,
    hadamard_coth_over_sinh_sq,
    log_det_as,
    log_det_over_area,
    make_metric,
    q_of_beta,
    tetrahedron_metric,
    w_function,
)
from polydet import detlap, regint
from polydet.detlap import _f_dc, f_function_dbeta
from polydet.errors import GaugeVertexVariation, NonpositiveAngle, NonpositiveScale
from polydet.regint import hadamard_coth_coth_over_theta, hadamard_coth_over_sinh_sq
from polydet.verify import fd_gradient, run_suite

import mode_series

PI = math.pi
TWO_PI = 2 * math.pi
EULER_GAMMA = 0.5772156649015329


# ---- W ----

def test_w_tetrahedron_hand_value(tetra):
    # pairwise distances 2, 2 and sqrt(2) four times: product 16
    assert w_function(tetra) == pytest.approx(math.log(16) / 6, abs=1e-14)
    assert w_function(tetra) == pytest.approx(2 / 3 * math.log(2), abs=1e-14)


def test_w_unit_distances_vanish():
    # equilateral triangle with unit side: all log distances are zero
    w = cmath.exp(1j * PI / 3)
    m = make_metric(1.0, [(0, -2 / 3), (1, -2 / 3), (w, -2 / 3)])
    assert w_function(m) == pytest.approx(0.0, abs=1e-14)


def test_w_translation_invariance(corpus5):
    shift = 0.37 - 1.21j
    m2 = make_metric(corpus5.scale, [(v.position + shift, v.exponent)
                                     for v in corpus5.vertices])
    assert w_function(m2) == pytest.approx(w_function(corpus5), abs=1e-13)


# ---- F ----

def test_f_vanishes_at_flat_angle():
    assert f_function(TWO_PI, 1.0) == 0.0
    assert f_function(TWO_PI, 5.0) == 0.0


@pytest.mark.parametrize("beta,scale", [(PI, 1.0), (2.4 * PI, 3.0), (0.8 * PI, 0.5)])
def test_f_scale_derivative_identity(beta, scale):
    # dF/dC + b/(6C) = -Q(beta)/C with b = beta/2pi - 1
    h = 1e-6 * scale
    fd = (f_function(beta, scale + h) - f_function(beta, scale - h)) / (2 * h)
    assert fd == pytest.approx(_f_dc(beta, scale), abs=1e-8)
    b = beta / TWO_PI - 1
    assert fd + b / (6 * scale) == pytest.approx(-q_of_beta(beta) / scale, abs=1e-8)


@pytest.mark.parametrize("beta,scale", [(PI, 1.0), (2.4 * PI, 1.0), (0.8 * PI, 2.0)])
def test_f_angle_derivative_identity(beta, scale):
    # dF/dbeta = H_cs/4 + pi (gamma + log pi)/(3 beta^2)
    #            + (2pi/beta - beta/2pi) log C/(12 beta)
    h = 1e-5 * beta
    fd = (f_function(beta + h, scale) - f_function(beta - h, scale)) / (2 * h)
    expect = (hadamard_coth_over_sinh_sq(beta).finite_part / 4
              + PI * (EULER_GAMMA + math.log(PI)) / (3 * beta * beta)
              + (TWO_PI / beta - beta / TWO_PI) * math.log(scale) / (12 * beta))
    assert fd == pytest.approx(expect, rel=1e-5)
    assert f_function_dbeta(beta, scale) == pytest.approx(expect, rel=1e-14, abs=1e-15)


# F against the cone-disk determinant, a Bessel-mode sum computed from
# log Gamma alone (Bordag-Kirsten-Dowker; derivation in detlap's docstring):
# F(beta, 1) = Cdisk(beta) + kappa (beta/2pi - 1)

ZETA_PRIME_MINUS_ONE = -0.16542114370045092921   # zeta_R'(-1)
# Stirling's series of log Gamma(nu + 1) past 1/(12 nu): (power, coefficient)
STIRLING = ((3, -1 / 360), (5, 1 / 1260), (7, -1 / 1680), (9, 1 / 1188))


def _z_prime(nu):
    return (math.lgamma(nu + 1) + nu - 0.5 * math.log(TWO_PI * nu)
            - nu * math.log(nu) - 1 / (12 * nu))


def _power_tail(n, k):
    """sum_{j >= k} j^-n by Euler-Maclaurin."""
    return (k ** (1 - n) / (n - 1) + k ** -n / 2 + n * k ** (-n - 1) / 12
            - n * (n + 1) * (n + 2) * k ** (-n - 3) / 720
            + n * (n + 1) * (n + 2) * (n + 3) * (n + 4) * k ** (-n - 5) / 30240)


def _z_prime_sum(q):
    """sum_{k >= 1} Z'(q k): log Gamma below nu = 10, Stirling's remainder
    above, its tail from k1 on in closed form."""
    k0 = max(1, math.ceil(10 / q))
    k1 = k0 + 30
    terms = [_z_prime(q * k) for k in range(1, k0)]
    terms += [c / (q * k) ** n for k in range(k0, k1) for n, c in STIRLING]
    terms += [c * q ** -n * _power_tail(n, k1) for n, c in STIRLING]
    return math.fsum(terms)


def _cone_disk_log_det(beta):
    """D(beta): log det of the Dirichlet cone of angle beta, radius 2pi/beta."""
    q = TWO_PI / beta
    lq, l2, l2pi = math.log(q), math.log(2), math.log(TWO_PI)
    zeta_prime = math.fsum([
        -l2pi / 2, 2 * _z_prime_sum(q),
        q / 6 * (1 - l2 - lq), -2 * q * ZETA_PRIME_MINUS_ONE,
        -lq / 2, l2pi / 2,
        -(-EULER_GAMMA / 6 + l2 / 6 - 5 / 12 + lq / 6) / q])
    return -zeta_prime - 2 * lq * (q / 12 + 1 / (12 * q))


def _f_mode_sum(beta):
    x = beta / TWO_PI
    kappa = (2 * math.log(PI) + 2 * EULER_GAMMA - 1) / 12
    cdisk = _cone_disk_log_det(beta) - _cone_disk_log_det(TWO_PI) + (x - 1) / 2
    return cdisk + kappa * (x - 1)


@pytest.mark.parametrize("ratio", [0.02, 0.05, 0.1, 0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 2.5,
                                   4.0, 10.0, 33.0, 100.0, 200.0])
def test_f_matches_cone_disk_mode_sum(ratio):
    beta = ratio * PI
    f = f_function(beta, 1.0)
    assert abs(f - _f_mode_sum(beta)) <= 1e-12 * max(1.0, abs(f))


# ---- F(beta, 1) and dF/dbeta(beta, 1): the mode series and its oracles ----

def _finite_part_terms(betas):
    """(F, its error bound, dF/dbeta, its error bound) at C = 1 from the two
    finite parts, computed afresh, and their error estimates:
    F = bracket(2 pi) - bracket(beta), bracket(d) = H_cc(d)/2
    + pi (gamma + log pi)/(3 d), dF/dbeta = H_cs/4 + pi (gamma + log pi)/(3 beta^2)."""
    cc = [hadamard_coth_coth_over_theta(beta) for beta in [TWO_PI, *betas]]
    cs = [hadamard_coth_over_sinh_sq(beta) for beta in betas]
    g = PI * (EULER_GAMMA + math.log(PI)) / 3

    def bracket(d, res):
        return math.fsum([res.finite_part / 2, g / d])

    return [(bracket(TWO_PI, cc[0]) - bracket(beta, c),
             (cc[0].error_estimate + c.error_estimate) / 2,
             math.fsum([h.finite_part / 4, g / (beta * beta)]), h.error_estimate / 4)
            for beta, c, h in zip(betas, cc[1:], cs)]


ORACLE_ANGLES = [1e-100, 1e-50, *np.geomspace(0.01 * PI, 100 * PI, 41).tolist(), 1e50, 1e100]


def test_series_matches_finite_parts():
    series = [detlap._angle_terms(beta) for beta in ORACLE_ANGLES]
    for beta, (f, d), (hf, hf_err, hd, hd_err) in zip(ORACLE_ANGLES, series,
                                                       _finite_part_terms(ORACLE_ANGLES)):
        assert abs(f - hf) <= max(1e-15 * max(1.0, abs(f)), hf_err), beta
        assert abs(d - hd) <= max(1e-15 * max(1.0, abs(d)), hd_err), beta


def _mp_f(beta):
    """F(beta, 1) = D(beta) - D(2 pi) + (1/2 + kappa)(beta/2pi - 1) with 40
    digits: the mode sum of D (detlap's docstring) from log Gamma for the
    modes below 30, Stirling's series to nu^-39 and Hurwitz zeta above."""
    stirling = [(2 * j - 1, mpmath.bernoulli(2 * j) / (2 * j * (2 * j - 1)))
                for j in range(2, 21)]

    def z_prime_sum(q):
        k0 = max(1, int(mpmath.ceil(30 / q)))
        terms = [mpmath.loggamma(q * k + 1) + q * k - mpmath.log(2 * mpmath.pi * q * k) / 2
                 - q * k * mpmath.log(q * k) - 1 / (12 * q * k) for k in range(1, k0)]
        terms += [c * q ** -n * mpmath.zeta(n, k0) for n, c in stirling]
        return mpmath.fsum(terms)

    def cone_disk(b):
        q = 2 * mpmath.pi / b
        lq, l2q = mpmath.log(q), mpmath.log(2 * q)
        zeta_prime = (2 * z_prime_sum(q) + q / 6 * (1 - l2q) - 2 * q * mpmath.zeta(-1, derivative=1)
                      - lq / 2 - (l2q - mpmath.euler - mpmath.mpf(5) / 2) / (6 * q))
        return -zeta_prime - 2 * lq * (q / 12 + 1 / (12 * q))

    x = beta / (2 * mpmath.pi)
    kappa = (2 * mpmath.log(mpmath.pi) + 2 * mpmath.euler - 1) / 12
    return cone_disk(beta) - cone_disk(2 * mpmath.pi) + (mpmath.mpf(1) / 2 + kappa) * (x - 1)


def test_series_matches_mpmath_mode_sum():
    # the series is no less accurate than the finite parts, but for a few
    # units in the last place where those happen to round closer
    angles = [0.05 * PI, 0.3 * PI, PI, 1.7 * PI, 5 * PI, 20 * PI]
    errors = []
    with mpmath.workdps(40):
        for beta, (f, d), (hf, _, hd, _) in zip(angles, [detlap._angle_terms(b) for b in angles],
                                               _finite_part_terms(angles)):
            b = mpmath.mpf(beta)
            ref_f, ref_d = float(_mp_f(b)), float(mpmath.diff(_mp_f, b))
            for value, oracle, ref in ((f, hf, ref_f), (d, hd, ref_d)):
                err, oracle_err = abs(value - ref), abs(oracle - ref)
                assert err <= max(oracle_err, 4 * math.ulp(ref)), (beta, err, oracle_err)
                errors.append((err / max(1.0, abs(ref)), oracle_err / max(1.0, abs(ref))))
    assert max(e for e, _ in errors) <= max(e for _, e in errors)


@pytest.mark.parametrize("x", [1.0 + 1e-9, 1.3, 2.0, 3.7, 10.0, 1e3, 1e50])
def test_f_mirror_identity(x):
    # F(beta) - F(4 pi^2/beta) = (1/12 + kappa)(x - 1/x) + (x + 1/x - 3)(log x)/6,
    # x = beta/2pi, and its beta derivative
    kappa = (2 * math.log(PI) + 2 * EULER_GAMMA - 1) / 12
    (f, d), (fm, dm) = [detlap._angle_terms(beta) for beta in (TWO_PI * x, TWO_PI / x)]
    expect = (1 / 12 + kappa) * (x - 1 / x) + (x + 1 / x - 3) * math.log(x) / 6
    slope = ((1 / 12 + kappa) * (1 + 1 / x**2)
             + ((1 - 1 / x**2) * math.log(x) + (x + 1 / x - 3) / x) / 6) / TWO_PI
    assert abs(f - fm - expect) <= 1e-15 * max(1.0, abs(f))
    assert abs(d + dm / x**2 - slope) <= 1e-15 * max(1.0, abs(d))


def _pair_bits(pair):
    return tuple(v.hex() for v in pair)


def test_angle_terms_bit_identical_alone_and_in_any_batch_position():
    angles = [1e-100, 1e-50, PI, TWO_PI, 1e50, 1e100, *np.geomspace(1e-3, 1e3, 58).tolist()]
    # each angle is computed alone: its bits do not depend on the angles
    # computed before it
    alone = [_pair_bits(detlap._angle_terms.__wrapped__(beta)) for beta in angles]
    for shift in range(len(angles)):
        rolled = angles[shift:] + angles[:shift]
        detlap._angle_terms.cache_clear()
        batch = [_pair_bits(detlap._angle_terms(beta)) for beta in rolled]
        assert batch == alone[shift:] + alone[:shift]
    detlap._angle_terms.cache_clear()
    looked_up = [(f_function(beta, 1.0), f_function_dbeta(beta, 1.0)) for beta in angles]
    assert [_pair_bits(p) for p in looked_up] == alone
    for scale in (1.0, 3.0, 1e-300, 1e300):
        assert f_function(TWO_PI, scale) == 0.0


def test_hot_paths_call_no_finite_part(corpus5, monkeypatch):
    # no hot path integrates a finite part, however cold the angle-term
    # cache
    def refuse(*args, **kwargs):
        raise AssertionError("a finite part was computed")

    monkeypatch.setattr(regint, "_finite_part", refuse)
    monkeypatch.setattr(regint, "_panel_integral", refuse)
    detlap._angle_terms.cache_clear()
    fresh = make_metric(1.7, [(0, -0.4321), (1, -0.1234), (0.3 + 0.8j, -0.8765),
                              (-0.6 - 0.2j, -0.568)])
    for m in (corpus5, fresh):
        log_det_as(m)
        log_det_over_area(m.with_scale(2.0))
        grad_angle(m, 2)
        run_suite(m)
        fd_gradient(m, "beta:3")
    f_function_dbeta(2.5, 3.0)
    assert detlap._angle_terms.cache_info().misses >= 2 * corpus5.num_vertices


def test_mode_table_matches_mode_sums():
    # the table against its source at its nodes, on a dense geometric grid,
    # on both sides of each inner panel edge, at s = 1 and at s = 1e100
    edges = [math.nextafter(e, side) for e in mode_series.TABLE_EDGES[1:-1]
             for side in (0.0, 1.0)]
    u = np.array([*mode_series.table_nodes().ravel(), *(1.0 / np.geomspace(1.0, 1e6, 4001)),
                  *edges, 1.0, 1e-100])
    sums, slopes = mode_series.mode_sums(1.0 / u)
    table = np.array([detlap._table_sums(detlap._PANELS, x) for x in u.tolist()])
    assert np.abs(table[:, 0] - sums).max() <= 3e-17
    assert np.abs(table[:, 1] - slopes).max() <= 3e-17
    assert detlap._S_ONE == detlap._table_sums(detlap._PANELS, 1.0)[0]


def test_mode_table_literal_is_its_generator_bit_for_bit():
    # the literal in detlap is what the mode sums build, to the last bit of
    # every edge, panel map, coefficient and S(1)
    def bits(panels, s_one):
        return [x.hex() for top, a, b, pairs in panels
                for x in (top, a, b, *(c for pair in pairs for c in pair))] + [s_one.hex()]

    panels, s_one = mode_series.mode_table()
    assert [len(p[3]) for p in detlap._PANELS] == [mode_series.TABLE_NODES] * 4
    assert bits(detlap._PANELS, detlap._S_ONE) == bits(panels, s_one)
    # and the source holds the text the generator prints
    with open(detlap.__file__, encoding="utf-8") as fh:
        assert mode_series.literal() in fh.read()


@pytest.mark.parametrize("fn", [f_function, f_function_dbeta])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_f_functions_check_their_input(fn, bad):
    with pytest.raises(NonpositiveAngle) as info:
        fn(bad, 1.0)
    assert type(info.value) is NonpositiveAngle
    with pytest.raises(NonpositiveScale) as info:
        fn(PI, bad)
    assert type(info.value) is NonpositiveScale


def test_cache_pairs_and_accounting():
    # a call counts a miss the first time it sees an angle, a hit after
    cache = detlap._angle_terms
    cache.cache_clear()
    pairs = [cache(beta) for beta in (PI, 3 * PI, PI)]
    assert pairs[0] == pairs[2] == cache.__wrapped__(PI)
    assert cache(3 * PI) == pairs[1]
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 2)


def test_cache_bound_holds_past_maxsize():
    cache = detlap._angle_terms
    cache.cache_clear()
    angles = [1.0 + k / 1024.0 for k in range(4200)]
    for k in range(0, len(angles), 600):
        for beta in angles[k:k + 600]:
            cache(beta)
        cache(angles[0])   # the first angle stays recently used
    info = cache.cache_info()
    assert info.maxsize == 4096 and info.currsize == 4096
    assert info.misses == 4200
    # the least recently used angles went, the first and the newest stayed
    cache(angles[0])
    cache(angles[-1])
    assert cache.cache_info().misses == 4200
    cache(angles[1])
    assert cache.cache_info().misses == 4201
    assert cache.cache_info().currsize == 4096
    cache.cache_clear()


# ---- absolute values: the flat orbifolds and the tetrahedron ----

# |eta(i)| and |eta(e^{i pi/3})| from Gamma values, Im tau of each
ETA_ABS = {"i": math.gamma(0.25) / (2 * PI ** 0.75),
           "rho": 3 ** 0.125 * math.gamma(1 / 3) ** 1.5 / TWO_PI}
TAU_IM = {"i": 1.0, "rho": math.sqrt(3) / 2}


@pytest.mark.parametrize("exponents, n, tau", [
    ((-2 / 3, -2 / 3, -2 / 3), 3, "rho"),       # S^2(3,3,3)
    ((-1 / 2, -3 / 4, -3 / 4), 4, "i"),         # S^2(2,4,4)
    ((-1 / 2, -2 / 3, -5 / 6), 6, "rho"),       # S^2(2,3,6)
])
def test_orbifold_log_det(exponents, n, tau):
    # S^2 = T/Z_n: log det' = (1/n) log(n Area Im tau |eta(tau)|^4)
    m = make_metric(1.0, list(zip((0, 1, 0.35 + 0.9j), exponents)))
    r = log_det_as(m)
    expect = math.log(n * r.area * TAU_IM[tau] * ETA_ABS[tau] ** 4) / n
    assert abs(r.log_det - expect) <= 1e-12


def test_tetrahedron_log_det():
    pts = [1, -1, 1j, -1j]
    r = log_det_as(make_metric(1.0, [(z, -0.5) for z in pts]))
    assert abs(r.log_det - math.log(det_tetrahedron(pts, r.area))) <= 1e-12


# ---- assembly ----

def test_det_report_assembly_identity(tetra):
    r = log_det_as(tetra)
    resum = math.fsum([math.log(r.area), r.prefactor, r.w_term,
                       *r.f_terms, -r.reference_term])
    assert resum == r.log_det  # bit-exact by fixed summation order
    resum_over_area = math.fsum([r.prefactor, r.w_term, *r.f_terms,
                                 -r.reference_term])
    assert resum_over_area == r.log_det_over_area


def test_log_det_over_area_translation_invariance(corpus5):
    shift = -0.81 + 0.45j
    m2 = make_metric(corpus5.scale, [(v.position + shift, v.exponent)
                                     for v in corpus5.vertices])
    assert log_det_over_area(m2) == pytest.approx(
        log_det_over_area(corpus5), abs=1e-12)


def test_log_det_over_area_finite_at_largest_scales(corpus5):
    # the prefactor is taken from log C, so (4C)^(1/3) cannot overflow
    for scale in (4e307, 5e307, 1e308, 1.7e308):
        assert math.isfinite(log_det_over_area(corpus5.with_scale(scale)))


def test_scale_doubling_matches_closed_form(tetra):
    # Delta log det = log 2 (area) - (1/3) log 2 (prefactor)
    #                 + sum_j int_C^2C dF/dC
    r1 = log_det_as(tetra)
    r2 = log_det_as(tetra.with_scale(2.0))
    df = math.fsum((2 - b / TWO_PI - TWO_PI / b) / 12 * math.log(2.0)
                   for b in tetra.angles())
    expect = math.log(2.0) - math.log(2.0) / 3 + df
    assert r2.log_det - r1.log_det == pytest.approx(expect, abs=1e-8)


# ---- gradients ----

def test_grad_position_tetrahedron_hand_value(tetra):
    assert grad_position(tetra, 1) == pytest.approx(0.125 + 0j, abs=1e-14)


def test_grad_position_sum_rule(corpus5):
    total = sum(grad_position(corpus5, i)
                for i in range(1, corpus5.num_vertices + 1))
    assert abs(total) < 1e-14


def test_grad_position_conjugation_symmetric_configuration():
    # configuration invariant under complex conjugation: sum of z_i grad_i
    # is real
    m = make_metric(1.0, [(1.0, -0.6), (-1.0, -0.6), (0.5j, -0.4), (-0.5j, -0.4)])
    total = sum(m.vertices[i - 1].position * grad_position(m, i)
                for i in range(1, 5))
    assert abs(total.imag) < 1e-10


# ---- grad_position at symmetric configurations, absolutely ----
#
# I = log det' + zeta(0) log A, zeta(0) = sum_k Q(beta_k) - 1 with
# Q(beta) = (2pi/beta - beta/2pi)/12, is scale-free and so, at fixed C, a
# Moebius-invariant function of the positions.  Where the symmetry group
# of a configuration leaves no direction of the moduli space fixed, its
# gradient vanishes: grad_position = d log(det/A)/dz_i equals
# -(1 + zeta(0)) d log A/dz_i at every vertex.  The area's side is taken
# from quad.area alone, so the check shares no code with W.

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _signs(v):
    return sorted({tuple(s * x for s, x in zip(signs, v))
                   for signs in itertools.product((1, -1), repeat=3)})


def _cyclic(points):
    return [(x, y, z)[k:] + (x, y, z)[:k] for x, y, z in points for k in range(3)]


# the vertices of each solid and its cone angle: 3, 4 or 5 faces of angle
# pi/3 (or 3 of angle pi/2, 3pi/5) at every vertex
PLATONIC = {
    "tetrahedron": ([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], PI),
    "octahedron": (_cyclic([(1, 0, 0), (-1, 0, 0)]), 4 * PI / 3),
    "cube": (_signs((1, 1, 1)), 3 * PI / 2),
    "icosahedron": (_cyclic(_signs((0, 1, GOLDEN))), 5 * PI / 3),
    "dodecahedron": (_signs((1, 1, 1)) + _cyclic(_signs((0, 1 / GOLDEN, GOLDEN))), 9 * PI / 5),
}


def _bipyramid(n, apex):
    """The n-gonal bipyramid with apex angle ``apex``: by Gauss-Bonnet the
    equator angle is 2 pi - 2 apex/n."""
    ring = [(math.cos(TWO_PI * k / n), math.sin(TWO_PI * k / n), 0.0) for k in range(n)]
    return [(0, 0, 1), (0, 0, -1)] + ring, [apex] * 2 + [TWO_PI - 2 * apex / n] * n


def _symmetric_metric(points, angles):
    """The points, turned by a generic rotation (so no vertex is at the
    pole and no symmetry is aligned with the axes) and projected
    stereographically, with b = beta/2pi - 1."""
    quaternion = np.array([0.83, 0.21, -0.37, 0.36])
    w, x, y, z = quaternion / np.linalg.norm(quaternion)
    turn = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                     [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                     [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]])
    verts = []
    for point, beta in zip(points, angles):
        u = turn @ (np.array(point, float) / np.linalg.norm(point))
        verts.append((complex(u[0], u[1]) / (1.0 - u[2]), beta / TWO_PI - 1.0))
    return make_metric(1.0, verts)


def _symmetric_cases():
    for name, (points, beta) in PLATONIC.items():
        yield pytest.param(points, [beta] * len(points), id=name)
    for n in range(3, 9):
        apexes = (0.7, 1.3, 2.3) if n == 3 else ((0.7, 2.3) if n % 2 else (1.3, 2.3))
        for apex in apexes:
            yield pytest.param(*_bipyramid(n, apex * PI), id=f"bipyramid-{n}-apex-{apex}pi")


@pytest.mark.parametrize("points, angles", list(_symmetric_cases()))
def test_grad_position_vanishes_on_log_det_plus_zeta_log_area(points, angles):
    # d log A/dz_i = (d/dx - i d/dy) A/(2A) by central differences of the
    # area at a step of 1e-5 max(1, |z|), where their rounding is near 1e-11
    # and their truncation below it; at 1e-6 the rounding alone reaches
    # 1.4e-10 on the dodecahedron, 0.8 of its gate
    m = _symmetric_metric(points, angles)
    zeta0 = math.fsum(q_of_beta(beta) for beta in m.angles()) - 1.0
    zs, bs = list(m.positions()), list(m.exponents())
    base = area(m).value

    def moved(i, dz):
        return area(make_metric(1.0, list(zip(zs[:i] + [zs[i] + dz] + zs[i + 1:], bs)))).value

    grads, residuals = [], []
    for i, z in enumerate(zs):
        h = 1e-5 * max(1.0, abs(z))
        dx = (moved(i, h) - moved(i, -h)) / (2 * h)
        dy = (moved(i, 1j * h) - moved(i, -1j * h)) / (2 * h)
        grads.append(grad_position(m, i + 1))
        residuals.append(abs(grads[-1] + (1.0 + zeta0) * (dx - 1j * dy) / (2 * base)))
    assert max(residuals) <= 1e-8 * max(map(abs, grads))


def test_grad_angle_gauge_vertex_rejected(tetra):
    with pytest.raises(GaugeVertexVariation):
        grad_angle(tetra, 1)


def test_grad_angle_square_symmetry_zero(tetra):
    # every vertex of the square sees the same distance multiset, so all
    # angle-gradient blocks agree
    for i in (2, 3, 4):
        assert grad_angle(tetra, i) == pytest.approx(0.0, abs=1e-12)


def test_grad_angle_swap_symmetric_pair():
    # vertices 1 and 2 are swapped by z -> -z, so B_2 = B_1
    m = make_metric(1.0, [(1.0, -0.7), (-1.0, -0.7), (2j, -0.3), (-2j, -0.3)])
    assert grad_angle(m, 2) == pytest.approx(0.0, abs=1e-12)


def _b_block(m, q):
    """B_q of the module docstring written out, q 0-based: each log taken
    from the positions, dF/dbeta from ``f_function_dbeta``."""
    zs = [v.position for v in m.vertices]
    bs = [v.exponent for v in m.vertices]
    angles = [v.angle for v in m.vertices]
    tq = angles[q]
    terms = [(1.0 / angles[j] + TWO_PI / (tq * tq)) * bs[j] * math.log(abs(zs[j] - zs[q]))
             for j in range(len(zs)) if j != q]
    return math.fsum(terms) / 6.0 + f_function_dbeta(tq, m.scale)


def _written_out_grad_position(m, i):
    zs = [v.position for v in m.vertices]
    bs = [v.exponent for v in m.vertices]
    angles = [v.angle for v in m.vertices]
    ws = [bs[i] * bs[j] * (1.0 / angles[i] + 1.0 / angles[j]) / (zs[i] - zs[j])
          for j in range(len(zs)) if j != i]
    return (PI / 6.0) * complex(math.fsum([w.real for w in ws]), math.fsum([w.imag for w in ws]))


def _written_out_w(m):
    zs = [v.position for v in m.vertices]
    bs = [v.exponent for v in m.vertices]
    angles = [v.angle for v in m.vertices]
    n = len(zs)
    return (PI / 3.0) * math.fsum(
        [bs[k] * bs[l] * (1.0 / angles[k] + 1.0 / angles[l]) * math.log(abs(zs[k] - zs[l]))
         for k in range(n) for l in range(k + 1, n)])


@pytest.mark.parametrize("filled", [False, True])
@pytest.mark.parametrize("name", ["tetra", "corpus5", "above_two_pi", "near_minus_one",
                                  "three_vertex", "eight_vertex"])
def test_gradients_and_w_keep_their_bits(name, filled, request):
    # the gradients and W read the metric's record of parts; each has the
    # bits of its formula written out from the positions, whether its
    # gradient slots are filled by the call itself or were filled before
    base = request.getfixturevalue(name)
    m = make_metric(base.scale, [(v.position, v.exponent) for v in base.vertices])
    n = m.num_vertices
    assert m._gradients == ([None] * n, [None] * n)
    if filled:
        grad_angle(m, 2)
        assert m._gradients[1][1] is not None
    for i in range(2, n + 1):
        assert grad_angle(m, i).hex() == (_b_block(m, i - 1) - _b_block(m, 0)).hex(), i
    for i in range(1, n + 1):
        expect = _written_out_grad_position(m, i - 1)
        got = grad_position(m, i)
        assert (got.real.hex(), got.imag.hex()) == (expect.real.hex(), expect.imag.hex()), i
    assert w_function(m).hex() == _written_out_w(m).hex()


def test_grad_scale_tetrahedron(tetra):
    assert grad_scale(tetra) == pytest.approx(-0.5, abs=1e-14)


def test_grad_scale_algebraic_identity(corpus5):
    # grad = sum_j (-Q(beta_j) - b_j/6)/C - 1/(3C); with sum b_j = -2 this
    # reassembles the closed form already used, checked independently here
    C = corpus5.scale
    expect = math.fsum(
        [-q_of_beta(b) / C for b in corpus5.angles()]
        + [-b / (6 * C) for b in corpus5.exponents()]
        + [-1 / (3 * C)]
    )
    assert grad_scale(corpus5) == pytest.approx(expect, abs=1e-13)


# ---- determinant ratios ----

def test_chs_vertex_order_invariance():
    # a ratio of determinants is a difference of two log_det_as values,
    # each the same in every order of the vertices
    verts = [(1.1, -0.7), (-0.9 + 0.2j, -0.6), (0.3j, -0.5), (-0.5 - 0.8j, -0.2)]
    ref = log_det_as(make_metric(1.0, verts)).log_det
    for order in itertools.permutations(verts):
        assert log_det_as(make_metric(1.0, list(order))).log_det == pytest.approx(ref, abs=1e-13)


# ---- property tests ----

from hypothesis import assume, given, settings
from hypothesis import strategies as st


@given(dx=st.floats(-5, 5), dy=st.floats(-5, 5))
@settings(max_examples=30, deadline=None)
def test_w_translation_invariance_property(dx, dy):
    verts = [(1.0, -0.7), (-1.0, -0.6), (1j, -0.5), (-1j, -0.2)]
    m1 = make_metric(1.0, verts)
    m2 = make_metric(1.0, [(z + complex(dx, dy), b) for z, b in verts])
    assert abs(w_function(m1) - w_function(m2)) < 1e-11


@given(i=st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_grad_position_is_w_gradient(i):
    # the position gradient is exactly the Wirtinger derivative of W
    m = make_metric(1.0, [(1.0, -0.7), (-1.0, -0.6), (1j, -0.5), (-1j, -0.2)])
    h = 1e-6
    z0 = m.vertices[i - 1].position
    dx = (w_function(m.with_position(i, z0 + h))
          - w_function(m.with_position(i, z0 - h))) / (2 * h)
    dy = (w_function(m.with_position(i, z0 + 1j * h))
          - w_function(m.with_position(i, z0 - 1j * h))) / (2 * h)
    assert abs(0.5 * complex(dx, -dy) - grad_position(m, i)) < 1e-8


@given(zs=st.lists(st.complex_numbers(max_magnitude=3.0), min_size=3, max_size=3),
       log_scale=st.floats(-5.0, 5.0))
@settings(max_examples=20, deadline=None)
def test_triangle_log_det_scale_free_property(zs, log_scale):
    # three cone points at fixed angles make the double of one triangle up
    # to similarity, so log det' + zeta(0) log Area is the same for every
    # position and scale
    assume(min(abs(zs[0] - zs[1]), abs(zs[1] - zs[2]), abs(zs[0] - zs[2])) > 0.2)
    exponents = (-0.3, -0.8, -0.9)
    zeta0 = math.fsum((1 / (b + 1) - (b + 1)) / 12 for b in exponents) - 1

    def invariant(m):
        r = log_det_as(m)
        return r.log_det + zeta0 * math.log(r.area)

    ref = invariant(make_metric(1.0, list(zip((0, 1, 1j), exponents))))
    m = make_metric(math.exp(log_scale), list(zip(zs, exponents)))
    assert abs(invariant(m) - ref) <= 1e-13
