import cmath
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydet import (
    Angle,
    Position,
    Scale,
    log_density,
    make_metric,
    metric_from_json_dict,
    metric_to_json_dict,
    tetrahedron_metric,
    variation_field,
)
from polydet.errors import (
    DuplicateVertex,
    EvaluationAtVertex,
    GaussBonnetViolation,
    GaugeVertexVariation,
    InvalidExponent,
    NonpositiveScale,
    PolydetError,
)

PI = math.pi
TETRA_VERTS = [(1, -0.5), (-1, -0.5), (1j, -0.5), (-1j, -0.5)]


# ---- construction ----

def test_tetrahedron_angles():
    m = make_metric(1.0, TETRA_VERTS)
    assert m.angles() == (PI, PI, PI, PI)
    assert m.num_vertices == 4


def test_gauss_bonnet_violation():
    with pytest.raises(GaussBonnetViolation):
        make_metric(1.0, [(0, -0.5), (1, -0.5), (2, -0.5)])


def test_invalid_exponent_boundary():
    with pytest.raises(InvalidExponent):
        make_metric(1.0, [(0, -1.0), (1, -1.0)])


def test_duplicate_vertex():
    with pytest.raises(DuplicateVertex):
        make_metric(1.0, [(0, -0.5), (0, -0.5), (1, -0.5), (2, -0.5)])
    # the first equal pair is named; -0.0 and 0.0 are one position
    with pytest.raises(DuplicateVertex, match=r"vertices 2 and 4 share position \(1\+0j\)"):
        make_metric(1.0, [(0, -0.4), (1, -0.4), (2, -0.4), (1, -0.4), (2, -0.4)])
    with pytest.raises(DuplicateVertex, match="vertices 1 and 3"):
        make_metric(1.0, [(complex(-0.0, 0.0), -0.5), (1, -0.5), (0, -0.5), (2, -0.5)])


def test_nonpositive_scale():
    with pytest.raises(NonpositiveScale):
        make_metric(0.0, TETRA_VERTS)
    with pytest.raises(NonpositiveScale):
        make_metric(-2.0, TETRA_VERTS)


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan),
                               complex(math.inf, 0.0), complex(0.0, -math.inf)])
def test_nonfinite_position(z):
    with pytest.raises(PolydetError, match="finite"):
        make_metric(1.0, TETRA_VERTS[:3] + [(z, -0.5)])


def test_gauss_bonnet_repair():
    # a residual of 3e-9 in the exponent sum is an error, not repaired
    verts = [(0, -0.5 + 3e-9), (1, -0.5), (1j, -0.5), (2j, -0.5)]
    with pytest.raises(GaussBonnetViolation):
        make_metric(1.0, verts)


def test_angle_sum_constraint():
    # sum of (beta_k - 2 pi) = -4 pi for every valid metric
    for m in (tetrahedron_metric(),
              make_metric(2.0, [(0, -2 / 3), (1, -2 / 3), (-1, -2 / 3)])):
        assert math.fsum(b - 2 * PI for b in m.angles()) == pytest.approx(
            -4 * PI, abs=1e-12)


# ---- log density ----

def test_log_density_tetra_origin():
    m = tetrahedron_metric()
    assert log_density(m, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_log_density_scale_additivity():
    verts = [(0.3, -0.7), (1.5j, -0.8), (-1.2, -0.5)]
    m1 = make_metric(1.0, verts)
    me = make_metric(math.e, verts)
    z = 4.2 + 0.7j
    assert log_density(me, z) == pytest.approx(1.0 + log_density(m1, z), abs=1e-12)


def test_log_density_at_vertex_raises():
    m = tetrahedron_metric()
    with pytest.raises(EvaluationAtVertex):
        log_density(m, 1.0 + 0.0j)


def test_log_density_divergence_near_vertex():
    # the density blows up at a vertex with b < 0 and vanishes for b > 0;
    # either way the log diverges with the sign of -b
    m = tetrahedron_metric()
    assert log_density(m, 1.0 + 1e-12j) > 20.0
    m5 = make_metric(1.0, [(0, 0.5), (1, -0.9), (-1, -0.8), (2j, -0.8)])
    assert log_density(m5, 1e-12j) < -20.0


def test_far_field_decay():
    # log density + 4 log|z| -> log C with O(1/|z|) rate
    m = make_metric(2.5, [(0.3, -0.7), (1.5j, -0.8), (-1.2, -0.5)])
    target = math.log(2.5)
    d3 = log_density(m, 1e3 + 0.5j) + 4 * math.log(abs(1e3 + 0.5j)) - target
    d4 = log_density(m, 1e4 + 5j) + 4 * math.log(abs(1e4 + 5j)) - target
    assert abs(d4) < 0.2 * abs(d3)
    # first-order extrapolation in 1/|z| kills the residual
    assert abs((10 * d4 - d3) / 9) < 1e-5


# ---- variation fields ----

def test_variation_position_tetra():
    m = tetrahedron_metric()
    assert variation_field(m, Position(1), 0.0) == pytest.approx(0.5 + 0j)


def test_variation_scale_constant():
    m = make_metric(2.0, TETRA_VERTS)
    for z in (0.2, 3 + 1j, -0.7j):
        assert variation_field(m, Scale(), z) == pytest.approx(-0.5)


def test_variation_angle_bisector():
    # z_1 = 1, z_2 = -1: the imaginary axis is the perpendicular bisector
    m = tetrahedron_metric()
    assert variation_field(m, Angle(2), 0.35j) == pytest.approx(0.0, abs=1e-15)


def test_variation_angle_gauge_vertex_rejected():
    with pytest.raises(GaugeVertexVariation):
        variation_field(tetrahedron_metric(), Angle(1), 0.5)


def test_variation_position_matches_log_density_derivative():
    # Wirtinger FD of log density in z_i equals minus the variation field
    m = make_metric(1.0, [(0.4 + 0.2j, -0.7), (-1.1j, -0.8), (-0.9, -0.5)])
    z = 0.8 - 0.6j
    h = 1e-6

    def ld(shift):
        mm = m.with_position(1, m.vertices[0].position + shift)
        return log_density(mm, z)

    dx = (ld(h) - ld(-h)) / (2 * h)
    dy = (ld(1j * h) - ld(-1j * h)) / (2 * h)
    fd = 0.5 * complex(dx, -dy)
    assert abs(fd + variation_field(m, Position(1), z)) < 1e-8


# ---- JSON round trip ----

def test_json_round_trip():
    m = make_metric(1.7, [(0.5 + 0.25j, -0.75), (-1, -0.75), (2j, -0.5)])
    m2 = metric_from_json_dict(metric_to_json_dict(m))
    assert m2 == m


# ---- property tests ----

@st.composite
def valid_metrics(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    bs = [draw(st.floats(min_value=-0.95, max_value=0.8)) for _ in range(n - 1)]
    b_last = -2.0 - math.fsum(bs)
    if not -0.95 <= b_last <= 2.0:
        bs = [-2.0 / n] * (n - 1)
        b_last = -2.0 - math.fsum(bs)
    pts = []
    for k in range(n):
        pts.append(cmath.exp(2j * PI * k / n) * (1.0 + 0.1 * k))
    scale = draw(st.floats(min_value=0.1, max_value=10.0))
    return make_metric(scale, list(zip(pts, bs + [b_last])))


@given(m=valid_metrics(), x=st.floats(-3, 3), y=st.floats(0.05, 3))
@settings(max_examples=50, deadline=None)
def test_density_positive_and_finite(m, x, y):
    z = complex(x, y) + 4j  # stay clear of all vertices
    v = log_density(m, z)
    assert math.isfinite(v)


@given(m=valid_metrics())
@settings(max_examples=50, deadline=None)
def test_gauss_bonnet_always_holds(m):
    assert abs(math.fsum(m.exponents()) + 2.0) < 1e-11


@pytest.mark.parametrize("i", [0, 6])
def test_with_position_checks_its_index(corpus5, i):
    # 0 is not vertex M, and M + 1 is no IndexError
    with pytest.raises(PolydetError, match="out of range") as info:
        corpus5.with_position(i, 0.3 - 0.2j)
    assert type(info.value) is PolydetError


def test_record_stays_private(corpus5, tmp_path, capsys):
    # the record of parts a metric keeps is not a field: equality, hash,
    # repr and the JSON see only C and the vertices
    from polydet import detlap, dump_metric
    from polydet.cli import main
    from polydet.metric import PolyhedralMetric

    assert [f.name for f in dataclasses.fields(PolyhedralMetric)] == ["scale", "vertices"]
    verts = [(v.position, v.exponent) for v in corpus5.vertices]
    fresh = make_metric(corpus5.scale, verts)
    filled = make_metric(corpus5.scale, verts)
    detlap.grad_angle(filled, 2)
    assert {"_parts", "_b_sums"} <= set(vars(filled))
    assert not {"_parts", "_b_sums"} & set(vars(fresh))
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)
    assert dataclasses.asdict(filled) == dataclasses.asdict(fresh)
    assert json.dumps(metric_to_json_dict(filled)) == json.dumps(metric_to_json_dict(fresh))
    outs = []
    for name, m in (("fresh", fresh), ("filled", filled)):
        path = tmp_path / f"{name}.json"
        dump_metric(m, str(path))
        assert main(["det", "--metric", str(path), "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    # computing the record again gives an equal record
    parts, sums = vars(filled).pop("_parts"), vars(filled).pop("_b_sums")
    assert filled._parts == parts and filled._b_sums == sums


def test_derived_metrics_carry_no_record(corpus5):
    # with_position and with_scale build their metric anew: its gradients
    # have the bits of a metric made from scratch, not the parent's
    from polydet import detlap

    detlap.grad_angle(corpus5, 2)    # fills the parent's record
    verts = [(v.position, v.exponent) for v in corpus5.vertices]
    moved = list(verts)
    moved[2] = (verts[2][0] + 0.25 - 0.125j, verts[2][1])
    for child, scratch in ((corpus5.with_position(3, moved[2][0]),
                            make_metric(corpus5.scale, moved)),
                           (corpus5.with_scale(2.5), make_metric(2.5, verts))):
        assert not {"_parts", "_b_sums"} & set(vars(child))
        n = child.num_vertices
        got = ([detlap.grad_position(child, i) for i in range(1, n + 1)]
               + [detlap.grad_angle(child, i) for i in range(2, n + 1)]
               + [detlap.grad_scale(child), detlap.w_function(child),
                  detlap.log_det_over_area(child)])
        expect = ([detlap.grad_position(scratch, i) for i in range(1, n + 1)]
                  + [detlap.grad_angle(scratch, i) for i in range(2, n + 1)]
                  + [detlap.grad_scale(scratch), detlap.w_function(scratch),
                     detlap.log_det_over_area(scratch)])
        assert [repr(x) for x in got] == [repr(x) for x in expect]
