import cmath
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydet import (
    make_metric,
    metric_from_json_dict,
    metric_to_json_dict,
    tetrahedron_metric,
)
from polydet.errors import (
    DuplicateVertex,
    GaussBonnetViolation,
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


def test_exponent_sum_past_float_range_is_gauss_bonnet_violation():
    # fsum of 1.7e308 twice overflows; the sum is not -2
    with pytest.raises(GaussBonnetViolation, match="got inf$"):
        make_metric(1.0, [(0, 1.7e308), (1, 1.7e308), (2j, -0.5)])


def test_two_vertices_refused_by_count():
    # named by the count, before the exponent sum (which two exponents
    # above -1 cannot reach) is checked
    with pytest.raises(GaussBonnetViolation, match="^need at least 3 vertices, got 2$"):
        make_metric(1.0, [(0, -0.5), (1, -0.5)])


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
    assert filled._gradients != fresh._gradients == ([None] * 5, [None] * 5)
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
    # building the metric again gives an equal record
    assert PolyhedralMetric(filled.scale, filled.vertices)._parts == filled._parts


def test_derived_metrics_carry_no_record(corpus5):
    # with_position and with_scale build their metric anew: it carries
    # none of the parent's gradients, and its record and gradients have
    # the bits of a metric made from scratch
    from polydet import detlap

    detlap.grad_angle(corpus5, 2)    # fills the parent's gradient slots
    verts = [(v.position, v.exponent) for v in corpus5.vertices]
    moved = list(verts)
    moved[2] = (verts[2][0] + 0.25 - 0.125j, verts[2][1])
    for child, scratch in ((corpus5.with_position(3, moved[2][0]),
                            make_metric(corpus5.scale, moved)),
                           (corpus5.with_scale(2.5), make_metric(2.5, verts))):
        n = child.num_vertices
        assert child._gradients == ([None] * n, [None] * n)
        assert child._parts == scratch._parts
        got = ([detlap.grad_position(child, i) for i in range(1, n + 1)]
               + [detlap.grad_angle(child, i) for i in range(2, n + 1)]
               + [detlap.grad_scale(child), detlap.w_function(child),
                  detlap.log_det_over_area(child)])
        expect = ([detlap.grad_position(scratch, i) for i in range(1, n + 1)]
                  + [detlap.grad_angle(scratch, i) for i in range(2, n + 1)]
                  + [detlap.grad_scale(scratch), detlap.w_function(scratch),
                     detlap.log_det_over_area(scratch)])
        assert [repr(x) for x in got] == [repr(x) for x in expect]


def test_record_is_built_at_construction(corpus5):
    # the constructor itself checks and records the distances, so a metric
    # built directly with two vertices at 0 is refused there; a metric that
    # dataclasses.replace or copy.deepcopy makes carries the record and the
    # gradients of one that make_metric makes
    import copy

    from polydet import detlap
    from polydet.metric import ConicalVertex, PolyhedralMetric

    with pytest.raises(DuplicateVertex, match="^vertices 1 and 2 share position"):
        PolyhedralMetric(1.0, tuple(ConicalVertex(z, -0.5) for z in (0, 0, 1, 1j)))
    detlap.grad_angle(corpus5, 2)
    verts = [(v.position, v.exponent) for v in corpus5.vertices]
    n = corpus5.num_vertices
    for made, scratch in ((dataclasses.replace(corpus5, scale=2.5), make_metric(2.5, verts)),
                          (copy.deepcopy(corpus5), make_metric(corpus5.scale, verts))):
        assert made == scratch and made._parts == scratch._parts
        got = ([detlap.grad_position(made, i) for i in range(1, n + 1)]
               + [detlap.grad_angle(made, i) for i in range(2, n + 1)])
        expect = ([detlap.grad_position(scratch, i) for i in range(1, n + 1)]
                  + [detlap.grad_angle(scratch, i) for i in range(2, n + 1)])
        assert [repr(x) for x in got] == [repr(x) for x in expect]
