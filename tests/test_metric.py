import cmath
import dataclasses
import json
import math

import numpy as np
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


# Inputs that the constructor used to take without make_metric's checks:
# each broke later with a bare ZeroDivisionError, ValueError or
# IndexError, or, for an exponent sum of -1.5, gave a finite log det'
# for a metric that breaks Gauss-Bonnet.
UNCHECKED_BEFORE = [
    pytest.param(1.0, [(0, -1.0), (1, -0.5), (1j, -0.5)], InvalidExponent, id="b=-1"),
    pytest.param(1.0, [(0, -3.0), (1, 0.5), (1j, 0.5)], InvalidExponent, id="b=-3"),
    pytest.param(1.0, [(0, math.nan), (1, -0.5), (1j, -0.5)], InvalidExponent, id="b=nan"),
    pytest.param(0.0, TETRA_VERTS, NonpositiveScale, id="C=0"),
    pytest.param(1.0, [(0, -0.5), (1, -0.5)], GaussBonnetViolation, id="M=2"),
    pytest.param(1.0, [], GaussBonnetViolation, id="M=0"),
    pytest.param(1.0, TETRA_VERTS[:3] + [(complex(math.nan, 0.0), -0.5)], PolydetError,
                 id="nan-position"),
    pytest.param(1.0, [(0, -0.5), (1, -0.5), (1j, -0.5)], GaussBonnetViolation,
                 id="sum=-1.5-was-a-silent-wrong-log-det"),
]


@pytest.mark.parametrize("scale, verts, error", UNCHECKED_BEFORE)
def test_every_construction_path_refuses_alike(scale, verts, error):
    # make_metric, the constructor and dataclasses.replace raise one
    # exception, of one type with one message
    from polydet.metric import ConicalVertex, PolyhedralMetric

    vertices = tuple(ConicalVertex(complex(z), float(b)) for z, b in verts)
    raised = []
    for build in (lambda: make_metric(scale, verts),
                  lambda: PolyhedralMetric(scale, vertices),
                  lambda: dataclasses.replace(tetrahedron_metric(), scale=scale,
                                              vertices=vertices)):
        with pytest.raises(PolydetError) as info:
            build()
        raised.append((type(info.value), str(info.value)))
    assert raised[0][0] is error
    assert raised == [raised[0]] * 3


def _tetra_with(scale=1.0, **fields):
    """The tetrahedron built directly at ``scale``, its first vertex's
    ``fields`` replaced."""
    from polydet.metric import ConicalVertex, PolyhedralMetric

    vertices = [ConicalVertex(complex(z), b) for z, b in TETRA_VERTS]
    vertices[0] = vertices[0]._replace(**fields)
    return PolyhedralMetric(scale, tuple(vertices))


# Fields that are not numbers, each a bare TypeError or ValueError before:
# refused by a PolydetError that names the field
NOT_NUMBERS = [
    pytest.param(lambda: _tetra_with(scale="2"), "cannot take '2' as the scale",
                 id="direct-scale-str"),
    pytest.param(lambda: _tetra_with(scale=None), "cannot take None as the scale",
                 id="direct-scale-None"),
    pytest.param(lambda: _tetra_with(exponent="-0.5"), "cannot take '-0.5' as an exponent",
                 id="direct-exponent-str"),
    pytest.param(lambda: _tetra_with(position="x"), "cannot take 'x' as a vertex position",
                 id="direct-position-str"),
    pytest.param(lambda: make_metric("x", TETRA_VERTS), "cannot take 'x' as the scale",
                 id="make-scale-str"),
    pytest.param(lambda: make_metric(1.0, TETRA_VERTS[:3] + [(-1j, None)]),
                 "cannot take None as an exponent", id="make-exponent-None"),
    pytest.param(lambda: make_metric(1.0, TETRA_VERTS[:3] + [(-1j, -0.5, 0)]),
                 "cannot take ((-0-1j), -0.5, 0) as a vertex", id="make-vertex-triple"),
]



def _direct(vertices):
    from polydet.metric import PolyhedralMetric

    return PolyhedralMetric(1.0, vertices)


# Vertex lists that are not pairs, a bare TypeError before, or plain pairs
# in the constructor, which passed every check and then raised a bare
# AttributeError: refused by a PolydetError that names the field
NOT_PAIRS = [
    pytest.param(lambda: make_metric(1.0, None), "cannot take None as the vertices",
                 id="make-vertices-None"),
    pytest.param(lambda: _direct(None), "cannot take None as the vertices",
                 id="direct-vertices-None"),
    pytest.param(lambda: _direct((5, 6, 7)), "cannot take 5 as a ConicalVertex",
                 id="direct-vertices-ints"),
    pytest.param(lambda: _direct(TETRA_VERTS), "cannot take (1, -0.5) as a ConicalVertex",
                 id="direct-plain-pairs"),
]


@pytest.mark.parametrize("build, message", NOT_NUMBERS + NOT_PAIRS)
def test_a_field_that_is_not_a_number_is_refused_by_name(build, message):
    with pytest.raises(PolydetError) as info:
        build()
    assert type(info.value) is PolydetError and str(info.value) == message


def test_numbers_that_convert_still_build():
    # numpy scalars in the constructor, a numeric string, numpy scalars and
    # plain pairs in make_metric
    from polydet.metric import ConicalVertex, PolyhedralMetric

    tetra = tetrahedron_metric()
    assert make_metric("1", TETRA_VERTS) == tetra
    assert make_metric(np.float64(1.0), [(np.complex128(z), np.float64(b))
                                         for z, b in TETRA_VERTS]) == tetra
    assert make_metric(1.0, tuple(TETRA_VERTS)) == tetra
    assert PolyhedralMetric(np.float64(1.0), tuple(
        ConicalVertex(np.complex128(z), np.float64(b)) for z, b in TETRA_VERTS)) == tetra


def test_a_list_or_generator_of_vertices_builds_an_equal_metric():
    # the constructor keeps its vertices as a tuple: a list built a metric
    # unequal to the tetrahedron and unhashable, and a generator raised a
    # bare TypeError from len()
    from polydet.metric import ConicalVertex, PolyhedralMetric

    tetra = tetrahedron_metric()
    vertices = [ConicalVertex(complex(z), float(b)) for z, b in TETRA_VERTS]
    for built in (PolyhedralMetric(1.0, vertices), PolyhedralMetric(1.0, iter(vertices)),
                  dataclasses.replace(tetra, vertices=vertices)):
        assert built == tetra and hash(built) == hash(tetra)
        assert type(built.vertices) is tuple


def test_numpy_integer_is_a_vertex_index(corpus5):
    import numpy as np

    from polydet import detlap

    assert detlap.grad_angle(corpus5, np.int64(2)) == detlap.grad_angle(corpus5, 2)
    assert corpus5.with_position(np.int64(2), 0.3) == corpus5.with_position(2, 0.3)


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


@pytest.mark.parametrize("i", [0, 6, 2.0, math.nan, "2"])
def test_with_position_checks_its_index(corpus5, i):
    # 0 is not vertex M, M + 1 is no IndexError, and an index that is not
    # an integer is no TypeError
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
