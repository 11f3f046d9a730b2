import json
import math
import sys

import pytest

from polydet import (
    FDConfig,
    area,
    detlap,
    dump_metric,
    fd_gradient,
    grad_angle,
    grad_position,
    grad_scale,
    log_det_over_area,
    run_suite,
    tetrahedron_metric,
    verify,
)
from polydet.cli import main
from polydet.errors import GaugeVertexVariation, PerturbationLeavesDomain, PolydetError
from polydet.metric import make_metric

PI = math.pi


def test_fd_position_tetrahedron(tetra):
    fd = fd_gradient(tetra, "z:1")
    assert abs(fd - 0.125) < 1e-6


def test_fd_scale_tetrahedron(tetra):
    fd = fd_gradient(tetra, "C")
    assert abs(fd - (-0.5)) < 1e-7


def test_richardson_changes_little_on_smooth_channels(tetra):
    plain = fd_gradient(tetra, "z:1")
    rich = fd_gradient(tetra, "z:1", fdcfg=FDConfig(richardson=True))
    assert abs(plain - rich) < 1e-9
    assert abs(rich - 0.125) < 1e-12
    plain = fd_gradient(tetra, "C")
    rich = fd_gradient(tetra, "C", fdcfg=FDConfig(richardson=True))
    assert abs(plain - rich) < 1e-8  # h^2 truncation of the plain stencil
    assert abs(rich - (-0.5)) < 1e-10


def test_fd_angle_gauge_rejected(tetra):
    with pytest.raises(GaugeVertexVariation):
        fd_gradient(tetra, "beta:1")


def test_fd_rejects_domain_exit():
    # the angle step scales with the smaller of the two perturbed angles,
    # so only an exponent within the 1e-12 margin of b = -1 can leave the
    # domain: 5e-13 above -1 it does
    m = make_metric(1.0, [(0, -1.0 + 5e-13), (1, -0.5), (-1, -0.5 - 5e-13)])
    with pytest.raises(PerturbationLeavesDomain):
        fd_gradient(m, "beta:3")


@pytest.mark.parametrize("channel", ["z:0", "z:5", "beta:0", "beta:5"])
def test_vertex_index_out_of_range(tetra, channel):
    # vertex indices are 1-based: 0 must not wrap round to the last vertex
    with pytest.raises(PolydetError, match="out of range"):
        fd_gradient(tetra, channel)
    kind, i = verify.parse_channel(channel)
    grad = grad_position if kind == "z" else grad_angle
    with pytest.raises(PolydetError, match="out of range"):
        grad(tetra, i)


# ---- a channel is its name ----

@pytest.mark.parametrize("richardson", [False, True])
@pytest.mark.parametrize("name", ["tetra", "corpus5", "eight_vertex"])
def test_suite_names_give_back_the_suite(name, richardson, request):
    # the names a suite reports are the channels it takes: fed back to
    # gradient_reports they give the same reports, bit for bit
    m = request.getfixturevalue(name)
    cfg = FDConfig(richardson=richardson)
    suite = run_suite(m, cfg)
    again = verify.gradient_reports(m, [r.channel for r in suite], cfg)
    assert repr(again) == repr(suite)


def test_fd_gradient_of_a_name_is_its_suite_row(corpus5):
    row = run_suite(corpus5)[0]
    assert row.channel == "z:1"
    assert repr(fd_gradient(corpus5, "z:1")) == repr(row.finite_difference)


@pytest.mark.parametrize("channel", ["w:9", "z:", "z:-1", "beta:1.5", " C", "z:\u00b2",
                                     "z:\u0663", "z:\uff13", "beta:\u0661"])
def test_malformed_name_is_refused_first(tetra, channel, monkeypatch):
    # a malformed name is a PolydetError, never a TypeError or ValueError,
    # and it is refused before any step is built
    for call in (lambda: fd_gradient(tetra, channel),
                 lambda: verify.gradient_reports(tetra, [channel]),
                 lambda: verify.gradient_reports(tetra, ["z:1", channel])):
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_assemble", None)
            patch.setattr(verify, "_CHANNELS", None)
            with pytest.raises(PolydetError, match="bad channel") as info:
                call()
        assert type(info.value) is PolydetError


def test_suite_tetrahedron(tetra):
    reports = run_suite(tetra)
    assert len(reports) == 8  # 4 positions + 3 angles + scale
    assert [r.channel for r in reports] == [
        "z:1", "z:2", "z:3", "z:4", "beta:2", "beta:3", "beta:4", "C"]
    assert all(r.rel_err <= 1e-5 for r in reports)


def test_suite_corpus5(corpus5):
    reports = run_suite(corpus5)
    assert len(reports) == 10  # 5 positions + 4 angles + scale
    assert all(r.rel_err <= 1e-5 for r in reports)


def test_suite_richardson_tightens(corpus5):
    reports = run_suite(corpus5, fdcfg=FDConfig(richardson=True))
    assert all(r.rel_err <= 1e-7 for r in reports)


def test_suite_near_degenerate(near_degenerate):
    reports = run_suite(near_degenerate)
    assert all(r.rel_err <= 1e-5 for r in reports)
    rich = run_suite(near_degenerate, fdcfg=FDConfig(richardson=True))
    assert all(r.rel_err <= 1e-7 for r in rich)


@pytest.mark.parametrize("gap", [1e-8, 1e-12])
def test_close_pair_leaves_the_other_steps_alone(gap, tmp_path, capsys):
    # vertices 1 and 2 sit ``gap`` apart, vertices 3 and 4 about 1 away:
    # each position steps on its own nearest gap, so z:3 and z:4 are not
    # stepped by 1e-4 * gap, which missed FD_PASS_TOL at 1e-8 and was lost
    # to rounding at 1e-12
    m = make_metric(1.0, [(0, -0.5), (gap, -0.5), (-1 + 0.3j, -0.5), (1j, -0.5)])
    for fdcfg in (FDConfig(), FDConfig(richardson=True)):
        reports = run_suite(m, fdcfg)
        assert [r.channel for r in reports] == ["z:1", "z:2", "z:3", "z:4",
                                                "beta:2", "beta:3", "beta:4", "C"]
        assert all(r.rel_err <= verify.FD_PASS_TOL for r in reports), reports
    path = tmp_path / "close.json"
    dump_metric(m, str(path))
    assert main(["verify", "fd", "--metric", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 8


def test_fd_log_area_matches_triangle_derivative():
    # independent check isolating quadrature error from formula error: for
    # three vertices log Area = -sum_{pairs} 2 (1 + b_k) log|z_i - z_j| +
    # const(b), k the third vertex, so d log A / dz_i (Wirtinger) is
    # -sum_{j != i} (1 + b_k) / (z_i - z_j); area finite differences match it
    m = make_metric(1.2, [(0.4 + 0.1j, -0.7), (-0.9 + 0.6j, -0.45),
                          (0.2 - 1.1j, -0.85)])
    zs, bs = m.positions(), m.exponents()
    h = 1e-4
    for i in range(3):
        j, k = [n for n in range(3) if n != i]
        analytic = -((1 + bs[k]) / (zs[i] - zs[j]) + (1 + bs[j]) / (zs[i] - zs[k]))

        def la(shift, i=i):
            return math.log(area(m.with_position(i + 1, zs[i] + shift)).value)

        dx = (la(h) - la(-h)) / (2 * h)
        dy = (la(1j * h) - la(-1j * h)) / (2 * h)
        fd = 0.5 * complex(dx, -dy)
        assert abs(fd - analytic) < 1e-7


def test_fd_log_area_scale_channel(tetra):
    h = 1e-5

    def la(ds):
        return math.log(area(tetra.with_scale(1.0 + ds)).value)

    fd = (la(h) - la(-h)) / (2 * h)
    assert fd == pytest.approx(1.0, abs=1e-7)  # d log A / dC = 1/C


def test_suite_extreme_angles():
    # cone angles from 0.1 pi (near the collapse boundary) to 4.2 pi; the
    # gauge vertex is the stiff direction and sets the angle step scale
    m = make_metric(0.7, [(0.0, -0.95), (1.3, 1.1), (-0.9 + 0.8j, -0.85),
                          (0.2 - 1.4j, -0.7), (-0.4 + 0.1j, -0.6)])
    reports = run_suite(m)
    assert all(r.rel_err <= 1e-5 for r in reports)
    rich = run_suite(m, fdcfg=FDConfig(richardson=True))
    assert all(r.rel_err <= 1e-7 for r in rich)


def _suite_bits(reports):
    return [(r.channel, repr(r.analytic), repr(r.finite_difference)) for r in reports]


@pytest.mark.parametrize("richardson", [False, True])
def test_run_suite_cold_and_warm_caches_agree(corpus5, richardson):
    # the pass that fills the angle-term cache gives every difference the
    # bits a warm cache gives it
    from polydet import detlap

    cfg = FDConfig(richardson=richardson)
    detlap._angle_terms.cache_clear()
    cold = run_suite(corpus5, cfg)
    assert detlap._angle_terms.cache_info().misses > corpus5.num_vertices
    assert _suite_bits(run_suite(corpus5, cfg)) == _suite_bits(cold)


# ---- each step from the base metric's parts ----

def _parent_rows(m, channel, richardson):
    """The perturbed metrics, built whole, whose log(det/Area) the finite
    differences take, each row with the coordinate it steps."""
    kind, i = verify.parse_channel(channel)
    if kind == "C":
        h = verify.STEP * m.scale
        return [(lambda mm: mm.scale,
                 [m.with_scale(m.scale + e) for e in verify._steps(h, richardson)])]
    if kind == "z":
        z0 = m.vertices[i - 1].position
        h = verify.STEP * min(abs(z0 - v.position) for k, v in enumerate(m.vertices)
                              if k != i - 1)
        offsets = verify._steps(h, richardson)
        return [(lambda mm: mm.vertices[i - 1].position.real,
                 [m.with_position(i, z0 + e) for e in offsets]),
                (lambda mm: mm.vertices[i - 1].position.imag,
                 [m.with_position(i, z0 + 1j * e) for e in offsets])]
    h = verify.STEP * min(m.vertices[i - 1].angle, m.vertices[0].angle)
    row = []
    for e in verify._steps(h, richardson):
        db = e / (2.0 * PI)
        verts = [(v.position, v.exponent) for v in m.vertices]
        verts[i - 1] = (verts[i - 1][0], verts[i - 1][1] + db)
        verts[0] = (verts[0][0], verts[0][1] - db)
        row.append(make_metric(m.scale, verts))
    return [(lambda mm: mm.vertices[i - 1].angle, row)]


@pytest.mark.parametrize("richardson", [False, True])
@pytest.mark.parametrize("name", ["tetra", "corpus5", "near_degenerate", "above_two_pi",
                                  "near_minus_one", "three_vertex", "eight_vertex"])
def test_steps_match_whole_metrics(name, richardson, request):
    # every step, evaluated from the base metric's parts, has the bits of
    # log_det_over_area of the perturbed metric built whole, and its offset
    # is the one it takes in that metric
    m = request.getfixturevalue(name)
    n = m.num_vertices
    channels = ([f"z:{i}" for i in range(1, n + 1)]
                + [f"beta:{i}" for i in range(2, n + 1)] + ["C"])
    parts = m._parts
    base = (detlap._prefactor(m.scale), detlap._w_sum(parts.w_terms),
            detlap._f_terms(parts.angles, m.scale))
    for channel in channels:
        kind, i = verify.parse_channel(channel)
        _, rows = verify._CHANNELS[kind](m, base, i, richardson)
        ref_rows = _parent_rows(m, channel, richardson)
        assert len(rows) == len(ref_rows)
        for row, (coordinate, ref_row) in zip(rows, ref_rows):
            assert [value.hex() for value, _ in row] == [
                log_det_over_area(mm).hex() for mm in ref_row], channel
            assert [taken for _, taken in row] == [
                coordinate(mm) - coordinate(m) for mm in ref_row], channel


def test_run_suite_builds_no_metric(corpus5, monkeypatch):
    # the steps reuse the base metric's parts: no metric is built and W is
    # not recomputed from all pairs
    import sys

    from polydet import detlap, metric

    def refuse(*args, **kwargs):
        raise AssertionError("whole metric rebuilt")

    for original in (metric.make_metric, detlap.w_function, detlap.log_det_over_area):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "polydet" and getattr(
                    module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, refuse)
    for richardson in (False, True):
        assert len(run_suite(corpus5, FDConfig(richardson=richardson))) == 10
    with pytest.raises(AssertionError, match="whole metric rebuilt"):
        corpus5.with_scale(2.0)


def test_nonfinite_step_is_refused():
    # the outer vertices' distance is just below the float limit, and the
    # step of vertex 3 away from vertex 1 takes it past: |z_3 - z_1| is
    # inf on the real axis and past the float range of abs on the
    # diagonal, so the step is refused instead of coming out inf, nan or
    # an OverflowError; steps that leave that distance alone are taken
    for axis in (1, 1 + 1j):
        a = sys.float_info.max / 2 / abs(axis) * (1 - 2e-5) * axis
        m = make_metric(1.0, [(-a, -0.6), (0, -0.7), (a, -0.7)])
        assert math.isfinite(log_det_over_area(m))
        with pytest.raises(PolydetError, match="not a finite float") as info:
            fd_gradient(m, "z:3")
        assert type(info.value) is PolydetError
        assert abs(fd_gradient(m, "C") - grad_scale(m)) < 1e-6
        assert fd_gradient(m, "beta:2") == pytest.approx(grad_angle(m, 2), rel=1e-6)


def test_nonfinite_base_is_refused():
    # a vertex distance past the float range: inf on the real axis, past
    # the range of abs on the diagonal; make_metric refuses either metric
    for a in (1e308, 1.5e308 * (1 + 1j)):
        with pytest.raises(PolydetError, match="not a finite float") as info:
            make_metric(1.0, [(-a, -0.6), (0, -0.7), (a, -0.7)])
        assert type(info.value) is PolydetError


@pytest.mark.parametrize("pre, ref", [(math.inf, 0.0), (math.nan, 0.0),
                                      (math.inf, math.inf), (1e308, -1e308)])
def test_assemble_refuses_nonfinite_sum(pre, ref, monkeypatch):
    # no validated metric reaches this guard: an inf or nan term, inf - inf
    # and a sum past the float range are injected through the prefactor
    # and the reference term
    m = tetrahedron_metric()
    for module in (detlap, verify):
        monkeypatch.setattr(module, "_prefactor", lambda scale: pre)
    monkeypatch.setattr(detlap, "_reference_term", lambda: ref)
    with pytest.raises(PolydetError, match="not a finite float"):
        log_det_over_area(m)
    with pytest.raises(PolydetError, match="not a finite float"):
        fd_gradient(m, "z:1")


def test_position_step_lost_to_rounding():
    # at 2e12 the spacing of doubles is 2.4e-4: a step of 1e-4 leaves the
    # real part unchanged, which would read as a zero derivative
    m = make_metric(1.0, [(2e12, -0.5), (2e12 + 1j, -0.5), (2e12 + 1, -0.5),
                          (2e12 + 1 + 1j, -0.5)])
    with pytest.raises(PerturbationLeavesDomain, match="lost to rounding"):
        fd_gradient(m, "z:1")
    with pytest.raises(PerturbationLeavesDomain, match="lost to rounding"):
        run_suite(m)
    assert abs(fd_gradient(m, "C") - grad_scale(m)) < 1e-6


def test_angle_step_lost_to_rounding():
    # b_2 = 3 and b_1 = -1 + 2e-12: the step scale is the gauge vertex's
    # angle, and the shift db = 2e-16 of b_2 is below half the spacing of
    # doubles at 3, so beta_2 does not move (a zero step, not a derivative)
    rest = (-4.0 - 2e-12) / 5.0
    m = make_metric(1.0, [(0, -1.0 + 2e-12), (1, 3.0)]
                    + [(complex(2 + k, 1), rest) for k in range(5)])
    with pytest.raises(PerturbationLeavesDomain, match="lost to rounding at vertex 2"):
        fd_gradient(m, "beta:2")
    assert fd_gradient(m, "z:2") == pytest.approx(grad_position(m, 2), rel=1e-6)


# ---- the scale channel past the float range ----

SUBNORMAL_VERTS = [(0, -0.5), (1, -0.3), (1j, -0.7), (1 + 1j, -0.5)]


@pytest.mark.parametrize("scale", [1e-309, 1e-312, 1e-320])
def test_scale_channel_at_subnormal_scale(scale):
    # dF/dC ~ -0.56/C is past the float range below about 3e-309; at
    # 1e-320 the step STEP * C also rounds to 0.  Each is a typed error,
    # not an OverflowError, an inf or nan report or a ZeroDivisionError
    m = make_metric(scale, SUBNORMAL_VERTS)
    with pytest.raises(PolydetError, match="past the float range") as info:
        grad_scale(m)
    assert type(info.value) is PolydetError
    if scale == 1e-320:
        with pytest.raises(PerturbationLeavesDomain, match="scale step 0.0 is lost to rounding"):
            fd_gradient(m, "C")
    else:
        with pytest.raises(PolydetError, match="past the float range") as info:
            fd_gradient(m, "C")
        assert type(info.value) is PolydetError
    # the other channels leave C alone
    assert all(r.rel_err <= 1e-5 for r in verify.gradient_reports(m, ["z:2", "beta:3"]))


def test_scale_channel_at_smallest_normal_scales():
    for scale in (1e-300, 1e-308):
        m = make_metric(scale, SUBNORMAL_VERTS)
        assert fd_gradient(m, "C") == pytest.approx(grad_scale(m), rel=1e-7)


def test_nonfinite_gradient_is_refused(tetra, monkeypatch):
    # a report holds finite floats only: inf or nan is not JSON
    for bad in (math.inf, math.nan):
        monkeypatch.setattr(verify, "grad_scale", lambda m: bad)
        with pytest.raises(PolydetError, match="not both finite floats") as info:
            fd_gradient(tetra, "C")
        assert type(info.value) is PolydetError


# ---- the gradient record ----

METRICS = ["tetra", "corpus5", "near_degenerate", "above_two_pi", "near_minus_one"]


def _fresh(m):
    return make_metric(m.scale, [(v.position, v.exponent) for v in m.vertices])


def _gradient_bits(m, reverse=False):
    """repr of every position and angle gradient of m, keyed by channel,
    asked for in vertex order or its reverse."""
    n = m.num_vertices
    calls = [("z", i) for i in range(1, n + 1)] + [("beta", i) for i in range(2, n + 1)]
    return {f"{kind}:{i}": repr(grad_position(m, i) if kind == "z" else grad_angle(m, i))
            for kind, i in (reversed(calls) if reverse else calls)}


@pytest.mark.parametrize("name", METRICS)
def test_gradient_record_keeps_the_bits(name, request):
    # the gradients a metric keeps have the same bits whoever forms them
    # and in whatever order, before and after a suite, and the suite's
    # analytic column is the direct calls
    base = request.getfixturevalue(name)
    first = _fresh(base)
    expect = _gradient_bits(first)
    for richardson in (False, True):
        reports = run_suite(first, FDConfig(richardson=richardson))
        assert {r.channel: repr(r.analytic) for r in reports if r.channel != "C"} == expect
    assert _gradient_bits(first, reverse=True) == expect
    suite_first = _fresh(base)
    run_suite(suite_first)
    assert _gradient_bits(suite_first) == expect
    reversed_first = _fresh(base)
    assert _gradient_bits(reversed_first, reverse=True) == expect
    assert _gradient_bits(_fresh(base)) == expect


def test_each_gradient_formed_once_per_metric(corpus5, monkeypatch):
    # every position gradient and angle block of a metric is formed by
    # its first reader and read by every later call: the direct calls,
    # run_suite with and without Richardson, fd_gradient
    formed = []
    for name in ("_position_gradient", "_angle_block"):
        original = getattr(detlap, name)

        def counted(m, q, original=original, name=name):
            formed.append((id(m), name, q))
            return original(m, q)

        monkeypatch.setattr(detlap, name, counted)
    metrics = [_fresh(corpus5), _fresh(corpus5)]
    for m in metrics:
        n = m.num_vertices
        for _ in range(2):
            _gradient_bits(m)
            run_suite(m)
            run_suite(m, FDConfig(richardson=True))
            fd_gradient(m, "z:3")
            fd_gradient(m, "beta:4")
    assert sorted(formed) == sorted((id(m), name, q) for m in metrics
                                    for name in ("_position_gradient", "_angle_block")
                                    for q in range(n))


def test_gradient_index_and_gauge_errors(corpus5):
    # the checks come before the record: their errors and messages are
    # those of the formulas, and a refused call forms nothing
    m = _fresh(corpus5)
    for i in (0, 6):
        message = f"^vertex index {i} out of range 1..5$"
        for grad in (grad_position, grad_angle):
            with pytest.raises(PolydetError, match=message) as info:
                grad(m, i)
            assert type(info.value) is PolydetError
    with pytest.raises(GaugeVertexVariation, match="^vertex 1 is the compensating gauge vertex$"):
        grad_angle(m, 1)
    assert m._gradients == ([None] * 5, [None] * 5)
    assert _gradient_bits(m) == _gradient_bits(_fresh(corpus5))


def test_gradient_call_forms_only_its_own_vertices():
    # vertices 2 and 3 sit 1e-310 on either side of vertex 1: the position
    # sums of vertices 1-3 meet terms past the float range and raise a
    # typed error, while vertex 4 still returns its own, whichever vertex
    # is asked for first
    verts = [(0, -0.5), (1e-310, -0.5), (-1e-310, -0.5), (1j, -0.5)]
    expect = {}
    for first in (1, 2, 3, 4):
        m = make_metric(1.0, verts)
        for i in [first] + [i for i in (1, 2, 3, 4) if i != first]:
            if i < 4:
                with pytest.raises(PolydetError, match="not a finite float") as info:
                    grad_position(m, i)
                assert type(info.value) is PolydetError
            else:
                bits = repr(grad_position(m, 4))
                assert bits == expect.setdefault("bits", bits)
    assert complex(expect["bits"]) == pytest.approx(-0.25j, abs=1e-15)
