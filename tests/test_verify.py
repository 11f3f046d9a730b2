import math
import sys

import pytest

from polydet import (
    Angle,
    FDConfig,
    Position,
    Scale,
    area,
    detlap,
    fd_gradient,
    grad_angle,
    grad_position,
    grad_scale,
    log_det_over_area,
    run_suite,
    tetrahedron_metric,
    variation_field,
    verify,
)
from polydet.errors import GaugeVertexVariation, PerturbationLeavesDomain, PolydetError
from polydet.metric import make_metric

PI = math.pi


def test_fd_position_tetrahedron(tetra):
    fd = fd_gradient(tetra, Position(1))
    assert abs(fd - 0.125) < 1e-6


def test_fd_scale_tetrahedron(tetra):
    fd = fd_gradient(tetra, Scale())
    assert abs(fd - (-0.5)) < 1e-7


def test_richardson_changes_little_on_smooth_channels(tetra):
    plain = fd_gradient(tetra, Position(1))
    rich = fd_gradient(tetra, Position(1), fdcfg=FDConfig(richardson=True))
    assert abs(plain - rich) < 1e-9
    assert abs(rich - 0.125) < 1e-12
    plain = fd_gradient(tetra, Scale())
    rich = fd_gradient(tetra, Scale(), fdcfg=FDConfig(richardson=True))
    assert abs(plain - rich) < 1e-8  # h^2 truncation of the plain stencil
    assert abs(rich - (-0.5)) < 1e-10


def test_fd_angle_gauge_rejected(tetra):
    with pytest.raises(GaugeVertexVariation):
        fd_gradient(tetra, Angle(1))


def test_fd_rejects_domain_exit():
    # the angle step scales with the smaller of the two perturbed angles,
    # so only an exponent within the 1e-12 margin of b = -1 can leave the
    # domain: 5e-13 above -1 it does
    m = make_metric(1.0, [(0, -1.0 + 5e-13), (1, -0.5), (-1, -0.5 - 5e-13)])
    with pytest.raises(PerturbationLeavesDomain):
        fd_gradient(m, Angle(3))


@pytest.mark.parametrize("channel", [Position(0), Position(5), Angle(0), Angle(5)],
                         ids=["z:0", "z:5", "beta:0", "beta:5"])
def test_vertex_index_out_of_range(tetra, channel):
    # vertex indices are 1-based: 0 must not wrap round to the last vertex
    with pytest.raises(PolydetError, match="out of range"):
        fd_gradient(tetra, channel)
    grad = grad_position if isinstance(channel, Position) else grad_angle
    with pytest.raises(PolydetError, match="out of range"):
        grad(tetra, channel.i)
    with pytest.raises(PolydetError, match="out of range"):
        variation_field(tetra, channel, 0.3 + 0.2j)


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
    if isinstance(channel, Scale):
        h = verify.STEP * m.scale
        return [(lambda mm: mm.scale,
                 [m.with_scale(m.scale + e) for e in verify._steps(h, richardson)])]
    if isinstance(channel, Position):
        h = verify.STEP * m.min_pairwise_distance()
        i = channel.i
        z0 = m.vertices[i - 1].position
        offsets = verify._steps(h, richardson)
        return [(lambda mm: mm.vertices[i - 1].position.real,
                 [m.with_position(i, z0 + e) for e in offsets]),
                (lambda mm: mm.vertices[i - 1].position.imag,
                 [m.with_position(i, z0 + 1j * e) for e in offsets])]
    i = channel.i
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
                                  "near_minus_one"])
def test_steps_match_whole_metrics(name, richardson, request):
    # every step, evaluated from the base metric's parts, has the bits of
    # log_det_over_area of the perturbed metric built whole, and its offset
    # is the one it takes in that metric
    m = request.getfixturevalue(name)
    n = m.num_vertices
    channels = ([Position(i) for i in range(1, n + 1)]
                + [Angle(i) for i in range(2, n + 1)] + [Scale()])
    steps = verify._Steps(m)
    for channel in channels:
        rows = verify._plan(steps, channel, richardson)
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
            fd_gradient(m, Position(3))
        assert type(info.value) is PolydetError
        assert abs(fd_gradient(m, Scale()) - grad_scale(m)) < 1e-6
        assert fd_gradient(m, Angle(2)) == pytest.approx(grad_angle(m, 2), rel=1e-6)


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
        fd_gradient(m, Position(1))


def test_position_step_lost_to_rounding():
    # at 2e12 the spacing of doubles is 2.4e-4: a step of 1e-4 leaves the
    # real part unchanged, which would read as a zero derivative
    m = make_metric(1.0, [(2e12, -0.5), (2e12 + 1j, -0.5), (2e12 + 1, -0.5),
                          (2e12 + 1 + 1j, -0.5)])
    with pytest.raises(PerturbationLeavesDomain, match="lost to rounding"):
        fd_gradient(m, Position(1))
    with pytest.raises(PerturbationLeavesDomain, match="lost to rounding"):
        run_suite(m)
    assert abs(fd_gradient(m, Scale()) - grad_scale(m)) < 1e-6
