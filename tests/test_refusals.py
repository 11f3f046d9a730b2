"""The typed-refusal contract, as derandomized property tests: every public
name of ``metric``, ``quad``, ``detlap``, ``regint``, ``cone``,
``elliptic`` and ``verify`` returns finite values or raises a
``PolydetError`` subclass, and ``cli.main`` returns 0, 1 (``verify fd``
only), 2 or 3, or leaves by argparse's ``SystemExit(2)`` on a malformed
command line.  The ``PolyhedralMetric`` constructor, called directly or
by ``dataclasses.replace``, refuses by the same type and message as
``make_metric`` and builds an equal metric where that does, and a vertex
index that is not an integer (2.0, nan, "2") is refused as one out of
range.  A vertex list that is not a sequence of pairs is refused by
both, and one of plain pairs by the constructor, which takes only
``ConicalVertex``es.

The inputs mix moderate values, which reach the computations, with
floats from the whole range: nan, +-inf, subnormals, 1e300 and 1.7e308.
"""

import cmath
import contextlib
import dataclasses
import functools
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydet import cli, cone, detlap, elliptic, metric, quad, regint, verify
from polydet.errors import PolydetError
from polydet.metric import ConicalVertex, PolyhedralMetric

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)

EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
         1e-300, 1e-100, 1e100, 1e300, -1e300, 1.7e308, -1.7e308]


def reals(lo=-3.0, hi=3.0):
    """A float in [lo, hi], at an edge of the float range, or anywhere."""
    return st.one_of(st.floats(lo, hi), st.sampled_from(EDGES), st.floats())


def indices(hi):
    """A vertex index from -1 to hi, or a value that is not an integer."""
    return st.one_of(st.integers(-1, hi), st.sampled_from([2.0, math.nan, "2"]))


@st.composite
def points(draw, n):
    """n points: all moderate, or each coordinate from ``reals``."""
    coord = st.floats(-3.0, 3.0) if draw(st.booleans()) else reals()
    return [complex(draw(coord), draw(coord)) for _ in range(n)]


@st.composite
def metric_inputs(draw):
    """(C, [(z, b), ...]) for ``make_metric``: exponents with the
    Gauss-Bonnet sum from positive weights, or each from ``reals``."""
    n = draw(st.integers(3, 6))
    if draw(st.booleans()):
        weights = draw(st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n))
        bs = [-2.0 * w / math.fsum(weights) for w in weights[:-1]]
        bs.append(-2.0 - math.fsum(bs))
    else:
        bs = draw(st.lists(reals(-1.5, 2.0), min_size=n, max_size=n))
    scale = draw(st.floats(0.1, 10.0) if draw(st.booleans()) else reals(0.0, 10.0))
    return scale, list(zip(draw(points(n)), bs))


def metrics():
    """A metric from ``metric_inputs``, or None where it is refused."""
    return metric_inputs().map(lambda args: _call(metric.make_metric, *args))


def _call(f, *args):
    """f(*args), or None where it raises a PolydetError subclass; any
    other exception fails the test."""
    try:
        return f(*args)
    except PolydetError:
        return None


def _outcome(f, *args):
    """f(*args) under the contract, or the type and message of the
    PolydetError subclass it raises."""
    try:
        result = f(*args)
    except PolydetError as exc:
        return type(exc), str(exc)
    assert _finite(result), (f, args, result)
    return result


def _finite(value) -> bool:
    """Every number held in ``value`` is finite."""
    if value is None or isinstance(value, (bool, int, str)):
        return True
    if isinstance(value, (float, complex)):
        return cmath.isfinite(value)
    if isinstance(value, PolyhedralMetric):
        return _finite((value.scale, value.vertices))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    return all(map(_finite, value))


def _checked(f, *args):
    """f(*args) under the contract: finite, or a PolydetError subclass."""
    result = _call(f, *args)
    assert _finite(result), (f.__name__, args, result)
    return result


# vertex lists that are not sequences of pairs
NOT_VERTICES = st.sampled_from([None, 5, math.nan, "abc", (5, 6, 7), [None] * 3,
                                [(0.0, -0.5, 1.0)] * 3, [ConicalVertex(1.0, -0.5), 2.0]])


@given(inputs=metric_inputs(), data=st.data())
@PROPERTY
def test_metric_names_refuse_by_type(inputs, data):
    scale, verts = inputs
    made = _outcome(metric.make_metric, scale, verts)
    assert _outcome(PolyhedralMetric, scale, tuple(ConicalVertex(*v) for v in verts)) == made
    # the plain pairs, which only make_metric converts, or a list that is
    # not pairs, which both refuse by name
    bad = data.draw(st.one_of(st.just(verts), NOT_VERTICES))
    refused = _outcome(PolyhedralMetric, scale, bad)
    assert refused[0] is PolydetError and refused[1].startswith("cannot take "), refused
    if bad is not verts:
        assert _outcome(metric.make_metric, scale, bad)[0] is PolydetError
    # a valid metric, with a new scale, then with one vertex moved and
    # its exponent kept or drawn
    m = made if isinstance(made, PolyhedralMetric) else metric.tetrahedron_metric()
    assert metric.metric_from_json_dict(metric.metric_to_json_dict(m)) == m
    raw = [(v.position, v.exponent) for v in m.vertices]
    scale = data.draw(reals(0.0, 10.0))
    made = _outcome(metric.make_metric, scale, raw)
    assert _outcome(functools.partial(dataclasses.replace, m, scale=scale)) == made
    assert _outcome(m.with_scale, scale) == made
    k = data.draw(st.integers(0, len(raw) - 1))
    raw[k] = (data.draw(points(1))[0], data.draw(st.one_of(st.just(raw[k][1]), reals(-1.5, 2.0))))
    vertices = m.vertices[:k] + (ConicalVertex(*raw[k]),) + m.vertices[k + 1:]
    assert (_outcome(functools.partial(dataclasses.replace, m, vertices=vertices))
            == _outcome(metric.make_metric, m.scale, raw))
    _checked(m.with_position, data.draw(indices(8)), complex(*data.draw(points(1))))
    _checked(m.check_index, data.draw(indices(8)))


JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), reals(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(["C", "vertices", "z", "b"]), inner,
                                            max_size=4)),
    max_leaves=12)


def _metric_json(inputs):
    scale, verts = inputs
    return {"C": scale, "vertices": [{"z": [z.real, z.imag], "b": b} for z, b in verts]}


@given(obj=st.one_of(metric_inputs().map(_metric_json), JSON))
@PROPERTY
def test_metric_from_json_refuses_by_type(obj):
    _checked(metric.metric_from_json_dict, obj)


@given(m=metrics(), n=st.integers(2, 5), data=st.data())
@PROPERTY
def test_area_and_chords_refuse_by_type(m, n, data):
    if m is not None:
        _checked(quad.area, m)
    zs = data.draw(points(n))
    bs = data.draw(st.lists(reals(-1.5, 2.0), min_size=n - 1, max_size=n + 1))
    u, v = data.draw(st.integers(-1, n)), data.draw(st.one_of(st.integers(-1, n), st.floats()))
    _checked(quad.segment_integral, zs, bs, u, v)


@given(m=metrics(), i=indices(7), beta=reals(0.0, 20.0), scale=reals(0.0, 10.0))
@PROPERTY
def test_determinant_and_gradients_refuse_by_type(m, i, beta, scale):
    _checked(detlap.f_function, beta, scale)
    _checked(detlap.f_function_dbeta, beta, scale)
    if m is None:
        return
    for f in (detlap.log_det_as, detlap.log_det_over_area, detlap.w_function,
              detlap.grad_scale):
        _checked(f, m)
    _checked(detlap.grad_position, m, i)
    _checked(detlap.grad_angle, m, i)


@given(beta=reals(0.0, 20.0), halved=st.booleans())
@PROPERTY
def test_finite_parts_and_q_refuse_by_type(beta, halved):
    for f in (regint.hadamard_coth_over_sinh_sq, regint.hadamard_coth_coth_over_theta):
        _checked(f, beta, halved)
    _checked(regint.q_of_beta, beta)
    _checked(regint.q_of_beta_contour, beta)


CONE_POINTS = st.builds(cone.ConePoint, reals(0.0, 3.0), reals(-1.0, 7.0))


@given(m=metrics(), beta=reals(0.0, 20.0), n=indices(8), t=reals(0.0, 5.0),
       mu=points(1), length=reals(0.0, 3.0), p=CONE_POINTS, q=CONE_POINTS)
@PROPERTY
def test_cone_names_refuse_by_type(m, beta, n, t, mu, length, p, q):
    # a complex mu for the resolvent, its real part elsewhere
    _checked(cone.heat_kernel_cone, beta, t, p, q)
    _checked(cone.heat_kernel_images, n, t, p, q)
    _checked(cone.resolvent_cone, beta, mu[0], p, q)
    _checked(cone.resolvent_images, n, mu[0].real, p, q)
    _checked(cone.a_mu, beta, mu[0].real, length)
    _checked(cone.a_mu_disk_integral, beta, mu[0].real, length)
    if m is not None:
        _checked(cone.heat_trace_correction, m)


@given(pts=st.integers(3, 5).flatmap(points), tau=points(1), area_x=reals(0.0, 10.0))
@PROPERTY
def test_elliptic_names_refuse_by_type(pts, tau, area_x):
    _checked(elliptic.dedekind_eta, tau[0])
    _checked(elliptic.theta_constants, tau[0])
    _checked(elliptic.det_tetrahedron, pts, area_x)
    data = _checked(elliptic.periods, pts)
    if data is None:
        return
    _checked(elliptic.jacobi_residual, data)
    _checked(elliptic.thomae_check, pts, data)
    _checked(elliptic.eta_distance_identity, pts, data)
    _checked(elliptic.det_torus, data, area_x)


CHANNELS = st.one_of(st.sampled_from(["C", "z:1", "z:2", "beta:1", "beta:2", "beta:3", "z:9",
                                      "z:", "beta:-1", "x:1"]),
                     st.text(max_size=6))


@given(m=metrics(), channel=CHANNELS, richardson=st.booleans())
@PROPERTY
def test_verify_names_refuse_by_type(m, channel, richardson):
    _checked(verify.parse_channel, channel)
    if m is None:
        return
    fdcfg = verify.FDConfig(richardson)
    _checked(verify.fd_gradient, m, channel, fdcfg)
    _checked(verify.run_suite, m, fdcfg)


# a metric file, a points file, other JSON or not JSON; json.dumps writes
# nan and inf as NaN and Infinity, which json.load takes back
FILES = st.one_of(metric_inputs().map(_metric_json).map(json.dumps),
                  st.fixed_dictionaries({"points": st.integers(3, 5).flatmap(points).map(
                      lambda ps: [[z.real, z.imag] for z in ps])}).map(json.dumps),
                  JSON.map(json.dumps),
                  st.text(max_size=8))
FORMATS = st.sampled_from([[], ["--json"], ["--csv"], ["--json", "--csv"]])


@st.composite
def command_lines(draw, first, second, points_file):
    """A polydet command line on the files ``first``, ``second`` and
    ``points_file``, or on a missing one."""
    path = draw(st.sampled_from([first, first, first, first + ".missing"]))
    fmt = draw(FORMATS)
    rich = draw(st.sampled_from([[], ["--richardson"]]))
    betas = draw(st.lists(st.one_of(reals(0.0, 20.0).map(repr), st.text(max_size=4)),
                          max_size=2))
    return draw(st.sampled_from([
        ["det", "--metric", path, *fmt],
        ["area", "--metric", path, *fmt],
        ["grad", "--metric", path, "--channel", draw(CHANNELS), *rich, *fmt],
        ["compare", "--m1", path, "--m2", second, *fmt],
        ["verify", "tetra", "--points", points_file],
        ["verify", "fd", "--metric", path, *rich],
        ["verify", "hadamard", "--beta", *betas],
    ]))


def _no_nonfinite(token):
    raise AssertionError(f"non-finite {token} in the JSON output")


@pytest.fixture(scope="module")
def cli_paths(tmp_path_factory):
    """Two metric files and a points file, rewritten by every example."""
    folder = tmp_path_factory.mktemp("cli")
    return [str(folder / name) for name in ("m1.json", "m2.json", "points.json")]


@given(texts=st.lists(FILES, min_size=3, max_size=3), data=st.data())
@PROPERTY
def test_cli_exit_codes(texts, data, cli_paths):
    for path, text in zip(cli_paths, texts):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    argv = data.draw(command_lines(*cli_paths))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse's usage error
            assert exc.code == 2, argv
            return
    assert code in ((0, 1, 2, 3) if argv[:2] == ["verify", "fd"] else (0, 2, 3)), argv
    if code >= 2:
        assert json.loads(err.getvalue())["error"], argv
    elif "--csv" not in argv and (argv[0] == "verify" or "--json" in argv):
        json.loads(out.getvalue(), parse_constant=_no_nonfinite)
