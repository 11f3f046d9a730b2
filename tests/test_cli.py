import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import polydet
from polydet import (detlap, dump_metric, elliptic, make_metric, quad, regint,
                     tetrahedron_metric, verify)
from polydet.cli import main


@pytest.fixture(scope="module")
def tetra_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("metrics") / "tetra.json"
    dump_metric(tetrahedron_metric(), str(path))
    return str(path)


@pytest.fixture(scope="module")
def bad_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("metrics") / "bad.json"
    with open(path, "w") as fh:
        json.dump({"C": 1.0, "vertices": [
            {"z": [0, 0], "b": -0.5}, {"z": [1, 0], "b": -0.5},
            {"z": [2, 0], "b": -0.5}]}, fh)
    return str(path)


def test_det_happy_path(tetra_path, capsys):
    code = main(["det", "--metric", tetra_path, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["log_det"] == pytest.approx(math.log(2.18843961522637), rel=1e-6)
    assert set(rep) >= {"log_det", "log_det_over_area", "area", "w_term",
                        "f_terms", "reference_term", "prefactor"}


def test_every_command_runs_without_scipy(tetra_path, tmp_path):
    # scipy is only the tests' reference: each command runs where importing
    # it fails
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"points": [[1, 0], [-1, 0], [0, 1], [0, -1]]}))
    commands = {
        "det": ["det", "--metric", tetra_path],
        "area": ["area", "--metric", tetra_path],
        "grad": ["grad", "--metric", tetra_path, "--channel", "C"],
        "compare": ["compare", "--m1", tetra_path, "--m2", tetra_path],
        "verify tetra": ["verify", "tetra", "--points", str(points)],
        "verify fd": ["verify", "fd", "--metric", tetra_path],
        "verify hadamard": ["verify", "hadamard", "--beta", "3.0"],
    }
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from polydet.cli import main\n"
            "codes = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    try:\n"
            "        codes.append(main(argv))\n"
            "    except ImportError as exc:\n"
            "        codes.append(repr(exc))\n"
            "print(json.dumps(codes))")
    env = dict(os.environ, PYTHONPATH=str(Path(polydet.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(list(commands.values()))],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert dict(zip(commands, codes)) == dict.fromkeys(commands, 0)


@pytest.mark.parametrize("argv, commands", [
    (["-h"], "{det,area,grad,compare,verify}"),
    (["verify", "-h"], "{tetra,fd,hadamard}"),
], ids=["polydet", "verify"])
def test_help_lists_the_commands(argv, commands, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert commands in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "cone"],
    ["--seed", "7", "verify", "hadamard"],
], ids=["verify cone", "--seed"])
def test_retired_command_and_option_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: polydet")


def test_det_report_json_round_trip(tetra_path, capsys):
    main(["det", "--metric", tetra_path, "--json"])
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert json.loads(json.dumps(rep)) == rep  # floats survive bit-exactly


@pytest.mark.parametrize("argv, record", [
    (["det"], detlap.DetReport),
    (["area"], quad.QuadResult),
    (["grad", "--channel", "beta:2"], verify.GradientReport),
])
def test_json_records_are_objects_of_their_fields(argv, record, tetra_path, capsys):
    # a result record is a JSON object keyed by its fields, in order, not
    # the list of its values
    assert main([*argv, "--metric", tetra_path, "--json"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == list(record._fields)


def test_verify_hadamard_finite_parts_are_objects_of_their_fields(capsys):
    assert main(["verify", "hadamard", "--beta", "3.0"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    for name in ("coth_over_sinh_sq", "coth_coth_over_theta"):
        assert list(row[name]) == list(regint.HadamardResult._fields)


def test_det_gauss_bonnet_error(bad_path, capsys):
    code = main(["det", "--metric", bad_path])
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.err)
    assert err["error"] == "GaussBonnetViolation"


def test_det_exponent_sum_past_float_range_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"C": 1.0, "vertices": [
        {"z": [0, 0], "b": 1.7e308}, {"z": [1, 0], "b": 1.7e308}, {"z": [0, 1], "b": -0.5}]}))
    code, err = _one_error_line(["det", "--metric", str(path)], capsys)
    assert code == 2
    assert err["error"] == "GaussBonnetViolation"


def test_det_with_an_angle_that_underflows(tmp_path, capsys):
    # arg(1000 + 1e-322 i - 0) = 1e-325 underflows, where cmath.phase
    # raises OverflowError; the determinant is that of the vertex at 1000
    verts = [[[0, 0], -0.5], [[1, 0], -0.5], [[0.5, 1], -0.5], [[1000, 1e-322], -0.5]]
    logs = []
    for tail in (1e-322, 0.0):
        verts[3][0][1] = tail
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"C": 1.0, "vertices": [{"z": z, "b": b} for z, b in verts]}))
        assert main(["det", "--metric", str(path), "--json"]) == 0
        logs.append(json.loads(capsys.readouterr().out)["log_det"])
    assert logs[0] == pytest.approx(logs[1], abs=1e-12)


def test_missing_file_is_validation_error(capsys):
    code = main(["det", "--metric", "/nonexistent/m.json"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "IOError"


_TETRA_VERTS = [{"z": [1, 0], "b": -0.5}, {"z": [-1, 0], "b": -0.5},
                {"z": [0, 1], "b": -0.5}, {"z": [0, -1], "b": -0.5}]


@pytest.mark.parametrize("command, text", [
    (["det", "--metric"], "not json {"),
    (["det", "--metric"], json.dumps({"C": "x", "vertices": _TETRA_VERTS})),
    (["det", "--metric"], json.dumps(
        {"C": 1.0, "vertices": _TETRA_VERTS[:3] + [{"z": [0, -1], "b": "q"}]})),
    (["verify", "tetra", "--points"], json.dumps({"pts": [[1, 0], [-1, 0]]})),
    (["verify", "tetra", "--points"], "not json {"),
    # only JSON numbers and [re, im] pairs of length 2: no strings that
    # spell a number, no bools, no extra coordinates
    (["det", "--metric"], json.dumps(
        {"C": 1.0, "vertices": [{"z": "10", "b": -0.5}] + _TETRA_VERTS[1:]})),
    (["det", "--metric"], json.dumps({"C": "1.0", "vertices": _TETRA_VERTS})),
    (["det", "--metric"], json.dumps(
        {"C": 1.0, "vertices": _TETRA_VERTS[:3] + [{"z": [0, -1], "b": "-0.5"}]})),
    (["det", "--metric"], json.dumps({"C": True, "vertices": _TETRA_VERTS})),
    (["det", "--metric"], json.dumps(
        {"C": 1.0, "vertices": [{"z": [1, True], "b": -0.5}] + _TETRA_VERTS[1:]})),
    (["det", "--metric"], json.dumps(
        {"C": 1.0, "vertices": _TETRA_VERTS[:3] + [{"z": [0, -1, 99], "b": -0.5}]})),
    pytest.param(["det", "--metric"], json.dumps({"C": 10 ** 400, "vertices": _TETRA_VERTS}),
                 id="int-past-the-float-range"),
    (["verify", "tetra", "--points"], json.dumps({"points": [[1, 0], [-1, 0], [0, 1], "01"]})),
    (["verify", "tetra", "--points"], json.dumps(
        {"points": [[1, 0], [-1, 0], [0, 1], [0, -1, 99]]})),
    # nested past the interpreter's recursion limit: json.load raises
    # RecursionError, not ValueError
    pytest.param(["det", "--metric"], "[" * 100000 + "]" * 100000, id="nested-metric"),
    pytest.param(["verify", "tetra", "--points"],
                 '{"points": ' + "[" * 100000 + "]" * 100000 + "}", id="nested-points"),
])
def test_malformed_input_file_is_validation_error(command, text, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    code = main([*command, str(path)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidMetricJSON"


@pytest.mark.parametrize("command", [["det"], ["area"], ["grad", "--channel", "beta:2"],
                                     ["grad", "--channel", "z:2"]])
def test_nonfinite_position_is_validation_error(command, tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(
        {"C": 1.0, "vertices": _TETRA_VERTS[:1] + [{"z": [math.nan, 0], "b": -0.5}]
         + _TETRA_VERTS[2:]}))
    code = main([command[0], "--metric", str(path), *command[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "PolydetError"


def _one_error_line(argv, capsys):
    """Exit code and error JSON of a CLI run that must write nothing but
    one JSON line to stderr; a warning on the way fails the run."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    return code, json.loads(lines[0])


_FAR_ARGV = {"det": ["det", "--metric"], "area": ["area", "--metric"],
             "tetra": ["verify", "tetra", "--points"]}


def _far_file(size, tmp_path):
    corners = [[size, 0], [-size, 0], [0, size], [0, -size]]
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"C": 1.0, "points": corners, "vertices": [
        {"z": z, "b": -0.5} for z in corners]}))
    return str(path)


_FAR_SIZES = (1e300, 1e-155, 1e-170, 1e-190, 1e-205, 1e-300, 1e-315)
# verify tetra integrates its periods before the area: they keep their
# digits from 1e-300 to 1e300 (the chord's scale is one power of |d|), so
# the area refuses there, its chord polygon past the float range, and at
# 1e-315 (subnormal) a period is nan
_FAR_CASES = [(command, size, "not a positive finite float")
              for command in ("det", "area") for size in _FAR_SIZES]
_FAR_CASES += [("tetra", size, "area inf is not a positive finite float: "
                "the area is outside the float range")
               for size in _FAR_SIZES[1:-1]]
_FAR_CASES += [("tetra", 1e-315, "the chord from point 0 to point 1, (nan+nanj) with "
                "error estimate nan, is not a finite float")]
_FAR_CASES += [("tetra", 1e300, "area 0.0 is not a positive finite float: "
                "the area is outside the float range")]


@pytest.mark.parametrize("command, size, message", [
    pytest.param(*case, id=f"{case[1]}-{case[0]}") for case in _FAR_CASES])
def test_area_outside_float_range_is_validation_error(command, size, message,
                                                      tmp_path, capsys):
    code, err = _one_error_line([*_FAR_ARGV[command], _far_file(size, tmp_path)], capsys)
    assert code == 2
    assert err["error"] == "PolydetError"
    assert message in err["message"]


@pytest.mark.parametrize("points, error", [
    ([[1, 1]] * 4, "DegenerateQuartic"),
    ([[1e308, 0], [-1e308, 0], [0, 1e308], [0, -1.7e308]], "PolydetError")],
    ids=["coincident", "gap-past-float-range"])
def test_verify_tetra_refuses_degenerate_branch_points(points, error, tmp_path, capsys):
    # four coincident points (every gap 0, so the relative test had no
    # scale) and a gap whose modulus is past the float range
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": points}))
    code, err = _one_error_line(["verify", "tetra", "--points", str(path)], capsys)
    assert code == 2
    assert err["error"] == error


def _verify_far_tetra(size, tmp_path, capsys):
    """verify tetra on the tetrahedron at +-size passes every identity,
    with det' = det'(size 1)/size to 1e-12."""
    reports = []
    for scale in (1.0, size):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*_FAR_ARGV["tetra"], _far_file(scale, tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        reports.append(json.loads(captured.out))
    unit, rep = reports
    for key in ("jacobi_residual", "thomae_residual", "eta_distance_residual",
                "as_vs_tetr_rel", "area_consistency"):
        assert rep[key] < 1e-12, key
    assert abs(rep["det_torus_over_det_sq"] - 1.0) < 1e-12
    assert rep["det_tetrahedron"] * size == pytest.approx(unit["det_tetrahedron"], rel=1e-12)


@pytest.mark.parametrize("size", [2e-154, 2.5e-154, 3e-154])
def test_area_near_top_of_float_range(size, tmp_path, capsys):
    # the area, about 6.9/size^2, is near 1e308: det and area report it,
    # and verify tetra with it a det' near 1e154
    path = _far_file(size, tmp_path)
    for command in ("det", "area"):
        assert main([*_FAR_ARGV[command], path]) == 0
        assert capsys.readouterr().err == ""
    _verify_far_tetra(size, tmp_path, capsys)


@pytest.mark.parametrize("size", [1e-60, 1e60])
def test_verify_tetra_far_sizes(size, tmp_path, capsys):
    # the product of the six distances, size^6, is outside the float range
    # here; det' (about 2.2/size) is not
    _verify_far_tetra(size, tmp_path, capsys)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_verify_tetra_nonfinite_point_is_validation_error(value, tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text(f'{{"points": [[1, 0], [-1, {value}], [0, 1], [0, -1]]}}')
    code, err = _one_error_line(["verify", "tetra", "--points", str(path)], capsys)
    assert code == 2
    assert err["error"] == "PolydetError"
    assert "finite" in err["message"]


def test_period_tolerance_not_reached_exit_code(tmp_path, monkeypatch, capsys):
    # no period meets a relative error estimate of 1e-20
    monkeypatch.setattr(elliptic, "PERIOD_REL_TOL", 1e-20)
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [[1, 0], [-1, 0], [0, 1], [0, -1]]}))
    code, err = _one_error_line(["verify", "tetra", "--points", str(path)], capsys)
    assert code == 3
    assert err["error"] == "ToleranceNotReached"
    assert "period" in err["message"]


@pytest.mark.parametrize("beta", ["1e-300", "1e300", "1e-101", "1e101"])
def test_cone_angle_outside_range_is_validation_error(beta, capsys):
    code, err = _one_error_line(["verify", "hadamard", "--beta", beta], capsys)
    assert code == 2
    assert err["error"] == "PolydetError"
    assert "outside" in err["message"]


@pytest.mark.parametrize("betas, error", [(["1.0", "0"], "NonpositiveAngle"),
                                          (["1.0", "1e101"], "PolydetError")])
def test_invalid_angle_after_a_valid_one_is_validation_error(betas, error, capsys):
    # the first angle is computed before the second is refused, and
    # nothing of it is written
    code, err = _one_error_line(["verify", "hadamard", "--beta", *betas], capsys)
    assert code == 2
    assert err["error"] == error


def test_small_angle_contour_refused_under_memory_limit():
    # beta = 1e-8 puts about 8e8 poles on the contour; without the pole
    # bound the list alone takes hundreds of GB, so the run is only ever
    # made in a child whose address space is capped at 1 GB
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from polydet.cli import main\n"
            "sys.exit(main(['verify', 'hadamard', '--beta', '1e-8']))")
    env = dict(os.environ, PYTHONPATH=str(Path(polydet.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    err = json.loads(lines[0])
    assert err["error"] == "PolydetError"
    assert "poles" in err["message"]


def test_tolerance_not_reached_exit_code(tetra_path, monkeypatch, capsys):
    # below the rounding floor of the area's error estimate
    monkeypatch.setattr(quad, "REL_TOL", 1e-17)
    code = main(["det", "--metric", tetra_path])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.err)["error"] == "ToleranceNotReached"


def test_finite_part_split_budget_exit_code(monkeypatch, capsys):
    # a 2-node panel rule exhausts the finite parts' split budget
    monkeypatch.setattr(quad, "NODES", 2)
    code = main(["verify", "hadamard", "--beta", "3.0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ToleranceNotReached"


def test_commands_need_no_finite_part(tetra_path, monkeypatch, capsys):
    # det, grad and verify fd take F and dF/dbeta from the mode series, so
    # a finite part that cannot be computed leaves them working
    def refuse(*args, **kwargs):
        raise AssertionError("a finite part was computed")

    monkeypatch.setattr(regint, "_finite_part", refuse)
    monkeypatch.setattr(regint, "_panel_integral", refuse)
    detlap._angle_terms.cache_clear()
    for argv in (["det"], ["grad", "--channel", "beta:2"], ["verify", "fd"]):
        assert main([*argv, "--metric", tetra_path]) == 0, argv
        assert capsys.readouterr().err == ""


def test_area_csv_output(tetra_path, capsys):
    code = main(["area", "--metric", tetra_path, "--csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["value"]) == pytest.approx(6.8751858, rel=1e-6)


def test_grad_command(tetra_path, capsys):
    code = main(["grad", "--metric", tetra_path, "--channel", "z:1", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["analytic"]["re"] == pytest.approx(0.125, abs=1e-12)
    assert rep["rel_err"] < 1e-5


def test_grad_bad_channel(tetra_path, capsys):
    code = main(["grad", "--metric", tetra_path, "--channel", "w:9"])
    assert code == 2


def test_grad_channel_superscript_digit(tetra_path, capsys):
    # "²" is a digit to str.isdigit but not a decimal int() can read
    code = main(["grad", "--metric", tetra_path, "--channel", "z:\u00b2"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "PolydetError"


@pytest.mark.parametrize("channel", ["z:0", "beta:0", "z:5", "beta:5"])
def test_grad_vertex_index_out_of_range(tetra_path, channel, capsys):
    # the tetrahedron has vertices 1..4
    code = main(["grad", "--metric", tetra_path, "--channel", channel])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PolydetError"
    assert "out of range" in err["message"]


def test_compare_command(tetra_path, tmp_path, capsys):
    scaled = tmp_path / "scaled.json"
    dump_metric(make_metric(1.0, [(2, -0.5), (-2, -0.5), (2j, -0.5), (-2j, -0.5)]),
                str(scaled))
    code = main(["compare", "--m1", str(scaled), "--m2", tetra_path, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["log_det_ratio"] == pytest.approx(-math.log(2), abs=1e-12)


@pytest.mark.parametrize("other", ["angles", "scale"])
def test_compare_is_the_difference_of_two_det_values(other, tetra_path, tmp_path, capsys):
    # any two metrics compare, whatever their angles and scales: the ratio
    # is the difference of the two `det` values, bit for bit
    m2 = (make_metric(1.3, GENERIC_VERTS) if other == "angles"
          else tetrahedron_metric().with_scale(2.0))
    path = str(tmp_path / "m2.json")
    dump_metric(m2, path)
    log_dets = []
    for metric in (tetra_path, path):
        assert main(["det", "--metric", metric, "--json"]) == 0
        log_dets.append(json.loads(capsys.readouterr().out)["log_det"])
    assert main(["compare", "--m1", tetra_path, "--m2", path, "--json"]) == 0
    ratio = json.loads(capsys.readouterr().out)["log_det_ratio"]
    assert ratio.hex() == (log_dets[0] - log_dets[1]).hex()


def test_verify_fd_command(tetra_path, capsys):
    code = main(["verify", "fd", "--metric", tetra_path, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 8
    assert all(r["rel_err"] <= 1e-5 for r in reports)


def test_verify_fd_csv_one_row_per_channel(tetra_path, capsys):
    code = main(["verify", "fd", "--metric", tetra_path, "--csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["channel"] for r in rows] == [
        "z:1", "z:2", "z:3", "z:4", "beta:2", "beta:3", "beta:4", "C"]
    assert all(float(r["rel_err"]) <= 1e-5 for r in rows)


@pytest.mark.parametrize("offset, code", [(2e-5, 1), (7e-6, 0)])
def test_verify_fd_exits_1_when_a_channel_misses(tetra_path, monkeypatch, capsys, offset, code):
    # dF/dC of the tetrahedron is -0.5: an offset of 2e-5 misses FD_PASS_TOL
    # = 1e-5, while 7e-6 passes only through the floor REL_ERR_FLOOR = 1 of
    # the relative error (7e-6/0.5 would miss)
    monkeypatch.setattr(verify, "grad_scale", lambda m: detlap.grad_scale(m) + offset)
    assert main(["verify", "fd", "--metric", tetra_path, "--json"]) == code
    row = json.loads(capsys.readouterr().out)[-1]
    assert row["channel"] == "C"
    assert row["analytic"] == -0.5 + offset
    assert row["rel_err"] == pytest.approx(offset, rel=1e-2)


GENERIC_VERTS = [(0.1 + 0.2j, -0.6), (1.1 - 0.3j, -0.45), (-0.7 + 0.9j, -0.55), (0.4 - 1.2j, -0.4)]


@pytest.mark.parametrize("flags", [[], ["--richardson"]], ids=["plain", "richardson"])
@pytest.mark.parametrize("channel, row", [("z:1", 0), ("beta:2", 4), ("C", 7)])
def test_grad_is_its_row_of_verify_fd(channel, row, flags, tmp_path, capsys):
    # both commands print the same report of a channel, to the last bit
    path = _metric_file(tmp_path, 1.3, GENERIC_VERTS)
    assert main(["verify", "fd", "--metric", path, "--json", *flags]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert main(["grad", "--metric", path, "--channel", channel, "--json", *flags]) == 0
    out = capsys.readouterr().out
    assert reports[row]["channel"] == channel
    assert out == json.dumps(reports[row]) + "\n"


def test_grad_names_the_channel_as_verify_fd_does(tetra_path, capsys):
    assert main(["grad", "--metric", tetra_path, "--channel", "z:01", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["channel"] == "z:1"


def test_human_output_format(tetra_path, tmp_path, capsys):
    # one "key  value" line per leaf: keys left-aligned to the longest plus
    # two spaces, floats as .17g, list entries as f_terms[0] and complex
    # fields as .re and .im
    assert main(["det", "--metric", tetra_path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "log_det            0.78318878541367409",
        "log_det_over_area  -1.1447298858494002",
        "area               6.875185818020376",
        "w_term             0.46209812037329684",
        *(f"f_terms[{i}]         -0.1933920761697045" for i in range(4)),
        "reference_term     -0.77356830467881799",
        "prefactor          -1.6068280062226969",
    ]
    path = _metric_file(tmp_path, 1.3, GENERIC_VERTS)
    assert main(["grad", "--metric", path, "--channel", "z:2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "channel               z:2",
        "analytic.re           0.13792540792540792",
        "analytic.im           0.024042346542346545",
        "finite_difference.re  0.13792540783569046",
        "finite_difference.im  0.024042346282521401",
        "abs_err               2.7487875023317322e-10",
        "rel_err               2.7487875023317322e-10",
    ]


def test_verify_hadamard_command(capsys):
    code = main(["verify", "hadamard", "--beta", str(math.pi)])
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["q_of_beta"] == pytest.approx(0.125, abs=1e-12)
    assert rows[0]["q_contour_deviation"] < 1e-9
    assert rows[0]["cutoff_halving_shift"]["coth_over_sinh_sq"] < 1e-8


def test_verify_hadamard_shift_within_estimate(capsys):
    # halving the split radius moves the finite parts by rounding and
    # truncation only, which the two runs' error estimates cover; 1e-3
    # puts 8284 poles on the Q contour, below MAX_POLES
    betas = [math.pi * (0.15 + k * (4.0 - 0.15) / 11) for k in range(12)] + [1e-3]
    assert main(["verify", "hadamard", "--beta", *map(str, betas)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 13
    for row in rows:
        assert row["q_contour_deviation"] < 1e-12 * abs(row["q_of_beta"])
        for name, shift in row["cutoff_halving_shift"].items():
            assert shift <= row["cutoff_halving_estimate"][name], (row["beta"], name)


def test_verify_tetra_command(tmp_path, capsys):
    pts = tmp_path / "points.json"
    with open(pts, "w") as fh:
        json.dump({"points": [[1, 0], [-1, 0], [0, 1], [0, -1]]}, fh)
    code = main(["verify", "tetra", "--points", str(pts), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["jacobi_residual"] < 1e-10
    assert rep["thomae_residual"] < 1e-7
    assert rep["eta_distance_residual"] < 1e-7
    assert abs(rep["det_torus_over_det_sq"] - 1.0) < 1e-6
    assert rep["as_vs_tetr_rel"] < 1e-5


def _metric_file(tmp_path, scale, verts):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"C": scale, "vertices": [
        {"z": [z.real, z.imag], "b": b} for z, b in verts]}))
    return str(path)


@pytest.mark.parametrize("command", [["grad", "--channel", "C", "--json"],
                                     ["grad", "--channel", "beta:2", "--json"],
                                     ["verify", "fd"], ["det"], ["area"],
                                     ["grad", "--channel", "z:1", "--json"]])
def test_nonfinite_log_det_is_validation_error(command, tmp_path, capsys):
    # the distance of the outer vertices is inf on the real axis and past
    # the float range of abs on the diagonal, so the metric is refused: no
    # NaN on stdout (it is not JSON) and no OverflowError traceback, a
    # typed error instead
    for a in (1e308, 1.5e308 * (1 + 1j)):
        path = _metric_file(tmp_path, 1.0, [(-a, -0.6), (0, -0.7), (a, -0.7)])
        argv = [*command[:-1], "--metric", path, command[-1]] if command[0] == "grad" else [
            *command, "--metric", path]
        code, err = _one_error_line(argv, capsys)
        assert code == 2
        assert err["error"] == "PolydetError"
        assert "not a finite float" in err["message"]


@pytest.mark.parametrize("command", [["grad", "--channel", "z:1"], ["verify", "fd"]])
def test_position_step_lost_to_rounding_is_validation_error(command, tmp_path, capsys):
    # near 2e12 a step of 1e-4 (STEP times the unit gap) rounds away
    path = _metric_file(tmp_path, 1.0, [(2e12, -0.5), (2e12 + 1j, -0.5), (2e12 + 1, -0.5),
                                        (2e12 + 1 + 1j, -0.5)])
    code, err = _one_error_line([*command, "--metric", path], capsys)
    assert code == 2
    assert err["error"] == "PerturbationLeavesDomain"


def test_grad_position_far_from_origin(tmp_path, capsys):
    # near 1e12 the position step h = 1e-4 rounds to 1.2207e-4, one spacing
    # of doubles; divided by the step taken, the difference stays on the
    # analytic value
    path = _metric_file(tmp_path, 1.0, [(1e12, -0.5), (1e12 + 1j, -0.5), (1e12 + 1, -0.5),
                                        (1e12 + 1 + 1j, -0.5)])
    code = main(["grad", "--channel", "z:1", "--metric", path, "--json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["rel_err"] <= 1e-6


_SUBNORMAL_VERTS = [(0, -0.5), (1, -0.3), (1j, -0.7), (1 + 1j, -0.5)]


@pytest.mark.parametrize("scale, error", [(1e-309, "PolydetError"), (1e-312, "PolydetError"),
                                          (1e-320, "PerturbationLeavesDomain")])
@pytest.mark.parametrize("command", [["grad", "--channel", "C", "--json"], ["verify", "fd"]])
def test_scale_channel_at_subnormal_scale_is_validation_error(command, scale, error,
                                                              tmp_path, capsys):
    # dF/dC past the float range, or a scale step rounded to 0: one JSON
    # error line and exit 2, not a traceback, -Infinity/NaN on stdout or
    # exit 1
    path = _metric_file(tmp_path, scale, _SUBNORMAL_VERTS)
    code, err = _one_error_line([*command, "--metric", path], capsys)
    assert code == 2
    assert err["error"] == error


@pytest.mark.parametrize("command", [["grad", "--channel", "z:1"], ["grad", "--channel", "z:2"],
                                     ["verify", "fd"]])
def test_subnormal_gap_is_validation_error(command, tmp_path, capsys):
    # vertices 2 and 3 sit 1e-310 on either side of vertex 1: a position
    # gradient's sum meets terms past the float range, one JSON error line
    # and exit 2, not a traceback
    path = _metric_file(tmp_path, 1.0, [(0, -0.5), (1e-310, -0.5), (-1e-310, -0.5),
                                        (1j, -0.5)])
    code, err = _one_error_line([*command, "--metric", path], capsys)
    assert code == 2
    assert err["error"] == "PolydetError"
    assert "not a finite float" in err["message"]


@pytest.mark.parametrize("command", [["det"], ["compare", "--m2"]])
def test_subnormal_area_is_tolerance_not_reached(command, tmp_path, capsys):
    # at C = 1e-320 the area is subnormal and 8.9e-6 off, relative: its
    # estimate holds that rounding, so log det' is refused with exit 3
    path = _metric_file(tmp_path, 1e-320, [(0, -0.5), (1, -0.5), (1 + 1j, -0.5), (1j, -0.5)])
    argv = ["det", "--metric", path] if command == ["det"] else [
        "compare", "--m1", path, "--m2", path]
    code, err = _one_error_line(argv, capsys)
    assert code == 3
    assert err["error"] == "ToleranceNotReached"


@pytest.mark.parametrize("g", [1e-6, 1e-7, 3e-8, 2.001e-8, 2e-8])
def test_verify_tetra_two_close_pairs_pass(g, tmp_path, capsys):
    # branch points -1, -1 + g i, 1, 1 + g i down to the DegenerateQuartic
    # floor: Im tau near 0.08 down to g = 2.001e-8, 12.6 at 2e-8
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [[-1, 0], [-1, g], [1, 0], [1, g]]}))
    assert main(["verify", "tetra", "--points", str(path), "--json"]) == 0
    assert capsys.readouterr().err == ""


def test_verify_tetra_far_quartic_is_refused_by_its_area(tmp_path, capsys):
    # periods and tau = i work; the area underflows: exit 2, no traceback
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [[0, 0], [0, 1e300], [1e300, 2.2e-308],
                                           [1e300, 1e300]]}))
    code, err = _one_error_line(["verify", "tetra", "--points", str(path)], capsys)
    assert code == 2
    assert err["error"] == "PolydetError" and "area" in err["message"]


def test_verify_tetra_collinear_points_pass(tmp_path, capsys):
    # four branch points on one line, the pillowcase: sorted along the
    # line no period chord runs through another point, tau is imaginary
    # and every check passes, with no numpy warning on the way, also
    # under -W error
    path = tmp_path / "points.json"
    env = dict(os.environ, PYTHONPATH=str(Path(polydet.__file__).parents[1]))
    for points in ([[0, 0], [1, 0], [2, 0], [3, 0]], [[-1, 0], [0, 0], [1, 0], [3, 0]]):
        path.write_text(json.dumps({"points": points}))
        argv = ["verify", "tetra", "--points", str(path), "--json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rep = json.loads(captured.out)
        assert abs(rep["tau"]["re"]) <= 1e-12 * rep["tau"]["im"]
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "polydet.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout) == rep
