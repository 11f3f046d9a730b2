import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_area_digest_one_seed():
    # the bit-identity checks between two checkouts rest on this script
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "area_digest.py"), "--seeds", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 10
    for line, name in zip(lines, ("area", "log_det")):
        assert re.fullmatch(rf"[0-9a-f]{{64}}  {name}, 40 items, seeds 1-1", line), line
    assert re.fullmatch(r"[0-9a-f]{64}  regint, 200 angles, 0.1pi-20pi", lines[2]), lines[2]
    assert re.fullmatch(r"[0-9a-f]{64}  fd_suite, 40 items, plain and richardson, seeds 1-1",
                        lines[3]), lines[3]
    assert re.fullmatch(r"[0-9a-f]{64}  kernels, 63 angles, 17 cone kernels", lines[4]), lines[4]
    assert re.fullmatch(r"[0-9a-f]{64}  angle_terms, 65 angles, C = 1 and 3", lines[5]), lines[5]
    assert re.fullmatch(r"[0-9a-f]{64}  edges, 26 areas, close vertices among far ones, "
                        r"listed first and last", lines[6]), lines[6]
    assert re.fullmatch(r"[0-9a-f]{64}  cli, 145 calls of polydet.cli.main, "
                        r"exit code, stdout and stderr", lines[7]), lines[7]
    assert re.fullmatch(r"[0-9a-f]{64}  periods, 6 items, rounds 0-2, seeds 1-1",
                        lines[8]), lines[8]
    assert re.fullmatch(r"[0-9a-f]{64}  fd_edges, 48 calls, plain and richardson",
                        lines[9]), lines[9]


def test_area_digest_against_itself():
    # this checkout against itself: every digest the same, exit 0
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "area_digest.py"), "--seeds", "1",
         "--against", str(ROOT)], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 10
    assert all(re.fullmatch(r"[0-9a-f]{64}  .+  same", line) for line in lines), lines


def test_area_timing_one_seed():
    # this checkout against itself: the header, then one row per vertex
    # count, det_corpus's 3-10 and the seeded 16, 24 and 40
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "area_timing.py"), "--seeds", "1",
         "--repeats", "1"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "area time per metric, fastest of 1; median over the metrics of each M"
    assert lines[1] == f"this: {ROOT}" and lines[2] == f"other: {ROOT}"
    assert lines[3].split() == ["M", "metrics", "this_us", "other_us", "ratio"]
    rows = [line.split() for line in lines[4:]]
    for row in rows:
        assert re.fullmatch(r"\d+ \d+ \d+\.\d \d+\.\d \d+\.\d{3}", " ".join(row)), row
    assert [int(row[0]) for row in rows] == [3, 4, 5, 6, 7, 8, 9, 10, 16, 24, 40]
    assert [int(row[1]) for row in rows[-3:]] == [1, 1, 1]
