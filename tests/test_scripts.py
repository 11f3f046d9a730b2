import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGEST_SCRIPT = ROOT / "scripts" / "area_digest.py"


def _digest_names():
    """The digest names of the script's own table, in the order printed."""
    spec = importlib.util.spec_from_file_location("area_digest", DIGEST_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return [name for names, _ in script.DIGESTS for name in names]


def test_area_digest_one_seed():
    # the bit-identity checks between two checkouts rest on this script:
    # one line per digest of its table, hex digest, name and summary
    proc = subprocess.run([sys.executable, str(DIGEST_SCRIPT), "--seeds", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = _digest_names()
    assert len(lines) == len(names) == len(set(names))
    for line, name in zip(lines, names):
        assert re.fullmatch(rf"[0-9a-f]{{64}}  {re.escape(name)}, .+", line), line
        if name in ("area", "log_det"):      # 40 det_corpus items a seed
            assert line.endswith(", 40 items, seeds 1-1"), line


def test_area_digest_against_itself():
    # this checkout against itself: every digest the same, exit 0
    proc = subprocess.run(
        [sys.executable, str(DIGEST_SCRIPT), "--seeds", "1", "--against", str(ROOT)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(_digest_names())
    assert all(re.fullmatch(r"[0-9a-f]{64}  .+  same", line) for line in lines), lines


def test_area_timing_one_seed():
    # this checkout against itself: the header, then one row per vertex
    # count, det_corpus's 3-10 and the seeded 16, 24 and 40
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "area_timing.py"), "--seeds", "1",
         "--repeats", "1"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ("area time per metric, first call and fastest of 1 repeats; "
                        "median over the metrics of each M")
    assert lines[1] == f"this: {ROOT}" and lines[2] == f"other: {ROOT}"
    assert lines[3].split() == ["M", "metrics", "first_this", "first_other", "ratio",
                                "this_us", "other_us", "ratio"]
    rows = [line.split() for line in lines[4:]]
    for row in rows:
        assert re.fullmatch(r"\d+ \d+( \d+\.\d \d+\.\d \d+\.\d{3}){2}", " ".join(row)), row
    assert [int(row[0]) for row in rows] == [3, 4, 5, 6, 7, 8, 9, 10, 16, 24, 40]
    assert [int(row[1]) for row in rows[-3:]] == [1, 1, 1]
