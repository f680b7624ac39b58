"""tools/ab_time.py times the benchmark's own workload rounds on two checkouts.

Each case runs the tool in a subprocess for one round. The repository
against itself must be bit-equal with no check problem; against a copy
whose solve_care returns P (1 + 1e-6) the tool must report the differing
outputs and the failed checks and exit 1. Both fail when perfbench's
workload API (WORKLOADS, round, Op.run, Op.check) changes under the tool.
"""

import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
# appended to a copy's linear_core.py: every later caller gets the scaled P
SCALED_CARE = """

_solve_care = solve_care


def solve_care(*args, **kwargs):
    cert = _solve_care(*args, **kwargs)
    cert.P = cert.P * (1 + 1e-6)
    return cert
"""


def ab_time(root_b, workload):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_time.py"), str(ROOT), str(root_b),
         "--workload", workload, "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))


def compared_rows(stdout):
    """The table rows that say whether B's outputs equal A's."""
    return [line for line in stdout.splitlines()[1:]
            if line.endswith(("  True", "  False"))]


def test_repository_against_itself_is_bit_equal():
    proc = ab_time(ROOT, "design")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = compared_rows(proc.stdout)
    # five plants and the median of round medians
    assert len(rows) == 6
    assert all(row.endswith("  True") for row in rows)
    assert "check failed" not in proc.stdout


def test_scaled_riccati_solution_fails(tmp_path):
    copy = tmp_path / "src" / "clfsynth"
    shutil.copytree(ROOT / "src" / "clfsynth", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "linear_core.py", "a") as fh:
        fh.write(SCALED_CARE)
    proc = ab_time(tmp_path, "riccati_scale")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert any(row.startswith("care/") and row.endswith("  False")
               for row in compared_rows(proc.stdout))
    assert "check failed on B: care/" in proc.stdout
    assert "P differs from scipy's CARE" in proc.stdout
    assert "check failed on A" not in proc.stdout
