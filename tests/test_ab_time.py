"""tools/ab_time.py times the benchmark's own workload rounds on two checkouts.

Each case runs the tool in a subprocess for one round. The repository
against itself must be bit-equal with no check problem; against a copy
whose solve_care returns P (1 + 1e-6) the tool must report the differing
outputs, their relative difference of about 1e-6 and the failed checks,
and exit 1. Both fail when perfbench's workload API (WORKLOADS, round,
Op.run, Op.check) changes under the tool.
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
# appended to a copy's linear_core.py: every later caller gets the scaled P
SCALED_CARE = """

_solve_care = solve_care


def solve_care(*args, **kwargs):
    cert = _solve_care(*args, **kwargs)
    cert.P = cert.P * (1 + 1e-6)
    return cert
"""


def ab_time(root_b, workload, *extra):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_time.py"), str(ROOT), str(root_b),
         "--workload", workload, "--rounds", "1", *extra],
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
    assert "relative difference" not in proc.stdout


def test_scaled_riccati_solution_fails(tmp_path):
    copy = tmp_path / "src" / "clfsynth"
    shutil.copytree(ROOT / "src" / "clfsynth", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "linear_core.py", "a") as fh:
        fh.write(SCALED_CARE)
    proc = ab_time(tmp_path, "riccati_scale", "--json", str(tmp_path / "ab.json"))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert any(row.startswith("care/") and row.endswith("  False")
               for row in compared_rows(proc.stdout))
    assert "check failed on B: care/" in proc.stdout
    assert "P differs from scipy's CARE" in proc.stdout
    assert "check failed on A" not in proc.stdout
    # every Riccati solve is a differing kind, its P scaled by 1 + 1e-6
    rel = re.findall(r"^(care/n\d+): largest relative difference of B from A (\S+) in \.P$",
                     proc.stdout, flags=re.M)
    assert {kind for kind, _ in rel} == {row.split()[0] for row in compared_rows(proc.stdout)
                                         if row.startswith("care/")}
    assert all(float(value) == pytest.approx(1e-6, rel=1e-3) for _, value in rel)
    recorded = {row["kind"]: row["max_rel_diff"] for row in
                json.loads((tmp_path / "ab.json").read_text())["medians_s"]
                if "max_rel_diff" in row}
    assert recorded.keys() == {kind for kind, _ in rel}
    assert all(value == pytest.approx(1e-6, rel=1e-3) for value in recorded.values())
