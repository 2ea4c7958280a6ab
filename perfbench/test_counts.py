"""Self-test of the benchmark: counts repeat exactly, checks pass, and a
directory without the program is refused.

Run from the root of a source checkout (takes about two minutes):

    python3 -m pytest -q perfbench/test_counts.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import PER_LAYER  # noqa: E402
from workloads import NAMES  # noqa: E402

COUNTS = [name for name, unit in PER_LAYER.items() if unit in ("count", "B")]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _traced(workload: str, seed: int) -> dict:
    out = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_counts_repeat_exactly_under_one_seed(workload):
    first, second = _traced(workload, 7), _traced(workload, 7)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == set(PER_LAYER)
    exercised = [n for n in COUNTS if first["metrics"][n]["value"] != 0]
    assert exercised, "the workload records no counts"
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_directory_without_program_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, "--workload", NAMES[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
