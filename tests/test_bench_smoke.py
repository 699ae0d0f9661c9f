"""Smoke run of the benchmark: every workload at its small size, seed 0.

Each run checks its outputs against the seed-0 digests in
``perfbench/golden.json`` and against the invariants of its workload,
and reports ``"correct": true`` and ``"failed": 0`` only if all pass.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["ladder", "sweep", "classify", "multipiece"])
def test_bench_small_run_is_correct(workload):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--size", "small",
            "--seconds", "0",
            "--seed", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
