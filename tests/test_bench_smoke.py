"""Smoke run of the benchmark: every workload at its small size, seed 0.

Each run checks its outputs against the seed-0 digests in
``perfbench/golden.json`` and against the invariants of its workload,
and reports ``"correct": true`` and ``"failed": 0`` only if all pass.
The names that ``perfbench/tracer.py`` wraps and reads are checked
against the package too, so that a rename shows here and not as a
counter that silently reads 0.
"""

import importlib
import inspect
import json
import subprocess
import sys
import types
from fractions import Fraction as F
from pathlib import Path

import pytest

from lorenzmap.maps import symmetric_map
from lorenzmap.renorm import minimal_renormalization

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


def _tracer():
    """``perfbench/tracer.py`` executed from its source; nothing is written."""
    path = ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def test_traced_names_resolve_in_the_package():
    tracer = _tracer()
    unresolved = []
    for module, dotted in tracer.SPAN_TARGETS + tracer.COUNT_TARGETS:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for attr in dotted.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            unresolved.append((module, dotted))
    # the exact comparison helper was removed long ago, and the interval
    # orbit reference lives in the tests; the counter and the span that
    # still name them wait for the next change to the benchmark
    assert unresolved == [
        ("interval_dynamics", "interval_orbit"),
        ("numerics", "cmp_certified"),
    ]
    # tracer.pairs_examined reads certainly_prime, fast_path and step off
    # real results: a fixed-point map and the (kappa, kappa) rule examine
    # no pair, and a search that finds none counts every pair
    fixed, rule, searched = (
        minimal_renormalization(symmetric_map(a)) for a in (F(2), F(6, 5), F(3, 2))
    )
    assert (fixed.certainly_prime, rule.fast_path, searched.step) == (True, True, None)
    assert tracer.pairs_examined(fixed, 64) == 0
    assert tracer.pairs_examined(rule, 64) == 0
    assert tracer.pairs_examined(searched, 64) == tracer.pairs_before(64, 64, 64)
    assert "bound" in inspect.signature(minimal_renormalization).parameters
