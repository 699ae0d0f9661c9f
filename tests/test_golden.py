"""Byte-exact CLI outputs against the checked-in golden corpus.

The corpus under ``tests/golden/`` was written by
``tests/golden/make_golden.py``; see that script for how to regenerate
it when a change of output is intended.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from lorenzmap.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_output(case, monkeypatch):
    monkeypatch.chdir(ROOT)  # map-file paths are echoed relative to the root
    for key in ("L_MAX", "LEVEL_CAP", "HIT_CAP", "PRECISION_BITS"):
        monkeypatch.delenv(f"LORENZ_{key}", raising=False)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(case["argv"]))
    with open(GOLDEN / f"{case['name']}.out", encoding="utf-8", newline="") as handle:
        expected = handle.read()
    assert code == case["exit"]
    assert buffer.getvalue() == expected
