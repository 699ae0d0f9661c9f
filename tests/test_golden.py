"""Byte-exact CLI outputs against the checked-in golden corpus.

The corpus under ``tests/golden/`` was written by
``tests/golden/make_golden.py``; see that script for how to regenerate
it when a change of output is intended.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lorenzmap.cli import build_parsers, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_output(case, monkeypatch):
    monkeypatch.chdir(ROOT)  # map-file paths are echoed relative to the root
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(case["argv"]))
    with open(GOLDEN / f"{case['name']}.out", encoding="utf-8", newline="") as handle:
        expected = handle.read()
    assert code == case["exit"]
    assert buffer.getvalue() == expected


def test_golden_commands_are_parsed_by_their_own_sub_parser(monkeypatch):
    # main parses an argv that names a command with that command's
    # sub-parser alone; were the program's parser to parse one again, the
    # two-level parse would be back, and this test would fail
    parser, _commands = build_parsers()

    def refuse(*args, **kwargs):
        raise AssertionError("the program's parser parsed an argv that names a command")

    monkeypatch.setattr(parser, "parse_args", refuse)
    monkeypatch.setattr(parser, "parse_known_args", refuse)
    monkeypatch.chdir(ROOT)
    commands = {case["argv"][0] for case in CASES}
    assert commands == {"analyze", "classify", "sweep"}
    for case in CASES:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(list(case["argv"]))
        expected = (GOLDEN / f"{case['name']}.out").read_bytes().decode("utf-8")
        assert (code, buffer.getvalue()) == (case["exit"], expected), case["name"]


# one case of each exit status, both caps among them, classify and a CSV
# sweep, run as a process: the exit code comes from the module's
# ``sys.exit(main())``
PROCESS_CASES = (
    "analyze_symmetric_6_5",
    "classify_custom_periodic_cantor",
    "analyze_invalid_slope",
    "analyze_beta_hit_cap",
    "analyze_symmetric_21_20_level_cap",
    "sweep_symmetric",
)


@pytest.mark.parametrize("name", PROCESS_CASES)
def test_golden_output_of_the_program_run_as_a_process(name):
    (case,) = [case for case in CASES if case["name"] == name]
    run = subprocess.run(
        [sys.executable, "-m", "lorenzmap.cli", *case["argv"]],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True,
    )
    assert run.returncode == case["exit"], run.stderr
    assert run.stdout == (GOLDEN / f"{name}.out").read_bytes()


# stdout of ``analyze --family symmetric --a 198/197``: a 7-level tower, far
# deeper than the corpus, whose inner maps carry coefficients of ~1000 bits
DEEP_TOWER_SHA256 = "eb389a34d7ee3d82e5ea289e86ec6ff0fe2b440c15fdf1bbd10b7e299a7b6082"


def _assert_symmetric_report(slope, levels, size, sha256):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["analyze", "--family", "symmetric", "--a", slope])
    out = buffer.getvalue().encode("utf-8")
    assert code == 0
    assert len(json.loads(out)["tower"]["levels"]) == levels
    assert len(out) == size
    assert hashlib.sha256(out).hexdigest() == sha256


def test_deep_tower_report_digest():
    _assert_symmetric_report("198/197", 7, 681_368, DEEP_TOWER_SHA256)


# stdout of ``analyze --family symmetric --a 501/500`` (8 levels, 3,122,204
# bytes): its largest integers have about 1,400 digits
DIGIT_LIMIT_SHA256 = "43a91ca91902cf959481ddd13183c185393e8de81fed8407b2287cadfae66926"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit before 3.11"
)
def test_report_is_exact_past_the_int_digit_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(1000)
    try:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(["analyze", "--family", "symmetric", "--a", "501/500"])
    finally:
        sys.set_int_max_str_digits(saved)
    out = buffer.getvalue().encode("utf-8")
    assert code == 0
    assert len(out) == 3_122_204
    assert hashlib.sha256(out).hexdigest() == DIGIT_LIMIT_SHA256


# stdout of ``analyze --family symmetric --a 1001/1000``: a 9-level tower,
# the deepest rung that runs in about a second
DEEPER_TOWER_SHA256 = "6e1ccaed23c1504e71ce231770ac9c99a4eaca2d5a755fc83021134f4aafe754"


def test_deeper_tower_report_digest():
    _assert_symmetric_report("1001/1000", 9, 13_739_285, DEEPER_TOWER_SHA256)
