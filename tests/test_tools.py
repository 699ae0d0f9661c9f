"""Unit tests of ``tools/ab_perfbench.py``'s summary rows and its read
of a run's output, on synthetic numbers, and a smoke test of
``tools/src_lines.py``.

No perfbench run is made: :func:`summary` is fed parent and change
values chosen so that each verdict sits on one side of its edge, and
:func:`read_run` a stdout of the shape ``perfbench/run.py`` prints.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_perfbench = _load("ab_perfbench")
src_lines = _load("src_lines")

HIGHER = {"name": "items_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "item_p50_ms", "better": "lower", "bound": 0.25}

# median 100, quartiles 98.25 and 101.75: an interquartile range of 3.5
PARENT = [96, 97, 98, 99, 100, 100, 101, 102, 103, 104]


def _cells(metric, parent, change) -> dict:
    """The row of :func:`summary`, split into its named cells."""
    row = ab_perfbench.summary(metric, parent, change)
    assert row.startswith("| ") and row.endswith(" |")
    name, parent_cell, change_cell, delta, won, bound, claim = row[2:-2].split(" | ")
    assert name == metric["name"]
    return {
        "parent": parent_cell,
        "change": change_cell,
        "delta": delta,
        "won": won,
        "bound": bound,
        "claim": claim,
    }


def _better(metric, values, by):
    sign = 1 if metric["better"] == "higher" else -1
    return [x + sign * by for x in values]


@pytest.mark.parametrize("metric", [HIGHER, LOWER])
def test_claim_needs_a_gain_beyond_the_interquartile_range(metric):
    # printed to four significant digits
    assert _cells(metric, PARENT, PARENT)["parent"] == "100 [98.25, 101.8]"
    # every pair won, but a median gain of exactly q3 - q1 is not beyond it
    at_edge = _cells(metric, PARENT, _better(metric, PARENT, 3.5))
    assert (at_edge["won"], at_edge["claim"]) == ("10/10", "fails")
    past_edge = _cells(metric, PARENT, _better(metric, PARENT, 3.75))
    assert (past_edge["won"], past_edge["claim"]) == ("10/10", "holds")


@pytest.mark.parametrize("metric", [HIGHER, LOWER])
def test_claim_needs_nine_of_every_ten_pairs(metric):
    change = _better(metric, PARENT, 5)
    # one pair lost: 9 of 10 won, and the median gain is still 5 > 3.5
    one_lost = [*_better(metric, PARENT[:1], -1), *change[1:]]
    cells = _cells(metric, PARENT, one_lost)
    assert (cells["won"], cells["claim"]) == ("9/10", "holds")
    two_lost = [*_better(metric, PARENT[:2], -1), *change[2:]]
    cells = _cells(metric, PARENT, two_lost)
    assert (cells["won"], cells["claim"]) == ("8/10", "fails")
    # with five pairs, 9 of every 10 means all five
    cells = _cells(metric, PARENT[:5], [*_better(metric, PARENT[:1], -1), *change[1:5]])
    assert (cells["won"], cells["claim"]) == ("4/5", "fails")


@pytest.mark.parametrize("metric", [HIGHER, LOWER])
def test_ties_count_for_neither_side(metric):
    change = _better(metric, PARENT, 5)
    one_tie = [PARENT[0], *change[1:]]
    cells = _cells(metric, PARENT, one_tie)
    assert (cells["won"], cells["claim"]) == ("9/10", "holds")
    two_ties = [*PARENT[:2], *change[2:]]
    cells = _cells(metric, PARENT, two_ties)
    assert (cells["won"], cells["claim"]) == ("8/10", "fails")
    # all ties: no pair won by either side, and nothing moved
    cells = _cells(metric, PARENT, PARENT)
    assert (cells["won"], cells["delta"], cells["claim"]) == ("0/10", "+0.0 %", "fails")
    # pairs the parent wins do not count for the change
    assert _cells(metric, PARENT, _better(metric, PARENT, -1))["won"] == "0/10"


def test_bound_where_higher_is_better():
    # the bound is 25 % of the parent's median, 100
    assert _cells(HIGHER, [100], [75])["bound"] == "inside 25%"
    assert _cells(HIGHER, [100], [74.9])["bound"] == "OUTSIDE 25%"
    assert _cells(HIGHER, [100], [1000])["bound"] == "inside 25%"
    cells = _cells(HIGHER, [100], [74.9])
    assert (cells["change"], cells["delta"]) == ("74.9", "-25.1 %")


def test_bound_where_lower_is_better():
    assert _cells(LOWER, [100], [125])["bound"] == "inside 25%"
    assert _cells(LOWER, [100], [125.1])["bound"] == "OUTSIDE 25%"
    assert _cells(LOWER, [100], [1])["bound"] == "inside 25%"
    assert _cells({**LOWER, "bound": 0.1}, [20], [22.5])["bound"] == "OUTSIDE 10%"


def _run_stdout(samples: int, rss: float, correct: bool = True) -> str:
    """A perfbench stdout: the detail line, then the result line."""
    detail = {"workload": "sweep", "env": {"seed": 4}, "detail": {
        "samples": samples, "blocks": 3, "unscaled": {"items_per_s": 1.0},
    }}
    metrics = {
        "items_per_s": {"value": 4000.5, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    result = {"correct": correct, "attempted": samples, "failed": 0, "metrics": metrics}
    return json.dumps(detail) + "\n" + json.dumps(result) + "\n"


def test_read_run_takes_the_samples_from_the_line_before_the_result():
    run = ab_perfbench.read_run(_run_stdout(112_992, 32.49))
    assert run == {
        "correct": True,
        "metrics": {"items_per_s": 4000.5, "peak_rss_mb": 32.49},
        "samples": 112_992,
    }
    assert ab_perfbench.read_run(_run_stdout(7, 1.0, correct=False))["correct"] is False


def test_samples_row_gives_the_medians_and_the_shift_without_a_verdict():
    row = ab_perfbench.samples_row([19_184, 20_000, 21_000], [23_000, 24_000, 25_000])
    name, parent, change, delta, won, bound, claim = row[2:-2].split(" | ")
    assert (name, parent, change, delta) == (
        "samples", "20000 [19592, 20500]", "24000", "+20.0 %"
    )
    assert (won, bound, claim) == ("-", "-", "-")


def test_src_lines_parts_sum_to_each_module():
    modules = sorted(src_lines.PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        text = path.read_text(encoding="utf-8")
        counts = src_lines.line_parts(text)
        assert counts["total"] == len(text.splitlines()), path.name
        assert sum(counts[part] for part in src_lines.PARTS) == counts["total"]
        assert min(counts.values()) >= 0 and counts["code"] > 0


def test_src_lines_splits_each_kind_of_line():
    source = '''"""Module docstring,
over two lines."""

# a comment
x = 1  # code with a trailing comment


def f():
    """One line."""
    return (
        x
    )
'''
    assert src_lines.line_parts(source) == {
        "docstring": 3, "comment": 1, "blank": 3, "code": 5, "total": 12
    }
