"""Write the golden CLI corpus checked by ``tests/test_golden.py``.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

Every case runs ``lorenzmap.cli.main`` in-process with a fixed argument
list.  Its stdout is stored byte for byte in ``tests/golden/<name>.out``
and its exit code in ``tests/golden/cases.json``.  Map files are given as
paths relative to the repository root, because the report echoes the
path.  The corpus is the oracle for refactors that must not change any
output: regenerate it only when a change of output is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from lorenzmap.cli import main

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path("tests/golden")
MAPS = GOLDEN / "maps"


def _analyze_family(name: str, *flags: str):
    return name, ["analyze", *flags]


def _analyze_file(stem: str):
    return f"analyze_{stem}", ["analyze", "--map-file", (MAPS / f"{stem}.map").as_posix()]


CASES = [
    _analyze_family("analyze_symmetric_6_5", "--family", "symmetric", "--a", "6/5"),
    _analyze_family("analyze_symmetric_11_10", "--family", "symmetric", "--a", "11/10"),
    _analyze_family("analyze_symmetric_21_20", "--family", "symmetric", "--a", "21/20"),
    _analyze_family("analyze_symmetric_41_40", "--family", "symmetric", "--a", "41/40"),
    _analyze_family("analyze_symmetric_3_2_csv", "--family", "symmetric", "--a", "3/2",
                    "--format", "csv"),
    _analyze_family("analyze_symmetric_2", "--family", "symmetric", "--a", "2"),
    _analyze_family("analyze_beta_6_5_1_10", "--family", "beta", "--beta", "6/5",
                    "--alpha", "1/10"),
    _analyze_family("analyze_beta_23_20_7_40", "--family", "beta", "--beta", "23/20",
                    "--alpha", "7/40"),
    _analyze_family("analyze_beta_11_10_9_20", "--family", "beta", "--beta", "11/10",
                    "--alpha", "9/20"),
    _analyze_family("analyze_beta_3_2_2_5", "--family", "beta", "--beta", "3/2",
                    "--alpha", "2/5"),
    _analyze_family("analyze_beta_hit_cap", "--family", "beta", "--beta", "6/5",
                    "--alpha", "1/10", "--hit-cap", "1"),
    _analyze_family("analyze_beta_23_20_7_40_hit_cap", "--family", "beta", "--beta",
                    "23/20", "--alpha", "7/40", "--hit-cap", "1"),
    _analyze_file("custom15"),
    _analyze_file("custom16"),
    _analyze_file("custom19"),
    _analyze_file("custom27"),
    _analyze_file("custom29"),
    _analyze_file("custom33"),
    _analyze_file("custom_cantor"),
    _analyze_file("custom_periodic_cantor"),
    _analyze_file("invalid_slope"),
    _analyze_file("structural_faults"),
    _analyze_file("repeated_key"),
    _analyze_file("misspelt_key"),
    ("classify_symmetric_6_5_quarter",
     ["classify", "--family", "symmetric", "--a", "6/5", "--x", "1/4"]),
    ("classify_symmetric_6_5_near_c",
     ["classify", "--family", "symmetric", "--a", "6/5", "--x", "9/20"]),
    ("classify_symmetric_21_20",
     ["classify", "--family", "symmetric", "--a", "21/20", "--x", "1/3"]),
    ("classify_symmetric_3_2",
     ["classify", "--family", "symmetric", "--a", "3/2", "--x", "1/3"]),
    ("classify_symmetric_2",
     ["classify", "--family", "symmetric", "--a", "2", "--x", "1/3"]),
    ("classify_custom16",
     ["classify", "--map-file", (MAPS / "custom16.map").as_posix(), "--x", "2/7"]),
    ("classify_custom_cantor",
     ["classify", "--map-file", (MAPS / "custom_cantor.map").as_posix(), "--x", "1/4"]),
    ("classify_custom_periodic_cantor",
     ["classify", "--map-file", (MAPS / "custom_periodic_cantor.map").as_posix(),
      "--x", "1/2"]),
    ("classify_outside_domain",
     ["classify", "--family", "symmetric", "--a", "6/5", "--x", "3/2"]),
    ("classify_invalid_slope",
     ["classify", "--map-file", (MAPS / "invalid_slope.map").as_posix(), "--x", "1/2"]),
    # map flags the run does not read
    _analyze_family("analyze_beta_refuses_a", "--family", "beta", "--beta", "6/5",
                    "--alpha", "1/10", "--a", "6/5"),
    _analyze_family("analyze_symmetric_refuses_beta", "--family", "symmetric", "--a",
                    "6/5", "--beta", "6/5"),
    _analyze_family("analyze_symmetric_refuses_alpha", "--family", "symmetric", "--a",
                    "6/5", "--alpha", "1/10"),
    _analyze_family("analyze_map_file_refuses_family", "--family", "symmetric", "--a",
                    "3/2", "--map-file", (MAPS / "custom16.map").as_posix()),
    ("classify_map_file_refuses_a",
     ["classify", "--map-file", (MAPS / "custom16.map").as_posix(), "--a", "3/2",
      "--x", "2/7"]),
    ("sweep_symmetric_refuses_alpha",
     ["sweep", "--family", "symmetric", "--alpha", "1/10", "--start", "105/100",
      "--end", "113/100", "--step", "4/100"]),
    ("sweep_symmetric",
     ["sweep", "--family", "symmetric", "--start", "105/100", "--end", "199/100",
      "--step", "4/100"]),
    ("sweep_beta_invalid_rows",
     ["sweep", "--family", "beta", "--alpha", "3/4", "--start", "11/10", "--end",
      "17/10", "--step", "1/10"]),
    ("sweep_beta_json",
     ["sweep", "--family", "beta", "--alpha", "3/4", "--start", "11/10", "--end",
      "13/10", "--step", "1/10", "--format", "json"]),
]


def run_case(argv: list) -> tuple:
    """Exit code and captured stdout of one in-process CLI run."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def write_corpus() -> None:
    manifest = []
    for name, argv in CASES:
        code, out = run_case(argv)
        (ROOT / GOLDEN / f"{name}.out").write_text(out, encoding="utf-8", newline="")
        manifest.append({"name": name, "argv": argv, "exit": code})
    (ROOT / GOLDEN / "cases.json").write_text(
        json.dumps(manifest, indent=1) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    write_corpus()
