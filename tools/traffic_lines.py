"""Which statements of ``src/lorenzmap`` run, and under what.

Traces line events with ``sys.settrace`` in two passes, both in this
process and against the ``src/`` of this checkout:

* traffic: every item of the four ``perfbench`` workloads for seeds 0,
  1 and 2 (the multipiece map files go to a temporary directory, so
  nothing is written under ``perfbench/``), then the CLI runs listed in
  ``tests/golden/cases.json``;
* tests: the tier-1 suite, ``pytest tests --hypothesis-seed=0``; the
  fixed seed makes the ``hypothesis`` tests draw the same examples on
  every run, so two runs of the same code report the same lines.

The tracer is installed before ``lorenzmap`` is imported, so the
statements that run at import time count as traffic.  For each module
it prints the statement lines run by neither and the lines run only by
the tests, as ranges with the source of their first line: candidates
for dead code and for code that only tests keep alive.  A line counts
as a statement line when the compiled module maps bytecode to it.
The report goes to stdout and pytest's own output to stderr:

    python tools/traffic_lines.py > traffic.txt

Tracing makes the code several times slower; a full run takes a few
minutes.  It is a review aid, not a check, and is not part of tier-1.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lorenzmap"
SEEDS = (0, 1, 2)


class LineRecorder:
    """Records ``(file, line)`` for every line event in the package's files."""

    def __init__(self):
        self.prefix = str(PACKAGE) + os.sep
        self.lines: set = set()

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    @contextlib.contextmanager
    def recording(self):
        self.lines = set()
        sys.settrace(self._global)
        try:
            yield self
        finally:
            sys.settrace(None)


def run_workloads(workdir: Path) -> None:
    import workloads  # perfbench/workloads.py, which imports lorenzmap

    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            instance = workload(seed, False, workdir / f"{name}{seed}")
            for item in instance.items(instance.setup()):
                item.run()


def run_golden_cases() -> None:
    from lorenzmap.cli import main

    cases = json.loads((ROOT / "tests" / "golden" / "cases.json").read_text())
    for case in cases:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(list(case["argv"]))
        if code != case["exit"]:
            raise RuntimeError(f"{case['name']} exited {code}, not {case['exit']}")


def run_tests() -> None:
    import pytest

    # pytest's progress goes to stderr, so stdout holds the report alone
    with contextlib.redirect_stdout(sys.stderr):
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")]
        )
    if code != 0:
        raise RuntimeError(f"the test suite exited {code}")


def statement_lines(path: Path) -> set:
    """Lines the compiled module maps bytecode to, nested code included."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        own = {line for _start, _end, line in code.co_lines() if line}
        # a function's first line holds only its RESUME, which raises no
        # line event there; the ``def`` itself runs in the enclosing code
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list) -> list:
    out: list = []
    for line in lines:
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return out


def report(traffic: set, tests: set) -> None:
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        statements = statement_lines(path)
        ran_traffic = {line for name, line in traffic if name == str(path)}
        ran_tests = {line for name, line in tests if name == str(path)}
        neither = sorted(statements - ran_traffic - ran_tests)
        tests_only = sorted((statements & ran_tests) - ran_traffic)
        print(
            f"{path.relative_to(ROOT)}: {len(statements)} statement lines, "
            f"{len(neither)} run by neither, {len(tests_only)} run only by tests"
        )
        for title, lines in (("neither", neither), ("tests only", tests_only)):
            for lo, hi in ranges(lines):
                span = f"{lo}" if lo == hi else f"{lo}-{hi}"
                print(f"  {title:>10}  {span:>9}  {source[lo - 1].strip()}")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    os.chdir(ROOT)  # golden map files are named relative to the root
    recorder = LineRecorder()
    with tempfile.TemporaryDirectory() as workdir, recorder.recording():
        run_workloads(Path(workdir))
        run_golden_cases()
    traffic = recorder.lines
    with recorder.recording():
        run_tests()
    report(traffic, recorder.lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
