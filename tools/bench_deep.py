"""Time ``analyze`` on the deep end of the symmetric ladder.

Runs ``analyze --family symmetric --a A`` for ``A`` in 501/500,
1001/1000 and 2001/2000 (8, 9 and 10 tower levels) ``REPEATS`` times,
each repeat in a fresh Python process that imports ``lorenzmap`` from
the ``src/`` of a checkout.  The child times ``cli.main`` with stdout
redirected to a sink that hashes the text as it is written and keeps
none of it, so interpreter start-up and pipe writes are not counted and
the child's peak RSS is the program's own, not a copy of its output.
The result goes to ``BENCH_deep_<label>.json``: the Python version, the
git revision of the checkout, and per slope the exit code, the report
bytes and sha256, every repeat's seconds, their min and median, and the
largest peak RSS of the child processes.

Given ``--parent``, a checkout of the parent commit, it times that
checkout and this one in the same invocation: every repeat of a slope
runs both sides, and the side that runs first alternates from one
repeat to the next, so drift of the machine's speed during the run
falls on both sides alike.  The results go to
``BENCH_deep_<label>_parent.json`` and ``BENCH_deep_<label>_change.json``.

    python tools/bench_deep.py --label change
    python tools/bench_deep.py --label NAME --parent ../parent

Run one benchmark at a time on an otherwise idle machine; 2001/2000
writes a 60 MB report and takes seconds per repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SLOPES = ("501/500", "1001/1000", "2001/2000")
REPEATS = 4

CHILD = r"""
import contextlib, hashlib, json, resource, sys, time
from lorenzmap.cli import main


class HashingSink:
    # a text stdout that keeps only the sha256 and the byte count of the
    # UTF-8 text written to it, so the child's peak RSS is the program's
    def __init__(self):
        self.digest = hashlib.sha256()
        self.size = 0

    def write(self, text):
        data = text.encode("utf-8")
        self.digest.update(data)
        self.size += len(data)
        return len(text)


argv = json.loads(sys.argv[1])
sink = HashingSink()
start = time.perf_counter()
with contextlib.redirect_stdout(sink):
    code = main(argv)
seconds = time.perf_counter() - start
print(json.dumps({
    "exit": code,
    "seconds": seconds,
    "report_bytes": sink.size,
    "sha256": sink.digest.hexdigest(),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def git(checkout: Path, *args: str):
    """Output of a git command in the checkout; None outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "-C", str(checkout), *args],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def run_once(checkout: Path, argv: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(done.stdout)


def argv_for(slope: str) -> list:
    return ["analyze", "--family", "symmetric", "--a", slope]


def summarize(slope: str, runs: list) -> dict:
    first = runs[0]
    for run in runs[1:]:
        if (run["exit"], run["sha256"]) != (first["exit"], first["sha256"]):
            raise RuntimeError(f"{slope}: repeats printed different reports")
    seconds = [run["seconds"] for run in runs]
    return {
        "argv": argv_for(slope),
        "exit": first["exit"],
        "report_bytes": first["report_bytes"],
        "sha256": first["sha256"],
        "seconds": seconds,
        "min_s": min(seconds),
        "median_s": statistics.median(seconds),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", required=True, help="names BENCH_deep_<label>[_parent|_change].json"
    )
    parser.add_argument(
        "--parent",
        type=Path,
        help="checkout of the parent commit, timed against this one, alternating",
    )
    args = parser.parse_args(argv)
    if args.parent is None:
        sides = {args.label: ROOT}
    else:
        sides = {f"{args.label}_parent": args.parent.resolve(), f"{args.label}_change": ROOT}
    runs = {label: {slope: [] for slope in SLOPES} for label in sides}
    for slope in SLOPES:
        for repeat in range(REPEATS):
            order = list(sides) if repeat % 2 == 0 else list(sides)[::-1]
            for label in order:
                runs[label][slope].append(run_once(sides[label], argv_for(slope)))
    for label, checkout in sides.items():
        status = git(checkout, "status", "--porcelain", "--", "src")
        result = {
            "label": label,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "git_rev": git(checkout, "rev-parse", "HEAD"),
            "src_modified": None if status is None else bool(status),
            "repeats": REPEATS,
            "cases": {slope: summarize(slope, runs[label][slope]) for slope in SLOPES},
        }
        path = ROOT / f"BENCH_deep_{label}.json"
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        for slope, case in result["cases"].items():
            print(
                f"{label} {slope}: exit {case['exit']}, {case['report_bytes']} bytes, "
                f"sha256 {case['sha256'][:16]}, min {case['min_s']:.2f} s, "
                f"median {case['median_s']:.2f} s"
            )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
