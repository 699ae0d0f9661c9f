"""A/B the end-to-end metrics of one perfbench workload against a parent checkout.

Runs ``perfbench/run.py --workload W --seed K+i --seconds S`` once in
the checkout of the parent commit and once in this checkout for each
pair ``i`` of ``--pairs``, one process at a time.  Both runs of a pair
use the same seed, and the side that runs first alternates from one
pair to the next, so drift of the machine's speed falls on both sides
alike.  Each side runs in its own checkout, so the two runs never share
``perfbench/.work``.

For every end-to-end metric of this checkout's ``BENCHMARK.json`` it
prints the parent's median with its quartiles ``[q1, q3]``, the
change's median, the change in percent, the pairs the change won,
whether the change's median is inside the metric's bound, and whether
a claimed gain on the metric would hold: the change wins at least 9 of
every 10 pairs (a tie counts for neither side), and its median is
better than the parent's by more than the parent's ``q3 - q1``.  A last
row gives the latency samples each run kept (``detail.samples``):
``peak_rss_mb`` grows with them, so a memory shift is read against
them.  Then one line per pair gives each side's ``correct`` flag,
samples and metrics.  It exits 1 when any run reads ``correct: false``.

    python tools/ab_perfbench.py --parent ../parent --workload sweep \\
        --pairs 10 --seconds 20 --seed-base 4000

Pick seeds that were not used while writing the change.  Run it on an
otherwise idle machine; a pair takes about ``2·S`` seconds plus two
set-ups.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def read_run(stdout: str) -> dict:
    """``correct``, the metric values and the timed samples of one run's stdout.

    The last line is the result; the line before it holds the run's
    ``detail``, whose ``samples`` counts the latencies the harness kept.
    """
    *_, detail_line, result_line = stdout.strip().splitlines()
    result = json.loads(result_line)
    return {
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "samples": json.loads(detail_line)["detail"]["samples"],
    }


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """:func:`read_run` of one perfbench run in ``checkout``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: perfbench in {checkout} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return read_run(done.stdout)


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``; all three are the value for a single run."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(metric: dict, parent: list, change: list) -> str:
    """One table row: parent median [q1, q3] → change median, Δ %, wins, bound, claim."""
    q1, p_median, q3 = quartiles(parent)
    c_median = statistics.median(change)
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    delta = (c_median - p_median) / p_median * 100 if p_median else 0.0
    if higher:
        inside = c_median >= p_median * (1 - metric["bound"])
    else:
        inside = c_median <= p_median * (1 + metric["bound"])
    gain = c_median - p_median if higher else p_median - c_median
    claim = 10 * wins >= 9 * len(parent) and gain > q3 - q1
    return (
        f"| {metric['name']} | {p_median:.4g} [{q1:.4g}, {q3:.4g}] | {c_median:.4g} "
        f"| {delta:+.1f} % | {wins}/{len(parent)} "
        f"| {'inside' if inside else 'OUTSIDE'} {metric['bound']:.0%} "
        f"| {'holds' if claim else 'fails'} |"
    )


def samples_row(parent: list, change: list) -> str:
    """The table row of the samples kept per run: no bound and no claim,
    since ``peak_rss_mb`` grows with them whatever the code."""
    q1, p_median, q3 = quartiles(parent)
    c_median = statistics.median(change)
    delta = (c_median - p_median) / p_median * 100 if p_median else 0.0
    return (
        f"| samples | {p_median:.6g} [{q1:.6g}, {q3:.6g}] | {c_median:.6g} "
        f"| {delta:+.1f} % | - | - | - |"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit (not this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed-base", type=int, required=True,
                        help="pair i runs seed seed-base + i on both sides")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if parent == ROOT:
        parser.error("--parent must be another checkout: runs share perfbench/.work")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": parent, "change": ROOT}
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = list(sides) if i % 2 == 0 else list(sides)[::-1]
        for side in order:
            runs[side].append(run_side(sides[side], args.workload, seed, args.seconds))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first) done",
              file=sys.stderr)

    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}")
    print("| metric | parent median [q1, q3] | change median | Δ | change won | bound "
          "| claim |")
    print("|---|---|---|---|---|---|---|")
    for metric in end_to_end:
        values = {side: [run["metrics"][metric["name"]] for run in runs[side]]
                  for side in sides}
        print(summary(metric, values["parent"], values["change"]))
    print(samples_row(*([run["samples"] for run in runs[side]] for side in sides)))
    names = [metric["name"] for metric in end_to_end]
    print("per pair, parent/change: correct samples " + " ".join(names))
    for i, (p, c) in enumerate(zip(runs["parent"], runs["change"])):
        cells = " ".join(
            f"{p['metrics'][n]:.4g}/{c['metrics'][n]:.4g}" for n in names
        )
        print(f"seed {args.seed_base + i}: {p['correct']}/{c['correct']} "
              f"{p['samples']}/{c['samples']} {cells}")
    if not all(run["correct"] for side in sides for run in runs[side]):
        print("error: a run read correct: false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
