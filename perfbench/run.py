"""Benchmark of the lorenzmap analyzer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Workloads are ``ladder``, ``sweep``, ``classify`` and ``multipiece``;
``workloads.py`` says what each stresses.  One process, no extra
threads.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment, the sample counts and the unscaled times.

End-to-end metrics (``--trace 0``, nothing wrapped):

* ``setup_s``: median of five set-ups (map construction and validation;
  for ``classify`` also the towers and orbit unions).
* ``items_per_s``: median over blocks of items per second of item time.
  A block is one pass over the items, or 500 queries on ``classify``.
* ``item_p50_ms`` and ``item_tail_ms``: item latency at the median and
  at the workload's tail: p90 on ``sweep`` and ``multipiece``, p99 on
  ``classify``.  A run holds at least ten samples beyond each.  The
  ladder has six rungs of very different cost and too few items for a
  percentile, so there both are taken over the per-rung medians: the
  median rung and the slowest rung.
* ``peak_rss_mb``: peak resident memory of the process.
* ``ok_ratio``: share of attempted items whose output passed the checks.

Times are rescaled to a nominal machine speed by ``speed.SpeedProbe``,
because the speed of a shared host drifts more than any change the
benchmark should resolve; the unscaled figures are printed beside them.

``--trace 1`` runs one fixed unit of the workload (set-up plus one
pass, 400 queries on ``classify``) alternately bare and with the public
functions of every module wrapped (``tracer.py``), and reports per-layer
times, exact counters and the tracing overhead.

Outputs are checked in both modes: for the default seed against the
digests in ``golden.json`` (rewritten by ``make_golden.py``), and for
every seed against invariants that need no oracle.  ``selftest.py``
checks the harness itself in about fifteen seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
WORKDIR = Path("perfbench") / ".work"  # relative to ROOT, so reports echo a stable path
DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_TRACE_REPS = 2


def load_program():
    """Import lorenzmap from this checkout's ``src``, never from elsewhere."""
    if not (SOURCE / "lorenzmap" / "__init__.py").is_file():
        raise SystemExit(f"error: no lorenzmap sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import lorenzmap

    if Path(lorenzmap.__file__).resolve().parent != (SOURCE / "lorenzmap").resolve():
        raise SystemExit("error: lorenzmap was imported from outside this checkout")
    return lorenzmap


def remove_workdir(workload: str) -> None:
    workdir = WORKDIR / workload
    if workdir.is_dir():
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
        WORKDIR.rmdir()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def environment(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    rev = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            rev = ref
    sources = hashlib.sha256()
    for path in sorted((SOURCE / "lorenzmap").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_rev": rev,
        "source_sha256": sources.hexdigest()[:24],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


class Checker:
    """Counts failed items: errors, invariant breaks, digest mismatches."""

    def __init__(self, workload: str, seed: int):
        self.golden = None
        if seed == DEFAULT_SEED:
            with open(GOLDEN, encoding="utf-8") as handle:
                self.golden = json.load(handle)[workload]
        self.first: dict = {}  # key -> digest of the first output
        self.problems: list = []
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def record(self, item, output, error) -> None:
        """Check one item's output; repeats must match the first output."""
        self.attempted += 1
        problems = []
        if error is not None:
            problems.append(f"raised {error!r}")
        else:
            d = digest(output)
            if item.key in self.first:
                if d != self.first[item.key]:
                    problems.append("output differs from the first pass")
            else:
                self.first[item.key] = d
                try:
                    problems += item.check(output)
                except (ValueError, KeyError, IndexError, TypeError) as err:
                    problems.append(f"output could not be read: {err!r}")
                if self.golden is not None and self.golden.get(item.key) != d:
                    problems.append("digest differs from the stored default-seed output")
        if problems:
            self.fail(f"{item.key}: {'; '.join(problems)}")


def run_one(item) -> tuple:
    """Run one item: (latency in seconds, output or None, error or None)."""
    start = time.perf_counter()
    try:
        output, error = item.run(), None
    except Exception as err:  # an item that raises counts as failed
        output, error = None, err
    return time.perf_counter() - start, output, error


def percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def min_samples(tail) -> int:
    """Samples needed for ten beyond the median and beyond the tail percentile."""
    return max(20, math.ceil(1000 / (100 - tail)) if tail else 0)


def measure(wl, seconds: float, checker, small: bool) -> tuple:
    """End-to-end metrics with tracing off, rescaled to nominal machine speed."""
    probe = SpeedProbe()
    setup_raw, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        probe.flush()
        start = time.perf_counter()
        state = wl.setup()
        setup_raw.append(time.perf_counter() - start)
        setup_scaled += probe.add(setup_raw[-1]) + probe.flush()

    items = wl.items(state)
    block = min(wl.block or len(items), len(items))
    needed = 2 if small else min_samples(wl.tail)
    raw, latencies, rates = [], [], []
    begin = time.perf_counter()
    while not rates or time.perf_counter() - begin < seconds or len(latencies) < needed:
        scaled = []
        for _ in range(block):
            item = items[len(raw) % len(items)]
            latency, output, error = run_one(item)
            raw.append(latency)
            scaled += probe.add(latency)
            checker.record(item, output, error)
        scaled += probe.flush()
        latencies += scaled
        rates.append(len(scaled) / sum(scaled))
    elapsed = time.perf_counter() - begin

    def typical_and_tail(values: list) -> tuple:
        if wl.tail is None:
            # few items of very different cost: use the median of each group
            groups = {}
            for k, t in enumerate(values):
                groups.setdefault(items[k % len(items)].group, []).append(t)
            medians = [statistics.median(v) for v in groups.values()]
            return statistics.median(medians), max(medians)
        return statistics.median(values), percentile(values, wl.tail)

    p50, tail = typical_and_tail(latencies)
    raw_p50, raw_tail = typical_and_tail(raw)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "item_p50_ms": (1e3 * p50, "ms"),
        "item_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "ok_ratio": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
    }
    detail = {
        "samples": len(latencies),
        "blocks": len(rates),
        "block_items": block,
        "measured_s": elapsed,
        "p50": "median of group medians" if wl.tail is None else "median",
        "tail": "slowest group median" if wl.tail is None else f"p{wl.tail}",
        "setup_repeats": SETUP_REPEATS,
        "probe_median_s": statistics.median(probe.history),
        "unscaled": {
            "setup_s": statistics.median(setup_raw),
            "items_per_s": len(raw) / sum(raw),
            "item_p50_ms": 1e3 * raw_p50,
            "item_tail_ms": 1e3 * raw_tail,
        },
    }
    return metrics, detail


def run_unit(wl, checker, probe) -> tuple:
    """Set-up plus one pass over the trace items.

    Returns the busy time (set-up plus items, without the output checks),
    the same rescaled to nominal machine speed, and the stdout bytes.
    """
    probe.flush()
    start = time.perf_counter()
    items = wl.trace_items(wl.setup())
    raw = [time.perf_counter() - start]
    scaled = probe.add(raw[0])
    report_bytes = 0
    for item in items:
        latency, output, error = run_one(item)
        raw.append(latency)
        scaled += probe.add(latency)
        checker.record(item, output, error)
        if wl.via_cli and output is not None:
            report_bytes += len(output.encode("utf-8"))
    scaled += probe.flush()
    return sum(raw), sum(scaled), report_bytes


def measure_traced(wl, seconds: float, checker) -> tuple:
    """Per-layer metrics: alternate bare and traced units, report medians.

    Times are rescaled to nominal machine speed like the end-to-end ones.
    """
    from tracer import LAYERS, Tracer

    probe = SpeedProbe()
    bare, reps = [], []
    begin = time.perf_counter()
    while len(reps) < MIN_TRACE_REPS or time.perf_counter() - begin < seconds:
        bare.append(run_unit(wl, checker, probe)[1])
        with Tracer() as tracer:
            busy, scaled, report_bytes = run_unit(wl, checker, probe)
        reps.append((scaled, report_bytes, tracer, scaled / busy))

    def median_time(fn) -> float:
        return statistics.median(fn(tracer) * scale for _, _, tracer, scale in reps)

    def counters(tracer, report_bytes) -> dict:
        return {
            **tracer.exact(),
            "maps.evaluate_calls": tracer.counts.get("maps.evaluate", 0),
            "numerics.cmp_calls": tracer.counts.get("numerics.cmp_certified", 0),
            "interval_dynamics.contains_calls": tracer.counts.get("interval_dynamics.contains", 0),
            "cli.report_bytes": report_bytes,
            "trace.spans": len(tracer.spans),
        }

    counted = [counters(tracer, report_bytes) for _, report_bytes, tracer, _ in reps]
    for rep in counted[1:]:
        if rep != counted[0]:
            checker.fail(f"counters differ between repeats: {counted[0]} != {rep}")
    times = {
        "renorm.tower_s": lambda t: t.inclusive("renorm.renorm_tower"),
        "renorm.critical_orbit_s": lambda t: t.inclusive("renorm.critical_orbit_values"),
        "renorm.search_self_s": lambda t: t.self_time({"renorm.minimal_renormalization"}),
        "maps.validate_s": lambda t: t.inclusive("maps.validate_map"),
        "maps.rescale_s": lambda t: t.inclusive("maps.rescale_to_unit"),
        "periods.minimal_period_s": lambda t: t.inclusive("periods.minimal_period"),
        "periods.periodic_orbit_s": lambda t: t.inclusive("periods.minimal_periodic_orbit"),
        "interval_dynamics.interval_orbit_s": lambda t: t.inclusive("interval_dynamics.interval_orbit"),
        "limits.orbit_unions_s": lambda t: t.inclusive("limits.orbit_unions"),
        "limits.omega_s": lambda t: t.inclusive("limits.omega_decomposition"),
        "limits.alpha_classify_s": lambda t: t.inclusive("limits.alpha_classify"),
        "limits.membership_s": lambda t: t.inclusive("limits.membership_E"),
        "cli.analyze_map_s": lambda t: t.inclusive("cli.analyze_map"),
        # self time of the commands: configuration, map construction, writing the report
        "cli.serialize_s": lambda t: t.self_time({"cli.cmd_analyze", "cli.cmd_sweep"}),
    }
    for layer in LAYERS:
        times[f"{layer}.self_s"] = lambda t, layer=layer: t.layer_self_time(layer)

    metrics = {name: (median_time(fn), "s") for name, fn in times.items()}
    for name, value in counted[0].items():
        metrics[name] = (value, "bytes" if name == "cli.report_bytes" else "count")
    metrics["trace.overhead_s"] = (
        statistics.median(w for w, _, _, _ in reps) - statistics.median(bare),
        "s",
    )
    return metrics, {"repeats": len(reps), "probe_median_s": statistics.median(probe.history)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "small"), default="full",
        help="small shrinks every workload for a quick check of the harness",
    )
    args = parser.parse_args(argv)

    load_program()
    os.chdir(ROOT)
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    small = args.size == "small"
    checker = Checker(args.workload, args.seed)
    try:
        wl = WORKLOADS[args.workload](args.seed, small, WORKDIR / args.workload)
        if args.trace:
            metrics, detail = measure_traced(wl, args.seconds, checker)
        else:
            metrics, detail = measure(wl, args.seconds, checker, small)
    finally:
        remove_workdir(args.workload)

    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "env": environment(args.seed), "detail": detail}))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
