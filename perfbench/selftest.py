"""Quick check of the benchmark harness itself (about fifteen seconds).

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload at ``--size small`` with and without tracing and
checks the result line against ``BENCHMARK.json``; shows that each kind
of output check catches a corrupted output; shows that the tracer puts
every patched function back; and shows that the benchmark refuses to run
in a directory without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result_lines() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            done = bench(
                run.ROOT, "--workload", workload, "--seed", "0", "--seconds", "0",
                "--trace", trace, "--size", "small",
            )
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, done.stderr
            assert set(info["env"]) >= {"python", "git_rev", "nproc", "seed"}
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            print(f"ok  {workload} --trace {trace}")


def check_oracles() -> None:
    import lorenzmap
    from workloads import HALF, Item, check_classify, check_report, check_sweep_row, query

    good = json.dumps(
        {
            "status": "ok",
            "validation": {"valid": True, "violations": []},
            "tower": {
                "levels": [
                    {
                        "index": 1, "u": "1/4", "v": "3/4", "e_minus": "1/5", "e_plus": "4/5",
                        "interval_base": ["1/4", "3/4"], "e_minus_base": "1/5", "e_plus_base": "4/5",
                    },
                    {
                        "index": 2, "u": "1/4", "v": "3/4", "e_minus": "1/5", "e_plus": "4/5",
                        "interval_base": ["3/8", "5/8"], "e_minus_base": "7/20", "e_plus_base": "13/20",
                    },
                ]
            },
        }
    )
    assert check_report(good, HALF, 2) == []
    assert check_report(good, HALF, 3), "wrong depth not caught"
    assert check_report(good.replace('"3/8"', '"1/8"'), HALF, 2), "unnested levels not caught"
    assert check_report(good.replace('"e_plus": "4/5"', '"e_plus": "7/10"', 1), HALF, 2), (
        "v > e+ not caught"
    )

    row = "parameter,kappa,tower_length,periodic_flags,trichotomy,status\r\n"
    good_row = row + "6/5,2,1,P,periodic-minimal-renorm,ok\r\n"
    assert check_sweep_row(good_row, Fraction(6, 5), "symmetric") == []
    assert check_sweep_row(good_row.replace(",1,P,", ",2,P;P,"), Fraction(6, 5), "symmetric")
    assert check_sweep_row(good_row.replace("ok", "cap-exceeded"), Fraction(6, 5), "symmetric")

    a = Fraction(21, 20)
    m = lorenzmap.symmetric_map(a)
    tower = lorenzmap.renorm_tower(m)
    unions = lorenzmap.orbit_unions(m, tower)
    x = Fraction(123457, 10**6)
    answer = query(m, tower, unions, x)
    assert check_classify(answer, a, x, tower, unions) == [], answer
    label, status, steps = answer.split()
    assert check_classify(f"{label} {status} {int(steps) + 1}", a, x, tower, unions)
    wrong = "I" if label != "I" else "E_1"
    assert check_classify(f"{wrong} {status} {steps}", a, x, tower, unions)

    checker = run.Checker("sweep", run.DEFAULT_SEED)
    item = Item(next(iter(checker.golden)), "symmetric", lambda: "", lambda o: [])
    checker.record(item, "not the stored output", None)
    assert checker.failed == 1, "digest mismatch not caught"
    print("ok  output checks catch corrupted outputs")


def check_tracer_restores() -> None:
    import lorenzmap
    from tracer import Tracer

    before = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name.startswith("lorenzmap")
    }
    contains = lorenzmap.IntervalUnion.contains
    with Tracer() as tracer:
        assert lorenzmap.renorm.renorm_tower is not before["lorenzmap.renorm"]["renorm_tower"]
        m = lorenzmap.symmetric_map(Fraction(6, 5))
        lorenzmap.renorm_tower(m)
    assert tracer.exact()["renorm.levels"] == 1 and tracer.spans
    assert lorenzmap.IntervalUnion.contains is contains
    for name, snapshot in before.items():
        assert dict(vars(sys.modules[name])) == snapshot, f"{name} left patched"
    print("ok  tracer restores every patched function")


def check_refuses_without_program() -> None:
    bare = run.BENCH_DIR / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.BENCH_DIR.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        shutil.copy(run.GOLDEN, bare / "perfbench")
        done = bench(bare, "--workload", "ladder", "--seed", "1", "--seconds", "1", "--trace", "0")
        assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        run.remove_workdir("bare")
    print("ok  refuses to run without the program's sources")


def main() -> int:
    run.load_program()
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.BENCH_DIR))
    check_result_lines()
    check_oracles()
    check_tracer_restores()
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
