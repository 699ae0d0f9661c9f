"""Rewrite ``golden.json``: output digests of every item for the default seed.

Run from the root of a checkout, only when a change to the program's
output is intended and has been reviewed:

    python3 perfbench/make_golden.py

Every output must pass the workload's invariant checks before its
digest is stored.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    run.load_program()
    os.chdir(run.ROOT)
    from workloads import WORKLOADS

    golden = {}
    for name, workload in WORKLOADS.items():
        try:
            wl = workload(run.DEFAULT_SEED, False, run.WORKDIR / name)
            items = wl.items(wl.setup())
            digests = {}
            for item in items:
                _, output, error = run.run_one(item)
                problems = [repr(error)] if error is not None else item.check(output)
                if problems:
                    raise SystemExit(f"{name} {item.key}: {'; '.join(problems)}")
                digests[item.key] = run.digest(output)
        finally:
            run.remove_workdir(name)
        golden[name] = digests
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    with open(run.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
