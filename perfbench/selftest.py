#!/usr/bin/env python3
"""Self-test of the nucon benchmark at tiny sizes (about a minute, plus the
first build).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json, that a tiny untraced run
prints every end-to-end metric and a tiny traced run every per-layer metric,
each with the unit BENCHMARK.json gives it and with zero failed operations;
that the traced run's exact counts match the untraced run's (run.py compares
them through its exact-count cache); and that a deliberately wrong pinned
count makes the run report a failed operation. Exits 0 when all hold.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, trace, extra=()):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"unexpected result keys {sorted(result)}")
    return result


def expect_metrics(result, specs, nonzero, what):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(got) != set(want):
        raise AssertionError(f"{what}: metrics {sorted(set(got) ^ set(want))} "
                             "missing or unexpected")
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            raise AssertionError(f"{what}: {name} has unit "
                                 f"{got[name]['unit']}, want {unit}")
        if nonzero and not got[name]["value"] > 0:
            raise AssertionError(f"{what}: {name} is {got[name]['value']}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (x["name"] for x in spec["workloads"]):
        for trace, specs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            what = f"{w} trace={trace}"
            r = run(w, trace)
            if not (r["correct"] and r["failed"] == 0 and r["attempted"] >= 1):
                raise AssertionError(f"{what}: {r['failed']} of "
                                     f"{r['attempted']} operations failed")
            expect_metrics(r, specs, nonzero=trace == 0, what=what)
            print(f"ok  {what}: {len(r['metrics'])} metrics, "
                  f"{r['attempted']} operations")

    # Seed 3 is block 2: its paper-sweep point vector holds 168 runs, so a
    # pin of 167 is wrong and must count as a failed operation.
    r = run("paper-sweep", 0, ["--pin", "b2.runs=167"])
    if r["correct"] or r["failed"] < 1:
        raise AssertionError("a wrong pinned count did not fail the run")
    r = run("paper-sweep", 0, ["--pin", "b2.runs=168"])
    if not r["correct"]:
        raise AssertionError("the right pinned count failed the run")
    print("ok  a wrong pinned count is a failed operation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
