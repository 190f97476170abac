#!/usr/bin/env python3
"""Runs one nucon benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a nucon checkout. The first run builds the harness
(perfbench/CMakeLists.txt, which compiles the library from ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset. Each run then:

  * with --trace 0, times operations for --seconds and reports the
    end-to-end metrics, setup_s being the median of five set-ups (four
    set-up-only processes plus the measured one);
  * with --trace 1, runs the traced pass and reports the per-layer metrics
    (see perfbench/README.md);
  * counts as failed every operation that missed its check, every pinned
    exact count (perfbench/pins.json) that differs, and every exact count
    that differs from an earlier run of the same build on the same input.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # a run must end within 180 s, the first build aside
SETUP_REPEATS = 5


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (root / "perfbench").resolve()


def build(bdir):
    """Configures (once) and builds the harness; returns the binary path."""
    cmds = []
    if not (bdir / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    cmds.append(["cmake", "--build", str(bdir), "-j", jobs])
    for cmd in cmds:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("building the harness failed: " + " ".join(cmd))
    binary = bdir / "nucon_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_harness(binary, args, deadline):
    """Runs the harness once and returns its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before the harness ran", 1)
    cmd = [str(binary), *args, "--spawn-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("harness ran past the deadline: " + " ".join(cmd), 1)
    if proc.returncode != 0:
        fail(f"harness exited with {proc.returncode}: " + " ".join(cmd), 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("harness printed nothing: " + " ".join(cmd), 1)
    return json.loads(lines[-1])


def binary_digest(binary):
    return hashlib.sha256(binary.read_bytes()).hexdigest()


def check_pins(fingerprint, pins, errors):
    """Every pinned key the run produced must match; returns mismatches."""
    bad = 0
    for key, want in sorted(pins.items()):
        if key in fingerprint and fingerprint[key] != want:
            bad += 1
            errors.append(f"pinned {key}: want {want}, got {fingerprint[key]}")
    return bad


def check_cache(path, digest, fingerprint, errors):
    """Compares exact counts with earlier runs of this build on the same
    inputs (keys name their inputs), then records the new ones."""
    cache = {}
    if path.exists():
        try:
            cache = json.loads(path.read_text())
        except ValueError:
            cache = {}
    if cache.get("binary") != digest:
        cache = {"binary": digest, "counts": {}}
    counts = cache["counts"]
    bad = 0
    for key, value in fingerprint.items():
        if key in counts and counts[key] != value:
            bad += 1
            if len(errors) < 40:
                errors.append(f"exact count {key} changed between runs: "
                              f"{counts[key]} then {value}")
        counts.setdefault(key, value)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(cache, sort_keys=True))
    tmp.replace(path)
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (well under a second per operation)")
    ap.add_argument("--pin", action="append", default=[], metavar="KEY=VALUE",
                    help="extra pinned exact count (the self-test passes a "
                         "wrong one to show it fails)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be >= 0")

    bdir = build_dir()
    binary = build(bdir)
    deadline = time.monotonic() + DEADLINE_S
    out_dir = bdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_harness(binary, common + ["--setup-only"],
                                      deadline)["setup_s"])
    res = run_harness(binary, common + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(out_dir)], deadline)
    setups.append(res["setup_s"])

    errors = list(res["errors"])
    failed = int(res["failed"])
    fingerprint = res["fingerprint"]
    size = "tiny" if args.tiny else "full"
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    wanted = dict(pins.get(size, {}).get(args.workload, {}))
    for item in args.pin:
        key, _, value = item.partition("=")
        wanted[key] = int(value)
    failed += check_pins(fingerprint, wanted, errors)
    failed += check_cache(out_dir / f"counts-{args.workload}-{size}.json",
                          binary_digest(binary), fingerprint, errors)
    (out_dir / f"fingerprint-{args.workload}-{size}-seed{args.seed}.json"
     ).write_text(json.dumps(fingerprint, indent=1, sort_keys=True))

    if args.trace:
        metrics = dict(sorted(res["layers"].items()))
    else:
        ops = res["op_seconds"]
        rates = [i / s for i, s in zip(res["op_items"], ops)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "op_s_p50": {"value": statistics.median(ops), "unit": "s"},
            "items_per_s": {"value": statistics.median(rates),
                            "unit": "items/s"},
        }

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"threads={res['threads']} items={res['item_unit']}")
    if not args.trace:
        print(f"# ops={len(res['op_seconds'])} op_seconds="
              + " ".join(f"{s:.4f}" for s in res["op_seconds"]))
        print("# setup_s samples=" + " ".join(f"{s:.4f}" for s in setups))
    for name, m in sorted(res["headline"].items()):
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for e in errors:
        print(f"perfbench: FAILED {e}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": int(res["attempted"]),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
