#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

The C++ benchmark program is built from source into .bench_build/perfbench under the
repository root. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The exit status is 0 only
when the run was correct.

Besides the C++ program's own gates, this script checks that

  * the reported metric names and units are exactly the ones BENCHMARK.json
    declares for the mode (end_to_end for --trace 0, per_layer for --trace 1);
  * the modelled cost of a request (modelled ms, launches, bus bytes) is
    identical to every earlier run of the same workload with the same
    binary, as recorded in .bench_build/perfbench/modelled_ledger.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
LEDGER = os.path.join(BUILD_DIR, "modelled_ledger.json")
WORKLOADS = ["vector_add_staged", "mean_resident", "mul_relin_sharded"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def binary_digest():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_modelled_ledger(workload, modelled):
    """Compare this run's modelled request cost with earlier runs of the
    same binary; record it when it is the first. Returns an error or None."""
    ledger = {}
    if os.path.exists(LEDGER):
        with open(LEDGER) as f:
            ledger = json.load(f)
    runs = ledger.setdefault(binary_digest(), {})
    seen = runs.get(workload)
    if seen is None:
        runs[workload] = modelled
        tmp = LEDGER + ".tmp"
        with open(tmp, "w") as f:
            json.dump(ledger, f, indent=2, sort_keys=True)
        os.replace(tmp, LEDGER)
        return None
    if seen != modelled:
        return (f"modelled request cost changed between runs of one binary: "
                f"was {seen}, now {modelled}")
    return None


def run_one(workload, seed, seconds, trace):
    """Run the benchmark binary once. Returns (result dict or None, ok, stdout lines)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    detail = os.path.join(OUT_DIR, f"detail_{workload}_seed{seed}_trace{trace}.json")
    if os.path.exists(detail):
        os.remove(detail)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT_DIR, "--detail", detail]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None, False, []
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log(f"{workload}: perfbench exited {res.returncode} without a result")
        return None, False, lines
    ok = res.returncode == 0 and result.get("correct") is True

    want = declared_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log(f"{workload}: metrics {got} do not match BENCHMARK.json {want}")
        ok = False
    if os.path.exists(detail):
        with open(detail) as f:
            err = check_modelled_ledger(workload, json.load(f)["modelled"])
        if err:
            log(f"{workload}: {err}")
            ok = False
    else:
        log(f"{workload}: perfbench wrote no detail file")
        ok = False
    result["correct"] = bool(result["correct"]) and ok
    return result, ok, lines[:-1]


def run_all(seed, seconds):
    """Every workload with tracing off; one table of all end-to-end metrics."""
    results = {}
    all_ok = True
    for w in WORKLOADS:
        result, ok, lines = run_one(w, seed, seconds, 0)
        print("\n".join(lines), flush=True)
        if result is None:
            return 1
        results[w] = result
        all_ok &= ok
    units = declared_metrics(0)
    names = list(units) + ["error_rate"]
    print()
    print(f"{'metric':26}{'unit':13}" + "".join(f"{w:>22}" for w in WORKLOADS))
    for name in names:
        row = f"{name:26}{units.get(name, 'ratio'):13}"
        for w in WORKLOADS:
            r = results[w]
            v = (r["failed"] / r["attempted"] if name == "error_rate"
                 else r["metrics"][name]["value"])
            row += f"{v:>22.6g}"
        print(row)
    summary = {
        "correct": all_ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if all_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        return 1
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result, ok, lines = run_one(args.workload, args.seed, args.seconds,
                                args.trace)
    if result is None:
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
