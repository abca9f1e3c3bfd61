#!/usr/bin/env python3
"""Self-test of the benchmark's result checks.

    python3 perfbench/selftest.py

For every workload it runs the benchmark binary twice, with a short loop:
once clean, which must report failed == 0 and correct == true, and once
with --corrupt-request 2, which corrupts one coefficient of the third
timed request's returned ciphertext before that request's check. The
corrupted run must count exactly that request as failed (failed == 1),
report correct == false and exit non-zero. Exits 0 when every case holds.
"""

import json
import subprocess
import sys

import run


def drive(workload, extra):
    cmd = [run.BINARY, "--workload", workload, "--seed", "7", "--seconds",
           "1", "--trace", "0", *extra]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=run.RUN_TIMEOUT_S)
    return res.returncode, json.loads(res.stdout.rstrip("\n").split("\n")[-1])


def main():
    if not run.build():
        return 1
    failures = []
    for w in run.WORKLOADS:
        code, clean = drive(w, [])
        if code != 0 or not clean["correct"] or clean["failed"] != 0:
            failures.append(f"{w}: clean run reported {clean} (exit {code})")
        code, bad = drive(w, ["--corrupt-request", "2"])
        if code == 0 or bad["correct"] or bad["failed"] != 1:
            failures.append(f"{w}: corrupted run reported {bad} (exit {code})")
        print(f"{w}: clean failed={clean['failed']}/{clean['attempted']}, "
              f"corrupted failed={bad['failed']}/{bad['attempted']}",
              flush=True)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
