#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

A short clean run must report failed == 0. A run whose expected output (or,
for sweep, one reference digest) is deliberately corrupted must report
failed > 0 and correct == false. So must a sweep in which one backend of one
fuzz model fails its reference run with an error other than the budget one:
only a model that drains on no backend may leave the grid. Exits non-zero on
any violation.
"""
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def result(workload, corrupt):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    if corrupt:
        cmd.append(corrupt)
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout
    return json.loads(out.rstrip("\n").split("\n")[-1])


def main():
    ok = True
    for workload, corrupt in (("kernels", None), ("kernels", "--corrupt-expected"),
                              ("sweep", "--corrupt-expected"),
                              ("sweep", "--inject-fuzz-error")):
        r = result(workload, corrupt)
        frac = r["failed"] / r["attempted"]
        good = (r["failed"] > 0 and not r["correct"]) if corrupt else \
            (r["failed"] == 0 and r["correct"])
        ok &= good
        label = corrupt.lstrip("-") if corrupt else "clean"
        print(f"{'PASS' if good else 'FAIL'} {workload} ({label}): "
              f"failed_frac {frac:.4f} ({r['failed']} of {r['attempted']})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
