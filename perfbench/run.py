#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload kernels|sweep --seed N \
        --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file. The first
run configures and builds the library and the perfbench binary under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) in the checkout;
later runs rebuild incrementally. The last line of stdout is the result JSON.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("kernels", "sweep")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configure once, then build incrementally; logs go to out/build.log."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log_path = out / "build.log"
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT).returncode
            if rc != 0:
                fail(f"build step failed ({' '.join(cmd[:2])}); see {log_path}", 4)
    return out / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="self-test: corrupt one expected output (gate must fail)")
    ap.add_argument("--inject-fuzz-error", action="store_true",
                    help="self-test (sweep): one backend of one fuzz model fails "
                         "its reference run (gate must fail)")
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no rcpn source tree next to {HERE.name}/ (expected {ROOT}/src)")

    out = build_dir()
    binary = build(out)
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--root", str(ROOT), "--work-dir", str(work)]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    if args.inject_fuzz_error:
        cmd.append("--inject-fuzz-error")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited with {proc.returncode}", proc.returncode)
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except json.JSONDecodeError:
        result = {}
    if set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        fail("perfbench printed no result line", 5)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
