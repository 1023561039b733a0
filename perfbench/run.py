#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --check-perturbed --workload NAME --seed N
    python3 perfbench/run.py --record-refs sql|big-join
    python3 perfbench/run.py --calibrate

Run it from the root of the repository. The first call configures and
builds the benchmark (the library from src/ plus perfbench/src) under
.bench_build/ (or under $CARGO_TARGET_DIR when that is set); later calls
only rebuild what changed. Build output goes to standard error, so the
last line of standard output is the benchmark's result object.

--self-test builds and runs the unit tests of the benchmark's helpers.
--check-perturbed runs a workload against a reference with one value
changed and succeeds only when that op is reported as failed.
--record-refs and --calibrate rewrite the stored references and time
models; run them only on a commit whose outputs are known to be right.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(out, target)


def run_bench(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [binary, "--data", BENCH, "--out", build_dir()] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    """The result object on the last line, or None."""
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--check-perturbed", action="store_true")
    p.add_argument("--record-refs", choices=("sql", "big-join"))
    p.add_argument("--calibrate", action="store_true")
    a = p.parse_args()

    if a.self_test:
        binary = build("perfbench_test")
        return 1 if binary is None else subprocess.run([binary]).returncode

    binary = build("cote_perfbench")
    if binary is None:
        return 1
    if a.calibrate:
        return subprocess.run([binary, "--data", BENCH, "--calibrate"]).returncode
    if a.record_refs:
        return subprocess.run([binary, "--data", BENCH, "--record-refs",
                               a.record_refs]).returncode
    if not a.workload:
        p.error("--workload is required")

    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.check_perturbed:
        code, lines = run_bench(binary, args + ["--perturb-ref"])
        print("\n".join(lines[:-1]))
        result = result_of(lines)
        caught = (code == 0 and result is not None and not result["correct"]
                  and result["failed"] >= 1
                  and any("reference mismatch" in l for l in lines))
        print("perturbed reference %s" % ("caught" if caught else "NOT caught"))
        return 0 if caught else 1

    code, lines = run_bench(binary, args)
    result = result_of(lines)
    if code != 0 or result is None:
        print("\n".join(lines), file=sys.stderr)
        print("perfbench: the run failed (exit %d)" % code, file=sys.stderr)
        return code or 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
