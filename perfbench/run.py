#!/usr/bin/env python3
"""memflow's benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench (perfbench/CMakeLists.txt,
against ../src) into $CARGO_TARGET_DIR or .bench_build, then runs it with the
given arguments; the binary's last stdout line is the JSON result. Build
output goes to stderr so stdout stays the benchmark's own.

--selftest runs every workload briefly with one deliberately corrupted
output and fails unless each run reports correct=false with a failed job,
then runs each workload clean and fails unless it reports correct=true.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_burst", "scatter_bulk", "app_mix")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: memflow sources (src/) not found next to perfbench/")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = os.path.join(build_dir, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j4", "--target", "perfbench"],
    ]
    if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return binary


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest(binary):
    ok = True
    for workload in WORKLOADS:
        for corrupt in (True, False):
            cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"]
            if corrupt:
                cmd.append("--corrupt")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            result = last_json(proc.stdout) if proc.returncode == 0 else None
            if result is None:
                passed = False
            elif corrupt:
                passed = result["correct"] is False and result["failed"] >= 1
            else:
                passed = result["correct"] is True and result["failed"] == 0
            label = "corrupted" if corrupt else "clean"
            counts = result and {k: result[k] for k in ("correct", "attempted", "failed")}
            verdict = "PASS" if passed else "FAIL"
            print(f"selftest {workload} {label}: {verdict} {json.dumps(counts)}")
            ok = ok and passed
    return 0 if ok else 1


def main(argv):
    binary = build()
    if argv == ["--selftest"]:
        return selftest(binary)
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
