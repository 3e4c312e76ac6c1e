#!/usr/bin/env python3
"""Builds and runs the vfps end-to-end wire benchmark (see README.md).

    python3 wirebench/run.py --workload <wire_match|wire_fanout|wire_churn> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 wirebench/run.py --selftest

Run from the repository root. The benchmark and the vfps library it
serves are built from source into $CARGO_TARGET_DIR/wirebench (default
.bench_build/wirebench) with the repository's default build type; build
output goes to stderr. The benchmark's last stdout line is its JSON
result, and the exit status is 0 exactly when every checked output was
correct.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# One run must end within 180 s; the benchmark itself fails a wait that
# makes no progress for 20 s, this is the last resort.
RUN_TIMEOUT_S = 170


def fail(message):
    print("wirebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no vfps sources at %s/src; run from a full checkout" % ROOT)
    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_root, "wirebench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def run(command):
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_dir = build()
    if args.selftest:
        sys.exit(run([os.path.join(build_dir, "wirebench_selftest")]))
    out_dir = os.path.join(build_dir, "trace")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    sys.exit(run([os.path.join(build_dir, "wirebench"),
                  "--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--out-dir", out_dir]))


if __name__ == "__main__":
    main()
