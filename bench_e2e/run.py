#!/usr/bin/env python3
"""Build the simulator and the end-to-end benchmark from source, then run it.

    python3 bench_e2e/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build/ (CMake, Release; only avr_core, the CLI tools and
bench_e2e). Every other argument is handed to bench_e2e, which prints the
result as its last line of standard output. Build output goes to standard
error, so standard output carries only the benchmark's own lines.
"""
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    import subprocess

    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("bench_e2e/run.py: build failed: " + " ".join(cmd))


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)
    bench = os.path.join(build_dir, "bench_e2e")
    sys.stdout.flush()
    # exec, not a child: the benchmark is then the process the caller waits
    # on, and it reaps every sweep it starts.
    os.execv(bench, [bench, "--build-dir", build_dir] + sys.argv[1:])


if __name__ == "__main__":
    main()
