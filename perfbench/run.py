#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv_exec_hot --seed 1 --seconds 10 --trace 0

Builds (CMake, RelWithDebInfo) into .bench_build/, runs the percentile
self-test, then the benchmark. The benchmark's last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the exit code
is nonzero if the build, the self-test or a correctness check fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=timeout)


def build(bench_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", bench_dir, "-B", CMAKE_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
    run_quiet(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
               "perfbench", "perfbench_stats_test"], 840)


def source_rev(root):
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("the repo's src/ is missing next to perfbench/; nothing to build")
        return 2
    os.chdir(root)
    try:
        build(bench_dir)
        run_quiet([os.path.join(CMAKE_DIR, "perfbench_stats_test")], 60)
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        log(f"build or self-test failed: {e}")
        return 2

    data_dir = os.path.join(BUILD_DIR, f"data-{os.getpid()}")
    cmd = [os.path.join(CMAKE_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--rev", source_rev(root),
           "--out-dir", os.path.join(BUILD_DIR, "out"),
           "--data-dir", data_dir]
    try:
        done = subprocess.run(cmd, stdout=sys.stdout, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S}s and was killed")
        return 3
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
