#!/usr/bin/env python3
"""The lab-serving benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload class_replay --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the pdclab libraries, the `pdclab`
worker binary and the `perfbench_lab` binary in Release mode under
`.bench_build/` (incremental after the first run), prints the host
fingerprint, then runs `perfbench_lab` and passes its output through. The
last line of standard output is its JSON result. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics. Exits non-zero when
the build fails or any output is wrong.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
WORKLOADS = ("class_replay", "explore_runs", "shard_restart")


def build(jobs):
    """Configure (once) and build perfbench_lab and the worker binary."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(jobs),
                    "--target", "perfbench_lab", "pdclab"],
                   check=True, stdout=sys.stderr)


def cmake_build_type():
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def filesystem_of(path):
    """The type of the filesystem `path` lives on, from /proc/mounts."""
    real = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1]
                inside = real == mount or real.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(run_dir):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "kernel": platform.release(),
        "build_type": cmake_build_type(),
        "store_fs": filesystem_of(run_dir),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        build(max(1, len(os.sched_getaffinity(0))))
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)
    host = fingerprint(BUILD)
    if host["build_type"] != "Release":
        sys.exit("perfbench: refusing to record numbers from a %r build"
                 % host["build_type"])
    print("host " + json.dumps(host, sort_keys=True), flush=True)

    run_dir = os.path.join(BUILD, "run-" + args.workload)
    bench = subprocess.run(
        [os.path.join(BUILD, "perfbench_lab"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--dir", run_dir,
         "--worker-bin", os.path.join(BUILD, "pdclab", "tools", "pdclab")],
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = bench.stdout.rstrip("\n").split("\n")
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(bench.stdout)
        sys.exit("perfbench: perfbench_lab printed no result (exit %d)"
                 % bench.returncode)
    print("\n".join(lines), flush=True)
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
