#!/usr/bin/env python3
"""End-to-end benchmark of rdtgc: build, run one workload, report.

Run from the repository root:

    python3 e2ebench/run.py --workload sim_steady_n64 --seed 1 --seconds 10 --trace 0

Builds the library, the rdtgc_proc worker and the e2ebench driver in Release
under .bench_build/ (incremental after the first run), refuses any other build
type, runs the workload with its media under .bench_media/ and prints the
driver's table followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  The exit code is nonzero
when the build fails or any correctness check fails.  See e2ebench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sim_steady_n64", "sim_churn_n8", "fleet_star_n4")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
MEDIA = os.path.join(ROOT, ".bench_media")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no rdtgc sources at %s (missing %s)" % (ROOT, needed), 3)
    if cache_value("CMAKE_BUILD_TYPE") is None:
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("configure failed", 3)
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail("build tree %s is %r, not Release; refusing to measure" % (BUILD, build_type))
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", "e2ebench", "-j", jobs]
    if subprocess.call(command, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed", 3)
    return os.path.join(BUILD, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    shutil.rmtree(MEDIA, ignore_errors=True)
    os.makedirs(MEDIA)
    os.makedirs(OUT, exist_ok=True)
    # Relative media paths keep the fleet's socket paths short.
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--media", os.path.relpath(MEDIA, ROOT),
               "--out", os.path.relpath(OUT, ROOT)]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S), 4)
    finally:
        shutil.rmtree(MEDIA, ignore_errors=True)

    lines = run.stdout.rstrip("\n").splitlines()
    if not lines:
        fail("%s printed nothing (exit %d)" % (args.workload, run.returncode), 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s did not end with a JSON result (exit %d)" % (args.workload, run.returncode), 1)
    for line in lines[:-1]:
        print(line)
    print("  %-34s %s" % ("nproc", os.cpu_count()))
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
