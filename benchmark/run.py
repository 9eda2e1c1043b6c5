#!/usr/bin/env python3
"""Build vpbench from source and run one workload.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

The first call configures and builds benchmark/ (which builds ../src)
into .bench_build/vpbench at the repository root; later calls reuse
that build. The run's trace caches and socket live in a directory
under .bench_build that is removed afterwards, and with --trace 1 the
spans file is written next to it.

vpbench's metric lines pass through to stdout. The last line is one
JSON object with the keys correct, attempted, failed and metrics, where
metrics holds the end_to_end metrics BENCHMARK.json lists (--trace 0)
or its per_layer metrics (--trace 1). Exits non-zero, without that
line, when the build fails or vpbench does not finish.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "vpbench")
BINARY = os.path.join(BUILD_DIR, "vpbench")

# A run stops here even if vpbench hangs; a normal run takes well
# under a minute.
RUN_TIMEOUT_S = 170


def build(env):
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "vpbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = [m["name"]
              for m in spec["per_layer" if args.trace else "end_to_end"]]

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no src/ next to benchmark/ to build against")
    os.makedirs(os.path.join(BUILD_ROOT, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_ROOT, "tmp"))
    build(env)

    work = os.path.join(BUILD_ROOT, "work.%d" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--work-dir", work]
    if args.trace:
        cmd += ["--trace", os.path.join(
            BUILD_ROOT, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: vpbench did not finish in %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("run.py: vpbench printed nothing (exit %d)"
                 % proc.returncode)
    for line in lines[:-1]:
        print(line)
    summary = json.loads(lines[-1])
    missing = [name for name in wanted if name not in summary["metrics"]]
    if missing:
        sys.exit("run.py: vpbench did not report " + ", ".join(missing))
    correct = summary["correct"] and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: summary["metrics"][name] for name in wanted},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
