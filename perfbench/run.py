#!/usr/bin/env python3
"""Builds the H2Cloud benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--ops <n>]

The first run configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later runs only check the build is current.  The binary's log
(lines starting with '#') is echoed, and the last line printed is one JSON
object with exactly the keys correct, attempted, failed and metrics, where
metrics holds every end_to_end metric of BENCHMARK.json (--trace 0) or
every per_layer metric (--trace 1), each as {"value": ..., "unit": ...}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds both binaries; output goes to stderr."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler temporaries in here
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(out_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    done = subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                          stdout=sys.stderr, env=env)
    if done.returncode:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--ops", type=int, default=0,
                        help="ops per client instead of the budget sized "
                             "from --seconds (traced: four slices of ops/4)")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    out_dir = build_dir()
    build(out_dir)
    binary = os.path.join(out_dir,
                          "perfbench_traced" if args.trace else "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.ops:
        cmd += ["--ops", str(args.ops)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            out_dir, f"spans-{args.workload}.tsv")]

    last = None
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            if last is not None:
                sys.stdout.write(last)
            last = line
    if proc.returncode != 0 or last is None:
        fail(f"benchmark exited with {proc.returncode}")
    sys.stdout.flush()

    try:
        result = json.loads(last)
    except ValueError:
        fail(f"no result line: {last!r}")
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing and not args.ops:  # short --ops runs lack p99 samples
        fail(f"workload {args.workload} did not report {', '.join(missing)}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: result["metrics"][name] for name in wanted
                    if name in result["metrics"]},
    }))


if __name__ == "__main__":
    main()
