#!/usr/bin/env python3
"""Builds and runs one workload of the distbench benchmark.

    python3 distbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the `distbench` harness and the
`distredge` library it links with CMake (Release) in
$CARGO_TARGET_DIR/distbench, default .bench_build/distbench, then runs the
harness. The harness's table goes to stdout; the last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`, where
`metrics` holds exactly the metrics BENCHMARK.json lists: its `end_to_end`
ones with --trace 0, its `per_layer` ones with --trace 1.

Exit status: 0 when every image was delivered bit-exact, 1 when one was
not (the result line is still printed), and 1 without a result line when
the build or the run itself failed.
"""
import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print("distbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    """Configures and builds the harness; build output goes to stderr."""
    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "distbench",
         "--parallel", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "distbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json in the working directory: %s" % e)
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace == "1" else "end_to_end"]]

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(bench_dir, os.path.join(target, "distbench"))

    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stdout.write(run.stdout)
        fail("harness exited with status %d" % run.returncode)

    result = json.loads(lines[-1])
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        fail("harness did not report: " + ", ".join(missing))
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
