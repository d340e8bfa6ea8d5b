#!/usr/bin/env python3
"""Build and run the repository benchmark (graftbench) for one workload.

    python3 perfbench/run.py --workload solve-mesh --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset. The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics BENCHMARK.json declares (end_to_end with --trace 0, per_layer
with --trace 1). Traced runs also write a Chrome trace_event file
beside the build. Exit status: 0 when every output was correct, 1 when
the correctness gate failed, 2 on a usage, build or contract error.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure (once) and build graftbench; build output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out / "graftbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The last stdout line must be the result object the contract names."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("graftbench did not end with a JSON result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)} are not the contract's")
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != declared_metrics(trace):
        fail(f"printed metrics differ from BENCHMARK.json: "
             f"{sorted(set(printed) ^ set(declared_metrics(trace)))}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; seconds of work per workload")
    parser.add_argument("--inject", help="feed the correctness gate a wrong answer")
    args = parser.parse_args()

    binary = build()
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.inject:
        command += ["--inject", args.inject]
    if args.trace:
        traces = build_dir() / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.trace.json")]

    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        try:
            stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            fail(f"graftbench exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").split("\n")
    if child.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        fail(f"graftbench exited with status {child.returncode}")
    result = check_result(lines[-1], args.trace)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if child.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
