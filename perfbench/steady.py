#!/usr/bin/env python3
"""Steadiness runner: repeat workloads over several seeds and report each
end-to-end metric's median, quartiles and spread against its bound.

    python3 perfbench/steady.py --workload serve-zipf --runs 5
    python3 perfbench/steady.py --workload all --runs 10 --json out.json
    python3 perfbench/steady.py --workload all --runs 10 --baseline out.json

Spread is (Q3 - Q1) / median with quartiles from
statistics.quantiles(values, n=4). A metric is "ok" when its spread is
within its BENCHMARK.json bound and "steady" when it is below a third of
it; every end-to-end metric, setup_s too, is gated. With --baseline (a
file an earlier --json wrote, e.g. from the parent commit or a first
round of the same code) each median is also compared with the
baseline's: "REGRESSED" when it is worse by more than the bound. Every
run must also pass its correctness gate. Exit status 1 when any run
failed, any spread exceeds its bound or any median regressed.

On Linux each run's host steal (the share of CPU time the hypervisor
gave to other guests, from /proc/stat) is recorded too, so a spread
caused by a busy host shows as such.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cpu_times():
    """The aggregate /proc/stat CPU counters, or None off Linux."""
    try:
        with open("/proc/stat") as stat:
            return [int(v) for v in stat.readline().split()[1:]]
    except OSError:
        return None


def steal_share(before, after):
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if len(delta) > 7 and sum(delta) else 0.0


def run_once(workload, seed, seconds):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else float("inf")


def drift(metric, median, baseline):
    """How much worse `median` is than the baseline's, as a share of it."""
    before = statistics.quantiles(baseline, n=4)[1]
    if not before:
        return 0.0
    change = (median - before) / before
    return change if metric["better"] == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json", help="also write every run's metrics here")
    parser.add_argument("--baseline", help="compare medians with this --json file")
    args = parser.parse_args()
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}

    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])
    metrics = spec["end_to_end"]
    ok = True
    record = {}
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        steal = []
        for k in range(args.runs):
            seed = args.first_seed + k
            cpu_before = cpu_times()
            result = run_once(workload, seed, args.seconds)
            steal.append(steal_share(cpu_before, cpu_times()))
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        record[workload] = dict(values, host_steal=steal)
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds:g} s each")
        if None not in steal:
            print("  host steal per run: " + " ".join(f"{100 * x:.1f}%" for x in steal))
        print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'drift':>8}  verdict")
        for m in metrics:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, median, q3, s = spread(vals)
            bound = m["bound"]
            if s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "ok"
            else:
                verdict = "TOO WIDE"
                ok = False
            before = baseline.get(workload, {}).get(m["name"], [])
            d = drift(m, median, before) if len(before) >= 2 else None
            if d is not None and d > bound:
                verdict += " REGRESSED"
                ok = False
            shown = f"{d:+8.4f}" if d is not None else f"{'-':>8}"
            print(f"  {m['name']:<30} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:8.4f} {bound:>6} {shown}  {verdict}")
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
