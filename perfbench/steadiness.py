"""Steadiness evidence: two interleaved sets of end-to-end benchmark runs.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --out perfbench/steadiness.json

Run i of every workload uses seed i + 1 in both sets; the order is
A(i), B(i) for each workload in turn, so slow drift of the host lands on
both sets alike.  For each workload, set and end-to-end metric the file
holds every value, the median, the quartiles (statistics.quantiles, n=4),
the spread (q3 - q1) / median, and the drift between the set medians
(B - A) / A.  ``drift_late_vs_early`` compares the second half of the
runs with the first, across both sets.  By default it runs the workloads of BENCHMARK.json for its
run_seconds; ``--workloads`` and ``--seconds`` override that.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END_UNITS, ROOT


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next((line for line in lines if line.startswith("env ")), "")
    return json.loads(lines[-1]), env


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main() -> int:
    parser = argparse.ArgumentParser()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    names = args.workloads.split(",")
    sets = {name: {"A": [], "B": []} for name in names}
    env = ""
    for i in range(args.runs):
        for name in names:
            for label in ("A", "B"):
                result, env = run_once(name, i + 1, args.seconds)
                sets[name][label].append(result)
                print(name, label, i + 1, json.dumps(result["metrics"]),
                      flush=True)
    report = {"env": env, "seconds": args.seconds, "runs": args.runs,
              "workloads": {}}
    for name in names:
        entry = {"all_correct": all(r["correct"] for s in sets[name].values()
                                    for r in s),
                 "failed": sum(r["failed"] for s in sets[name].values()
                               for r in s),
                 "metrics": {}}
        for metric, unit in END_TO_END_UNITS.items():
            per_set = {label: summary([r["metrics"][metric]["value"]
                                       for r in runs])
                       for label, runs in sets[name].items()}
            # runs in time order, to show drift over the whole measurement
            half = args.runs // 2
            early = [r["metrics"][metric]["value"]
                     for s in sets[name].values() for r in s[:half]]
            late = [r["metrics"][metric]["value"]
                    for s in sets[name].values() for r in s[half:]]
            entry["metrics"][metric] = {
                "unit": unit, **per_set,
                "drift": per_set["B"]["median"] / per_set["A"]["median"] - 1,
                "drift_late_vs_early": statistics.median(late)
                / statistics.median(early) - 1}
        report["workloads"][name] = entry
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, entry in report["workloads"].items():
        for metric, m in entry["metrics"].items():
            print(f"{name:15s} {metric:12s} A {m['A']['median']:.4g} "
                  f"spread {m['A']['spread']:.3f} | B {m['B']['median']:.4g} "
                  f"spread {m['B']['spread']:.3f} | drift {m['drift']:+.3f}, "
                  f"late vs early {m['drift_late_vs_early']:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
