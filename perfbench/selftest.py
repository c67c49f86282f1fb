"""Seconds-long self-test of the benchmark at a tiny size.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

It asserts that
- every end-to-end metric of BENCHMARK.json, and fail_frac, is printed
  with its unit, and a clean run has fail_frac 0;
- a corrupted recorded digest drives fail_frac to 1;
- a traced run prints every per-layer metric with its unit and its
  rebuild from public calls equals run_tracking bit for bit;
- in a directory holding only BENCHMARK.json and perfbench/, the command
  exits non-zero without printing a result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORK, WORKLOADS, Workload, run_workload

TINY = {
    "tiny-rates": Workload("rates", WORKLOADS["quantile-wide"].keys,
                           horizons=(100, 1000), replications=3),
    "tiny-verify": Workload("verify", {"verify.samples": "10000"}),
}
SEED = 20260823


def _printed(lines, metric, unit) -> bool:
    return any(line.startswith(f"{metric} ") and f" {unit}" in line
               for line in lines)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def check(ok: bool, what: str):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for name, workload in TINY.items():
        lines, result = run_workload(name, workload, SEED, 1, False)
        for metric in bench["end_to_end"]:
            check(_printed(lines, metric["name"], metric["unit"])
                  and metric["name"] in result["metrics"],
                  f"{name}: {metric['name']} printed in {metric['unit']}")
        check(_printed(lines, "fail_frac", "ratio") and result["correct"]
              and result["failed"] == 0, f"{name}: fail_frac 0 on a clean run")

        lines, result = run_workload(name, workload, SEED, 1, False,
                                     expected=("0" * 64, 0))
        check(result["attempted"] > 0
              and result["failed"] == result["attempted"]
              and not result["correct"]
              and any(line.startswith("fail_frac 1 ") for line in lines),
              f"{name}: a corrupted digest gives fail_frac 1")

        lines, result = run_workload(name, workload, SEED, 1, True)
        for metric in bench["per_layer"]:
            check(_printed(lines, metric["name"], metric["unit"])
                  and metric["name"] in result["metrics"],
                  f"{name} traced: {metric['name']} printed in "
                  f"{metric['unit']}")
        check(result["correct"], f"{name} traced: correct")
        if workload.kind == "rates":
            check(any(line.startswith("bit_identical") and
                      line.endswith(" true") for line in lines),
                  f"{name} traced: rebuild equals run_tracking bit for bit")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*bench["command"], "--workload", "static-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without the package the command fails and prints no result")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
