"""Record the output gate: CSV sha256 and exit code per workload and seed.

Run from the root of a checkout of the commit whose outputs are the
reference (the CSV bytes are the package's reproducibility contract, so a
later commit must reproduce them)::

    python3 perfbench/record.py

It runs one sweep of every workload for the default seed and one held-out
seed and writes perfbench/expected.json.  run.py compares every sweep of
those seeds against it; the verdict (exit code) is recorded as observed.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import EXPECTED, WORK, WORKLOADS, spawn

SEEDS = (20260823, 1)  # the shipped configs' seed, and a held-out seed


def main() -> int:
    WORK.mkdir(exist_ok=True)
    table = {}
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            cfg = WORK / f"record-{name}-{seed}.cfg"
            csv = WORK / f"record-{name}-{seed}.csv"
            cfg.write_text(workload.config_text(seed), encoding="utf-8")
            res = spawn(workload, "sweep", cfg, csv)
            if res["exit_code"] is None or res["problems"]:
                print(f"{name} seed {seed}: {res.get('error')} "
                      f"{res['problems']}", file=sys.stderr)
                return 1
            digest = hashlib.sha256(csv.read_bytes()).hexdigest()
            table.setdefault(name, {})[str(seed)] = {
                "sha256": digest, "exit_code": res["exit_code"]}
            print(name, seed, digest, "exit", res["exit_code"])
    EXPECTED.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
