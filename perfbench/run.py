"""drifttrack benchmark: the Monte-Carlo sweeps users wait for.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload static-long --seed 1 --seconds 24 --trace 0

The run writes a config for the workload from ``--seed`` (the seed becomes
``experiment.seed``), then runs the sweep again and again, each time in a
fresh interpreter (perfbench/child.py, which calls the package's public API
the way the CLI does), until ``--seconds`` have passed.  It checks every
CSV, prints one line per metric with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the traced
child, which times the calls into each module, and reports the per-layer
metrics.  Work files go to ``.perfbench_work/`` in the checkout.
See perfbench/README.md for the workloads, metrics and rationale.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"
RUN_LIMIT_S = 170  # a run must end within 180 s, even if a child hangs
MIN_SWEEPS = 2   # a run reports the median of at least this many sweeps
MIN_SETUPS = 3   # and of at least this many fresh-interpreter set-ups

_SIGNAL_NOISE = {"model.kind": "signal_noise", "gain.kind": "signal_noise"}


@dataclass(frozen=True)
class Workload:
    """A sweep: the subcommand it runs and the config keys it is given."""

    kind: str                      # "rates" or "verify"
    keys: dict
    horizons: tuple[int, ...] = ()
    replications: int = 1

    def config_text(self, seed: int) -> str:
        keys = dict(self.keys, **{"experiment.seed": str(seed)})
        if self.kind == "rates":
            keys["experiment.horizons"] = ",".join(map(str, self.horizons))
            keys["experiment.replications"] = str(self.replications)
        return "".join(f"{k} = {v}\n" for k, v in keys.items())

    def operations(self) -> int:
        """Replications (rates) or verify probes per sweep."""
        if self.kind == "rates":
            return self.replications * len(self.horizons)
        return VERIFY_PROBES

    def work_per_sweep(self) -> int:
        """Replication-steps (rates) or gain evaluations (verify)."""
        if self.kind == "rates":
            return self.replications * sum(self.horizons)
        # every probe runs A1 and A2 on verify.samples rows each
        return 2 * int(self.keys["verify.samples"]) * VERIFY_PROBES


# Probes over the built-in verify fixtures (4+4+4+4+4+2); the child checks
# the CSV has this many rows.
VERIFY_PROBES = 22

# Shapes of configs/static_rate.cfg, lipschitz_rate.cfg and
# quantile_rate.cfg, copied so that the benchmark's inputs stay fixed when
# the shipped configs change.  Sizes are set so each sweep takes a few
# seconds here and reaches the PASS verdict at the default seed.
WORKLOADS = {
    "static-long": Workload(
        "rates", dict(_SIGNAL_NOISE, **{"schedule.kind": "static",
                                        "experiment.tolerance": "0.08"}),
        horizons=(1000, 10000, 100000), replications=20),
    "lipschitz-long": Workload(
        "rates", dict(_SIGNAL_NOISE, **{
            "path.kind": "lipschitz", "path.function": "sine",
            "path.amplitude": "0.5", "path.beta": "1.0",
            "schedule.kind": "lipschitz", "schedule.beta": "1.0",
            "experiment.tolerance": "0.1"}),
        horizons=(1000, 10000, 100000), replications=8),
    "quantile-wide": Workload(
        "rates", {
            "model.kind": "signal_noise", "model.noise.kind": "uniform",
            "model.noise.scale": "0.5", "path.kind": "static",
            "path.value": "0.5", "tracking.initial": "0.5",
            "gain.kind": "quantile", "gain.alpha": "0.5",
            "gain.density_floor": "1.0", "gain.density_cap": "1.0",
            "schedule.kind": "static", "experiment.tolerance": "0.1"},
        horizons=(1000, 10000), replications=200),
    "verify-stack": Workload("verify", {"verify.samples": "1000000"}),
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "schedules.ns_per_step": "ns", "schedules.share": "ratio",
    "models.path_ns_per_step": "ns", "models.simulate_ns_per_step": "ns",
    "models.share": "ratio",
    "core.replay_ns_per_step": "ns", "core.run_tracking_ns_per_step": "ns",
    "core.share": "ratio", "core.steps": "count",
    "gains.row_ns_per_call": "ns", "gains.stack_ns_per_row": "ns",
    "bounds.a1_ms_per_probe": "ms", "bounds.a2_ms_per_probe": "ms",
    "bounds.gain_evals": "count",
    "experiments.build_ms": "ms", "experiments.fit_csv_ms": "ms",
    "experiments.unattributed_share": "ratio",
    "trace.coverage": "ratio",
}


class ChildFailed(RuntimeError):
    """A child process exited non-zero or printed no result."""


def spawn(workload: Workload, mode: str, cfg: Path, csv: Path,
          timeout: float = RUN_LIMIT_S) -> dict:
    """Run child.py in a fresh interpreter; its result plus ``t_spawn``."""
    cmd = [sys.executable, str(HERE / "child.py"), "--kind", workload.kind,
           "--config", str(cfg), "--out", str(csv), "--mode", mode]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["t_spawn"] = t_spawn
    return result


def load_expected(workload_name: str, seed: int):
    """Recorded (sha256, exit code) of the seed commit, or None."""
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    entry = table.get(workload_name, {}).get(str(seed))
    return None if entry is None else (entry["sha256"], entry["exit_code"])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(name: str, workload: Workload, seed: int, seconds: float,
                 trace: bool, expected=None):
    """Run sweeps for ``seconds``; return (report lines, result object).

    ``expected`` is the recorded (sha256, exit code) for this seed; when it
    is None the first sweep's output is the reference the others must match.
    """
    WORK.mkdir(exist_ok=True)
    cfg = WORK / f"{name}-{seed}.cfg"
    csv = WORK / f"{name}-{seed}.csv"
    cfg.write_text(workload.config_text(seed), encoding="utf-8")
    mode = "trace" if trace else "sweep"
    start = time.monotonic()
    sweeps, setups, problems = [], [], []
    attempted = failed = 0
    reference = expected
    while True:
        t0 = time.monotonic()
        try:
            res = spawn(workload, mode, cfg, csv,
                        RUN_LIMIT_S - (time.monotonic() - start))
        except (ChildFailed, subprocess.TimeoutExpired, ValueError) as exc:
            res = {"error": str(exc), "problems": []}
        ops = res.get("operations", workload.operations())
        bad = list(res["problems"])
        if res.get("error"):
            bad.append(res["error"].strip().splitlines()[-1])
        if "t_ready" in res:
            setups.append(res["t_ready"] - res["t_spawn"])
        if res.get("exit_code") is not None and csv.exists():
            digest = hashlib.sha256(csv.read_bytes()).hexdigest()
            csv.unlink()
            observed = (digest, res["exit_code"])
            if reference is None:
                reference = observed
            if observed != reference:
                bad.append(f"sha256/exit {observed} != recorded {reference}")
            res["digest"] = digest
        if res.get("bit_identical") is False:
            bad.append("traced rebuild differs from the command's output")
        attempted += ops
        if bad:
            failed += ops
            problems.extend(bad)
        if "t_end" in res:
            sweeps.append(res)
        elapsed = time.monotonic() - start
        took = time.monotonic() - t0
        enough = len(sweeps) >= (1 if trace else MIN_SWEEPS)
        if elapsed + took > seconds and (enough or elapsed > 2 * seconds):
            break
    while (not trace and sweeps and len(setups) < MIN_SETUPS
           and time.monotonic() - start < RUN_LIMIT_S - 30):
        res = spawn(workload, "setup", cfg, csv, 30)
        setups.append(res["t_ready"] - res["t_spawn"])

    lines = []
    if sweeps:
        env = sweeps[0]["env"]
        lines.append("env " + " ".join(f"{k}={v}" for k, v in env.items()))
        lines.append(f"workload {name} seed {seed}: {len(sweeps)} sweeps, "
                     f"exit code {sweeps[0]['exit_code']}, "
                     f"sha256 {sweeps[0].get('digest')}, "
                     f"recorded {'yes' if expected else 'no'}")
    lines.extend(f"problem: {p}" for p in problems)
    metrics = {}
    if sweeps and not trace:
        samples = {
            "setup_s": setups,
            "run_s": [r["t_end"] - r["t_ready"] for r in sweeps],
            "steps_per_s": [workload.work_per_sweep() / (r["t_end"] - r["t_ready"])
                            for r in sweeps],
            "peak_rss_mb": [r["rss_mb"] for r in sweeps],
        }
        for metric, values in samples.items():
            q1, med, q3 = _quartiles(values)
            unit = END_TO_END_UNITS[metric]
            metrics[metric] = {"value": med, "unit": unit}
            lines.append(f"{metric} {med:.6g} {unit} (median of {len(values)}; "
                         f"quartiles {q1:.6g} .. {q3:.6g}; all "
                         + " ".join(f"{v:.4g}" for v in values) + ")")
    traced = [r for r in sweeps if "layers" in r]
    if traced:
        sweeps = traced
        for metric, unit in LAYER_UNITS.items():
            med = statistics.median(r["layers"][metric] for r in sweeps)
            metrics[metric] = {"value": med, "unit": unit}
            lines.append(f"{metric} {med:.6g} {unit}")
        last = sweeps[-1]
        if workload.kind == "rates":
            lines.append("bit_identical (values_upto + simulate + "
                         "replay_updates == run_tracking) " + str(
                             all(r["bit_identical"] for r in sweeps)).lower())
        lines.append("off_path (timed on a fixed probe): "
                     + ", ".join(last["off_path"]))
        lines.append("stale (call no longer on the program's path): "
                     + (", ".join(last["stale"]) or "none"))
        lines.append("unmeasured: linalg, kalman (no shipped config or CLI "
                     "path runs them at a measurable size)")
    lines.append(f"fail_frac {failed / attempted if attempted else 1.0:.6g} "
                 f"ratio ({failed} of {attempted} operations failed)")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "drifttrack" / "__init__.py").is_file():
        print(f"no drifttrack package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    lines, result = run_workload(args.workload, WORKLOADS[args.workload],
                                 args.seed, args.seconds, bool(args.trace),
                                 load_expected(args.workload, args.seed))
    for line in lines:
        print(line)
    if not result["metrics"]:
        print("no sweep completed; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
