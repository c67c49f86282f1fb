"""One workload process of the drifttrack benchmark.

run.py starts this script in a fresh interpreter for every sweep, so each
sweep pays what a user of the CLI pays: interpreter start, imports, config
parsing and component building.  The script prints one JSON object on its
last stdout line:

- ``t_ready`` and ``t_end``: ``time.monotonic()`` readings when set-up is
  done and when the CSV is written.  On Linux that clock is shared by all
  processes, so the parent measures set-up from the moment it spawned us.
- ``exit_code``: what the CLI would return (0 pass, 1 fail), or null when
  the sweep raised; ``error`` then holds the traceback.
- ``rss_mb``: peak resident memory after the CSV is written.
- ``operations``: replications or verify probes in the sweep.
- ``problems``: output checks that failed (empty when the CSV is right).
- in trace mode, ``layers`` (per-module metrics), ``bit_identical``,
  ``off_path`` and ``stale``.

Usage (normally only through run.py)::

    PYTHONPATH=src python3 perfbench/child.py --kind rates \
        --config CFG --out CSV --mode sweep|setup|trace
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import replace

# Replications rebuilt call by call at the largest horizon of a traced run.
TRACE_REPS = 2
# Rows fed one at a time to a gain evaluator when timing per-row calls.
ROW_SAMPLE = 20_000

# Small fixed inputs for the layers a workload does not run.  A rates
# sweep never calls the bounds verifiers or stacked gains, and a verify
# sweep never calls schedules, models or the recursion; on each workload
# those layers are timed on the other command's probe and listed as
# off_path in the output.
PROBES = {
    "rates": """
model.kind = signal_noise
gain.kind = signal_noise
schedule.kind = static
experiment.horizons = 1000,10000
experiment.replications = 2
experiment.seed = 20260823
""",
    "verify": """
verify.samples = 10000
experiment.seed = 20260823
""",
}
LAYERS = {
    "rates": ("schedules.ns_per_step", "schedules.share",
              "models.path_ns_per_step", "models.simulate_ns_per_step",
              "models.share", "core.replay_ns_per_step",
              "core.run_tracking_ns_per_step", "core.share", "core.steps",
              "gains.row_ns_per_call", "trace.coverage"),
    "verify": ("gains.stack_ns_per_row", "bounds.a1_ms_per_probe",
               "bounds.a2_ms_per_probe", "bounds.gain_evals"),
}

# The public calls each command makes at the seed commit, and the metrics
# each one feeds.  A call that a sweep no longer makes marks its metrics
# stale: they are reported as 0 and named in the output.
PATH_CALLS = {
    "rates": {
        "schedules.values_upto": ("schedules.ns_per_step", "schedules.share"),
        "models.path_sample": ("models.path_ns_per_step",),
        "models.simulate": ("models.simulate_ns_per_step", "models.share"),
        "core.run_tracking": ("core.replay_ns_per_step",
                              "core.run_tracking_ns_per_step", "core.share",
                              "core.steps", "trace.coverage",
                              "experiments.unattributed_share"),
        "gains.row_call": ("gains.row_ns_per_call",),
        "experiments.build": ("experiments.build_ms",),
        "experiments.fit_rate": ("experiments.fit_csv_ms",),
        "experiments.format_csv": ("experiments.fit_csv_ms",),
    },
    "verify": {
        "bounds.verify_A1": ("bounds.a1_ms_per_probe",
                             "experiments.unattributed_share"),
        "bounds.verify_A2": ("bounds.a2_ms_per_probe",),
        "gains.stack_call": ("gains.stack_ns_per_row", "bounds.gain_evals"),
        "experiments.build": ("experiments.build_ms",),
        "experiments.format_csv": ("experiments.fit_csv_ms",),
    },
}


def _now() -> float:
    return time.perf_counter()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Spans:
    """Times and counts calls into the program from outside it.

    ``install`` swaps a module or class attribute for a timing wrapper and
    ``restore`` puts every original back, so only the traced sweep sees
    the wrappers.  ``units(args, result)`` adds a work count per call.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.units: dict[str, int] = defaultdict(int)
        self._saved = []

    def wrap(self, name, func, units=None, when=None):
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args):
                return func(*args, **kwargs)
            t0 = _now()
            result = func(*args, **kwargs)
            self.seconds[name] += _now() - t0
            self.calls[name] += 1
            if units is not None:
                self.units[name] += units(args, result)
            return result

        return wrapper

    def install(self, owner, attr, name, func=None, units=None):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, func or orig, units))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def _is_stack(_est, rows) -> bool:
    return getattr(rows, "ndim", 0) == 2 and rows.shape[0] > 1


def _is_row(est, rows) -> bool:
    return not _is_stack(est, rows)


def _rows_in(args, _result) -> int:
    return args[1].shape[0]


# =====================================================================
# The command, as the CLI runs it
# =====================================================================

def build(ex, kind, raw, config):
    """Set-up work after parsing: components per horizon, or fixtures."""
    if kind == "rates":
        return [ex.build_components(raw, n) for n in config.horizons]
    return ex.builtin_fixtures()


def sweep(ex, kind, config):
    """Run the subcommand's work and write its CSV; (report, exit code)."""
    if kind == "rates":
        report = ex.run_rate_sweep(config)
        ex.emit_csv(ex.RATE_HEADER, report.rows, config.out)
    else:
        report = ex.run_condition_verify(config)
        ex.emit_csv(ex.VERIFY_HEADER, report.rows, config.out)
    return report, 0 if report.passed else 1


# =====================================================================
# Output checks
# =====================================================================

def _read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_rates(ex, raw, config, csv_path) -> list[str]:
    """Structure of every row, and two rows recomputed from layer calls."""
    import numpy as np
    from drifttrack import core, models

    header, rows = _read_csv(csv_path)
    problems = []
    if header != ex.RATE_HEADER:
        problems.append(f"header {header}")
    reps = config.replications
    if len(rows) != reps * len(config.horizons):
        return problems + [f"{len(rows)} rows, expected "
                           f"{reps * len(config.horizons)}"]
    for i, row in enumerate(rows):
        h_idx, rep = divmod(i, reps)
        if (int(row[0]), int(row[1]), int(row[6])) \
                != (config.horizons[h_idx], rep, config.seed ^ i):
            problems.append(f"row {i}: horizon/replication/seed {row}")
        if not all(math.isfinite(float(v)) and float(v) >= 0
                   for v in row[2:5]):
            problems.append(f"row {i}: bad error norms {row}")
    # replication seeds are seed ^ (h_idx * R + rep), so seed ^ rep at the
    # first horizon; the CSV's 17 significant digits round-trip exactly
    n = config.horizons[0]
    tracking, model, gain, _path = ex.build_components(raw, n)
    gammas = tracking.schedule.values_upto(n)
    for rep in sorted({0, reps - 1}):
        sim = model.simulate(n, models.make_rng(config.seed ^ rep))
        est = core.replay_updates(tracking.initial_estimate, sim.observations,
                                  gammas, gain, tracking.projection)
        err = np.abs(est[-1] - sim.targets[-1])
        want = (float(np.sum(err)), float(np.sqrt(np.sum(err * err))))
        if (float(rows[rep][2]), float(rows[rep][3])) != want:
            problems.append(f"row {rep}: errors {rows[rep][2:4]} differ from "
                            f"the recomputed {want}")
    return problems


def check_verify(ex, config, csv_path, n_probes) -> list[str]:
    """Structure of every row, and probe 0 recomputed from a fresh stream."""
    from drifttrack import bounds, models

    header, rows = _read_csv(csv_path)
    problems = []
    if header != ex.VERIFY_HEADER:
        problems.append(f"header {header}")
    if len(rows) != n_probes:
        return problems + [f"{len(rows)} rows, expected {n_probes}"]
    for i, row in enumerate(rows):
        if int(row[0]) != i or row[5] not in ("0", "1") \
                or not all(math.isfinite(float(v)) for v in row[1:5]):
            problems.append(f"row {i}: {row}")
    # the command draws probe 0's A1 samples first from make_rng(seed)
    fx = next(iter(ex.builtin_fixtures().values()))
    probe = bounds.verify_A1_empirical(
        fx.gain_eval, fx.sampler, fx.theta, fx.probes[:1],
        int(config.raw["verify.samples"]), models.make_rng(config.seed),
        lambda1=fx.lambda1, lipschitz=fx.lipschitz).probes[0]
    want = (probe.r_hat, probe.r_se, probe.g_norm_ratio)
    if tuple(float(v) for v in rows[0][1:4]) != want:
        problems.append(f"probe 0: {rows[0][1:4]} differs from the "
                        f"recomputed {want}")
    return problems


# =====================================================================
# Traced runs: spans around the calls into each module
# =====================================================================

def install_spans(spans, ex, kind, components):
    """Wrap the public calls the command makes; the sweep then runs as is."""
    from drifttrack import bounds, models, schedules

    spans.install(ex, "format_csv", "experiments.format_csv")
    if kind == "rates":
        spans.install(ex, "build_components", "experiments.build")
        spans.install(ex, "run_tracking", "core.run_tracking",
                      units=lambda _args, run: run.steps.size)
        spans.install(ex, "fit_rate", "experiments.fit_rate")
        spans.install(schedules.StepSchedule, "values_upto",
                      "schedules.values_upto")
        spans.install(models.ParameterPath, "sample", "models.path_sample")
        spans.install(type(components[0][1]), "simulate", "models.simulate")
    else:
        fixtures = ex.builtin_fixtures

        def traced_fixtures():
            return {name: replace(fx, gain_eval=spans.wrap(
                        "gains.stack_call", fx.gain_eval, _rows_in, _is_stack))
                    for name, fx in fixtures().items()}

        spans.install(ex, "builtin_fixtures", "experiments.build",
                      traced_fixtures)
        spans.install(bounds, "verify_A1_empirical", "bounds.verify_A1")
        spans.install(bounds, "verify_A2_empirical", "bounds.verify_A2")


def row_calls(ex, config) -> dict:
    """Single-row and stacked gain calls of a one-replication sweep at the
    first horizon.  Counting every gain call would slow the traced sweep,
    so this small sweep runs apart from it."""
    spans = Spans()
    components = ex.build_components

    def counted(*args, **kwargs):
        tracking, model, gain, path = components(*args, **kwargs)
        ev = spans.wrap("gains.row_call", gain.evaluator, when=_is_row)
        ev = spans.wrap("gains.stack_call", ev, when=_is_stack)
        return tracking, model, replace(gain, evaluator=ev), path

    small = replace(config, horizons=config.horizons[:1], replications=1,
                    out=None)
    spans.install(ex, "build_components", "experiments.build", counted)
    try:
        ex.run_rate_sweep(small)
    finally:
        spans.restore()
    return dict(spans.calls)


def rates_layers(ex, raw, config, spans) -> tuple[dict, bool]:
    """Per-layer metrics of a traced rates sweep, plus a rebuild of
    replications at the largest horizon from values_upto, simulate and
    replay_updates that must equal run_tracking's output bit for bit."""
    from drifttrack import core, models

    sec = spans.seconds
    steps = spans.units["core.run_tracking"]
    run = sec["core.run_tracking"]
    layers = {
        "schedules.ns_per_step": _ratio(sec["schedules.values_upto"] * 1e9,
                                        steps),
        "schedules.share": _ratio(sec["schedules.values_upto"], run),
        "models.path_ns_per_step": _ratio(sec["models.path_sample"] * 1e9,
                                          steps),
        "models.simulate_ns_per_step": _ratio(sec["models.simulate"] * 1e9,
                                              steps),
        "models.share": _ratio(sec["models.simulate"], run),
        "core.run_tracking_ns_per_step": _ratio(run * 1e9, steps),
        # self time of run_tracking: the recursion and its glue
        "core.share": _ratio(run - sec["schedules.values_upto"]
                             - sec["models.simulate"], run),
        "core.steps": steps,
        "experiments.fit_csv_ms": (sec["experiments.fit_rate"]
                                   + sec["experiments.format_csv"]) * 1e3,
    }
    n = config.horizons[-1]
    h_idx = len(config.horizons) - 1
    tracking, model, gain, _path = ex.build_components(raw, n)
    parts = defaultdict(list)
    identical = True
    for rep in range(min(config.replications, TRACE_REPS)):
        seed = config.seed ^ (h_idx * config.replications + rep)
        t0 = _now()
        run_out = core.run_tracking(tracking, model, gain, seed)
        t1 = _now()
        gammas = tracking.schedule.values_upto(n)
        t2 = _now()
        sim = model.simulate(n, models.make_rng(seed))
        t3 = _now()
        est = core.replay_updates(tracking.initial_estimate, sim.observations,
                                  gammas, gain, tracking.projection)
        t4 = _now()
        identical = identical and all(
            a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes()
            for a, b in ((est, run_out.estimates), (sim.targets, run_out.targets),
                         (gammas, run_out.steps)))
        parts["replay"].append(t4 - t3)
        parts["coverage"].append((t4 - t1) / (t1 - t0))
        parts["row"].append(_time_row_calls(gain.evaluator, sim.observations,
                                            est))
    layers["core.replay_ns_per_step"] = \
        statistics.median(parts["replay"]) * 1e9 / n
    layers["trace.coverage"] = statistics.median(parts["coverage"])
    layers["gains.row_ns_per_call"] = \
        statistics.median(parts["row"]) * 1e9 / min(n, ROW_SAMPLE)
    return layers, identical


def _time_row_calls(evaluator, observations, estimates) -> float:
    """Seconds for up to ROW_SAMPLE single-row evaluator calls, fed the way
    the scalar recursion feeds them (floats when d = 1 and rows are scalar)."""
    m = min(observations.shape[0], ROW_SAMPLE)
    if observations.shape[1] == 1 and estimates.shape[1] == 1:
        rows = observations[:m, 0].tolist()
        ests = estimates[:m, 0].tolist()
    else:
        rows = list(observations[:m])
        ests = list(estimates[:m])
    t0 = _now()
    for est, row in zip(ests, rows):
        evaluator(est, row)
    return _now() - t0


def verify_layers(spans) -> dict:
    sec = spans.seconds
    probes = spans.calls["bounds.verify_A2"]  # one A2 call per probe
    rows = spans.units["gains.stack_call"]
    return {
        "bounds.a1_ms_per_probe": _ratio(sec["bounds.verify_A1"] * 1e3, probes),
        "bounds.a2_ms_per_probe": _ratio(sec["bounds.verify_A2"] * 1e3, probes),
        "bounds.gain_evals": rows,
        "gains.stack_ns_per_row": _ratio(sec["gains.stack_call"] * 1e9, rows),
        "experiments.fit_csv_ms": sec["experiments.format_csv"] * 1e3,
    }


def layer_report(ex, kind, raw, config, spans, run_s) -> dict:
    """All per-layer metrics for one traced sweep of ``kind``."""
    if kind == "rates":
        layers, identical = rates_layers(ex, raw, config, spans)
        covered = spans.seconds["core.run_tracking"]
        calls = dict(spans.calls, **row_calls(ex, config))
    else:
        layers, identical = verify_layers(spans), None
        covered = spans.seconds["bounds.verify_A1"] \
            + spans.seconds["bounds.verify_A2"]
        calls = dict(spans.calls)
    layers["experiments.build_ms"] = spans.seconds["experiments.build"] * 1e3
    layers["experiments.unattributed_share"] = 1.0 - covered / run_s
    stale = sorted({metric for call, metrics in PATH_CALLS[kind].items()
                    if calls.get(call, 0) == 0 for metric in metrics})
    for metric in stale:
        layers[metric] = 0.0
    return {"layers": layers, "bit_identical": identical, "stale": stale,
            "calls": calls}


def probe_layers(ex, kind) -> dict:
    """Traced sweep of the fixed probe config for ``kind``."""
    raw = ex.parse_config_text(PROBES[kind])
    config = ex.experiment_config(kind, raw)
    components = build(ex, kind, raw, config)
    spans = Spans()
    install_spans(spans, ex, kind, components)
    t0 = _now()
    try:
        sweep(ex, kind, config)
    finally:
        spans.restore()
    return layer_report(ex, kind, raw, config, spans, _now() - t0)["layers"]


# =====================================================================
# Environment
# =====================================================================

def environment() -> dict:
    """Interpreter, numpy/scipy/OpenBLAS versions and BLAS threads."""
    import ctypes
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "blas": f"{blas.get('name')}-{blas.get('version')}"}
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                env["blas_threads"] = func()
                return env
    return env


# =====================================================================
# Entry point
# =====================================================================

def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--kind", choices=("rates", "verify"), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("setup", "sweep", "trace"),
                        required=True)
    args = parser.parse_args()
    kind = args.kind

    import drifttrack  # noqa: F401  (set-up includes the package import)
    from drifttrack import experiments as ex

    raw = ex.parse_config_file(args.config)
    config = ex.experiment_config(kind, raw, {"out": args.out})
    components = build(ex, kind, raw, config)
    out = {"t_ready": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    spans = Spans()
    if args.mode == "trace":
        install_spans(spans, ex, kind, components)
    report = None
    try:
        report, out["exit_code"] = sweep(ex, kind, config)
    except Exception:  # a raised sweep is a failed run, not a crash
        out["exit_code"] = None
        out["error"] = traceback.format_exc(limit=4)
    finally:
        spans.restore()
    out["t_end"] = time.monotonic()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if kind == "rates":
        out["operations"] = config.replications * len(config.horizons)
    else:
        out["operations"] = sum(len(fx.probes)
                                for fx in ex.builtin_fixtures().values())
    out["problems"] = []
    if report is not None:
        if kind == "rates":
            out["problems"] = check_rates(ex, raw, config, args.out)
        else:
            out["problems"] = check_verify(ex, config, args.out,
                                           out["operations"])
        if args.mode == "trace":
            out.update(layer_report(ex, kind, raw, config, spans,
                                    out["t_end"] - out["t_ready"]))
            other = "verify" if kind == "rates" else "rates"
            out["layers"].update({name: value for name, value
                                  in probe_layers(ex, other).items()
                                  if name in LAYERS[other]})
            out["off_path"] = list(LAYERS[other])
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
