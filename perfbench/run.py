#!/usr/bin/env python3
"""Run a benchmark workload (or ``all`` of them) and print its metrics.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

``--trace 0`` times the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` runs it untraced for half the time, then runs
the same units of work again with the benchmark's spans on, and
reports the per-layer metrics of the traced pass (plus ``untimed_s``
and ``trace.overhead_s``).  Either way the outputs are checked after
the timed region, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}`` (one such
line per workload with ``all``).  Exit code 0 means every check held,
1 that a check failed, 2 that the benchmark could not run (for
instance outside a checkout with ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

WORKLOAD_NAMES = (
    "service_mixed", "sweep_networks", "sweep_csp", "service_recover"
)

SETUP_REPEATS = 3
SETUP_MIN_S = 4.0

#: name -> unit; bounds and directions live in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "cpu_s_per_point": "s/point",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.chunks": "count",
    "service.points.executed": "count",
    "service.points.deduped": "count",
    "service.cache.hits": "count",
    "service.cache.misses": "count",
    "service.cache.hit_ratio": "ratio",
    "service.journal.appends": "count",
    "service.journal.fsyncs": "count",
    "service.journal.append_s": "s",
    "service.store.rows": "count",
    "service.recover.replay_s": "s",
    "service.recover.points_replayed": "count",
    "service.recover.points_rerun": "count",
    "service.recover.rows_warmed": "count",
    "executor.run_points_s": "s",
    "executor.points": "count",
    "executor.dispatch_s": "s",
    "executor.retries": "count",
    "executor.timeouts": "count",
    "supervisor.trips": "count",
    "supervisor.degradations": "count",
    "net.mmap.degrades": "count",
    "sweep.grid_sweep_s": "s",
    "sweep.overhead_s": "s",
    "networks.graph_open_s": "s",
    "networks.percolation_s": "s",
    "networks.sir_s": "s",
    "networks.betweenness_s": "s",
    "networks.curves": "count",
    "csp.compile_s": "s",
    "csp.recoverability_s": "s",
    "csp.maintainability_s": "s",
    "csp.compiles": "count",
    "csp.fallbacks": "count",
    "agents.sim_s": "s",
    "trace.units": "count",
    "untimed_s": "s",
    "trace.overhead_s": "s",
}

#: worker-side spans reported as per-layer seconds
_WORKER_TIMERS = (
    "networks.graph_open", "networks.percolation", "networks.sir",
    "networks.betweenness", "csp.compile", "csp.recoverability",
    "csp.maintainability", "agents.sim",
)
#: program and point counters reported as per-layer counts
_COUNTERS = (
    "service.chunks", "service.points.executed", "service.points.deduped",
    "service.cache.hits", "service.cache.misses", "service.journal.appends",
    "executor.retries", "executor.timeouts", "supervisor.trips",
    "supervisor.degradations", "net.mmap.degrades", "networks.curves",
    "csp.compiles", "csp.fallbacks",
)


def percentile(samples, q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q))


def end_to_end_metrics(run, setup_times) -> dict:
    from perfbench.workloads import peak_rss_mb

    return {
        "setup_s": statistics.median(setup_times),
        "points_per_s": run.median_rate(),
        "job_latency_p50_s": percentile(run.latencies, 50),
        "job_latency_p90_s": percentile(run.latencies, 90),
        "cpu_s_per_point": run.median_cpu_per_point(),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer_metrics(rec, run, base, window) -> dict:
    """Per-layer values of one traced pass (see README.md for the map)."""
    executor = [s for s in rec.spans if s["name"] == "executor.run_points"]
    run_points_s = sum(s["end"] - s["start"] for s in executor)
    # worker-slot seconds the executor held minus seconds spent inside
    # point functions: fork, pickling, pipes and idle slots
    slot_s = sum((s["end"] - s["start"]) * s["slots"] for s in executor)
    grid_s = rec.total("sweep.grid_sweep")
    hits = rec.counters["service.cache.hits"]
    lookups = hits + rec.counters["service.cache.misses"]
    values = dict.fromkeys(PER_LAYER, 0)
    values.update({name: rec.counters[name] for name in _COUNTERS})
    values.update({f"{name}_s": rec.worker_total(name)
                   for name in _WORKER_TIMERS})
    values.update({
        "service.submit_s": rec.total("service.submit"),
        "service.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "service.journal.append_s": rec.total("service.journal.append"),
        "service.recover.replay_s": rec.total("service.recover.replay"),
        "executor.run_points_s": run_points_s,
        "executor.points": sum(s["points"] for s in executor),
        "executor.dispatch_s": slot_s - rec.kernel_s if executor else 0.0,
        "sweep.grid_sweep_s": grid_s,
        "sweep.overhead_s": grid_s - run_points_s if grid_s else 0.0,
        "trace.units": run.units,
        "untimed_s": (window[1] - window[0])
        - rec.covered(window[0], window[1]),
        "trace.overhead_s": run.wall_s - base.wall_s,
    })
    values.update(run.layers)
    return values


def environment(seed, workload) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "workload": workload.name,
        "engines": workload.engines(),
    }


def run_workload(name, seed, seconds, traced, workdir, *, tiny=False,
                 jobs=None) -> dict:
    """Set up, measure and check one workload; returns the report."""
    from perfbench.tracing import Recorder, traced as tracing
    from perfbench.workloads import JOBS, WORKLOADS

    workload = WORKLOADS[name](
        seed, workdir, tiny=tiny, jobs=JOBS if jobs is None else jobs
    )
    env = environment(seed, workload)
    setup_times = []
    state = None
    # the traced run reports no setup_s: one set-up is enough there.
    # Otherwise set up at least SETUP_REPEATS times and for at least
    # SETUP_MIN_S: a shared VM's CPU speed changes over seconds, so a
    # median of set-ups a few ms long, taken in one instant, moves more
    # from run to run than one spread over seconds
    min_s = min(SETUP_MIN_S, seconds)
    start = time.perf_counter()
    while not setup_times or not traced and (
        len(setup_times) < SETUP_REPEATS
        or time.perf_counter() - start < min_s
    ):
        if state is not None:
            workload.discard(state)
        directory = os.path.join(workdir, f"setup-{len(setup_times)}")
        os.makedirs(directory)
        t0 = time.perf_counter()
        state = workload.setup(directory)
        setup_times.append(time.perf_counter() - t0)
    try:
        if not traced:
            run = workload.measure(state, seconds=seconds)
            metrics = end_to_end_metrics(run, setup_times)
            units = END_TO_END
            runs = [run]
        else:
            base = workload.measure(state, seconds=seconds / 2)
            if not workload.reusable_state:
                directory = os.path.join(workdir, "setup-traced")
                os.makedirs(directory)
                state = workload.setup(directory)
            rec = Recorder()
            with tracing(rec, workdir):
                t0 = time.perf_counter()
                run = workload.measure(state, units=base.units, rec=rec)
                window = (t0, time.perf_counter())
            metrics = per_layer_metrics(rec, run, base, window)
            units = PER_LAYER
            runs = [base, run]
    finally:
        workload.discard(state)
    errors = workload.check([out for r in runs for out in r.outputs])
    env["loadavg_after"] = list(os.getloadavg())
    return {
        "workload": workload,
        "env": env,
        "setup_times": setup_times,
        "runs": runs,
        "errors": errors,
        "correct": not errors,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }


def print_report(report, traced) -> None:
    workload = report["workload"]
    run = report["runs"][-1]
    print(f"perfbench {workload.name}: {workload.why}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    times = report["setup_times"]
    print(f"set-up: {len(times)} times, min {min(times):.4f} median "
          f"{statistics.median(times):.4f} max {max(times):.4f} s")
    n = len(run.latencies)
    print(f"timed: {run.units} x {workload.unit}, {run.points} points "
          f"in {run.wall_s:.3f} s" + (" (traced pass)" if traced else ""))
    if not traced:
        print(f"rates: {workload.stretch} ({len(run.samples)} samples)")
        if n >= 20:
            q = int(100 * (1 - 10 / n))
            print(f"latency samples: {n}; highest percentile with >= 10 "
                  f"samples beyond it: p{q} = "
                  f"{percentile(run.latencies, q):.4f} s")
        else:
            print(f"latency samples: {n} (fewer than 20: p90 is "
                  "interpolated, not backed by 10 samples)")
    for name, metric in report["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    if workload.name == "service_recover" and not traced:
        print(f"  {'recover_s (= job_latency_p50_s)':34s} "
              f"{report['metrics']['job_latency_p50_s']['value']:>14.6g} s")
    attempted = max(report["attempted"], 1)
    print(f"  {'failed_frac':34s} {report['failed'] / attempted:>14.6g} "
          f"ratio ({report['failed']} of {report['attempted']} points "
          "failed or refused)")
    for error in report["errors"]:
        print(f"CHECK FAILED: {error}")
    if report["correct"]:
        print("checks: all hold")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}/repro; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct = True
    for name in names:
        os.makedirs(WORK_ROOT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
        # every temporary file the program or its workers make stays
        # inside the checkout, and is removed with the work directory
        os.environ["TMPDIR"] = os.environ["REPRO_MMAP_DIR"] = workdir
        tempfile.tempdir = workdir
        try:
            report = run_workload(
                name, args.seed, args.seconds, bool(args.trace), workdir
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(WORK_ROOT)
            except OSError:
                pass  # another run is still using it
        print_report(report, bool(args.trace))
        print(json.dumps({
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": report["metrics"],
        }))
        correct = correct and report["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path[:0] = [ROOT, SRC]
    # workers started as fresh interpreters import perfbench.points too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, SRC, os.environ.get("PYTHONPATH")) if p
    )
    sys.exit(main())
