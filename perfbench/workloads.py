"""The four workloads: set-up, one measured pass, and the output checks.

A workload's ``setup(directory)`` builds what the timed region needs and
returns it; the runner times it several times and keeps the last
result.  ``measure(state, seconds=..., units=..., rec=...)`` runs units
of work (a service job, a ``grid_sweep`` call, a recovery) until
``seconds`` have passed or ``units`` units are done, and returns a
:class:`Pass`.  ``check(outputs)`` runs after every timed region and
returns the failed checks, an empty list when all hold.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is in README.md next to this file.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import threading
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.sweep import grid_sweep
from repro.csp import random_clause_csp
from repro.errors import BackpressureError
from repro.networks import (
    MmapGraph,
    barabasi_albert_stream,
    erdos_renyi_stream,
)
from repro.runtime.trace import Tracer
from repro.service import ResilienceService
from repro.spacecraft import Spacecraft

from . import points
from .tracing import Recorder, instrument_persistence

#: worker processes and client threads: one process drives the load,
#: at most nproc (2 on the reference box) ways parallel
JOBS = 2
CLIENTS = 2
JOB_TIMEOUT_S = 120.0


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest ``ru_maxrss`` of this process or any reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def rows_json(rows) -> str:
    return json.dumps(list(rows), sort_keys=True)


def _span(rec, name, **attrs):
    return rec.span(name, **attrs) if rec is not None else nullcontext()


def _more(start, seconds, units, done) -> bool:
    """Whether a pass starts another unit of work."""
    if units is not None:
        return done < units
    return done == 0 or time.perf_counter() - start < seconds


def _result_fields(row: dict, params) -> dict:
    return {k: v for k, v in row.items() if k not in params}


@dataclass
class Pass:
    """What one measured pass did."""

    wall_s: float = 0.0
    points: int = 0  # completed points
    attempted: int = 0
    failed: int = 0  # failed or refused points
    cpu_s: float = 0.0
    units: int = 0
    latencies: list = field(default_factory=list)
    #: (wall_s, points, cpu_s) of each stretch the rates are taken over:
    #: a grid_sweep call, a recovery, or a whole service_mixed pass
    samples: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)  # traced passes only

    def median_rate(self) -> float:
        """Median over the samples of completed points per second."""
        return statistics.median(n / s for s, n, _ in self.samples)

    def median_cpu_per_point(self) -> float:
        """Median over the samples of CPU seconds per completed point."""
        return statistics.median(c / max(n, 1) for _, n, c in self.samples)


class Workload:
    name = ""
    why = ""
    unit = ""  # what one latency sample times
    stretch = ""  # what points_per_s and cpu_s_per_point are taken over
    reusable_state = True  # False: each pass needs a fresh set-up

    def __init__(self, seed: int, workdir: str, *, tiny: bool = False,
                 jobs: int = JOBS):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.jobs = jobs

    def setup(self, directory: str):
        raise NotImplementedError

    def discard(self, state) -> None:
        pass

    def measure(self, state, *, seconds=None, units=None, rec=None) -> Pass:
        raise NotImplementedError

    def check(self, outputs: list) -> list:
        raise NotImplementedError

    def engines(self) -> dict:
        raise NotImplementedError


# -- service_mixed -------------------------------------------------------------


class ServiceMixed(Workload):
    name = "service_mixed"
    why = ("closed loop of 2 clients on a durable 2-worker service; small "
           "kernels, so dispatch, journal, queue and cache dominate")
    unit = "job (submit to result)"
    stretch = "the whole timed pass"
    reusable_state = False

    KINDS = ("percolation", "csp", "percolation", "csp", "agents")
    TWIN_EVERY = 12  # every 12th job is an in-flight twin of the one before
    REPEAT_EVERY = 4  # every 4th job repeats an earlier grid (cache reads)
    REPEAT_LAG = 6
    SHAPE_SEED = 2013
    SIZE_STRATA = 120
    JOB_LIST = 4000

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.max_points = 8 if self.tiny else 32
        self._passes = 0
        self.job_list = self._job_list()

    def _job_list(self) -> list:
        """Job keys ``(kind, tag, size, seed)`` in submission order.

        The traffic shape is the same for every seed: sizes are
        log-uniform over 1..max_points in one fixed shuffled order, kinds
        cycle, every 4th job repeats the distinct job ``REPEAT_LAG``
        places back and every 12th is a twin of the job before.  The seed
        sets what the kernels compute (each job's tag and seed), so
        seeds change the inputs, not how much work arrives when.
        """
        quantiles = (np.arange(self.SIZE_STRATA) + 0.5) / self.SIZE_STRATA
        sizes = [
            int(round(self.max_points ** q))
            for q in np.random.default_rng(self.SHAPE_SEED).permutation(
                quantiles)
        ]
        rng = np.random.default_rng([self.seed, 11])
        keys: list = []
        distinct: list = []
        for k in range(self.JOB_LIST):
            if k % self.TWIN_EVERY == self.TWIN_EVERY - 1:
                keys.append(keys[-1])
            elif k % self.REPEAT_EVERY == self.REPEAT_EVERY - 1:
                keys.append(distinct[-min(self.REPEAT_LAG, len(distinct))])
            else:
                distinct.append((
                    self.KINDS[len(distinct) % len(self.KINDS)],
                    f"s{self.seed}-j{k}",
                    sizes[len(distinct) % len(sizes)],
                    int(rng.integers(2**31)),
                ))
                keys.append(distinct[-1])
        return keys

    @staticmethod
    def _grid(key) -> dict:
        kind, tag, size, _ = key
        return {"kind": [kind], "tag": [tag], "i": list(range(size))}

    def setup(self, directory: str):
        """Start the service and run one small warm-up job per kernel
        kind, so the first forks and first kernel calls are set-up."""
        svc = ResilienceService(
            workers=self.jobs, service_dir=directory
        ).start()
        for kind in sorted(set(self.KINDS)):
            key = (kind, f"s{self.seed}-warmup", self.jobs, self.seed)
            job = svc.submit(f"mixed-{kind}", points.service_point,
                             grid=self._grid(key), seed=key[3])
            if not job.wait(JOB_TIMEOUT_S) or job.progress()["failed"]:
                raise RuntimeError(f"warm-up job {kind} did not complete")
        return svc

    def discard(self, svc) -> None:
        svc.close()

    def measure(self, svc, *, seconds=None, units=None, rec=None) -> Pass:
        self._passes += 1
        if rec is not None:
            instrument_persistence(rec, svc.persistence)
        # per-pass layer counts: leave out what set-up's warm-up did
        counters0 = Counter(svc.tracer.counters)
        journal0 = svc.persistence.stats()
        lock = threading.Lock()
        taken = [0]
        records: list = []
        start = time.perf_counter()
        cpu0 = cpu_seconds()

        def take():
            with lock:
                k = taken[0]
                if k >= len(self.job_list) or not _more(
                    start, seconds, units, k
                ):
                    return None
                taken[0] = k + 1
                return self.job_list[k]

        def client():
            while (key := take()) is not None:
                t0 = time.perf_counter()
                job = None
                with _span(rec, "service.job", tag=key[1]):
                    try:
                        with _span(rec, "service.submit", tag=key[1]):
                            job = svc.submit(
                                f"mixed-{key[0]}", points.service_point,
                                grid=self._grid(key), seed=key[3],
                            )
                    except BackpressureError:
                        pass
                    else:
                        job.wait(JOB_TIMEOUT_S)
                t1 = time.perf_counter()
                with lock:
                    records.append((key, job, t0, t1))

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        p = Pass(cpu_s=cpu_seconds() - cpu0, units=len(records))
        p.wall_s = max(t1 for *_, t1 in records) - start
        with _span(rec, "bench.collect"):
            for key, job, t0, t1 in records:
                size = key[2]
                p.attempted += size
                if job is None or not job.done:
                    p.failed += size  # refused or never finished
                    continue
                progress = job.progress()
                p.failed += progress["failed"]
                p.points += progress["filled"] - progress["failed"]
                p.latencies.append(t1 - t0)
                p.outputs.append({
                    "key": list(key),
                    "pass": self._passes,
                    "executed": progress["executed"],
                    "rows": rows_json(job.result().rows),
                })
            # jobs differ in size and kind, so the rate is the whole pass's
            p.samples.append((p.wall_s, p.points, p.cpu_s))
            journal = svc.persistence.stats()
        if rec is not None:
            rec.counters.update(Counter(svc.tracer.counters) - counters0)
            first_submit: dict = {}
            for s in rec.spans:
                if s["name"] == "service.submit":
                    first_submit[s["tag"]] = min(
                        s["end"], first_submit.get(s["tag"], s["end"])
                    )
            first_run: dict = {}
            for s in rec.spans:
                if s["name"] == "executor.run_points":
                    for tag in s["tags"]:
                        first_run[tag] = min(
                            s["start"], first_run.get(tag, s["start"])
                        )
            p.layers = {
                "service.queue_wait_s": sum(
                    first_run[tag] - first_submit[tag]
                    for tag in first_run if tag in first_submit
                ),
                "service.journal.fsyncs":
                    journal["fsynced"] - journal0["fsynced"],
                "service.store.rows":
                    journal["stored_rows"] - journal0["stored_rows"],
            }
        with _span(rec, "service.close"):
            # every job has ended unless one timed out: don't wait on it
            svc.close(drain=False)
        return p

    def check(self, outputs: list) -> list:
        errors = []
        baselines: dict = {}
        executed: dict = {}
        for out in outputs:
            key = tuple(out["key"])
            if key not in baselines:
                baselines[key] = rows_json(grid_sweep(
                    self._grid(key), points.service_point, seed=key[3]
                ).rows)
            if out["rows"] != baselines[key]:
                errors.append(
                    f"job {key[1]}: rows differ from an inline grid_sweep "
                    "of the same grid and seed"
                )
            slot = (out["pass"], key)
            executed[slot] = executed.get(slot, 0) + out["executed"]
        for (_, key), n in executed.items():
            if n != key[2]:
                errors.append(
                    f"job {key[1]}: its {key[2]} points executed {n} times "
                    "across its repeats and twins (want each exactly once)"
                )
        return errors

    def engines(self) -> dict:
        return {
            "network": points.SERVICE_NETWORK_ENGINE,
            "csp": points.SERVICE_CSP_ENGINE,
            "agents": points.AGENT_ENGINE,
        }


# -- the two batch sweeps --------------------------------------------------------


class _Sweep(Workload):
    unit = "grid_sweep call"
    stretch = "median over grid_sweep calls"
    fn = None  # the point function (a staticmethod in each subclass)
    params: tuple = ()  # grid parameters, as opposed to result fields

    def grid(self, state) -> dict:
        raise NotImplementedError

    def measure(self, state, *, seconds=None, units=None, rec=None) -> Pass:
        grid = self.grid(state)
        p = Pass()
        start = time.perf_counter()
        cpu0 = cpu_seconds()
        while _more(start, seconds, units, p.units):
            tracer = Tracer(keep_events=False) if rec is not None else None
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            with _span(rec, "sweep.grid_sweep"):
                result = grid_sweep(
                    grid, self.fn, n_jobs=self.jobs, on_error="keep",
                    tracer=tracer,
                )
            t1 = time.perf_counter()
            done = len(result.rows) - len(result.failures)
            p.latencies.append(t1 - t0)
            p.samples.append((t1 - t0, done, cpu_seconds() - c0))
            if tracer is not None:
                rec.counters.update(tracer.counters)
            p.units += 1
            p.attempted += len(result.rows)
            p.failed += len(result.failures)
            p.points += done
            p.outputs.append(rows_json(result.rows))
        p.wall_s = time.perf_counter() - start
        p.cpu_s = cpu_seconds() - cpu0
        return p

    def _common_checks(self, outputs: list) -> "tuple[list, list]":
        errors = [
            f"grid_sweep call {k} returned other rows than call 0"
            for k, out in enumerate(outputs) if out != outputs[0]
        ]
        rows = json.loads(outputs[0])
        errors.extend(
            f"point {row} failed: {row['error']}"
            for row in rows if "error" in row
        )
        return errors, rows


class SweepNetworks(_Sweep):
    name = "sweep_networks"
    why = ("grid_sweep over graph size x in-RAM/mmap CSR x percolation/SIR; "
           "kernels of 50 ms and more, so dispatch is noise")
    fn = staticmethod(points.network_point)
    params = ("root", "case", "sim_seed")
    MEAN_DEGREE = 6.0
    BA_M = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sizes = (300, 1000, 3000) if self.tiny else (
            30_000, 100_000, 300_000)
        self.ba_n = 200 if self.tiny else 1000
        self.ba_graph = f"ba{self.ba_n}"

    def setup(self, directory: str):
        """Spill every graph once; each point opens its graph by path."""
        for k, n in enumerate(self.sizes):
            p = self.MEAN_DEGREE / (n - 1)
            MmapGraph.from_edge_chunks(
                n,
                erdos_renyi_stream(
                    n, p, seed=self.seed * 1000 + k,
                    chunk_pairs=max(1 << 22, int(500_000 / p)),
                ),
                path=os.path.join(directory, f"er{n}"),
                check_duplicates=False,  # the stream is duplicate-free
            )
        MmapGraph.from_edge_chunks(
            self.ba_n,
            barabasi_albert_stream(self.ba_n, self.BA_M, seed=self.seed),
            path=os.path.join(directory, self.ba_graph),
        )
        return directory

    def cases(self) -> list:
        """Longest first, so two workers finish close together; the
        largest graph runs memory-mapped only."""
        cases = [f"{self.ba_graph}/array/betweenness"]
        for n in reversed(self.sizes):
            engines = ("mmap",) if n == self.sizes[-1] else ("mmap", "array")
            cases.extend(
                f"er{n}/{engine}/{kernel}"
                for engine in engines for kernel in ("percolation", "sir")
            )
        return cases

    def grid(self, root) -> dict:
        return {"root": [root], "case": self.cases(), "sim_seed": [self.seed]}

    def check(self, outputs: list) -> list:
        errors, rows = self._common_checks(outputs)
        results = {
            row["case"]: _result_fields(row, self.params) for row in rows
        }
        for case, result in results.items():
            # every removal curve falls from the intact graph to nothing,
            # and every epidemic dies out
            series = result.get("giant") or result.get("infected")
            if not (series[0] > 0 and series[-1] == 0 and (
                "infected" in result
                or all(a >= b for a, b in zip(series, series[1:]))
            )):
                errors.append(f"{case}: implausible output {series[:4]}...")
            graph, engine, kernel = case.split("/")
            if engine != "mmap":
                continue
            twin = results.get(f"{graph}/array/{kernel}")
            if twin is not None and twin != result:
                errors.append(
                    f"{graph} {kernel}: in-RAM and memory-mapped CSR "
                    "outputs differ"
                )
        root = rows[0]["root"]
        oracle = points.network_point(
            root, f"{self.ba_graph}/object/percolation", self.seed
        )
        fast = points.network_point(
            root, f"{self.ba_graph}/array/percolation", self.seed
        )
        if oracle != fast:
            errors.append(
                f"{self.ba_graph} percolation: array engine differs from "
                "the object oracle"
            )
        return errors

    def engines(self) -> dict:
        return {"network": ["array", "mmap"], "network_oracle": "object",
                "mmap_budget_mb": points.MMAP_BUDGET_MB}


class SweepCSP(_Sweep):
    name = "sweep_csp"
    why = ("grid_sweep over n across the bit engine's n = 20 envelope x "
           "sparse (spacecraft) and dense (3-SAT) fit sets")
    fn = staticmethod(points.csp_point)
    params = ("n", "shape", "engine", "csp_seed")
    SHAPES = ("dense", "sparse")
    WARMUP_SIZES = (8, 10)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sizes = (8, 10, 12, 14) if self.tiny else (16, 18, 20, 21)

    def setup(self, directory: str):
        """Construct every CSP of the grid and check its shape, then run
        one small call, so the first forks and kernel calls are set-up.

        Points rebuild their CSP from (n, shape, seed) inside the worker,
        so a worker started by spawn needs nothing from this process.
        The warm-up call also keeps ``setup_s`` off a few ms of numpy
        calls, whose time on a shared 2-vCPU VM flipped between two
        levels 1.6x apart from run to run.
        """
        for n in self.sizes:
            for csp in (
                Spacecraft(n).csp,
                random_clause_csp(
                    n, points.DENSE_CLAUSES_PER_VAR * n, 3, seed=self.seed
                ),
            ):
                if len(csp.variables) != n:
                    raise RuntimeError(f"CSP built with {n} variables has "
                                       f"{len(csp.variables)}")
        grid_sweep(self._grid(self.WARMUP_SIZES, points.CSP_ENGINE),
                   points.csp_point, n_jobs=self.jobs)
        return None

    def _grid(self, sizes, engine) -> dict:
        # largest n first, so two workers finish close together
        return {"n": sorted(sizes, reverse=True), "shape": list(self.SHAPES),
                "engine": [engine], "csp_seed": [self.seed]}

    def grid(self, state) -> dict:
        return self._grid(self.sizes, points.CSP_ENGINE)

    def check(self, outputs: list) -> list:
        errors, rows = self._common_checks(outputs)
        for row in rows:
            if row["shape"] == "sparse" and not (
                row["worst"] == points.SPARSE_HITS and row["k_recoverable"]
                and row.get("maintainable", True)
            ):
                errors.append(
                    f"spacecraft n={row['n']}: worst recovery "
                    f"{row['worst']} steps, want {points.SPARSE_HITS}"
                )
        small = [n for n in self.sizes if n <= 20]
        reference = grid_sweep(
            self._grid(small, points.CSP_CHECK_ENGINE), points.csp_point,
            n_jobs=self.jobs,
        ).rows
        fast = {(r["n"], r["shape"]): _result_fields(r, self.params)
                for r in rows}
        for row in reference:
            if fast.get((row["n"], row["shape"])) != _result_fields(
                row, self.params
            ):
                errors.append(
                    f"n={row['n']} {row['shape']}: {points.CSP_ENGINE} "
                    f"report differs from {points.CSP_CHECK_ENGINE}"
                )
        n = self.sizes[0]
        k = Spacecraft(n).minimal_k(points.SPARSE_HITS,
                                    engine=points.CSP_ENGINE)
        if k != points.SPARSE_HITS:
            errors.append(f"spacecraft n={n}: minimal k {k}, want "
                          f"{points.SPARSE_HITS} (one repair per hit)")
        return errors

    def engines(self) -> dict:
        return {"csp": points.CSP_ENGINE, "csp_check": points.CSP_CHECK_ENGINE}


# -- service_recover -------------------------------------------------------------


def _submit_recover(svc, spec):
    experiment, size, seed = spec
    return svc.submit(experiment, points.recover_point,
                      grid={"x": list(range(size))}, seed=seed)


def _build_crashed(directory: str, stored: list, pending: list) -> None:
    """Child process: store ``stored`` jobs, journal ``pending``, crash.

    Every ``stored`` job runs to completion; then every ``pending`` job
    is journaled, and the first point no job has stored ends the process
    (see :func:`perfbench.points.recover_point`).
    """
    gate = os.path.join(directory, "all-journaled")
    os.environ[points.CRASH_GATE_ENV] = gate
    svc = ResilienceService(
        workers=1, max_pending=len(stored) + len(pending) + 1,
        service_dir=os.path.join(directory, "service"),
    ).start()
    jobs = [_submit_recover(svc, spec) for spec in stored]
    for job in jobs:
        job.wait(JOB_TIMEOUT_S)
    for spec in pending:
        _submit_recover(svc, spec)
    open(gate, "w").close()
    time.sleep(JOB_TIMEOUT_S)
    os._exit(1)  # the crash point never ran


class ServiceRecover(Workload):
    name = "service_recover"
    why = ("inline durable service started on a crashed directory: journal "
           "replay, job rebuild, cache warm and re-admission")
    unit = "recovery (start to every recovered job done)"
    stretch = "median over recoveries"
    EXTEND_EVERY = 5  # every 5th stored job is extended and left incomplete
    EXTRA_POINTS = 2  # never-stored points per incomplete job
    TWINS = 2  # incomplete jobs submitted twice (dedupe across the restart)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        n_stored = 12 if self.tiny else 160
        every = 3 if self.tiny else self.EXTEND_EVERY
        stored_x = points.RECOVER_STORED_X
        self.stored = [self._spec(j, stored_x) for j in range(n_stored)]
        pending = [self._spec(j, stored_x + self.EXTRA_POINTS)
                   for j in range(0, n_stored, every)]
        self.pending = pending + pending[:self.TWINS]
        self.never_stored = len(pending) * self.EXTRA_POINTS

    def _spec(self, j: int, size: int) -> tuple:
        return (f"recover-{j}", size, self.seed * 100_003 + j)

    def setup(self, directory: str):
        # fork: the parent has no threads yet, and a forked child needs
        # no fresh interpreter start inside the timed set-up
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(
            target=_build_crashed,
            args=(directory, self.stored, self.pending),
        )
        proc.start()
        proc.join(4 * JOB_TIMEOUT_S)
        if proc.is_alive():
            proc.kill()
            proc.join()
        if proc.exitcode != points.CRASH_EXIT:
            raise RuntimeError(
                f"crashed-directory build exited {proc.exitcode}, "
                f"want {points.CRASH_EXIT} (the crash point)"
            )
        return os.path.join(directory, "service")

    def measure(self, template, *, seconds=None, units=None,
                rec=None) -> Pass:
        p = Pass()
        start = time.perf_counter()
        layers = dict.fromkeys((
            "service.journal.fsyncs", "service.store.rows",
            "service.recover.points_replayed",
            "service.recover.points_rerun", "service.recover.rows_warmed",
        ), 0)
        while _more(start, seconds, units, p.units):
            directory = os.path.join(self.workdir, f"recovering-{p.units}")
            with _span(rec, "bench.copy"):
                shutil.copytree(template, directory)
                # a restarted service begins with a clean heap and finds
                # its directory on disk, not the previous recovery's
                # garbage or the copy's unwritten pages to deal with
                gc.collect()
                os.sync()
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            with _span(rec, "service.recover"):
                with _span(rec, "service.recover.replay"):
                    svc = ResilienceService(
                        workers=1, max_pending=len(self.pending) + 1,
                        service_dir=directory,
                    )
                if rec is not None:
                    instrument_persistence(rec, svc.persistence)
                svc.start()
                jobs = svc.jobs()
                for job in jobs:
                    job.wait(JOB_TIMEOUT_S)
            t1 = time.perf_counter()
            cpu = cpu_seconds() - cpu0
            p.cpu_s += cpu
            p.wall_s += t1 - t0
            p.latencies.append(t1 - t0)
            p.units += 1
            with _span(rec, "bench.collect"):
                out = {"recovery": dict(svc.recovery),
                       "executed": svc.tracer.counters.get(
                           "service.points.executed", 0),
                       "jobs": []}
                done = 0
                for job in jobs:
                    progress = job.progress()
                    p.attempted += progress["total"]
                    lost = progress["total"] - progress["filled"]
                    p.failed += lost + progress["failed"]
                    done += progress["filled"] - progress["failed"]
                    out["jobs"].append({
                        "experiment": job.spec.experiment,
                        "size": len(job.points),
                        "seed": job.spec.seed,
                        "lost": lost,
                        "rows": rows_json(job.result().rows)
                        if job.done else None,
                    })
                p.points += done
                p.samples.append((t1 - t0, done, cpu))
                p.outputs.append(out)
                if rec is not None:
                    rec.counters.update(svc.tracer.counters)
                    stats = svc.persistence.stats()
                    layers["service.journal.fsyncs"] += stats["fsynced"]
                    layers["service.store.rows"] = stats["stored_rows"]
                    for name in ("points_replayed", "points_rerun",
                                 "rows_warmed"):
                        layers[f"service.recover.{name}"] += \
                            svc.recovery[name]
            with _span(rec, "service.close"):
                svc.close(drain=False)  # a job still running timed out
            with _span(rec, "bench.cleanup"):
                shutil.rmtree(directory)
        if rec is not None:
            p.layers = layers
        return p

    def check(self, outputs: list) -> list:
        errors = []
        distinct = {spec[0] for spec in self.pending}
        baselines: dict = {}
        for k, out in enumerate(outputs):
            recovery = out["recovery"]
            if recovery["jobs"] != len(self.pending) or recovery["skipped"]:
                errors.append(
                    f"recovery {k}: {recovery['jobs']} jobs recovered, "
                    f"{recovery['skipped']} skipped; want "
                    f"{len(self.pending)} and 0"
                )
            if out["executed"] != self.never_stored:
                errors.append(
                    f"recovery {k}: {out['executed']} points re-executed, "
                    f"want exactly the {self.never_stored} never stored"
                )
            seen = set()
            for job in out["jobs"]:
                seen.add(job["experiment"])
                if job["lost"]:
                    errors.append(f"recovery {k}: {job['experiment']} "
                                  f"lost {job['lost']} points")
                key = (job["experiment"], job["size"], job["seed"])
                if key not in baselines:
                    baselines[key] = rows_json(grid_sweep(
                        {"x": list(range(key[1]))}, points.recover_point,
                        seed=key[2],
                    ).rows)
                if job["rows"] != baselines[key]:
                    errors.append(
                        f"recovery {k}: {job['experiment']} rows differ "
                        "from an uninterrupted grid_sweep"
                    )
            if seen != distinct:
                errors.append(f"recovery {k}: recovered {sorted(seen)}, "
                              f"want {sorted(distinct)}")
        return errors

    def engines(self) -> dict:
        return {"service_workers": 1}


WORKLOADS = {
    cls.name: cls
    for cls in (ServiceMixed, SweepNetworks, SweepCSP, ServiceRecover)
}
