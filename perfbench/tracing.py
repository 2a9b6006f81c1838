"""The benchmark's own spans: recorded around calls into each layer.

Nothing here edits the program.  The traced run wraps, for its
duration only, the calls the benchmark can see into each layer:

* the executor: ``run_points`` as referenced by the batch sweep and the
  service scheduler modules (both call it through a module global);
* the service persistence layer: the public append and ``load`` methods
  of one :class:`~repro.service.persistence.ServicePersistence`;
* kernels inside worker processes: :mod:`perfbench.points` writes one
  JSON line per point to the directory named by ``TRACE_DIR_ENV``, and
  :meth:`Recorder.merge_workers` folds those files in after the pass.

A span is ``(name, start, end, parent, attrs)`` on the
``time.perf_counter`` clock; parents come from a per-thread stack, so
spans of concurrent client threads nest correctly.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager

from . import points

#: modules that call the executor's run_points through a module global
_EXECUTOR_CALLERS = ("repro.analysis.sweep", "repro.service.scheduler")
#: persistence methods that append (and fsync) a record
_APPENDS = (
    "record_accepted",
    "record_dispatched",
    "record_point_done",
    "record_completed",
    "record_cancelled",
    "store_result",
)


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.worker_spans: list[tuple] = []  # (name, start, end)
        self.kernel_s = 0.0  # worker time inside point functions
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.add(name, start, end, parent=parent, **attrs)

    def add(self, name, start, end, parent=None, **attrs) -> None:
        with self._lock:
            self.spans.append(
                {"name": name, "start": start, "end": end,
                 "parent": parent, **attrs}
            )

    def total(self, name: str) -> float:
        """Seconds inside every parent-side span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def worker_total(self, name: str) -> float:
        """Seconds inside every worker-side span called ``name``."""
        return sum(end - start for n, start, end in self.worker_spans
                   if n == name)

    def covered(self, start: float, end: float) -> float:
        """Seconds of [start, end] under at least one top-level span."""
        intervals = sorted(
            (max(s["start"], start), min(s["end"], end))
            for s in self.spans if s["parent"] is None
        )
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return covered

    def merge_workers(self, directory: str) -> None:
        """Fold the per-process span files written by point functions."""
        for path in sorted(glob.glob(os.path.join(directory, "*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    self.kernel_s += record["end"] - record["start"]
                    self.counters.update(record["counters"])
                    self.worker_spans.extend(
                        tuple(span) for span in record["spans"]
                    )


def _timed(rec: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _executor_wrapper(rec: Recorder, real):
    def run_points(worker, fn, tasks, **kwargs):
        n_jobs = kwargs.get("n_jobs", 1)
        if n_jobs == -1:
            n_jobs = os.cpu_count() or 1
        # the service tags every point with its job's key (queue wait)
        tags = sorted({
            t.value["tag"] for t in tasks
            if isinstance(t.value, dict) and "tag" in t.value
        })
        with rec.span(
            "executor.run_points", points=len(tasks),
            slots=max(min(n_jobs, len(tasks)), 1), tags=tags,
        ):
            return real(worker, fn, tasks, **kwargs)
    return run_points


@contextmanager
def traced(rec: Recorder, workdir: str):
    """Install the executor wrapper and the worker span directory."""
    directory = os.path.join(workdir, "worker-spans")
    os.makedirs(directory, exist_ok=True)
    patched = [
        (module, module.run_points)
        for module in map(importlib.import_module, _EXECUTOR_CALLERS)
        if hasattr(module, "run_points")
    ]
    for module, real in patched:
        module.run_points = _executor_wrapper(rec, real)
    os.environ[points.TRACE_DIR_ENV] = directory
    try:
        yield rec
    finally:
        del os.environ[points.TRACE_DIR_ENV]
        for module, real in patched:
            module.run_points = real
        rec.merge_workers(directory)


def instrument_persistence(rec: Recorder, persistence) -> None:
    """Time one service's journal appends and its replay (``load``)."""
    if persistence is None:
        return
    for name in _APPENDS:
        setattr(persistence, name,
                _timed(rec, "service.journal.append",
                       getattr(persistence, name)))
    persistence.load = _timed(rec, "service.recover.replay",
                              persistence.load)
