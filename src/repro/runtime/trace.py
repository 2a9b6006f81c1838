"""Tracing/metrics facade for the execution layer (MAPE's monitor leg).

The paper's MAPE loop (§3.3) starts with *monitor*: a system cannot
degrade gracefully if it cannot see what it did.  :class:`Tracer` is the
single observability surface for the library — counters, aggregated
timers, step hooks, and structured JSONL events — cheap enough to leave
wired into the hot simulation loops (:class:`~repro.agents.simulation.
EvolutionSimulator` and :class:`~repro.agents.arrayengine.ArraySimulator`
report per-run timers and per-step ticks through it) and into every
sweep point executed by :mod:`repro.analysis.sweep`.

A module-level *current tracer* (:func:`current` / :func:`use`) lets
deep call sites emit without threading a tracer argument through every
signature; the default is :data:`NULL`, a no-op sink whose methods cost
one attribute lookup, so untraced runs pay nothing measurable.

Event stream format (one JSON object per line)::

    {"ts": 12.3456, "event": "sweep.start", "points": 16, "n_jobs": 4}
    {"ts": 12.5678, "event": "point.ok", "index": 0, "elapsed_s": 0.2}

``ts`` is seconds since the tracer was created (monotonic clock).
"""

from __future__ import annotations

import json
import time
import warnings as _warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = [
    "NULL",
    "NullTracer",
    "TimerStats",
    "Tracer",
    "current",
    "use",
]


class NullTracer:
    """No-op tracer: every hook is a cheap pass-through.

    Falsy (``bool(NULL) is False``) so hot loops can guard optional
    work with ``if tracer: ...``.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def count(self, name: str, n: int = 1) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def warning(self, message: str, **fields: Any) -> None:
        pass

    def step(self, engine: str, step: int, alive: int) -> None:
        pass

    def record_timing(self, name: str, elapsed_s: float) -> None:
        pass

    def merge(self, telemetry: tuple) -> None:
        pass

    def add_step_hook(self, hook: Callable[[str, int, int], None]) -> None:
        raise TypeError(
            "cannot register a step hook on the null tracer; "
            "install a Tracer first (repro.runtime.trace.use)"
        )

    def add_event_hook(self, hook: Callable[[dict], None]) -> None:
        raise TypeError(
            "cannot register an event hook on the null tracer; "
            "install a Tracer first (repro.runtime.trace.use)"
        )

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        yield


NULL = NullTracer()


@dataclass
class TimerStats:
    """Aggregate of one named timer: total/calls/min/max in seconds."""

    total_s: float = 0.0
    calls: int = 0
    min_s: float = float("inf")
    max_s: float = 0.0

    def add(self, elapsed: float) -> None:
        self.total_s += elapsed
        self.calls += 1
        self.min_s = min(self.min_s, elapsed)
        self.max_s = max(self.max_s, elapsed)

    def combine(self, other: "TimerStats") -> None:
        """Fold another aggregate of the same timer into this one."""
        self.total_s += other.total_s
        self.calls += other.calls
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


class Tracer:
    """Collects counters, timers, and structured events for one run.

    Parameters
    ----------
    path:
        Optional JSONL file; every :meth:`event` is appended and flushed
        immediately so a killed process still leaves a usable trace.
    keep_events:
        Also retain events in memory (``.events``).  On by default;
        turn off for very long runs feeding a file instead.
    """

    def __init__(self, path: str | None = None, keep_events: bool = True):
        self.counters: Counter[str] = Counter()
        self.timers: dict[str, TimerStats] = {}
        self.events: list[dict] = []
        self._keep_events = keep_events
        self._hooks: list[Callable[[str, int, int], None]] = []
        self._event_hooks: list[Callable[[dict], None]] = []
        self._t0 = time.monotonic()
        self._fh = open(path, "a") if path else None

    # -- counters / timers -------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] += n

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into the aggregate for ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_timing(name, time.perf_counter() - start)

    def record_timing(self, name: str, elapsed_s: float) -> None:
        """Fold one externally-measured duration into timer ``name``."""
        self.timers.setdefault(name, TimerStats()).add(elapsed_s)

    # -- crossing a process boundary ----------------------------------------

    def telemetry(self) -> tuple:
        """Counters, timers and kept events as picklable data, for
        :meth:`merge`.

        A worker process runs each point under a fresh tracer and ships
        this back with the result, so what the point recorded is not
        lost with the process.  Event fields go through JSON (``repr``
        for anything else), as the JSONL file would store them, so an
        event can never make the result unpicklable.
        """
        events = [
            json.loads(json.dumps(record, default=repr))
            for record in self.events
        ]
        return dict(self.counters), self.timers, events

    def merge(self, telemetry: tuple) -> None:
        """Add another tracer's :meth:`telemetry` into this one.

        Counters add, timers combine, and each event is re-emitted
        through :meth:`event` — stamped on this tracer's clock, written
        to its file and passed to its event hooks.
        """
        counters, timers, events = telemetry
        self.counters.update(counters)
        for name, stats in timers.items():
            self.timers.setdefault(name, TimerStats()).combine(stats)
        for record in events:
            fields = {
                k: v for k, v in record.items() if k not in ("ts", "event")
            }
            self.event(record["event"], **fields)

    # -- events ------------------------------------------------------------

    def event(self, name: str, **fields: Any) -> None:
        """Record a structured event (and append it to the JSONL file)."""
        record = {"ts": round(time.monotonic() - self._t0, 6), "event": name}
        record.update(fields)
        if self._keep_events:
            self.events.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record, default=repr) + "\n")
            self._fh.flush()
        for hook in self._event_hooks:
            try:
                hook(record)
            except Exception as exc:  # noqa: BLE001 - observer, not owner
                self._hook_error("event", hook, exc)

    def warning(self, message: str, **fields: Any) -> None:
        """Record a degradation the run tolerated (counted + evented).

        Warnings are events the MAPE analyze leg should see even when
        nothing failed outright: quarantined checkpoint lines, breaker
        degradations, pre-empted compiles.
        """
        self.count("warnings")
        self.event("warning", message=message, **fields)

    # -- step / event hooks ------------------------------------------------

    def add_step_hook(self, hook: Callable[[str, int, int], None]) -> None:
        """Register ``hook(engine, step, alive)``, called every sim step."""
        self._hooks.append(hook)

    def add_event_hook(self, hook: Callable[[dict], None]) -> None:
        """Register ``hook(record)``, called with every emitted event.

        This is the streaming seam the service layer subscribes to:
        per-job progress events flow to each job's live event feed as
        they are emitted, without the service having to scan ``events``
        after the fact.  Hooks run synchronously on the emitting thread
        and should be cheap; a hook that raises is contained (counted
        as ``trace.hook_errors`` + a :class:`RuntimeWarning`), never
        propagated to the emitter.
        """
        self._event_hooks.append(hook)

    def step(self, engine: str, step: int, alive: int) -> None:
        """One simulator step tick: counts it and fans out to hooks."""
        self.counters[f"sim.steps.{engine}"] += 1
        for hook in self._hooks:
            try:
                hook(engine, step, alive)
            except Exception as exc:  # noqa: BLE001 - observer, not owner
                self._hook_error("step", hook, exc)

    def _hook_error(self, kind: str, hook: Any, exc: Exception) -> None:
        """Contain a raising observer: count it, warn, keep tracing.

        Hooks are observers of the run, not owners of it — a buggy
        progress callback must not take down the emitting thread (the
        service scheduler drains jobs through :meth:`event`).  The
        failure is still loud: counted as ``trace.hook_errors`` and
        surfaced as a :class:`RuntimeWarning`.  Deliberately does *not*
        route through :meth:`event`, which would re-enter the hooks.
        """
        self.counters["trace.hook_errors"] += 1
        name = getattr(hook, "__qualname__", repr(hook))
        _warnings.warn(
            f"tracer {kind} hook {name} raised "
            f"{type(exc).__name__}: {exc}; hook errors are contained "
            "(counted as trace.hook_errors)",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Counters and timer aggregates as one JSON-ready mapping."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "timers": {
                name: {
                    "total_s": round(stats.total_s, 6),
                    "calls": stats.calls,
                    "mean_s": round(stats.mean_s, 6),
                    "min_s": round(stats.min_s, 6),
                    "max_s": round(stats.max_s, 6),
                }
                for name, stats in sorted(self.timers.items())
            },
        }

    def summary_table(self) -> str:
        """End-of-run summary as one aligned text table."""
        from ..analysis.tables import render_table

        rows: list[dict] = [
            {"name": name, "kind": "counter", "value": value}
            for name, value in sorted(self.counters.items())
        ]
        rows.extend(
            {
                "name": name,
                "kind": "timer",
                "value": stats.calls,
                "total_s": round(stats.total_s, 4),
                "mean_s": round(stats.mean_s, 4),
                "max_s": round(stats.max_s, 4),
            }
            for name, stats in sorted(self.timers.items())
        )
        if not rows:
            return "(no trace data)"
        return render_table(rows)

    def close(self) -> None:
        """Close the JSONL file, if any (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


_current: NullTracer | Tracer = NULL


def current() -> NullTracer | Tracer:
    """The active tracer (the no-op :data:`NULL` unless :func:`use`-d)."""
    return _current


@contextmanager
def use(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` as the current tracer for a ``with`` block."""
    global _current
    previous = _current
    _current = tracer
    try:
        yield tracer
    finally:
        _current = previous
