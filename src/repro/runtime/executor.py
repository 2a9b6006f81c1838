"""Fault-tolerant point executor: isolation, retries, wall-time budgets.

This is the execution layer under :mod:`repro.analysis.sweep` and the
:mod:`repro.service` scheduler.  Each *point* (one parameter-grid
evaluation) runs in isolation: an exception, a hung worker, or a hard
process death yields a :class:`PointOutcome` carrying the exception, its
formatted traceback, and how many attempts were made — instead of
aborting the whole sweep.  Failed points retry up to ``retries`` times
with exponential backoff (``backoff * 2**k``), and each attempt is
bounded by ``timeout`` seconds of wall time.

Two execution paths share the same outcome contract:

* **in-process** — ``n_jobs == 1``, no timeout and no pool: points run
  serially in the caller's process (closures allowed, zero fork
  overhead);
* **worker pool** — parallel or time-budgeted points run on a
  :class:`WorkerPool` of long-lived forked workers, one point in flight
  per worker.  Workers inherit ``worker`` and ``fn`` at fork, so
  closures and lambdas work; each ``(value, seed)`` task and its result
  cross a duplex pipe.  Isolation survives reuse because the pool never
  waits on a bad worker: a point past its deadline reaps only its own
  worker, and a worker that died (segfault, ``os._exit``) is dropped;
  either slot is refilled by a fresh fork on its next dispatch.  A pipe
  round trip costs a small fraction of a fork, so small points are no
  longer bound by process start-up.

:func:`run_points` without a ``pool`` uses one scoped to the call:
workers fork as the call first needs them and are reaped when it
returns, so every call's workers see the caller's environment as of
the call — a supervisor's pinned engine variables included.  A
long-lived caller passes its own pool and replaces it when the state it
was forked under changes (see :mod:`repro.service.scheduler`).

Telemetry crosses the process boundary: each point runs under a fresh
:class:`~repro.runtime.trace.Tracer` in its worker, and the worker
ships that tracer's counters, timers and events back with the result.
The parent merges them into the run's tracer, re-emitting the events
through it (its JSONL file and event hooks) — a parallel run records
what an inline one does.

The pool loop is *event-driven*: instead of polling every few
milliseconds it blocks in :func:`multiprocessing.connection.wait` on
every busy worker's pipe and process sentinel, waking only when a
result arrives, a worker dies, a per-attempt deadline expires, or a
backed-off retry becomes eligible.  Idle waiting therefore costs ~0
CPU, and a finished point is harvested as soon as the kernel signals
it rather than at the next poll tick.  Reaping a timed-out worker is
bounded too: ``terminate()`` (SIGTERM) is given ``term_grace`` seconds
to work, then escalates to ``kill()`` (SIGKILL) — a worker that blocks
or ignores SIGTERM can no longer wedge the run.
"""

from __future__ import annotations

import multiprocessing as mp
import time
import traceback as tb_module
import weakref
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Sequence

from ..errors import ConfigurationError, ExecutionError
from . import trace

__all__ = ["PointOutcome", "PointTask", "WorkerPool", "run_points"]

_IDLE_TICK_S = 0.5  # defensive cap on one wait(); sentinel wakeups make
#                     a full tick rare (it only bounds damage if a pipe
#                     or sentinel is ever missed, never the hot path)
_TERM_GRACE_S = 5.0  # default SIGTERM -> SIGKILL escalation grace

# Parent-side pipe ends of every pool in this process.  A forked worker
# inherits copies of all of them and closes them first thing: a pipe
# only reports EOF / EPIPE once *every* copy of the far end is closed,
# so a sibling holding one would keep a worker alive after its pool
# closed — or after the parent was SIGKILLed.
_PARENT_ENDS: "weakref.WeakSet[Any]" = weakref.WeakSet()


@dataclass(frozen=True)
class PointTask:
    """One unit of work: ``worker(fn, value, seed)`` at a sweep index."""

    index: int
    value: Any
    seed: Any = None


@dataclass
class PointOutcome:
    """What happened to one point after all attempts."""

    index: int
    ok: bool
    value: Any = None
    error: str | None = None  # "ValueError: boom" / "timed out after 2.0s"
    exception: BaseException | None = None  # original, when transferable
    traceback: str | None = None
    attempts: int = 1
    elapsed_s: float = 0.0  # wall time of the *final* attempt only

    def reraise(self) -> None:
        """Re-raise the original exception (or an :class:`ExecutionError`
        wrapping the remote traceback when the original was lost)."""
        if self.ok:
            return
        if self.exception is not None:
            raise self.exception
        detail = f"\n--- worker traceback ---\n{self.traceback}" \
            if self.traceback else ""
        raise ExecutionError(
            f"point {self.index} failed after {self.attempts} attempt(s): "
            f"{self.error}{detail}"
        )


@dataclass
class _Attempt:
    task: PointTask
    attempt: int = 1
    eligible_at: float = 0.0  # monotonic time before which it must wait


def run_points(
    worker: Callable,
    fn: Callable,
    tasks: Sequence[PointTask],
    *,
    n_jobs: int = 1,
    retries: int = 0,
    backoff: float = 0.1,
    timeout: float | None = None,
    term_grace: float = _TERM_GRACE_S,
    tracer: trace.Tracer | trace.NullTracer | None = None,
    pool: "WorkerPool | None" = None,
) -> list[PointOutcome]:
    """Run every task through ``worker(fn, value, seed)``; never raises
    for worker failures — inspect the returned outcomes.

    Outcomes come back in task order.  ``retries`` is the number of
    *re*-attempts after the first failure; ``timeout`` bounds each
    attempt's wall time (requires subprocess isolation, which is chosen
    automatically); ``term_grace`` bounds how long a timed-out worker
    may ignore SIGTERM before it is SIGKILLed.  ``n_jobs == -1`` uses
    every core.  ``pool`` runs the tasks on an existing
    :class:`WorkerPool` built for the same ``worker`` and ``fn`` (its
    size, not ``n_jobs``, then bounds concurrency); without one, a pool
    scoped to this call is used whenever the run is not inline.
    """
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if backoff < 0:
        raise ConfigurationError(f"backoff must be >= 0, got {backoff}")
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"timeout must be > 0, got {timeout}")
    if term_grace <= 0:
        raise ConfigurationError(
            f"term_grace must be > 0, got {term_grace}"
        )
    workers = _workers(n_jobs)
    if pool is not None and (pool.worker != worker or pool.fn != fn):
        raise ConfigurationError(
            "pool was built for a different worker/fn than this run"
        )
    tr = tracer if tracer is not None else trace.current()
    if not tasks:
        return []
    if pool is not None:
        return pool.run(tasks, retries, backoff, timeout, term_grace, tr)
    if workers == 1 and timeout is None:
        return [
            _run_inline(worker, fn, task, retries, backoff, tr)
            for task in tasks
        ]
    with WorkerPool(worker, fn, min(workers, len(tasks))) as scoped:
        return scoped.run(tasks, retries, backoff, timeout, term_grace, tr)


def _workers(n_jobs: int) -> int:
    import os

    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ConfigurationError(
            f"n_jobs must be >= 1 or -1 (all cores), got {n_jobs}"
        )
    return n_jobs


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_inline(worker, fn, task, retries, backoff, tr) -> PointOutcome:
    """Serial in-process attempts (no fork, closures allowed)."""
    for attempt in range(1, retries + 2):
        start = time.perf_counter()
        try:
            value = worker(fn, task.value, task.seed)
        except Exception as exc:
            failure = PointOutcome(
                index=task.index,
                ok=False,
                error=_describe(exc),
                exception=exc,
                traceback=tb_module.format_exc(),
                attempts=attempt,
                elapsed_s=time.perf_counter() - start,
            )
            if attempt <= retries:
                tr.count("executor.retries")
                time.sleep(backoff * 2 ** (attempt - 1))
                continue
            return failure
        return PointOutcome(
            index=task.index,
            ok=True,
            value=value,
            attempts=attempt,
            elapsed_s=time.perf_counter() - start,
        )
    raise AssertionError("unreachable")  # pragma: no cover


# -- the worker process ------------------------------------------------------


def _worker_main(conn, worker, fn) -> None:
    """Pool worker entry: serve ``(value, seed)`` tasks until told to stop.

    Stops on a ``None`` task, on EOF (the pool closed its end, or the
    parent died), and — cleanly, exit code 0 — when a reply finds the
    parent gone: a point whose deadline expired just as it finished is
    orphaned, and its worker must not die with an unhandled
    ``BrokenPipeError`` that nothing observes but stderr.  A point that
    raised ``SystemExit``/``KeyboardInterrupt`` is reported, then the
    worker exits (the reply's ``retiring`` flag tells the pool to drop
    it).
    """
    for end in list(_PARENT_ENDS):
        end.close()  # this process's copies only; see _PARENT_ENDS
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return
        tracer = trace.Tracer()
        try:
            with trace.use(tracer):
                task = ForkingPickler.loads(data)
                if task is None:
                    return
                payload: tuple = ("ok", worker(fn, *task))
        except BaseException as exc:  # noqa: BLE001 - reported, see below
            payload = ("err", _describe(exc), exc, tb_module.format_exc())
        # SystemExit / KeyboardInterrupt: report it, then stop serving
        retiring = payload[0] == "err" and not isinstance(
            payload[2], Exception
        )
        if not _reply(conn, payload, (tracer.telemetry(), retiring)):
            return
        if retiring:
            return  # the parent retires this worker on the flag


def _reply(conn, payload: tuple, tail: tuple) -> bool:
    """Ship one payload plus ``(telemetry, retiring)``; False iff the
    parent is gone.

    Pickling is done up front, so a payload that cannot cross the pipe
    is told apart from a closed pipe: an unpicklable result becomes an
    error payload, an unpicklable exception is resent without the
    exception object.  ``retiring`` travels outside the exception, so
    the parent learns the worker is exiting even when the exception
    object itself had to be dropped.
    """
    try:
        data = ForkingPickler.dumps(payload + tail)
    except Exception as exc:  # noqa: BLE001 - any pickling failure
        if payload[0] == "ok":
            payload = (
                "err",
                f"result not picklable: {_describe(exc)}",
                None,
                tb_module.format_exc(),
            )
        else:
            payload = ("err", payload[1], None, payload[3])
        data = ForkingPickler.dumps(payload + tail)
    try:
        conn.send_bytes(data)
    except OSError:
        return False
    return True


# -- the pool ----------------------------------------------------------------


@dataclass(eq=False)
class _Worker:
    process: mp.process.BaseProcess
    conn: Any  # parent end of the duplex pipe


@dataclass
class _Running:
    attempt: _Attempt
    worker: _Worker
    started: float
    deadline: float | None


def _reap(proc: mp.process.BaseProcess, term_grace: float) -> None:
    """Stop one worker with bounded patience: SIGTERM, wait, SIGKILL.

    ``terminate()`` alone is a request the worker may ignore (a point
    that installed a SIG_IGN handler, or is stuck in uninterruptible
    I/O); an unbounded ``join()`` after it would wedge the whole run on
    such a worker.  So the join is bounded by ``term_grace`` seconds and
    escalates to ``kill()`` — SIGKILL cannot be caught or ignored.
    """
    proc.terminate()
    proc.join(term_grace)
    if proc.is_alive():
        proc.kill()
        proc.join(term_grace)


def _next_wakeup(
    queue: list[_Attempt], running: list[_Running], now: float
) -> float | None:
    """Seconds until the next scheduled event (deadline or retry
    eligibility), capped at the defensive idle tick; None when nothing
    is scheduled (pipe/sentinel readiness is then the only wake source).
    """
    ticks = [r.deadline - now for r in running if r.deadline is not None]
    ticks.extend(a.eligible_at - now for a in queue)
    if not ticks:
        return _IDLE_TICK_S
    return min(max(min(ticks), 0.0), _IDLE_TICK_S)


class WorkerPool:
    """Up to ``n_jobs`` long-lived forked workers running
    ``worker(fn, value, seed)``, one point in flight per worker.

    Workers are forked on demand and kept between :meth:`run` calls, so
    a long-lived owner pays one fork per worker rather than one per
    point.  Forked workers hold the process state of their fork — the
    environment, the installed supervisor, ``fn`` itself — so an owner
    must close and replace the pool when that state changes.  Not
    thread-safe: one :meth:`run` at a time.  :meth:`close` (or the
    ``with`` block) stops every worker.
    """

    def __init__(self, worker: Callable, fn: Callable, n_jobs: int = 1):
        self.worker = worker
        self.fn = fn
        self.size = _workers(n_jobs)
        self._ctx = mp.get_context()
        self._workers: list[_Worker] = []  # every live worker
        self._idle: list[_Worker] = []
        self._closed = False

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop and reap every worker (idempotent)."""
        self._closed = True
        for w in self._workers:
            try:
                w.conn.send(None)
            except OSError:
                pass  # already gone: the reap below still runs
        for w in list(self._workers):
            self._retire(w, _TERM_GRACE_S, _TERM_GRACE_S)

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self) -> _Worker:
        parent_end, child_end = self._ctx.Pipe()
        _PARENT_ENDS.add(parent_end)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_end, self.worker, self.fn),
            daemon=True,
        )
        proc.start()
        child_end.close()  # only the worker may hold the far end
        w = _Worker(proc, parent_end)
        self._workers.append(w)
        return w

    def _acquire(self) -> _Worker:
        """An idle live worker, or a fresh one (the caller keeps at most
        ``size`` busy, so a slot is free whenever none is idle)."""
        while self._idle:
            w = self._idle.pop()
            if w.process.is_alive():
                return w
            self._retire(w, _TERM_GRACE_S, _TERM_GRACE_S)  # died idle
        return self._spawn()

    def _retire(self, w: _Worker, wait: float, term_grace: float) -> None:
        """Drop one worker: close its pipe, join it for up to ``wait``
        seconds, then reap it (bounded) if it is still alive."""
        self._workers.remove(w)
        if w in self._idle:
            self._idle.remove(w)
        _PARENT_ENDS.discard(w.conn)
        w.conn.close()
        w.process.join(wait)
        if w.process.is_alive():
            _reap(w.process, term_grace)

    # -- one attempt -------------------------------------------------------

    def _dispatch(
        self, att: _Attempt, timeout: float | None
    ) -> "_Running | PointOutcome":
        """Send one attempt to a worker; an input that cannot be pickled
        fails here, as an outcome, without touching any worker."""
        try:
            data = ForkingPickler.dumps((att.task.value, att.task.seed))
        except Exception as exc:  # noqa: BLE001 - any pickling failure
            return PointOutcome(
                index=att.task.index,
                ok=False,
                error=f"task input not picklable: {_describe(exc)}",
                exception=exc,
                traceback=tb_module.format_exc(),
                attempts=att.attempt,
            )
        w = self._acquire()
        try:
            w.conn.send_bytes(data)
        except OSError:  # it died between the liveness check and the send
            self._retire(w, _TERM_GRACE_S, _TERM_GRACE_S)
            w = self._spawn()
            w.conn.send_bytes(data)
        now = time.monotonic()
        return _Running(
            attempt=att,
            worker=w,
            started=now,
            deadline=None if timeout is None else now + timeout,
        )

    def _died(self, run: _Running, elapsed: float, term_grace) -> PointOutcome:
        """The worker exited without replying (segfault, os._exit, kill)."""
        self._retire(run.worker, term_grace, term_grace)
        return PointOutcome(
            index=run.attempt.task.index,
            ok=False,
            error=(
                "worker process died without a result "
                f"(exitcode {run.worker.process.exitcode})"
            ),
            traceback=None,
            attempts=run.attempt.attempt,
            elapsed_s=elapsed,
        )

    def _receive(
        self, run: _Running, elapsed: float, term_grace: float, tr
    ) -> PointOutcome:
        """Harvest one attempt whose pipe is readable (reply or EOF)."""
        att, w = run.attempt, run.worker
        try:
            reply = w.conn.recv()
        except (EOFError, OSError):
            return self._died(run, elapsed, term_grace)
        except Exception as exc:  # noqa: BLE001 - reply arrived, unusable
            # its retiring flag is lost with it: retire the worker to be
            # safe (the next dispatch forks a fresh one)
            reply = (
                "err",
                f"worker reply could not be unpickled: {_describe(exc)}",
                None,
                tb_module.format_exc(),
                None,
                True,
            )
        *payload, telemetry, retiring = reply
        if telemetry is not None:
            tr.merge(telemetry)
        if retiring:  # SystemExit / KeyboardInterrupt: the worker exits
            self._retire(w, term_grace, term_grace)
        else:
            self._idle.append(w)
        if payload[0] == "ok":
            return PointOutcome(
                index=att.task.index,
                ok=True,
                value=payload[1],
                attempts=att.attempt,
                elapsed_s=elapsed,
            )
        _, error, exc, formatted = payload
        return PointOutcome(
            index=att.task.index,
            ok=False,
            error=error,
            exception=exc,
            traceback=formatted,
            attempts=att.attempt,
            elapsed_s=elapsed,
        )

    def _harvest(
        self,
        run: _Running,
        now: float,
        timeout: float | None,
        term_grace: float,
        tr,
    ) -> PointOutcome | None:
        """Resolve one in-flight attempt, or return None if still running.

        Ordering is pinned *poll-before-deadline*: a result that is
        already in the pipe when the deadline check runs is harvested as
        ``ok`` even if the deadline has technically passed — the work is
        done and paid for, and discarding it would make outcomes depend
        on scheduler latency rather than on the worker.
        """
        elapsed = now - run.started
        w = run.worker
        if w.conn.poll():
            return self._receive(run, elapsed, term_grace, tr)
        if not w.process.is_alive():
            # the result may have raced the liveness check: look again
            if w.conn.poll():
                return self._receive(run, elapsed, term_grace, tr)
            return self._died(run, elapsed, term_grace)
        if run.deadline is not None and now > run.deadline:
            self._retire(w, 0.0, term_grace)  # only this worker
            tr.count("executor.timeouts")
            return PointOutcome(
                index=run.attempt.task.index,
                ok=False,
                error=f"timed out after {timeout}s",
                traceback=None,
                attempts=run.attempt.attempt,
                elapsed_s=elapsed,
            )
        return None

    # -- a whole run -------------------------------------------------------

    def run(
        self,
        tasks: Sequence[PointTask],
        retries: int,
        backoff: float,
        timeout: float | None,
        term_grace: float,
        tr,
    ) -> list[PointOutcome]:
        """At most ``size`` attempts in flight; outcomes in task order."""
        if self._closed:
            raise ConfigurationError("worker pool is closed")
        queue: list[_Attempt] = [_Attempt(task) for task in tasks]
        running: list[_Running] = []
        outcomes: dict[int, PointOutcome] = {}

        def settle(att: _Attempt, outcome: PointOutcome) -> None:
            """Final or retried resolution of one attempt."""
            if not outcome.ok and att.attempt <= retries:
                tr.count("executor.retries")
                queue.append(
                    _Attempt(
                        task=att.task,
                        attempt=att.attempt + 1,
                        eligible_at=time.monotonic()
                        + backoff * 2 ** (att.attempt - 1),
                    )
                )
                return
            outcomes[att.task.index] = outcome

        try:
            while queue or running:
                now = time.monotonic()
                # fill free slots with eligible attempts (in queue order)
                ready = [a for a in queue if a.eligible_at <= now]
                while ready and len(running) < self.size:
                    att = ready.pop(0)
                    queue.remove(att)
                    run = self._dispatch(att, timeout)
                    if isinstance(run, PointOutcome):
                        # deterministic: no retry could pickle it either
                        outcomes[att.task.index] = run
                    else:
                        running.append(run)
                # harvest finished / expired attempts
                now = time.monotonic()
                for run in list(running):
                    outcome = self._harvest(run, now, timeout, term_grace, tr)
                    if outcome is not None:
                        running.remove(run)
                        settle(run.attempt, outcome)
                if not (queue or running):
                    break
                # block until a result pipe is readable, a worker's
                # sentinel fires (it exited), a deadline expires, or a
                # retry becomes eligible — no polling, ~0 CPU while idle
                wait_for = _next_wakeup(queue, running, time.monotonic())
                waitables: list[Any] = [r.worker.conn for r in running]
                waitables.extend(r.worker.process.sentinel for r in running)
                tr.count("executor.wakeups")
                if waitables:
                    mp_connection.wait(waitables, wait_for)
                elif wait_for:  # everything is backed off; sleep to it
                    time.sleep(wait_for)
        finally:
            # an interrupted run leaves replies owed on busy workers'
            # pipes: retire them so no later run can read a stale one
            for run in running:
                self._retire(run.worker, 0.0, term_grace)
        return [outcomes[task.index] for task in tasks]
