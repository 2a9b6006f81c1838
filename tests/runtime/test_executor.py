"""Tests for the fault-tolerant point executor (repro.runtime.executor)."""

from __future__ import annotations

import multiprocessing as mp
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.analysis.sweep import grid_sweep
from repro.errors import ConfigurationError, ExecutionError
from repro.runtime import supervisor as supervisor_module
from repro.runtime import trace
from repro.runtime.executor import (
    PointOutcome,
    PointTask,
    WorkerPool,
    _Attempt,
    run_points,
)
from repro.runtime.supervisor import Supervisor
from repro.runtime.trace import Tracer


# workers are module-level so forked/spawned processes can run them

def call(fn, value, seed):
    return fn(value)


def double(value):
    return value * 2


def boom(value):
    raise ValueError(f"boom at {value}")


def boom_at_3(value):
    if value == 3:
        raise ValueError("boom at 3")
    return value * 2


def hang_at_1(value):
    if value == 1:
        time.sleep(60)
    return value * 2


def die_hard(value):
    os._exit(17)  # bypasses the child's exception capture entirely


def flaky(value):
    """Fails on the first attempt, succeeds on a retry (per-process)."""
    marker = os.environ["REPRO_TEST_FLAKY_MARKER"] + f".{value}"
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("transient")
    return value * 2


def slow_flaky(value):
    """First attempt burns 0.6 s then fails; the retry returns at once."""
    marker = os.environ["REPRO_TEST_FLAKY_MARKER"] + f".{value}"
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(0.6)
        raise RuntimeError("transient after a slow first attempt")
    return value * 2


def ignore_sigterm_and_hang(value):
    """The pathological child: SIGTERM is ignored, then it hangs."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(120)
    return value


def sleepy(value):
    time.sleep(1.2)
    return value * 2


def slow_double(value):
    time.sleep(0.5)
    return value * 2


def slow_boom(value):
    time.sleep(0.5)
    raise ValueError("late boom")


def pid_of(value):
    time.sleep(0.05)  # long enough that both workers take points
    return os.getpid()


def pid_or_hang(value):
    if value == "hang":
        time.sleep(60)
    return os.getpid()


def pid_or_die(value):
    if value == "die":
        os._exit(17)
    return os.getpid()


def double_or_die(value):
    if value % 10 == 3:
        os._exit(17)
    return value * 2


def pid_or_exit(value):
    if value == "exit":
        sys.exit(3)
    return os.getpid()


def pid_or_exit_unpicklable(value):
    if value == "exit":
        raise SystemExit(lambda: 0)  # the exit code cannot be pickled
    return os.getpid()


def warn_once(value):
    trace.current().warning("in-worker degradation", point=value)
    return value


class TwoArgError(Exception):
    """Pickles fine but cannot be rebuilt from its args on unpickling."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def raise_two_arg(value):
    if value == "bad":
        raise TwoArgError(1, 2)
    return value * 2


def counting(value):
    tr = trace.current()
    tr.count("test.points")
    with tr.timer("test.point"):
        return value


def engine_or_oom(x):
    """Faults on the fast agent engine; reports the engine it ran on."""
    kind = os.environ.get("REPRO_AGENT_ENGINE") or "array"
    if kind == "array":
        raise MemoryError("fast engine fault")
    return {"engine": kind}


def tasks_for(values):
    return [PointTask(index=i, value=v) for i, v in enumerate(values)]


class TestInlinePath:
    def test_success_in_order(self):
        outcomes = run_points(call, double, tasks_for([1, 2, 3]))
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_failure_captured_not_raised(self):
        outcomes = run_points(call, boom_at_3, tasks_for([1, 3]))
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert "ValueError: boom at 3" in outcomes[1].error
        assert "boom at 3" in outcomes[1].traceback
        assert isinstance(outcomes[1].exception, ValueError)

    def test_retry_exhaustion_counts_attempts(self):
        tr = Tracer()
        outcomes = run_points(
            call, boom, tasks_for([0]), retries=2, backoff=0.0, tracer=tr
        )
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 3
        assert tr.counters["executor.retries"] == 2

    def test_reraise_recovers_original_exception(self):
        outcomes = run_points(call, boom, tasks_for([0]))
        with pytest.raises(ValueError, match="boom at 0"):
            outcomes[0].reraise()

    def test_reraise_without_exception_wraps(self):
        outcome = PointOutcome(
            index=0, ok=False, error="lost", traceback="tb", attempts=1
        )
        with pytest.raises(ExecutionError, match="lost"):
            outcome.reraise()

    def test_empty_tasks(self):
        assert run_points(call, double, []) == []

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_points(call, double, tasks_for([1]), retries=-1)
        with pytest.raises(ConfigurationError):
            run_points(call, double, tasks_for([1]), backoff=-0.1)
        with pytest.raises(ConfigurationError):
            run_points(call, double, tasks_for([1]), timeout=0)
        with pytest.raises(ConfigurationError):
            run_points(call, double, tasks_for([1]), n_jobs=0)


class TestIsolatedPath:
    def test_parallel_success_in_order(self):
        outcomes = run_points(
            call, double, tasks_for(list(range(8))), n_jobs=4
        )
        assert [o.value for o in outcomes] == [v * 2 for v in range(8)]

    def test_worker_exception_isolated(self):
        outcomes = run_points(
            call, boom_at_3, tasks_for([1, 2, 3, 4]), n_jobs=2
        )
        assert [o.ok for o in outcomes] == [True, True, False, True]
        failed = outcomes[2]
        assert "ValueError: boom at 3" in failed.error
        assert "boom at 3" in failed.traceback
        assert isinstance(failed.exception, ValueError)

    def test_timeout_kills_hung_worker(self):
        tr = Tracer()
        start = time.monotonic()
        outcomes = run_points(
            call,
            hang_at_1,
            tasks_for([0, 1, 2]),
            n_jobs=2,
            timeout=1.0,
            tracer=tr,
        )
        assert time.monotonic() - start < 30
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "timed out after 1.0s" in outcomes[1].error
        assert tr.counters["executor.timeouts"] == 1

    def test_hard_crash_reported(self):
        outcomes = run_points(call, die_hard, tasks_for([0]), n_jobs=2)
        assert not outcomes[0].ok
        assert "exitcode 17" in outcomes[0].error

    def test_retry_recovers_transient_failure(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_TEST_FLAKY_MARKER", str(tmp_path / "marker")
        )
        tr = Tracer()
        outcomes = run_points(
            call,
            flaky,
            tasks_for([5]),
            n_jobs=2,
            retries=1,
            backoff=0.01,
            tracer=tr,
        )
        assert outcomes[0].ok
        assert outcomes[0].value == 10
        assert outcomes[0].attempts == 2
        assert tr.counters["executor.retries"] == 1


class TestBoundedReap:
    """Regression: a SIGTERM-blocking child must not wedge the run.

    Before the bounded reap, the timeout path ran ``terminate()``
    followed by an unbounded ``join()`` — a worker that installed
    ``SIG_IGN`` for SIGTERM (or was stuck in uninterruptible I/O) hung
    the whole sweep forever.  The reap now gives SIGTERM ``term_grace``
    seconds and then escalates to SIGKILL.
    """

    def test_sigterm_ignoring_child_is_killed(self):
        tr = Tracer()
        start = time.monotonic()
        outcomes = run_points(
            call,
            ignore_sigterm_and_hang,
            tasks_for([0]),
            n_jobs=2,
            timeout=0.5,
            term_grace=0.5,
            tracer=tr,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30  # was: forever
        assert not outcomes[0].ok
        assert "timed out after 0.5s" in outcomes[0].error
        assert tr.counters["executor.timeouts"] == 1

    def test_mixed_batch_survives_sigterm_blocker(self):
        """Healthy points around the blocker still complete normally."""
        outcomes = run_points(
            call,
            hang_at_1,
            tasks_for([0, 1, 2]),
            n_jobs=3,
            timeout=1.0,
            term_grace=0.5,
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert [o.value for o in outcomes if o.ok] == [0, 4]

    def test_term_grace_validated(self):
        with pytest.raises(ConfigurationError):
            run_points(
                call, double, tasks_for([1]), timeout=1.0, term_grace=0.0
            )
        with pytest.raises(ConfigurationError):
            run_points(
                call, double, tasks_for([1]), timeout=1.0, term_grace=-1.0
            )


class TestOrphanedChild:
    """Regression: a worker whose parent already hung up exits cleanly.

    When a per-point deadline expires *just* as the work finishes, the
    parent closes its end before the worker's reply.  The reply then
    sees a broken pipe; unguarded, the worker died with an unhandled
    ``BrokenPipeError`` (nonzero exit + stderr traceback).
    """

    @staticmethod
    def _orphan(fn, value):
        pool = WorkerPool(call, fn, 1)
        try:
            run = pool._dispatch(_Attempt(PointTask(0, value)), None)
            # hang up before the worker can report (timeout race)
            run.worker.conn.close()
            proc = run.worker.process
            proc.join(30)
            return proc
        finally:
            pool.close()

    def test_orphaned_ok_send_exits_cleanly(self):
        proc = self._orphan(slow_double, 3)
        assert proc.exitcode == 0

    def test_orphaned_error_send_exits_cleanly(self):
        proc = self._orphan(slow_boom, 3)
        assert proc.exitcode == 0


class TestEventDrivenWait:
    """Regression: the harvest loop blocks in connection.wait, not a
    5 ms busy-poll — ~0 CPU and only a handful of wakeups while idle."""

    def test_idle_wait_burns_no_cpu(self):
        tr = Tracer()
        cpu0 = time.process_time()
        outcomes = run_points(
            call, sleepy, tasks_for([0, 1]), n_jobs=2, timeout=30.0,
            tracer=tr,
        )
        cpu = time.process_time() - cpu0
        assert [o.value for o in outcomes] == [0, 2]
        # the old 5 ms poll loop woke ~240 times over a 1.2 s sleep;
        # the wait-based loop wakes on launch, the defensive 0.5 s
        # idle tick, and the two results
        assert tr.counters["executor.wakeups"] <= 25
        # parent CPU is fork/pickle overhead only, not spinning
        assert cpu < 0.5

    def test_backoff_only_wait_sleeps_to_eligibility(self):
        """With every attempt backed off (nothing running), the loop
        sleeps until retry eligibility instead of spinning."""
        tr = Tracer()
        start = time.monotonic()
        outcomes = run_points(
            call,
            boom,
            tasks_for([0]),
            n_jobs=2,
            retries=1,
            backoff=0.3,
            timeout=30.0,
            tracer=tr,
        )
        assert time.monotonic() - start >= 0.3  # backoff honored
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 2

    def test_outcomes_match_inline_path(self):
        """Fault-matrix equivalence: the wait-based subprocess loop
        resolves the same outcomes as the serial in-process path."""
        values = [1, 2, 3, 4]
        inline = run_points(call, boom_at_3, tasks_for(values), n_jobs=1)
        isolated = run_points(
            call, boom_at_3, tasks_for(values), n_jobs=2
        )
        key = [(o.index, o.ok, o.value, o.error, o.attempts) for o in inline]
        assert key == [
            (o.index, o.ok, o.value, o.error, o.attempts) for o in isolated
        ]


class TestDeadlineResultRace:
    """Ordering is pinned poll-before-deadline: work that finished by
    the time the deadline check runs is harvested as ``ok``."""

    def test_result_in_pipe_beats_expired_deadline(self):
        with WorkerPool(call, double, 1) as pool:
            run = pool._dispatch(
                _Attempt(PointTask(index=0, value=21)), None
            )
            assert run.worker.conn.poll(30)  # the result has arrived …
            now = time.monotonic()
            run.started = now - 10.0
            run.deadline = now - 1.0  # … and the deadline has passed
            outcome = pool._harvest(
                run, now, timeout=9.0, term_grace=5.0, tr=trace.NULL
            )
        assert outcome is not None
        assert outcome.ok
        assert outcome.value == 42

    def test_elapsed_is_per_attempt_not_cumulative(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_TEST_FLAKY_MARKER", str(tmp_path / "marker")
        )
        outcomes = run_points(
            call,
            slow_flaky,
            tasks_for([7]),
            n_jobs=2,
            retries=1,
            backoff=0.01,
            timeout=30.0,
        )
        assert outcomes[0].ok
        assert outcomes[0].value == 14
        assert outcomes[0].attempts == 2
        # the slow first attempt took >= 0.6 s; the recorded elapsed is
        # the (fast) final attempt only
        assert outcomes[0].elapsed_s < 0.5


class TestWorkerPool:
    """Long-lived workers: reused across points, replaced one at a time."""

    def test_workers_are_reused(self):
        outcomes = run_points(
            call, pid_of, tasks_for(list(range(8))), n_jobs=2
        )
        assert all(o.ok for o in outcomes)
        pids = {o.value for o in outcomes}
        assert len(pids) <= 2
        assert os.getpid() not in pids

    def test_timeout_respawns_only_the_hung_worker(self):
        with WorkerPool(call, pid_or_hang, 2) as pool:
            first = run_points(
                call, pid_or_hang, tasks_for([0, 1]), pool=pool
            )
            assert len({o.value for o in first}) == 2
            hung = run_points(
                call,
                pid_or_hang,
                tasks_for(["hang", 0]),
                pool=pool,
                timeout=1.0,
                term_grace=0.5,
            )
            assert not hung[0].ok
            assert "timed out after 1.0s" in hung[0].error
            survivor = hung[1].value
            (killed,) = {o.value for o in first} - {survivor}
            later = run_points(
                call, pid_or_hang, tasks_for([0, 1, 2, 3]), pool=pool,
                timeout=30.0,
            )
        assert all(o.ok for o in later)
        later_pids = {o.value for o in later}
        assert survivor in later_pids
        assert killed not in later_pids

    def test_dead_worker_is_replaced(self):
        with WorkerPool(call, pid_or_die, 1) as pool:
            outcomes = run_points(
                call, pid_or_die, tasks_for([0, "die", 1, 2]), pool=pool
            )
        assert [o.ok for o in outcomes] == [True, False, True, True]
        assert "died without a result (exitcode 17)" in outcomes[1].error
        assert outcomes[2].value == outcomes[3].value
        assert outcomes[2].value != outcomes[0].value

    def test_many_points_more_workers_than_cores_with_deaths(self):
        """Slot bookkeeping under churn: every point resolves exactly once
        and in order while workers keep dying and being replaced."""
        values = list(range(40))
        start = time.monotonic()
        outcomes = run_points(
            call, double_or_die, tasks_for(values), n_jobs=4
        )
        assert time.monotonic() - start < 60
        assert [o.index for o in outcomes] == values
        for v, o in zip(values, outcomes):
            if v % 10 == 3:
                assert not o.ok and "exitcode 17" in o.error
            else:
                assert o.ok and o.value == 2 * v
        assert mp.active_children() == []

    def test_system_exit_reported_and_worker_replaced(self):
        with WorkerPool(call, pid_or_exit, 1) as pool:
            outcomes = run_points(
                call, pid_or_exit, tasks_for([0, "exit", 1]), pool=pool
            )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert outcomes[1].error == "SystemExit: 3"
        assert outcomes[2].value != outcomes[0].value

    def test_exiting_worker_retires_even_without_its_exception(self):
        """The exception is dropped from the reply (it cannot be
        pickled), yet the parent still learns the worker is exiting and
        never hands it another point."""
        with WorkerPool(call, pid_or_exit_unpicklable, 1) as pool:
            (exited,) = run_points(
                call, pid_or_exit_unpicklable, tasks_for(["exit"]), pool=pool
            )
            assert pool._workers == [] and pool._idle == []
            later = run_points(
                call, pid_or_exit_unpicklable, tasks_for([0, 1]), pool=pool
            )
        assert not exited.ok and exited.error.startswith("SystemExit")
        assert exited.exception is None
        assert all(o.ok for o in later)

    def test_unpicklable_input_is_a_failed_outcome(self):
        tasks = [PointTask(0, lambda: 1), PointTask(1, 2)]
        outcomes = run_points(call, double, tasks, n_jobs=2, retries=2)
        assert not outcomes[0].ok
        assert "task input not picklable" in outcomes[0].error
        assert outcomes[0].attempts == 1
        assert outcomes[1].ok and outcomes[1].value == 4

    def test_unrebuildable_exception_is_a_failed_outcome(self):
        outcomes = run_points(
            call, raise_two_arg, tasks_for(["bad", 3]), n_jobs=2
        )
        assert not outcomes[0].ok
        assert "worker reply could not be unpickled" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].value == 6

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_worker_counters_reach_the_run_tracer(self, n_jobs):
        tr = Tracer()
        with trace.use(tr):
            outcomes = run_points(
                call, counting, tasks_for(list(range(8))), n_jobs=n_jobs
            )
        assert all(o.ok for o in outcomes)
        assert tr.counters["test.points"] == 8
        assert tr.timers["test.point"].calls == 8

    def test_worker_events_reach_the_run_tracer_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(str(path)) as tr, trace.use(tr):
            outcomes = run_points(
                call, warn_once, tasks_for(list(range(4))), n_jobs=2
            )
        assert all(o.ok for o in outcomes)
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        warned = [r for r in records if r["event"] == "warning"]
        assert sorted(r["point"] for r in warned) == [0, 1, 2, 3]
        assert {r["message"] for r in warned} == {"in-worker degradation"}
        assert tr.counters["warnings"] == 4

    def test_pool_must_match_the_run(self):
        with WorkerPool(call, double, 2) as pool:
            with pytest.raises(ConfigurationError, match="different"):
                run_points(call, boom, tasks_for([1]), pool=pool)

    def test_scoped_pool_leaves_no_children(self):
        run_points(call, pid_of, tasks_for(list(range(4))), n_jobs=2)
        assert mp.active_children() == []

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process states from /proc"
    )
    def test_workers_exit_when_the_parent_is_killed(self):
        """A SIGKILLed owner cannot close its pool: the workers must see
        EOF on their pipes and exit by themselves (no sibling may hold a
        copy of another worker's parent end)."""
        script = (
            "import sys, time\n"
            "from repro.runtime.executor import WorkerPool, PointTask, "
            "run_points\n"
            "def call(fn, v, s): return fn(v)\n"
            "def pid(v):\n"
            "    import os; time.sleep(0.05); return os.getpid()\n"
            "pool = WorkerPool(call, pid, 2)\n"
            "out = run_points(call, pid, [PointTask(i, i) for i in range(4)],"
            " pool=pool)\n"
            "print(' '.join(sorted({str(o.value) for o in out})), flush=True)\n"
            "time.sleep(60)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        owner = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            pids = [int(p) for p in owner.stdout.readline().split()]
            assert len(pids) == 2
        finally:
            owner.kill()
            owner.wait(30)
            owner.stdout.close()

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    state = fh.read().rsplit(")", 1)[1].split()[0]
            except OSError:
                return False
            return state not in ("Z", "X")

        deadline = time.monotonic() + 30
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))

    def test_supervisor_rerun_sees_pinned_engine(self, monkeypatch):
        monkeypatch.delenv("REPRO_AGENT_ENGINE", raising=False)
        sup = Supervisor(families=("agents",))
        with supervisor_module.use(sup):
            result = grid_sweep(
                {"x": list(range(4))}, engine_or_oom, n_jobs=2
            )
        assert sup.breakers["agents"].state == "open"
        assert [row["engine"] for row in result.rows] == ["object"] * 4
