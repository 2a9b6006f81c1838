"""Point functions the benchmark hands to the program.

Every function here is module-level and importable as
``perfbench.points``, so the executor can ship it to worker processes
by name (fork or spawn) and the durable service can journal it and
re-import it on recovery.  A point receives only its generated inputs
(grid parameters and, for seeded jobs, a ``SeedSequence``) and returns
a row of plain ints, floats, bools and lists.

Worker-side tracing: when :data:`TRACE_DIR_ENV` is set (the traced run
sets it before any worker starts), a point times its kernel calls as
spans, runs them under a fresh program
:class:`~repro.runtime.trace.Tracer` so kernel counters are caught too,
and appends one JSON line per point to ``worker-<pid>.jsonl`` in that
directory.  The program's own tracer loses what forked workers record,
so this file is how kernel time crosses the process boundary.  The
returned row is the same with or without tracing.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from repro.agents import (
    ConstraintEnvironment,
    ShockSchedule,
    make_engine,
    seed_population,
)
from repro.core.recoverability import BoundedComponentDamage, is_k_recoverable
from repro.core.strategies import StrategyMix
from repro.csp import make_csp_engine, random_clause_csp
from repro.networks import (
    ArrayGraph,
    BetweennessAttack,
    MmapGraph,
    SIRModel,
    TargetedDegreeAttack,
    barabasi_albert,
    critical_fraction,
    percolation_curve,
)
from repro.runtime import supervisor, trace
from repro.spacecraft import Spacecraft

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
#: set only in the process that builds a crashed service directory
CRASH_GATE_ENV = "PERFBENCH_CRASH_GATE"
CRASH_EXIT = 75

# -- engine kinds, by their public names --------------------------------------
SERVICE_NETWORK_ENGINE = "array"
SERVICE_CSP_ENGINE = "bit"
AGENT_ENGINE = "array"
#: the fast CSP kind timed on sweep_csp; it crosses the n = 20 envelope
CSP_ENGINE = "tiled"
#: the kind sweep_csp's check compares against wherever it runs (n <= 20)
CSP_CHECK_ENGINE = "bit"

# -- kernel sizes -------------------------------------------------------------
MMAP_BUDGET_MB = 512
RESOLUTION = 64
SIR_BETA = 0.2
SIR_GAMMA = 0.1
SIR_SEEDS = 10
SIR_MAX_STEPS = 400
SPARSE_HITS = 2  # debris hits on the spacecraft; minimal k equals this
DENSE_HITS = 1
CSP_K = 2
DENSE_CLAUSES_PER_VAR = 3
MAINTAIN_MAX_N = 18
#: recover_point: the first x a crashed directory never stored
RECOVER_STORED_X = 64


class _NoSpans:
    """Untraced points: a span costs one method call."""

    def span(self, name):
        return nullcontext()


_NO_SPANS = _NoSpans()


class _PointSpans:
    def __init__(self):
        self.spans: list = []

    @contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter()))


@contextmanager
def _kernel_trace():
    directory = os.environ.get(TRACE_DIR_ENV)
    if not directory:
        yield _NO_SPANS
        return
    spans = _PointSpans()
    tracer = trace.Tracer(keep_events=False)
    start = time.perf_counter()
    with trace.use(tracer):
        yield spans
    record = {
        "start": start,
        "end": time.perf_counter(),
        "spans": spans.spans,
        "counters": dict(tracer.counters),
    }
    path = os.path.join(directory, f"worker-{os.getpid()}.jsonl")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


# -- service_mixed -------------------------------------------------------------


def service_point(kind: str, tag: str, i: int, seed=None) -> dict:
    """One small real kernel: percolation, CSP recoverability or agents."""
    rng = np.random.default_rng(seed)
    with _kernel_trace() as t:
        if kind == "percolation":
            g = barabasi_albert(500, 2, seed=rng)
            with t.span("networks.percolation"):
                curve = percolation_curve(
                    g, TargetedDegreeAttack(), seed=rng, resolution=32,
                    engine=SERVICE_NETWORK_ENGINE,
                )
            trace.current().count("networks.curves")
            return {
                "robustness": float(curve.robustness_index()),
                "critical": float(critical_fraction(curve)),
            }
        if kind == "csp":
            with t.span("csp.recoverability"):
                if i % 2:
                    report = Spacecraft(10).recoverability_report(
                        2, 2, engine=SERVICE_CSP_ENGINE
                    )
                else:
                    csp = random_clause_csp(10, 30, 3, seed=rng)
                    report = is_k_recoverable(
                        csp, BoundedComponentDamage(1), k=2,
                        engine=SERVICE_CSP_ENGINE,
                    )
            return {
                "worst": report.worst_steps,
                "recoverable": bool(report.recoverable),
            }
        if kind == "agents":
            env = ConstraintEnvironment.random(
                16, tolerance=2, seed=int(rng.integers(2**31))
            )
            population = seed_population(
                StrategyMix.uniform(), env, n_agents=20, budget=100.0,
                seed=int(rng.integers(2**31)),
            )
            simulator = make_engine(
                AGENT_ENGINE, income_rate=1.0, living_cost=1.0,
                replication_threshold=15.0, mutation_rate=0.01,
                capacity=60,
            )
            with t.span("agents.sim"):
                result = simulator.run(
                    population, env, steps=30,
                    shocks=ShockSchedule(period=10, severity=2),
                    seed=int(rng.integers(2**31)),
                )
            return {
                "alive": int(result.alive[-1]),
                "fitness": float(result.mean_fitness[-1]),
            }
        raise ValueError(f"unknown service point kind {kind!r}")


# -- sweep_networks ------------------------------------------------------------


def network_point(root: str, case: str, sim_seed: int) -> dict:
    """One kernel on a graph spilled under ``root``.

    ``case`` is ``"<graph>/<engine>/<kernel>"``: the graph directory
    name, a public network engine kind (``array`` copies the CSR into
    RAM, ``mmap`` keeps it on disk under a supervisor memory budget,
    ``object`` is the reference oracle) and ``percolation``, ``sir`` or
    ``betweenness``.
    """
    graph, engine, kernel = case.split("/")
    with _kernel_trace() as t:
        with t.span("networks.graph_open"):
            mg = MmapGraph.open(os.path.join(root, graph))
            if engine == "array":
                # np.array copies off the memmap: an in-RAM CSR
                g = ArrayGraph(np.array(mg.indptr), np.array(mg.indices))
            elif engine == "object":
                g = mg.to_graph()
            else:
                g = mg
        budget = (
            supervisor.use(
                supervisor.Supervisor(memory_budget_mb=MMAP_BUDGET_MB)
            )
            if engine == "mmap"
            else nullcontext()
        )
        with budget:
            if kernel == "sir":
                with t.span("networks.sir"):
                    result = SIRModel(
                        g, beta=SIR_BETA, gamma=SIR_GAMMA, engine=engine
                    ).run(
                        range(SIR_SEEDS), max_steps=SIR_MAX_STEPS,
                        seed=sim_seed,
                    )
                return {
                    "infected": [int(c) for c in result.infected_counts],
                    "ever": int(result.total_ever_infected),
                }
            if kernel == "betweenness":
                attack, span = BetweennessAttack(), "networks.betweenness"
            else:
                attack, span = TargetedDegreeAttack(), "networks.percolation"
            with t.span(span):
                curve = percolation_curve(
                    g, attack, seed=sim_seed, resolution=RESOLUTION,
                    engine=engine,
                )
            trace.current().count("networks.curves")
            return {"giant": [float(x) for x in curve.giant_fraction]}


# -- sweep_csp -----------------------------------------------------------------


def csp_point(n: int, shape: str, engine: str, csp_seed: int) -> dict:
    """Recoverability of a sparse (spacecraft) or dense (3-SAT) fit set."""
    with _kernel_trace() as t:
        craft = None
        if shape == "sparse":
            craft = Spacecraft(n)
            csp, hits = craft.csp, SPARSE_HITS
        else:
            csp = random_clause_csp(
                n, DENSE_CLAUSES_PER_VAR * n, 3, seed=csp_seed
            )
            hits = DENSE_HITS
        with t.span("csp.compile"):
            # compiled forms are cached on the CSP, so the check below
            # reuses this compile instead of repeating it
            make_csp_engine(engine).try_compile(csp)
        with t.span("csp.recoverability"):
            if craft is not None:
                report = craft.recoverability_report(
                    hits, CSP_K, engine=engine
                )
            else:
                report = is_k_recoverable(
                    csp, BoundedComponentDamage(hits), k=CSP_K,
                    engine=engine,
                )
        witness = report.witness
        row = {
            "worst": report.worst_steps,
            "recoverable": bool(report.recoverable),
            "k_recoverable": bool(report.is_k_recoverable),
            "witness": (
                None if witness is None
                else [witness[0].mask, witness[1].mask]
            ),
        }
        if craft is not None and n <= MAINTAIN_MAX_N:
            with t.span("csp.maintainability"):
                result = craft.maintainability(1, 1, engine=engine)
            row["maintainable"] = bool(result.maintainable)
            row["levels"] = len(result.levels)
            row["uncovered"] = len(result.uncovered)
        return row


# -- service_recover -----------------------------------------------------------


def recover_point(x: int, seed=None) -> dict:
    """Cheap deterministic point: service_recover measures replay.

    In the process building a crashed directory (:data:`CRASH_GATE_ENV`
    set), the first never-stored point waits until every job is
    journaled and then ends the process mid-chunk, the way a SIGKILL
    would — at the same point every time, so the directory is built
    without timing races.
    """
    gate = os.environ.get(CRASH_GATE_ENV)
    if gate and x >= RECOVER_STORED_X:
        deadline = time.monotonic() + 60
        while not os.path.exists(gate) and time.monotonic() < deadline:
            time.sleep(0.001)
        os._exit(CRASH_EXIT)
    salt = int(seed.generate_state(1)[0])
    return {"score": x * 31 + salt % 997, "salt": salt}
