"""Network engine selection: reference object kernels vs one CSR engine.

Mirrors :func:`repro.agents.arrayengine.make_engine` for the network
substrate.  :func:`make_network_engine` resolves an engine ``kind``
(``"object"``, ``"array"``, or ``"mmap"``) from its argument or the
``REPRO_NETWORK_ENGINE`` environment variable, defaulting to
``"object"`` so existing runs are bit-for-bit unchanged until a caller
opts in.  :func:`~repro.networks.percolation.percolation_curve`,
:class:`~repro.networks.cascades.LoadCascadeModel` /
:class:`~repro.networks.cascades.ProbabilisticCascadeModel`,
:class:`~repro.networks.epidemics.SISModel` /
:class:`~repro.networks.epidemics.SIRModel`, and
:class:`~repro.networks.healing.NetworkRecoverySimulator` all dispatch
their hot loops through the resolved engine.

The object engine hosts the original dict-of-sets loops verbatim (same
RNG draw order, same float accumulation order).  ``array`` and ``mmap``
are one :class:`CSRNetworkEngine` on two substrates: the same block-
streamed kernels run over an in-RAM :class:`~repro.networks.arraygraph.
ArrayGraph` (one block holding the whole graph) or a memory-mapped
:class:`~repro.networks.mmapgraph.MmapGraph` (blocks sized from the
supervisor's memory budget), and ``array`` spills to disk rather than
OOM-ing when that budget says the graph won't fit in RAM.
Deterministic quantities (component sizes, percolation curves,
load-cascade failure sets, healing quality traces) match the object
engine exactly; stochastic spreading (probabilistic cascades, SIS/SIR)
draws its randomness in frontier batches and therefore matches the
object engine statistically over seeds rather than draw-for-draw — but
is byte-identical across the two substrates and every block size.  All
engines report ``net.*`` timers/counters through
:mod:`repro.runtime.trace`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Sequence, Set

import numpy as np

from ..errors import EngineError
from ..runtime import supervisor, trace
from ..runtime.engines import resolve_engine_kind
from .arraygraph import (
    ArrayGraph,
    as_arraygraph,
    bernoulli_indices,
    gather_rows,
)
from .graph import Graph
from .mmapgraph import (
    MmapGraph,
    as_mmapgraph,
    chunked_newman_ziff_giant_sizes,
    derive_chunk_elems,
    estimate_graph_bytes,
    frontier_slices,
)

__all__ = [
    "CSRNetworkEngine",
    "NetworkEngine",
    "ObjectNetworkEngine",
    "make_network_engine",
]


class NetworkEngine(ABC):
    """One implementation of the network hot loops (see module docs)."""

    name: str

    def ordering_graph(self, g: "Graph | ArrayGraph"):
        """The graph view attack strategies should rank (engine-preferred)."""
        return g

    @abstractmethod
    def percolation_giant_sizes(
        self, g, order: Sequence[object], checkpoints: Sequence[int]
    ) -> list[int]:
        """Giant sizes ``[intact] + [after i removals for i in checkpoints]``."""

    @abstractmethod
    def load_cascade(
        self,
        graph,
        initial_load: Dict[object, float],
        capacity: Dict[object, float],
        seeds: frozenset,
    ) -> tuple[Set[object], int]:
        """Propagate a load-redistribution cascade; ``(failed, waves)``."""

    @abstractmethod
    def spread_cascade(
        self, graph, spread_p: float, seeds: frozenset, rng
    ) -> tuple[Set[object], int]:
        """Propagate an independent-cascade failure; ``(failed, waves)``."""

    @abstractmethod
    def sis(
        self, graph, beta: float, gamma: float, immune: frozenset,
        infected: Set[object], steps: int, rng,
    ) -> tuple[list[int], Set[object], int]:
        """SIS dynamics; ``(counts, final_infected, total_ever)``."""

    @abstractmethod
    def sir(
        self, graph, beta: float, gamma: float, immune: frozenset,
        infected: Set[object], max_steps: int, rng,
    ) -> tuple[list[int], Set[object], int]:
        """SIR dynamics; ``(counts, final_infected, total_ever)``."""

    @abstractmethod
    def healing_episode(
        self, graph, to_remove: Sequence[object], repairs_per_step: int,
        horizon: int, shock_time: int,
    ) -> tuple[list[float], list[float], bool]:
        """Attack-and-heal quality series; ``(times, quality, recovered)``."""


class ObjectNetworkEngine(NetworkEngine):
    """The reference dict-of-sets implementation (pre-array behavior)."""

    name = "object"

    @staticmethod
    def _graph(g) -> Graph:
        return (
            g.to_graph() if isinstance(g, (ArrayGraph, MmapGraph)) else g
        )

    def percolation_giant_sizes(self, g, order, checkpoints):
        g = self._graph(g)
        tr = trace.current()
        with tr.timer("net.percolation.object"):
            wanted = set(checkpoints)
            work = g.copy()
            sizes = [work.giant_component_size()]
            for i, node in enumerate(order, start=1):
                work.remove_node(node)
                if i in wanted:
                    sizes.append(work.giant_component_size())
        tr.count("net.curves.object")
        return sizes

    def load_cascade(self, graph, initial_load, capacity, seeds):
        graph = self._graph(graph)
        tr = trace.current()
        with tr.timer("net.cascade.object"):
            load = dict(initial_load)
            failed: set = set()
            wave: set = set(seeds)
            waves = 0
            while wave:
                waves += 1
                # redistribute each failing node's load to live neighbours
                for node in wave:
                    failed.add(node)
                for node in wave:
                    neighbors = [
                        v for v in graph.neighbors(node) if v not in failed
                    ]
                    if not neighbors:
                        continue
                    share = load[node] / len(neighbors)
                    for v in neighbors:
                        load[v] += share
                wave = {
                    node
                    for node in graph.nodes()
                    if node not in failed and load[node] > capacity[node]
                }
        tr.count("net.cascades.object")
        return failed, waves

    def spread_cascade(self, graph, spread_p, seeds, rng):
        graph = self._graph(graph)
        tr = trace.current()
        with tr.timer("net.cascade.object"):
            failed: set = set(seeds)
            wave = set(seeds)
            waves = 0
            while wave:
                waves += 1
                nxt: set = set()
                for node in wave:
                    for neighbor in graph.neighbors(node):
                        if neighbor not in failed and \
                                rng.random() < spread_p:
                            nxt.add(neighbor)
                failed |= nxt
                wave = nxt
        tr.count("net.cascades.object")
        return failed, waves

    def sis(self, graph, beta, gamma, immune, infected, steps, rng):
        graph = self._graph(graph)
        tr = trace.current()
        with tr.timer("net.epidemic.object"):
            ever = set(infected)
            counts = [len(infected)]
            for _ in range(steps):
                if not infected:
                    break
                new_infections: Set[object] = set()
                for node in infected:
                    for neighbor in graph.neighbors(node):
                        if (
                            neighbor not in infected
                            and neighbor not in immune
                            and rng.random() < beta
                        ):
                            new_infections.add(neighbor)
                recoveries = {n for n in infected if rng.random() < gamma}
                infected = (infected - recoveries) | new_infections
                ever |= new_infections
                counts.append(len(infected))
        tr.count("net.epidemic.runs.object")
        tr.count("net.epidemic.steps.object", len(counts) - 1)
        return counts, infected, len(ever)

    def sir(self, graph, beta, gamma, immune, infected, max_steps, rng):
        graph = self._graph(graph)
        tr = trace.current()
        with tr.timer("net.epidemic.object"):
            recovered: Set[object] = set()
            ever = set(infected)
            counts = [len(infected)]
            for _ in range(max_steps):
                if not infected:
                    break
                new_infections: Set[object] = set()
                for node in infected:
                    for neighbor in graph.neighbors(node):
                        if (
                            neighbor not in infected
                            and neighbor not in recovered
                            and neighbor not in immune
                            and rng.random() < beta
                        ):
                            new_infections.add(neighbor)
                recoveries = {n for n in infected if rng.random() < gamma}
                recovered |= recoveries
                infected = (infected - recoveries) | new_infections
                ever |= new_infections
                counts.append(len(infected))
        tr.count("net.epidemic.runs.object")
        tr.count("net.epidemic.steps.object", len(counts) - 1)
        return counts, infected, len(ever)

    def healing_episode(self, graph, to_remove, repairs_per_step,
                        horizon, shock_time):
        graph = self._graph(graph)
        tr = trace.current()
        with tr.timer("net.healing.object"):
            n = graph.n_nodes
            original_edges = list(graph.edges())
            work = graph.copy()
            removed: list = []
            times: list[float] = []
            quality: list[float] = []
            for t in range(horizon):
                if t == shock_time:
                    for node in to_remove:
                        work.remove_node(node)
                        removed.append(node)
                elif t > shock_time and repairs_per_step > 0 and removed:
                    # triage: restore the most connective victims first
                    for _ in range(min(repairs_per_step, len(removed))):
                        node = removed.pop(0)
                        work.add_node(node)
                        for u, v in original_edges:
                            if u == node and v in work:
                                work.add_edge(u, v)
                            elif v == node and u in work:
                                work.add_edge(u, v)
                times.append(float(t))
                quality.append(100.0 * work.giant_component_size() / n)
            fully = not removed and work.giant_component_size() == n
        tr.count("net.healing.runs.object")
        return times, quality, fully


class CSRNetworkEngine(NetworkEngine):
    """One copy of every CSR kernel, over an in-RAM or memory-mapped graph.

    The substrate is picked per call: an :class:`~repro.networks.
    mmapgraph.MmapGraph` input stays on disk; an in-RAM input becomes an
    :class:`~repro.networks.arraygraph.ArrayGraph` under kind ``array``
    and is spilled with :func:`~repro.networks.mmapgraph.as_mmapgraph`
    under kind ``mmap``.  Kind ``array`` also spills — counted
    ``net.mmap.degrades`` + ``supervisor.preemptions`` and warned — when
    :func:`~repro.networks.mmapgraph.estimate_graph_bytes` says the
    graph would exceed the supervisor's ``memory_budget_mb`` (the
    network mirror of the bit-CSP compile pre-emption).

    Every kernel walks the CSR ``indices`` in blocks: one block holding
    the whole graph in RAM, :func:`~repro.networks.mmapgraph.
    derive_chunk_elems` of the budget on a memmap.  Newman–Ziff
    percolation and healing stream through :func:`~repro.networks.
    mmapgraph.chunked_newman_ziff_giant_sizes`; cascades and SIS/SIR
    expand their frontiers block by block with one Bernoulli draw per
    frontier, so outputs — deterministic and stochastic — are
    byte-identical on both substrates and at every block size.
    ``block_elems`` overrides the block size (the equivalence tests
    sweep block boundaries with it).  Timers and counters carry the
    substrate as suffix (``net.curves.array``, ``net.curves.mmap``, …).
    """

    def __init__(self, kind: str = "array",
                 block_elems: "int | None" = None):
        if kind not in ("array", "mmap"):
            raise EngineError(
                f"CSR engine kind must be 'array' or 'mmap', got {kind!r}"
            )
        self.name = kind
        self._block_elems = block_elems

    def _csr(self, g) -> "ArrayGraph | MmapGraph":
        """The substrate this call's kernels run on (see class docs)."""
        if isinstance(g, MmapGraph):
            return g
        if self.name == "array":
            estimate = estimate_graph_bytes(g)
            budget = supervisor.current().memory_budget_bytes()
            if estimate is None or budget is None or estimate <= budget:
                return as_arraygraph(g)
            tr = trace.current()
            tr.count("net.mmap.degrades")
            tr.count("supervisor.preemptions")
            tr.warning(
                "in-RAM network kernels pre-empted by memory budget; "
                "degrading to chunked mmap kernels",
                estimated_bytes=estimate,
                budget_bytes=budget,
            )
        return as_mmapgraph(g)

    def _block(self, csr) -> int:
        if self._block_elems is not None:
            return self._block_elems
        if isinstance(csr, MmapGraph):
            return derive_chunk_elems(
                supervisor.current().memory_budget_bytes()
            )
        return max(1, len(csr.indices))

    def ordering_graph(self, g):
        return self._csr(g)

    def percolation_giant_sizes(self, g, order, checkpoints):
        csr = self._csr(g)
        sub = _substrate(csr)
        tr = trace.current()
        with tr.timer(f"net.percolation.{sub}"):
            n = csr.n_nodes
            # removals evaluated in reverse as Newman–Ziff additions
            sizes = chunked_newman_ziff_giant_sizes(
                csr.indptr, csr.indices, csr.indices_of(order)[::-1],
                block_elems=self._block(csr),
            )
            out = [int(sizes[n])]
            out.extend(int(sizes[n - i]) for i in checkpoints)
        tr.count(f"net.curves.{sub}")
        tr.count(f"net.nz_nodes.{sub}", n)
        return out

    def load_cascade(self, graph, initial_load, capacity, seeds):
        csr = self._csr(graph)
        sub = _substrate(csr)
        tr = trace.current()
        with tr.timer(f"net.cascade.{sub}"):
            labels = csr.labels
            load = np.asarray(
                [initial_load[lab] for lab in labels], dtype=float
            )
            cap = np.asarray(
                [capacity[lab] for lab in labels], dtype=float
            )
            failed = np.zeros(csr.n_nodes, dtype=bool)
            wave = np.sort(csr.indices_of(seeds))
            waves = 0
            block = self._block(csr)
            indptr, indices = csr.indptr, csr.indices
            while wave.size:
                waves += 1
                failed[wave] = True
                # snapshot pre-redistribution loads: every block computes
                # its shares from the wave's loads, not from loads that
                # earlier blocks already topped up
                wave_load = load[wave]
                for a, b in frontier_slices(indptr, wave, block):
                    rows = wave[a:b]
                    flat, counts = gather_rows(indptr, indices, rows)
                    flat = flat.astype(np.int64)
                    live = ~failed[flat]
                    owner_pos = np.repeat(
                        np.arange(len(rows), dtype=np.int64), counts
                    )
                    live_counts = np.bincount(
                        owner_pos, weights=live, minlength=len(rows)
                    )
                    share = np.zeros(len(rows))
                    has_live = live_counts > 0
                    share[has_live] = wave_load[a:b][has_live] / \
                        live_counts[has_live]
                    np.add.at(
                        load, flat[live], np.repeat(share, counts)[live]
                    )
                wave = np.flatnonzero(~failed & (load > cap))
            failed_labels = {labels[int(i)] for i in np.flatnonzero(failed)}
        tr.count(f"net.cascades.{sub}")
        return failed_labels, waves

    @staticmethod
    def _frontier_hits(csr, rows, candidate_mask, p, rng, block):
        """``candidates[hits]``: one Bernoulli(p) draw per candidate.

        Candidates are the gathered neighbors of ``rows`` passing
        ``candidate_mask`` (mask state frozen by the caller until this
        returns).  Pass 1 gathers the frontier block by block and counts
        them; a single :func:`~repro.networks.arraygraph.
        bernoulli_indices` draw then covers the whole frontier, so the
        RNG is consumed identically at every block size.  Pass 1 keeps
        its candidates while they fit in one block — a frontier that
        fits one block is gathered once; otherwise pass 2 re-gathers
        only the blocks holding hits, in frontier order.
        """
        indptr, indices = csr.indptr, csr.indices
        bounds = list(frontier_slices(indptr, rows, block))
        counts = np.empty(len(bounds), dtype=np.int64)
        kept: list[np.ndarray] = []
        held = 0
        for k, (a, b) in enumerate(bounds):
            flat, _ = gather_rows(indptr, indices, rows[a:b])
            flat = flat.astype(np.int64)
            cands = flat[candidate_mask(flat)]
            counts[k] = len(cands)
            held += len(cands)
            if held <= block:
                kept.append(cands)
        hits = bernoulli_indices(rng, held, p)
        if len(hits) == 0:
            return np.empty(0, dtype=np.int64)
        if held <= block:
            return np.concatenate(kept)[hits]
        out = []
        offsets = np.concatenate(([0], np.cumsum(counts)))
        for k, (a, b) in enumerate(bounds):
            sel = hits[(hits >= offsets[k]) & (hits < offsets[k + 1])]
            if len(sel) == 0:
                continue
            flat, _ = gather_rows(indptr, indices, rows[a:b])
            flat = flat.astype(np.int64)
            cands = flat[candidate_mask(flat)]
            out.append(cands[sel - offsets[k]])
        return np.concatenate(out)

    def spread_cascade(self, graph, spread_p, seeds, rng):
        csr = self._csr(graph)
        sub = _substrate(csr)
        tr = trace.current()
        with tr.timer(f"net.cascade.{sub}"):
            failed = np.zeros(csr.n_nodes, dtype=bool)
            wave = np.sort(csr.indices_of(seeds))
            failed[wave] = True
            waves = 0
            block = self._block(csr)
            while wave.size:
                waves += 1
                hit = self._frontier_hits(
                    csr, wave, lambda flat: ~failed[flat],
                    spread_p, rng, block,
                )
                wave = np.unique(hit)
                failed[wave] = True
            labels = csr.labels
            failed_labels = {labels[int(i)] for i in np.flatnonzero(failed)}
        tr.count(f"net.cascades.{sub}")
        return failed_labels, waves

    def _epidemic(self, graph, beta, gamma, immune, infected, max_steps,
                  rng, with_recovered):
        """Shared SIS/SIR frontier loop (SIR tracks a recovered mask)."""
        csr = self._csr(graph)
        sub = _substrate(csr)
        tr = trace.current()
        with tr.timer(f"net.epidemic.{sub}"):
            n = csr.n_nodes
            immune_mask = np.zeros(n, dtype=bool)
            if immune:
                immune_mask[csr.indices_of(immune)] = True
            infected_mask = np.zeros(n, dtype=bool)
            if infected:
                infected_mask[csr.indices_of(infected)] = True
            recovered_mask = (
                np.zeros(n, dtype=bool) if with_recovered else None
            )

            def candidate_mask(flat):
                m = ~infected_mask[flat] & ~immune_mask[flat]
                if recovered_mask is not None:
                    m &= ~recovered_mask[flat]
                return m

            block = self._block(csr)
            ever = infected_mask.copy()
            counts = [int(infected_mask.sum())]
            for _ in range(max_steps):
                infected_idx = np.flatnonzero(infected_mask)
                if infected_idx.size == 0:
                    break
                # masks change only after both draws, so every block of
                # the frontier sees the same candidate set
                new = self._frontier_hits(
                    csr, infected_idx, candidate_mask, beta, rng, block
                )
                recs = bernoulli_indices(rng, infected_idx.size, gamma)
                recovered_now = infected_idx[recs]
                infected_mask[recovered_now] = False
                if recovered_mask is not None:
                    recovered_mask[recovered_now] = True
                infected_mask[new] = True
                ever[new] = True
                counts.append(int(infected_mask.sum()))
            labels = csr.labels
            final = {
                labels[int(i)] for i in np.flatnonzero(infected_mask)
            }
        tr.count(f"net.epidemic.runs.{sub}")
        tr.count(f"net.epidemic.steps.{sub}", len(counts) - 1)
        return counts, final, int(ever.sum())

    def sis(self, graph, beta, gamma, immune, infected, steps, rng):
        return self._epidemic(
            graph, beta, gamma, immune, infected, steps, rng,
            with_recovered=False,
        )

    def sir(self, graph, beta, gamma, immune, infected, max_steps, rng):
        return self._epidemic(
            graph, beta, gamma, immune, infected, max_steps, rng,
            with_recovered=True,
        )

    def healing_episode(self, graph, to_remove, repairs_per_step,
                        horizon, shock_time):
        csr = self._csr(graph)
        sub = _substrate(csr)
        tr = trace.current()
        with tr.timer(f"net.healing.{sub}"):
            n = csr.n_nodes
            removed_idx = csr.indices_of(to_remove)
            n_removed = len(removed_idx)
            base = np.ones(n, dtype=bool)
            base[removed_idx] = False
            # one Newman–Ziff pass: survivors first, then victims restored
            # in triage order — sizes[k] is the giant with k nodes healed
            sizes = chunked_newman_ziff_giant_sizes(
                csr.indptr, csr.indices, removed_idx,
                base=np.flatnonzero(base),
                block_elems=self._block(csr),
            )
            full = int(sizes[n_removed])
            times: list[float] = []
            quality: list[float] = []
            restored = 0
            for t in range(horizon):
                if t == shock_time:
                    giant = int(sizes[0])
                elif t > shock_time:
                    if repairs_per_step > 0 and restored < n_removed:
                        restored = min(
                            n_removed, restored + repairs_per_step
                        )
                    giant = int(sizes[restored])
                else:
                    giant = full
                times.append(float(t))
                quality.append(100.0 * giant / n)
            fully = restored == n_removed and full == n
        tr.count(f"net.healing.runs.{sub}")
        return times, quality, fully


def _substrate(csr) -> str:
    """Timer/counter suffix naming where ``csr``'s arrays live."""
    return "mmap" if isinstance(csr, MmapGraph) else "array"


def make_network_engine(
    kind: "str | NetworkEngine | None" = None,
) -> NetworkEngine:
    """Resolve a network engine: ``'object'``, ``'array'``, or ``'mmap'``.

    ``'array'`` and ``'mmap'`` are the in-RAM and memory-mapped
    substrates of one :class:`CSRNetworkEngine`.  ``kind=None`` reads
    the ``REPRO_NETWORK_ENGINE`` environment variable and defaults to
    ``'object'``, preserving pre-array behavior unless a run opts in; an
    already-constructed engine passes through unchanged.
    Unrecognized values — passed directly or set in the environment —
    raise :class:`~repro.errors.EngineError` naming the valid choices
    (resolution shared with the other seams via
    :func:`repro.runtime.engines.resolve_engine_kind`; an installed MAPE
    supervisor may degrade ``array``/``mmap`` to ``object`` while its
    breaker is open).
    """
    if isinstance(kind, NetworkEngine):
        return kind
    kind = resolve_engine_kind("networks", kind)
    if kind == "object":
        return ObjectNetworkEngine()
    return CSRNetworkEngine(kind)
