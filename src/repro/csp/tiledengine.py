"""Tiled bit-CSP engine: block-streamed state-space kernels past 2^20.

:class:`~repro.csp.bitengine.CompiledBitCSP` materializes every array
over the full ``0 .. 2^n - 1`` range, which caps it at
``DEFAULT_MAX_BITS = 20`` (~1M states) and turns the supervisor's
memory budget into a *refusal* (``estimate_compile_bytes`` pre-emption
→ object fallback).  This module breaks that 2^n wall: the same lowered
constraint kernels (:func:`~repro.csp.bitengine.lower_csp`) are
streamed over fixed-size blocks of the state space, so nothing of size
2^n is ever allocated and the practical cap moves to n ≈ 28–32.

Three pieces make the compiled form scale:

* **block scheduler** — :func:`derive_block_bits` turns the
  supervisor's ``memory_budget_mb`` into a block size instead of a
  refusal: the largest power-of-two block whose in-flight footprint
  (``2^b · (TILE_STATE_BYTES + n_constraints)`` bytes per concurrent
  worker) fits the budget, clamped to
  ``[MIN_BLOCK_BITS, MAX_BLOCK_BITS]``.  An impossible budget means
  more, smaller blocks — never ``None``.
* **streamed evaluation** — :meth:`TiledBitCSP.fit_indices` runs each
  lowered constraint's aligned-block kernel
  (:meth:`~repro.csp.bitengine.LoweredConstraint.block`, the same one
  the bit engine runs over the whole cube) once per block; fit states
  accumulate as a sorted int64 index array (Θ(|C|) memory, not
  Θ(2^n)).  ``quality`` / ``conflict_counts`` gather at the requested
  masks.  Blocks optionally fan out across
  processes through the PR-2 executor
  (:func:`repro.runtime.executor.run_points`).  Dispatch sites that
  index the bit engine's materialized arrays
  (``compiled.violations[...]``, ``compiled.quality_table()[...]``)
  keep working unchanged via lazy views that compute the requested
  entries on demand.
* **implicit-frontier BFS** — :meth:`TiledBitCSP.min_distances_masks`,
  :func:`implicit_add_bit_levels` and :func:`implicit_clear_bit_ball`
  are the ``hamming_distances`` / ``add_bit_levels`` /
  ``clear_bit_ball`` equivalents that keep the frontier as sorted index
  arrays with chunked XOR neighbor generation, instead of a ``(2^n,)``
  array — recoverability and K-maintainability cost Θ(ball volume),
  not Θ(state space).

Equivalence contract, pinned by ``tests/csp/test_tiledengine.py`` and
the generated cases of ``tests/csp/test_engine_differential.py``: for
n ≤ 20 every quantity is byte-identical to the bit engine (which is
itself pinned to the object engine), and for n > 20 results are
invariant under the block size.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..runtime import trace
from .bitstring import BitString
from .bitengine import (
    SAT_ROW_BYTES,
    BitEngineUnsupported,
    PackedStateBridge,
    _flip_masks,
    lower_csp,
)
from .problem import CSP

__all__ = [
    "DEFAULT_BLOCK_BITS",
    "DEFAULT_MAX_BITS_TILED",
    "MAX_BLOCK_BITS",
    "MIN_BLOCK_BITS",
    "TILE_STATE_BYTES",
    "TiledBitCSP",
    "compile_tiled",
    "derive_block_bits",
    "implicit_add_bit_levels",
    "implicit_clear_bit_ball",
]

#: hard cap on problem size for the tiled engine.  2^32 states stream
#: in bounded memory, but wall time is still Θ(2^n): beyond ~32 bits
#: exact enumeration stops being a realistic analysis.
DEFAULT_MAX_BITS_TILED = 32

#: block size used when no memory budget is installed (2^18 = 256K
#: states ≈ 12 MiB in flight for a handful of constraints)
DEFAULT_BLOCK_BITS = 18
#: smallest scheduled block — below 2^10 the per-block Python overhead
#: dominates the vectorized kernels
MIN_BLOCK_BITS = 10
#: largest scheduled block (2^24 states) — matches the biggest
#: footprint the full bit engine would ever have allocated
MAX_BLOCK_BITS = 24

#: per-state bytes in flight while one block streams: the int64 block
#: states (8), the mask kernels' int64 temporaries (popcount +
#: comparison, ~16), the bool fit accumulator and satisfaction row (2),
#: plus ~4 slack for the compressed fit output — per-constraint sat
#: rows are added separately
TILE_STATE_BYTES = 30


def derive_block_bits(
    n: int,
    n_constraints: int,
    memory_budget_bytes: Optional[int] = None,
    workers: int = 1,
) -> int:
    """Block-size exponent whose in-flight footprint fits the budget.

    This is where the supervisor's ``memory_budget_mb`` becomes block
    *scheduling* instead of compile *refusal*: one streamed block costs
    ``2^b · (TILE_STATE_BYTES + SAT_ROW_BYTES · n_constraints)`` bytes,
    ``workers`` blocks are in flight at once, and the scheduler picks
    the largest ``b`` keeping that under budget.  The result is clamped
    to ``[MIN_BLOCK_BITS, min(n, MAX_BLOCK_BITS)]`` — an impossible
    budget degrades to more, smaller blocks rather than refusing, so
    the tiled engine never returns the object fallback on memory
    grounds alone.
    """
    hi = min(n, MAX_BLOCK_BITS)
    lo = min(n, MIN_BLOCK_BITS)
    if memory_budget_bytes is None:
        return max(lo, min(hi, DEFAULT_BLOCK_BITS))
    per_state = (TILE_STATE_BYTES + SAT_ROW_BYTES * n_constraints) * max(
        1, workers
    )
    b = hi
    while b > lo and (1 << b) * per_state > memory_budget_bytes:
        b -= 1
    return b


# -- implicit-frontier hypercube kernels -----------------------------------


def _isin_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a sorted int64 array, via searchsorted."""
    if sorted_arr.size == 0:
        return np.zeros(np.shape(values), dtype=bool)
    pos = np.searchsorted(sorted_arr, values)
    pos = np.minimum(pos, sorted_arr.size - 1)
    return sorted_arr[pos] == values


def _xor_expand(
    frontier: np.ndarray,
    bits: np.ndarray,
    settled: np.ndarray,
    *,
    down: bool = False,
    chunk: int = 1 << 20,
) -> np.ndarray:
    """Unsettled XOR neighbors of ``frontier``, sorted and unique.

    The implicit-frontier replacement for the bit engine's
    ``frontier[:, None] ^ flip_masks`` over a (2^n,) distance array:
    membership comes from ``settled`` (a sorted index array) instead of
    array indexing, and the broadcast is chunked so at most ~``chunk``
    candidate masks exist at once.  ``down=True`` keeps only edges that
    clear a set bit (``cand < source``) — the predecessor edges of the
    repair encoding.
    """
    parts = []
    step = max(1, chunk // max(1, bits.size))
    for s in range(0, frontier.size, step):
        f = frontier[s : s + step]
        cand = f[:, None] ^ bits
        if down:
            cand = cand[cand < f[:, None]]
        else:
            cand = cand.ravel()
        cand = np.unique(cand)
        cand = cand[~_isin_sorted(cand, settled)]
        if cand.size:
            parts.append(cand)
    if not parts:
        return np.zeros(0, dtype=np.int64)
    if len(parts) == 1:
        return parts[0]
    return np.unique(np.concatenate(parts))


def implicit_add_bit_levels(
    goal_indices: np.ndarray,
    n: int,
    max_level: Optional[int] = None,
    *,
    chunk: int = 1 << 20,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`~repro.csp.bitengine.add_bit_levels` on index arrays.

    Reverse BFS from the goals along "clear one set bit" predecessor
    edges, returning ``(states, levels)``: the sorted masks of every
    state leveled within ``max_level`` and their exact levels — never a
    ``(2^n,)`` array, so K-maintainability levels cost Θ(leveled set).
    """
    goal = np.unique(np.asarray(goal_indices, dtype=np.int64))
    max_level = n if max_level is None else min(max_level, n)
    bits = _flip_masks(n)
    settled = goal
    states_acc = [goal]
    levels_acc = [np.zeros(goal.size, dtype=np.int32)]
    frontier = goal
    d = 0
    while frontier.size and d < max_level:
        cand = _xor_expand(frontier, bits, settled, down=True, chunk=chunk)
        if not cand.size:
            break
        d += 1
        settled = np.union1d(settled, cand)
        states_acc.append(cand)
        levels_acc.append(np.full(cand.size, d, dtype=np.int32))
        frontier = cand
    states = np.concatenate(states_acc)
    levels = np.concatenate(levels_acc)
    order = np.argsort(states, kind="stable")
    return states[order], levels[order]


def implicit_clear_bit_ball(
    seed_indices: np.ndarray,
    n: int,
    radius: int,
    *,
    chunk: int = 1 << 20,
) -> np.ndarray:
    """:func:`~repro.csp.bitengine.clear_bit_ball` on index arrays.

    The debris damage envelope as a sorted mask array: all states
    reachable from the seeds by clearing ≤ ``radius`` bits, costing
    Θ(ball volume) instead of Θ(2^n).
    """
    if radius < 0:
        raise ConfigurationError(f"radius must be >= 0, got {radius}")
    member = np.unique(np.asarray(seed_indices, dtype=np.int64))
    bits = _flip_masks(n)
    frontier = member
    for _ in range(min(radius, n)):
        if not frontier.size:
            break
        cand = _xor_expand(frontier, bits, member, down=True, chunk=chunk)
        if not cand.size:
            break
        member = np.union1d(member, cand)
        frontier = cand
    return member


# -- lazy whole-space views -------------------------------------------------


class _LazyViolationView:
    """``compiled.violations`` without the (2^n,) array behind it.

    The DCSP and repair loops index the bit engine's materialized
    violation counts with scalars, 1-D flip batches, and 2-D
    ``masks[:, None] ^ flip_masks`` neighborhoods; this view accepts
    the same indexing and evaluates just the requested states through
    the lowered kernels, so those pinned loops run unchanged on the
    tiled engine.
    """

    def __init__(self, tiled: "TiledBitCSP"):
        self._tiled = tiled
        self.dtype = np.dtype(np.int32)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self._tiled.size,)

    def __len__(self) -> int:
        return self._tiled.size

    def __getitem__(self, masks):
        if isinstance(masks, (int, np.integer)):
            return self._tiled._violations_of(
                np.asarray([masks], dtype=np.int64)
            )[0]
        return self._tiled._violations_of(np.asarray(masks, dtype=np.int64))


class _LazyQualityView:
    """``compiled.quality_table()`` computed per lookup, same indexing."""

    def __init__(self, tiled: "TiledBitCSP"):
        self._tiled = tiled
        self.dtype = np.dtype(np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self._tiled.size,)

    def __len__(self) -> int:
        return self._tiled.size

    def __getitem__(self, masks):
        if isinstance(masks, (int, np.integer)):
            return self._tiled._quality_of(
                np.asarray([masks], dtype=np.int64)
            )[0]
        return self._tiled._quality_of(np.asarray(masks, dtype=np.int64))


def _block_worker(fn, value, seed):
    """Executor bridge: one block range through the fit enumerator."""
    lo, hi = value
    return fn(lo, hi)


class TiledBitCSP(PackedStateBridge):
    """A boolean CSP compiled to block-streamed form (no 2^n arrays).

    Drop-in for :class:`~repro.csp.bitengine.CompiledBitCSP` at every
    dispatch site: the same packed-mask convention, the same methods
    (``fit_indices`` / ``fit_bitstrings`` / ``quality`` /
    ``conflict_counts`` / ``min_distances`` / ``min_distances_masks`` /
    ``conflicted_variable_order`` / ``assignment_of`` / ``mask_of``)
    and lazily-indexed ``violations`` / ``quality_table()`` views —
    but everything of size 2^n is replaced by streaming over
    ``2^block_bits``-state blocks and sorted index arrays.

    Compilation itself is O(constraints) — lowering only.  The fit set
    is enumerated on first use (``fit_indices``), one block at a time,
    optionally fanned out over ``workers`` processes; DCSP timelines at
    large n that never touch the fit set therefore pay nothing for it.
    """

    #: engine kind whose dispatch sites this compiled form serves —
    #: used to label ``csp.*`` timers/counters at the dispatch sites
    engine_label = "tiled"

    def __init__(
        self,
        csp: CSP,
        max_bits: int = DEFAULT_MAX_BITS_TILED,
        block_bits: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
        workers: int = 1,
    ):
        n = len(csp.variables)
        if n > max_bits:
            raise BitEngineUnsupported(
                f"{n}-variable CSP exceeds the tiled engine's "
                f"2^{max_bits}-state enumeration cap"
            )
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        evaluators, scope_mat, val_for_bit = lower_csp(csp)
        self.csp = csp
        self.n = n
        self.size = 1 << n
        self.names: tuple[str, ...] = csp.names
        self.workers = workers
        if block_bits is None:
            block_bits = derive_block_bits(
                n, len(csp.constraints), memory_budget_bytes, workers
            )
        block_bits = max(1, min(block_bits, n))
        self.block_bits = block_bits
        #: states per streamed block
        self.block_size = 1 << block_bits
        #: total blocks covering the state space
        self.n_blocks = 1 << (n - block_bits)
        #: single-bit flip masks, ``flip_masks[i] = 1 << i``
        self.flip_masks: np.ndarray = _flip_masks(n)
        self._val_for_bit: list[tuple] = val_for_bit
        #: variable indices in lexicographic-name order (conflicted-set
        #: ordering of the object repair loops)
        self.order_by_name: tuple[int, ...] = tuple(
            sorted(range(n), key=lambda i: self.names[i])
        )
        self._evaluators = evaluators
        #: (n_constraints, n) scope membership matrix
        self.scope_mat: np.ndarray = scope_mat
        #: lazy stand-in for the bit engine's (2^n,) violation counts
        self.violations = _LazyViolationView(self)
        self._quality_view = _LazyQualityView(self)
        self._fit_indices: Optional[np.ndarray] = None
        trace.current().count("csp.compiles")

    # -- per-block kernels -------------------------------------------------

    def _violations_of(self, masks: np.ndarray) -> np.ndarray:
        """Violated-constraint counts for the given masks (any shape)."""
        if not self._evaluators:
            return np.zeros(masks.shape, dtype=np.int32)
        out = np.zeros(masks.shape, dtype=np.int32)
        for evaluate in self._evaluators:
            out += ~evaluate(masks)
        return out

    def _quality_of(self, masks: np.ndarray) -> np.ndarray:
        """Q for the given masks, float-identical to the bit engine."""
        n_c = len(self._evaluators)
        if n_c == 0:
            return np.full(masks.shape, 100.0)
        satisfied = (n_c - self._violations_of(masks)).astype(np.int64)
        return 100.0 * satisfied / n_c

    def block_ranges(self) -> list[tuple[int, int]]:
        """The ``[lo, hi)`` state ranges the streamed kernels cover."""
        return [
            (lo, lo + self.block_size)
            for lo in range(0, self.size, self.block_size)
        ]

    def _fit_in_range(self, lo: int, hi: int) -> np.ndarray:
        """Masks of fit states in the aligned block ``[lo, hi)``, ascending."""
        states = np.arange(lo, hi, dtype=np.int64)
        fit = np.ones(hi - lo, dtype=bool)
        for evaluate in self._evaluators:
            fit &= evaluate.block(lo, self.block_bits, states)
        return states[fit]

    def _materialize_fit(self) -> np.ndarray:
        tr = trace.current()
        ranges = self.block_ranges()
        with tr.timer("csp.tiled.enumerate"):
            parts: Optional[list[np.ndarray]] = None
            if self.workers > 1 and len(ranges) > 1:
                from ..runtime.executor import PointTask, run_points

                outcomes = run_points(
                    _block_worker,
                    self._fit_in_range,
                    [
                        PointTask(index=i, value=r)
                        for i, r in enumerate(ranges)
                    ],
                    n_jobs=self.workers,
                )
                if all(o.ok for o in outcomes):
                    # outcomes come back in task order: ascending blocks
                    parts = [o.value for o in outcomes]
                else:
                    # a dead or unpicklable worker degrades to the
                    # serial path rather than failing the analysis
                    tr.count("csp.tiled.fanout_fallbacks")
            if parts is None:
                parts = [self._fit_in_range(lo, hi) for lo, hi in ranges]
        tr.count("csp.tiled.blocks", len(ranges))
        return np.concatenate(parts) if parts else np.zeros(0, np.int64)

    # -- whole-space views -------------------------------------------------

    @property
    def fit_indices(self) -> np.ndarray:
        """Masks of all fit states, ascending (streamed on first use)."""
        if self._fit_indices is None:
            self._fit_indices = self._materialize_fit()
        return self._fit_indices

    def fit_bitstrings(self) -> frozenset[BitString]:
        """The fit set C, identical to :meth:`CSP.fit_bitstrings`."""
        return frozenset(BitString(self.n, int(m)) for m in self.fit_indices)

    def quality_table(self) -> _LazyQualityView:
        """Lazily-indexed stand-in for the bit engine's quality table."""
        return self._quality_view

    def quality(self, masks) -> np.ndarray:
        """Vectorized :meth:`CSP.quality` for a batch of state masks."""
        return self._quality_of(np.asarray(masks, dtype=np.int64))

    def conflict_counts(self, masks) -> np.ndarray:
        """Vectorized :meth:`CSP.conflict_count` for a batch of masks."""
        return self._violations_of(np.asarray(masks, dtype=np.int64))

    # -- recoverability kernel ---------------------------------------------

    #: fit-set size below which distance queries use the direct
    #: XOR+popcount broadcast instead of the frontier walk: O(q · F)
    #: work with a tiny constant beats growing a Hamming ball that may
    #: need to cover most of the cube to reach a far query
    DIRECT_FIT_LIMIT = 1 << 16

    def min_distances_masks(self, masks) -> np.ndarray:
        """Min Hamming distance into the fit set for packed state masks.

        Two regimes, both exact.  A *sparse* fit set (≤
        :data:`DIRECT_FIT_LIMIT` states) answers each query directly —
        one chunked ``popcount(query ^ fit)`` broadcast, O(q · F).  A
        *dense* fit set walks an implicit BFS frontier outward from the
        fit states (sorted index arrays + chunked XOR expansion,
        stopping as soon as every query is settled) — dense fit sets
        reach everything within a few levels, so the settled set never
        approaches 2^n.  ``-1`` when the fit set is empty, matching
        :meth:`CompiledBitCSP.min_distances_masks`.
        """
        masks = np.asarray(masks, dtype=np.int64)
        fit = self.fit_indices
        if fit.size == 0 or masks.size == 0:
            return np.full(masks.shape, -1 if fit.size == 0 else 0, np.int64)
        queries, inverse = np.unique(masks.ravel(), return_inverse=True)
        if fit.size <= self.DIRECT_FIT_LIMIT:
            qdist = np.empty(queries.size, dtype=np.int64)
            step = max(1, self.block_size // fit.size)
            for s in range(0, queries.size, step):
                q = queries[s : s + step]
                qdist[s : s + step] = np.bitwise_count(
                    q[:, None] ^ fit
                ).min(axis=1)
        else:
            qdist = np.full(queries.size, -1, dtype=np.int64)
            qdist[_isin_sorted(queries, fit)] = 0
            settled = fit
            frontier = fit
            d = 0
            while frontier.size and (qdist < 0).any() and d < self.n:
                frontier = _xor_expand(
                    frontier, self.flip_masks, settled, chunk=self.block_size
                )
                if not frontier.size:
                    break
                d += 1
                settled = np.union1d(settled, frontier)
                newly = (qdist < 0) & _isin_sorted(queries, frontier)
                qdist[newly] = d
        return qdist[inverse].reshape(masks.shape)

    def min_distances(self, states: Sequence[BitString]) -> np.ndarray:
        """Drop-in for :meth:`PackedFitSet.min_distances` on the fit set."""
        states = list(states)
        if not len(self.fit_indices):
            return np.full(len(states), -1, dtype=np.int64)
        for s in states:
            if s.n != self.n:
                raise ConfigurationError(
                    f"state has {s.n} bits but fit set has {self.n}"
                )
        if not states:
            return np.zeros(0, dtype=np.int64)
        masks = np.fromiter(
            (s.mask for s in states), dtype=np.int64, count=len(states)
        )
        return self.min_distances_masks(masks)

    # -- state <-> assignment bridge: see PackedStateBridge ----------------

    def conflicted_variable_order(self, mask: int) -> list[int]:
        """Scope variables of violated constraints, sorted by name.

        Same contract as the bit engine's, evaluated for the one
        requested state instead of read from the (n_constraints, 2^n)
        satisfaction matrix.
        """
        one = np.asarray([mask], dtype=np.int64)
        violated = np.fromiter(
            (not bool(evaluate(one)[0]) for evaluate in self._evaluators),
            dtype=bool,
            count=len(self._evaluators),
        )
        if not violated.any():
            return []
        in_conflict = self.scope_mat[violated].any(axis=0)
        return [i for i in self.order_by_name if in_conflict[i]]


def compile_tiled(
    csp: CSP,
    max_bits: int = DEFAULT_MAX_BITS_TILED,
    block_bits: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
    workers: int = 1,
) -> TiledBitCSP:
    """Compile ``csp`` to tiled form, caching the result on the CSP.

    The cache (like :func:`~repro.csp.bitengine.compile_csp`'s) is safe
    because :class:`CSP` is immutable; it is keyed on the resolved
    scheduling parameters, so changing the block size or worker count
    recompiles rather than silently reusing the old schedule.
    """
    n = len(csp.variables)
    if n > max_bits:
        raise BitEngineUnsupported(
            f"{n}-variable CSP exceeds the tiled engine's "
            f"2^{max_bits}-state enumeration cap"
        )
    key = (block_bits, memory_budget_bytes, workers)
    cached = getattr(csp, "_tiled_compiled", None)
    if cached is not None and getattr(csp, "_tiled_key", None) == key:
        return cached
    compiled = TiledBitCSP(
        csp,
        max_bits=max_bits,
        block_bits=block_bits,
        memory_budget_bytes=memory_budget_bytes,
        workers=workers,
    )
    csp._tiled_compiled = compiled  # type: ignore[attr-defined]
    csp._tiled_key = key  # type: ignore[attr-defined]
    return compiled
