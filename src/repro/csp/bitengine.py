"""Compiled bit-matrix form of a boolean CSP (the array CSP engine).

The paper's formal model (§4.2, Fig. 4) puts the whole resilience
machinery on one substrate: a system status is a length-``n`` bit
string, the environment is a constraint set C, and resilience questions
(k-recoverability, K-maintainability, Q(t)) are all functions of the fit
set C ⊆ {0,1}^n.  The object engine answers them by enumerating
``dict``-per-assignment states and re-dispatching every constraint per
query.  This module compiles a boolean :class:`~repro.csp.problem.CSP`
*once* into array form:

* the full state space as the packed-integer range ``0 .. 2^n - 1``
  (state ``m`` has bit ``i`` set iff variable ``i`` is 1);
* each constraint lowered once (:class:`LoweredConstraint`) —
  cardinality constraints via one popcount over a scope mask, linear
  constraints via ordered float accumulation (matching Python's
  left-to-right ``sum`` bit-for-bit), table/predicate constraints via a
  precomputed support array over the scope's 2^m subcube.  Over an
  aligned block of the state space (the whole cube here, one streamed
  block in the tiled engine) the support is broadcast across the
  block's bit axes with no per-state index; lookups at arbitrary masks
  gather from it;
* a ``(n_constraints, 2^n)`` satisfaction matrix, per-state violation
  counts, the fit mask and fit indices, and a vectorized ``quality()``.

On top of the compiled form live the resilience kernels: a separable
min-plus distance transform over the hypercube, one byte-wide pass per
bit (:func:`hamming_distances` — distance to the nearest fit state,
exactly :meth:`BitSpace.recovery_distance` for every state at once),
the Baral–Eiter repair-level map for the spacecraft encoding
(:func:`add_bit_levels`), and the debris damage envelope
(:func:`clear_bit_ball`).

Memory envelope: everything is Θ(2^n · n_constraints), so compilation
is gated at ``max_bits`` (default 20, ~1M states) and raises
:class:`BitEngineUnsupported` beyond it — callers fall back to the
tiled engine (:mod:`repro.csp.tiledengine`, which streams the same
lowered kernels over fixed-size blocks instead of materializing 2^n
rows) or the object engine (see :mod:`repro.csp.engine`).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..runtime import trace
from .bitstring import BitString
from .constraints import (
    CardinalityConstraint,
    Constraint,
    LinearConstraint,
    TableConstraint,
    _COMPARATORS,
)
from .problem import CSP

__all__ = [
    "DEFAULT_MAX_BITS",
    "BitEngineUnsupported",
    "CompiledBitCSP",
    "PackedStateBridge",
    "compile_csp",
    "estimate_compile_bytes",
    "measured_compile_bytes",
    "lower_constraint",
    "lower_csp",
    "hamming_distances",
    "add_bit_levels",
    "clear_bit_ball",
]

#: Largest variable count the compiler accepts: the compiled form is
#: Θ(2^n · n_constraints) memory, so 20 bits ≈ 1M states keeps a
#: handful of constraints within a few tens of MB.
DEFAULT_MAX_BITS = 20

_NP_COMPARATORS = {
    "<=": np.less_equal,
    ">=": np.greater_equal,
    "<": np.less,
    ">": np.greater,
    "==": np.equal,
    "!=": np.not_equal,
}
assert set(_NP_COMPARATORS) == set(_COMPARATORS)


class BitEngineUnsupported(ConfigurationError):
    """The CSP cannot be compiled to bit-matrix form.

    Raised for non-boolean variables and for state spaces beyond the
    2^``max_bits`` memory envelope.  The engine seam catches this and
    falls back to the object engine.
    """


def _subcube_index(scope_idx: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Index of each state within the scope's 2^m subcube."""
    sub = np.zeros(states.shape, dtype=np.int64)
    for j, i in enumerate(scope_idx):
        sub |= ((states >> np.int64(i)) & 1) << np.int64(j)
    return sub


def _bit_domain_bridge(csp: CSP) -> list[tuple]:
    """Per variable, the actual domain objects whose ``int()`` is 0 and 1.

    0/1 may be stored as bools (or other int-like objects) in the
    domain; predicates must see the originals, not raw bits.
    """
    out: list[tuple] = []
    for v in csp.variables:
        zero = next(x for x in v.domain if int(x) == 0)
        one = next(x for x in v.domain if int(x) == 1)
        out.append((zero, one))
    return out


class LoweredConstraint:
    """One constraint lowered once into array kernels over packed states.

    Calling it maps any array of packed state masks (any shape) to the
    constraint's satisfaction over those states — the lookup used at
    arbitrary masks (lazy views, repair neighbourhoods).
    :meth:`block` gives the satisfaction row of one aligned block of
    the state space — the form both whole-space enumerations use:
    :class:`CompiledBitCSP` (one block, the whole cube) and the tiled
    engine (:mod:`repro.csp.tiledengine`, one call per streamed block).
    """

    def __init__(self, evaluate):
        self._evaluate = evaluate

    def __call__(self, states: np.ndarray) -> np.ndarray:
        return self._evaluate(states)

    def block(self, lo: int, bits: int, states: np.ndarray) -> np.ndarray:
        """Satisfaction of the aligned block ``[lo, lo + 2**bits)``.

        ``lo`` is a multiple of ``2**bits`` and ``states`` is
        ``np.arange(lo, lo + 2**bits)``, which the mask kernels read.
        """
        return self._evaluate(states)


#: numpy's inner loops run along contiguous states; below runs of
#: 2^_ROW_BITS states their per-call overhead dominates, so the
#: whole-cube kernels move the lowest _ROW_BITS bits out of the way
#: (rows in the block broadcast, a transposed pass in the distance
#: transform)
_ROW_BITS = 8


def _run_axes(bits_desc, in_scope: set) -> tuple[list[int], list[int]]:
    """Axes of a block over the given bits (highest first) for a broadcast.

    Each scope bit is its own size-2 axis; each run of non-scope bits
    is merged into one axis.  Returns ``(shape, source_shape)``: the
    source has size 1 on the merged axes, which broadcast.
    """
    shape: list[int] = []
    source: list[int] = []
    run = 0
    for bit in bits_desc:
        if bit not in in_scope:
            run += 1
            continue
        if run:
            shape.append(1 << run)
            source.append(1)
            run = 0
        shape.append(2)
        source.append(2)
    if run:
        shape.append(1 << run)
        source.append(1)
    return shape, source


class _SupportConstraint(LoweredConstraint):
    """A constraint lowered to its support over the scope's 2^m subcube.

    Lookups gather ``support[subcube index]``; an aligned block needs no
    per-state index at all.  Scope bits at positions ≥ ``bits`` are the
    same for every state of the block, so they fix their subcube axes
    to the bits of ``lo``; the remaining support is broadcast over the
    block's bit axes, with each run of non-scope bits merged into one
    axis.  When a scope bit sits among the lowest :data:`_ROW_BITS`
    bits, those bits are laid out first, as one row per setting of the
    higher free scope bits, and the rows are then broadcast over the
    rest of the block in one pass.
    """

    def __init__(self, support: np.ndarray, scope_idx: np.ndarray):
        self.support = support
        self.scope_idx = [int(i) for i in scope_idx]

    def __call__(self, states: np.ndarray) -> np.ndarray:
        return self.support[_subcube_index(self.scope_idx, states)]

    def block(self, lo: int, bits: int, states: np.ndarray) -> np.ndarray:
        m = len(self.scope_idx)
        # axis a of the reshaped support is subcube bit m - 1 - a, i.e.
        # the state bit scope_idx[m - 1 - a]
        axis_bits = self.scope_idx[::-1]
        cube = self.support.reshape((2,) * m)[tuple(
            (lo >> i) & 1 if i >= bits else slice(None) for i in axis_bits
        )]
        free = [i for i in axis_bits if i < bits]
        # order the free axes like the block's: highest state bit first
        cube = cube.transpose(
            sorted(range(len(free)), key=lambda a: -free[a])
        )
        free.sort(reverse=True)
        # rows are needed only when a scope bit sits below _ROW_BITS;
        # otherwise the broadcast already copies runs of ≥ 2^_ROW_BITS
        low = min(bits, _ROW_BITS) if free and free[-1] < _ROW_BITS else 0
        lead = [2] * sum(i >= low for i in free)
        shape, source = _run_axes(range(low - 1, -1, -1), set(free))
        rows = np.empty(lead + shape, dtype=bool)
        rows[...] = cube.reshape(lead + source)
        shape, source = _run_axes(range(bits - 1, low - 1, -1), set(free))
        out = np.empty(shape + [1 << low], dtype=bool)
        out[...] = rows.reshape(source + [1 << low])
        return out.reshape(-1)


def lower_constraint(
    c: Constraint, scope_idx: np.ndarray, val_for_bit: Sequence[tuple]
) -> LoweredConstraint:
    """Pre-lower one constraint into a reusable :class:`LoweredConstraint`.

    All compile-time work — scope masks, table/predicate support over
    the scope's 2^m subcube — happens once here, so the kernels can be
    applied to any state batch or aligned block without re-lowering.
    """
    if type(c) is CardinalityConstraint:
        # cardinality constraint → one popcount over the scope mask
        scope_mask = np.int64(0)
        for i in scope_idx:
            scope_mask |= np.int64(1) << np.int64(i)
        m, lo, hi, value = len(scope_idx), c.lo, c.hi, c.value

        def evaluate(states: np.ndarray) -> np.ndarray:
            ones = np.bitwise_count(states & scope_mask).astype(np.int64)
            if value == 1:  # covers True as well (True == 1)
                count = ones
            elif value == 0:
                count = m - ones
            else:  # no boolean value ever equals the required value
                count = np.zeros_like(ones)
            return (lo <= count) & (count <= hi)

        return LoweredConstraint(evaluate)

    if type(c) is LinearConstraint:
        # linear constraint → ordered float accumulation + comparator;
        # terms accumulate left-to-right exactly like the object
        # engine's ``sum(w * float(x) for ...)`` so float results are
        # bit-identical
        weights = tuple(c.weights)
        idx = tuple(int(i) for i in scope_idx)
        op, bound = _NP_COMPARATORS[c.op], c.bound

        def evaluate(states: np.ndarray) -> np.ndarray:
            total = np.zeros(states.shape, dtype=np.float64)
            for w, i in zip(weights, idx):
                bit = ((states >> np.int64(i)) & 1).astype(np.float64)
                total = total + w * bit
            return op(total, bound)

        return LoweredConstraint(evaluate)

    if type(c) is TableConstraint:
        # table constraint → support array over the scope subcube
        m = len(scope_idx)
        support = np.zeros(1 << m, dtype=bool)
        for row in c.allowed:
            # rows mentioning non-boolean values never match a bit state
            if all(v == 0 or v == 1 for v in row):
                sub = 0
                for j, v in enumerate(row):
                    sub |= int(v) << j
                support[sub] = True
    else:
        # any constraint → evaluate ``satisfied`` once per scope
        # subcube cell: 2^m predicate calls at lowering time (m = scope
        # arity)
        m = len(scope_idx)
        support = np.empty(1 << m, dtype=bool)
        scope_vals = [val_for_bit[i] for i in scope_idx]
        assignment: Dict[str, object] = {}
        for sub in range(1 << m):
            for j, name in enumerate(c.scope):
                assignment[name] = scope_vals[j][(sub >> j) & 1]
            support[sub] = bool(c.satisfied(assignment))
    return _SupportConstraint(support, scope_idx)


def lower_csp(csp: CSP):
    """Lower every constraint of a boolean CSP once.

    Returns ``(evaluators, scope_mat, val_for_bit)``: one
    :class:`LoweredConstraint` per constraint, the
    ``(n_constraints, n)`` scope-membership matrix, and the bit→domain
    value bridge.  Raises :class:`BitEngineUnsupported` for non-boolean
    variables.  Shared by the full-space and tiled compiled forms.
    """
    for v in csp.variables:
        if not v.is_boolean:
            raise BitEngineUnsupported(
                f"variable {v.name!r} is not boolean; "
                "the bit engine only compiles boolean CSPs"
            )
    val_for_bit = _bit_domain_bridge(csp)
    names = csp.names
    var_index = {name: i for i, name in enumerate(names)}
    n, n_c = len(names), len(csp.constraints)
    scope_mat = np.zeros((n_c, n), dtype=bool)
    evaluators = []
    for ci, c in enumerate(csp.constraints):
        scope_idx = np.array(
            [var_index[name] for name in c.scope], dtype=np.int64
        )
        scope_mat[ci, scope_idx] = True
        evaluators.append(lower_constraint(c, scope_idx, val_for_bit))
    return evaluators, scope_mat, val_for_bit


class PackedStateBridge:
    """State ↔ assignment conversions shared by the compiled CSP forms.

    Implementors provide ``names`` and ``_val_for_bit``; state ``m``
    (an integer mask) assigns variable ``i`` the domain value whose
    ``int()`` is bit ``i`` of ``m`` — the convention of
    :meth:`CSP.bits_from_assignment`.
    """

    names: tuple
    _val_for_bit: list

    def assignment_of(self, mask: int) -> Dict[str, object]:
        """The assignment dict for state ``mask`` (original domain values)."""
        return {
            name: self._val_for_bit[i][(mask >> i) & 1]
            for i, name in enumerate(self.names)
        }

    def mask_of(self, assignment) -> int:
        """Pack a complete assignment into a state mask."""
        mask = 0
        for i, name in enumerate(self.names):
            if name not in assignment:
                raise ConfigurationError(
                    f"assignment misses variable {name!r}"
                )
            if int(assignment[name]) == 1:
                mask |= 1 << i
        return mask


class CompiledBitCSP(PackedStateBridge):
    """A boolean CSP compiled once into array form over all 2^n states.

    State ``m`` (an integer mask) assigns variable ``i`` the domain
    value whose ``int()`` is bit ``i`` of ``m`` — the same convention as
    :meth:`CSP.bits_from_assignment`.  All arrays are indexed by mask.
    """

    #: engine kind whose dispatch sites this compiled form serves —
    #: used to label ``csp.*`` timers/counters at the dispatch sites
    engine_label = "bit"

    def __init__(self, csp: CSP, max_bits: int = DEFAULT_MAX_BITS):
        n = len(csp.variables)
        if n > max_bits:
            raise BitEngineUnsupported(
                f"{n}-variable CSP exceeds the bit engine's "
                f"2^{max_bits}-state memory envelope"
            )
        evaluators, scope_mat, val_for_bit = lower_csp(csp)
        self.csp = csp
        self.n = n
        self.size = 1 << n
        self.names: tuple[str, ...] = csp.names
        #: every state as a packed-integer mask, 0 .. 2^n - 1
        self.states: np.ndarray = np.arange(self.size, dtype=np.int64)
        #: single-bit flip masks, ``flip_masks[i] = 1 << i``
        self.flip_masks: np.ndarray = (
            np.int64(1) << np.arange(n, dtype=np.int64)
        )
        self._val_for_bit: list[tuple] = val_for_bit
        #: variable indices in lexicographic-name order (conflicted-set
        #: ordering of the object repair loops)
        self.order_by_name: tuple[int, ...] = tuple(
            sorted(range(n), key=lambda i: self.names[i])
        )

        n_c = len(csp.constraints)
        #: (n_constraints, 2^n) satisfaction matrix
        self.sat: np.ndarray = np.empty((n_c, self.size), dtype=bool)
        #: (n_constraints, n) scope membership matrix
        self.scope_mat: np.ndarray = scope_mat
        satisfied = np.zeros(self.size, dtype=np.min_scalar_type(n_c))
        for ci, evaluate in enumerate(evaluators):
            # the whole cube is one aligned block
            self.sat[ci] = evaluate.block(0, n, self.states)
            satisfied += self.sat[ci].view(np.uint8)
        #: violated-constraint count per state (the object engine's
        #: ``conflict_count`` for every state at once)
        self.violations: np.ndarray = np.subtract(
            n_c, satisfied, dtype=np.int32
        )
        #: fit mask: state satisfies every constraint
        self.fit_mask: np.ndarray = self.violations == 0
        #: masks of all fit states, ascending
        self.fit_indices: np.ndarray = np.flatnonzero(self.fit_mask)
        self._quality: Optional[np.ndarray] = None
        self._dist_to_fit: Optional[np.ndarray] = None
        trace.current().count("csp.compiles")

    # -- whole-space views ------------------------------------------------

    def fit_bitstrings(self) -> frozenset[BitString]:
        """The fit set C, identical to :meth:`CSP.fit_bitstrings`."""
        return frozenset(
            BitString(self.n, int(m)) for m in self.fit_indices
        )

    def quality_table(self) -> np.ndarray:
        """Q for every state: percentage of satisfied constraints.

        Float operations replicate the object engine's
        ``100.0 * satisfied / n_constraints`` exactly.
        """
        if self._quality is None:
            n_c = len(self.csp.constraints)
            if n_c == 0:
                self._quality = np.full(self.size, 100.0)
            else:
                satisfied = (n_c - self.violations).astype(np.int64)
                self._quality = 100.0 * satisfied / n_c
        return self._quality

    def quality(self, masks) -> np.ndarray:
        """Vectorized :meth:`CSP.quality` for a batch of state masks."""
        return self.quality_table()[np.asarray(masks, dtype=np.int64)]

    def conflict_counts(self, masks) -> np.ndarray:
        """Vectorized :meth:`CSP.conflict_count` for a batch of masks."""
        return self.violations[np.asarray(masks, dtype=np.int64)]

    # -- recoverability kernel -------------------------------------------

    def distances_to_fit(self) -> np.ndarray:
        """Hamming distance from every state to the nearest fit state.

        ``-1`` everywhere when the fit set is empty.  Computed once by
        the separable distance transform (:func:`hamming_distances`)
        and cached.
        """
        if self._dist_to_fit is None:
            self._dist_to_fit = hamming_distances(self.fit_mask, self.n)
        return self._dist_to_fit

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
        return self.distances_to_fit()[masks].astype(np.int64)

    def min_distances_masks(self, masks) -> np.ndarray:
        """Min Hamming distance into the fit set for packed state masks.

        Array-indexed flavour of :meth:`min_distances` (``-1`` when the
        fit set is empty); the tiled engine implements the same method
        with an implicit-frontier BFS, so callers like
        :func:`repro.core.recoverability.adaptation_bound` are
        engine-independent.
        """
        masks = np.asarray(masks, dtype=np.int64)
        return self.distances_to_fit()[masks].astype(np.int64)

    # -- state <-> assignment bridge: see PackedStateBridge ---------------

    def conflicted_variable_order(self, mask: int) -> list[int]:
        """Scope variables of violated constraints, sorted by name.

        Mirrors the object repair loops' ``sorted({v for c in violated
        for v in c.scope})`` (lexicographic on *names*, so e.g. ``x10``
        sorts before ``x2``) but returns variable indices.
        """
        violated = ~self.sat[:, mask]
        if not violated.any():
            return []
        in_conflict = self.scope_mat[violated].any(axis=0)
        return [i for i in self.order_by_name if in_conflict[i]]


def compile_csp(csp: CSP, max_bits: int = DEFAULT_MAX_BITS) -> CompiledBitCSP:
    """Compile ``csp`` to bit-matrix form, caching the result on the CSP.

    The cache is safe because :class:`CSP` is immutable after
    construction (variables and constraints are tuples).  Raises
    :class:`BitEngineUnsupported` for non-boolean CSPs and for
    ``n > max_bits`` regardless of any cached compilation.
    """
    n = len(csp.variables)
    if n > max_bits:
        raise BitEngineUnsupported(
            f"{n}-variable CSP exceeds the bit engine's "
            f"2^{max_bits}-state memory envelope"
        )
    cached = getattr(csp, "_bit_compiled", None)
    if cached is not None:
        return cached
    compiled = CompiledBitCSP(csp, max_bits=max_bits)
    csp._bit_compiled = compiled  # type: ignore[attr-defined]
    return compiled


#: persistent per-state bytes of the compiled form, itemized: packed
#: int64 state mask (8) + int32 violation count (4) + lazily
#: materialized float64 quality row (8) + bool fit mask (1)
STATE_BYTES = 8 + 4 + 8 + 1
#: transient per-state scratch during constraint lowering: the int64
#: temporary of the popcount/shift kernels (8) plus the float64
#: accumulation buffer of the linear kernel (8); the int64 fit-index
#: array (≤ 8 per state) is built after that scratch is released
LOWERING_SCRATCH_BYTES = 8 + 8
#: per-state bytes of one constraint's satisfaction row (bool)
SAT_ROW_BYTES = 1


def estimate_compile_bytes(csp: CSP) -> Optional[int]:
    """Upper-bound the compiled footprint of ``csp`` without allocating.

    Itemized per state: :data:`STATE_BYTES` for the persistent packed
    arrays, :data:`LOWERING_SCRATCH_BYTES` of transient scratch while a
    constraint is being lowered, and one :data:`SAT_ROW_BYTES`
    satisfaction cell **per constraint** — the sat matrix dominates for
    constraint-heavy problems, so a budget check that only counted the
    packed state vector would under-estimate by a factor of
    ``n_constraints``.  Everything is Python ints, so the estimate
    itself never overflows or allocates.  Pinned against the measured
    ``nbytes`` of real compiles (:func:`measured_compile_bytes`) by the
    bit-engine test suite.  Returns ``None`` for CSPs the bit engine
    cannot compile at all (non-boolean variables), where a memory
    budget is moot because compilation already falls back.
    """
    if any(not v.is_boolean for v in csp.variables):
        return None
    n = len(csp.variables)
    per_state = (
        STATE_BYTES
        + LOWERING_SCRATCH_BYTES
        + SAT_ROW_BYTES * len(csp.constraints)
    )
    return (1 << n) * per_state


def measured_compile_bytes(compiled: CompiledBitCSP) -> int:
    """Actual ``nbytes`` held by a compiled form's persistent arrays.

    Sums the packed states, the per-constraint sat matrix, violation
    counts, fit mask, and the (force-materialized) quality table — the
    ground truth :func:`estimate_compile_bytes` must upper-bound.
    """
    return int(
        compiled.states.nbytes
        + compiled.sat.nbytes
        + compiled.violations.nbytes
        + compiled.fit_mask.nbytes
        + compiled.quality_table().nbytes
    )


# -- hypercube kernels -----------------------------------------------------


def _flip_masks(n: int) -> np.ndarray:
    return np.int64(1) << np.arange(n, dtype=np.int64)


def _relax_bits(dist: np.ndarray, bits, scratch: np.ndarray) -> None:
    """One min-plus pass per flat bit ``i`` of the int8 array ``dist``."""
    for i in bits:
        # axis 1 splits each run of 2^(i+1) entries by bit i
        pairs = dist.reshape(-1, 2, 1 << i)
        low, high = pairs[:, 0], pairs[:, 1]
        tmp = scratch.reshape(low.shape)
        np.add(high, 1, out=tmp)
        np.minimum(low, tmp, out=low)
        np.add(low, 1, out=tmp)
        np.minimum(high, tmp, out=high)


def hamming_distances(fit_mask: np.ndarray, n: int) -> np.ndarray:
    """Distance from every state to the nearest fit state.

    Hamming distance is a sum over bits, so the min-plus distance
    transform separates: starting from 0 on fit states and ``n + 1``
    ("unreached") elsewhere, one relaxation pass per bit ``i`` — each
    state against its partner across bit ``i``, plus one — leaves the
    exact minimum Hamming distance to the fit set, which is
    :meth:`BitSpace.recovery_distance` for all 2^n states.  That is
    ``n`` byte-wide passes over the cube with no hashing or index
    arrays; the passes for the lowest :data:`_ROW_BITS` bits run on a
    transposed copy, where those bits index the outer axis.
    Unreachable (empty fit set) → ``-1``.
    """
    size = 1 << n
    if fit_mask.shape != (size,):
        raise ConfigurationError(
            f"fit mask must have shape ({size},), got {fit_mask.shape}"
        )
    unreached = n + 1
    dist = np.where(fit_mask, 0, unreached).astype(np.int8)
    scratch = np.empty(size >> 1, dtype=np.int8)
    low = min(n, _ROW_BITS)
    # transposed, state bit i < low sits at flat bit i + n - low
    flipped = dist.reshape(-1, 1 << low).T.copy()
    _relax_bits(flipped.reshape(-1), range(n - low, n), scratch)
    dist = flipped.T.reshape(-1)
    _relax_bits(dist, range(low, n), scratch)
    out = dist.astype(np.int32)
    out[dist == unreached] = -1
    return out


def add_bit_levels(
    goal_mask: np.ndarray, n: int, max_level: Optional[int] = None
) -> np.ndarray:
    """Baral–Eiter recovery levels for the deterministic repair encoding.

    Agent actions are ``repair_i``: set a failed bit to 1 (applicable
    iff bit ``i`` is 0), each with a single deterministic outcome —
    the spacecraft encoding of :meth:`Spacecraft.to_transition_system`.
    ``levels[s]`` is then the minimum number of repair steps from ``s``
    into the goal set, found by reverse BFS from the goals along
    "clear one set bit" predecessor edges (the predecessors of ``t``
    are exactly the states ``t ^ bit`` with ``bit`` set in ``t``).
    ``max_level`` truncates the fixpoint like
    :func:`repro.planning.kmaintain.compute_levels`; unleveled → ``-1``.
    """
    size = 1 << n
    if goal_mask.shape != (size,):
        raise ConfigurationError(
            f"goal mask must have shape ({size},), got {goal_mask.shape}"
        )
    max_level = n if max_level is None else min(max_level, n)
    levels = np.full(size, -1, dtype=np.int32)
    frontier = np.nonzero(goal_mask)[0].astype(np.int64)
    levels[frontier] = 0
    bits = _flip_masks(n)
    d = 0
    while frontier.size and d < max_level:
        cand = (frontier[:, None] ^ bits)
        # keep only "clear a set bit" edges: the XOR removed a bit
        cand = cand[cand < frontier[:, None]].ravel()
        cand = cand[levels[cand] < 0]
        if not cand.size:
            break
        cand = np.unique(cand)
        d += 1
        levels[cand] = d
        frontier = cand
    return levels


def clear_bit_ball(
    seed_mask: np.ndarray, n: int, radius: int
) -> np.ndarray:
    """All states reachable from the seeds by clearing ≤ ``radius`` bits.

    The debris damage envelope: BFS along "clear one set bit" edges,
    truncated at depth ``radius``.  Returns a boolean membership mask
    (seeds included, radius 0 → the seeds themselves).
    """
    size = 1 << n
    if seed_mask.shape != (size,):
        raise ConfigurationError(
            f"seed mask must have shape ({size},), got {seed_mask.shape}"
        )
    if radius < 0:
        raise ConfigurationError(f"radius must be >= 0, got {radius}")
    member = seed_mask.copy()
    frontier = np.nonzero(seed_mask)[0].astype(np.int64)
    bits = _flip_masks(n)
    for _ in range(min(radius, n)):
        if not frontier.size:
            break
        cand = frontier[:, None] ^ bits
        cand = cand[cand < frontier[:, None]].ravel()
        cand = cand[~member[cand]]
        if not cand.size:
            break
        cand = np.unique(cand)
        member[cand] = True
        frontier = cand
    return member
