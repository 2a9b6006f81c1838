"""Generated-input differential tests across the CSP engine kinds.

The fixed cases in ``test_bitengine.py`` and ``test_tiledengine.py``
pin hand-picked problems; this harness draws boolean CSPs with
Hypothesis — cardinality, linear, table and predicate constraints over
scopes listed out of bit order, plus the edge shapes (no constraints,
unsatisfiable, every state fit) — and asserts the equivalence contract
on every one of them: the object oracle, the bit-matrix form and the
block-streamed form at block sizes 2, 8 and the whole cube give the
same fit sets, violation counts, quality floats, recovery distances
and recoverability reports, witnesses included.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.recoverability import (
    AdversarialBitDamage,
    BoundedComponentDamage,
    PackedFitSet,
    adaptation_bound,
    is_k_recoverable,
)
from repro.csp import (
    CardinalityConstraint,
    LinearConstraint,
    PredicateConstraint,
    TableConstraint,
    boolean_csp,
)
from repro.csp.bitengine import CompiledBitCSP
from repro.csp.bitstring import BitString
from repro.csp.engine import TiledCSPEngine
from repro.csp.tiledengine import TiledBitCSP

SHAPES = ("mixed", "mixed", "mixed", "empty", "unsat", "all_fit")
OPS = ("<=", ">=", "<", ">", "==", "!=")
#: decimal weights whose float sums round differently in different
#: orders, so an accumulation that reorders terms shows up
WEIGHTS = (0.1, 0.2, 0.7, -0.3, 1.0, 2.5, -1.5)
#: the tiled block sizes: one-bit blocks, a block that cuts scopes in
#: two, and one block holding the whole cube
BLOCK_BITS = (1, 3, None)


def _names(n):
    return [f"x{i}" for i in range(n)]


def _scope(draw, n, max_arity=4):
    """A scope of distinct variables, in drawn (not bit) order."""
    arity = draw(st.integers(1, min(n, max_arity)))
    return [f"x{i}" for i in draw(st.permutations(range(n)))[:arity]]


def _cardinality(draw, n):
    scope = _scope(draw, n, max_arity=n)
    lo = draw(st.integers(0, len(scope)))
    hi = draw(st.integers(lo, len(scope)))
    # True == 1 and False == 0; 2 is never a boolean value
    value = draw(st.sampled_from((0, 1, True, False, 2)))
    return CardinalityConstraint(scope, value=value, lo=lo, hi=hi)


def _linear(draw, n):
    scope = _scope(draw, n)
    weights = [
        draw(st.sampled_from(WEIGHTS) | st.floats(-4, 4, allow_nan=False))
        for _ in scope
    ]
    # a bound at a partial sum of the weights hits the comparators'
    # equality edge, where float rounding decides the outcome
    subset = draw(st.lists(st.booleans(), min_size=len(scope),
                           max_size=len(scope)))
    partial = sum(w for w, keep in zip(weights, subset) if keep)
    bound = draw(st.sampled_from((partial, 0.0)) | st.floats(-4, 4))
    return LinearConstraint(scope, weights, draw(st.sampled_from(OPS)),
                            bound)


def _table(draw, n):
    scope = _scope(draw, n)
    m = len(scope)
    rows = draw(st.sets(st.integers(0, (1 << m) - 1), max_size=1 << m))
    allowed = [tuple((r >> j) & 1 for j in range(m)) for r in rows]
    if draw(st.booleans()):
        # a row with a non-boolean value never matches a bit state
        allowed.append((2,) + (0,) * (m - 1))
    return TableConstraint(scope, allowed)


def _predicate(draw, n):
    scope = _scope(draw, n)
    m = len(scope)
    truth = draw(st.lists(st.booleans(), min_size=1 << m,
                          max_size=1 << m))

    def pred(*values):
        return truth[sum(int(v) << j for j, v in enumerate(values))]

    return PredicateConstraint(scope, pred, name="truth_table")


KINDS = (_cardinality, _linear, _table, _predicate)


@st.composite
def csps(draw, max_n=12, n=None):
    n = draw(st.integers(1, max_n)) if n is None else n
    shape = draw(st.sampled_from(SHAPES))
    if shape == "empty":
        return boolean_csp(n, [])
    names = _names(n)
    if shape == "all_fit":
        return boolean_csp(n, [
            CardinalityConstraint(names, value=1, lo=0),
            LinearConstraint(names[:1], (1.0,), "<=", 1.0),
            TableConstraint(names[:1], [(0,), (1,)]),
        ])
    constraints = [
        draw(st.sampled_from(KINDS))(draw, n)
        for _ in range(draw(st.integers(1, 5)))
    ]
    if shape == "unsat":
        constraints.append(TableConstraint(_scope(draw, n), []))
    return boolean_csp(n, constraints)


def _tiled_forms(csp):
    n = len(csp.variables)
    return [TiledBitCSP(csp, block_bits=b or n) for b in BLOCK_BITS]


def _engines(n):
    return ["object", "bit"] + [
        TiledCSPEngine(block_bits=b or n) for b in BLOCK_BITS
    ]


def _object_tables(csp):
    """Per-state violation counts and quality from the object oracle."""
    n = len(csp.variables)
    counts, quality = [], []
    for m in range(1 << n):
        a = csp.assignment_from_bits(BitString(n, m))
        counts.append(csp.conflict_count(a))
        quality.append(csp.quality(a))
    return np.array(counts, np.int32), np.array(quality, np.float64)


@settings(max_examples=60, deadline=None)
@given(csp=csps(), data=st.data())
def test_fit_sets_violations_and_quality_agree(csp, data):
    n = len(csp.variables)
    masks = np.arange(1 << n, dtype=np.int64)
    counts, quality = _object_tables(csp)
    fit = csp.fit_bitstrings()
    bit = CompiledBitCSP(csp)
    assert bit.fit_bitstrings() == fit
    assert bit.violations.tobytes() == counts.tobytes()
    assert bit.quality_table().tobytes() == quality.tobytes()
    probes = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    for tiled in _tiled_forms(csp):
        assert np.array_equal(tiled.fit_indices, bit.fit_indices)
        assert tiled.fit_bitstrings() == fit
        assert tiled.violations[masks].tobytes() == counts.tobytes()
        assert tiled.conflict_counts(masks).tobytes() == counts.tobytes()
        assert tiled.quality_table()[masks].tobytes() == quality.tobytes()
        assert tiled.quality(masks).tobytes() == quality.tobytes()
        for m in probes:
            assert tiled.conflicted_variable_order(m) == \
                bit.conflicted_variable_order(m)
    for m in probes:
        violated = csp.violated_constraints(
            csp.assignment_from_bits(BitString(n, m))
        )
        names = sorted({v for c in violated for v in c.scope})
        assert [bit.names[i] for i in bit.conflicted_variable_order(m)] \
            == names


def _object_distances(csp, states):
    packed = PackedFitSet(csp.fit_bitstrings())
    # chunked so the (queries, fit) word matrix stays small at n = 12
    return np.concatenate([
        packed.min_distances(states[s:s + 256])
        for s in range(0, len(states), 256)
    ])


@settings(max_examples=60, deadline=None)
@given(csp=csps())
def test_min_distances_agree(csp):
    n = len(csp.variables)
    masks = np.arange(1 << n, dtype=np.int64)
    states = [BitString(n, int(m)) for m in masks]
    ref = _object_distances(csp, states)
    bit = CompiledBitCSP(csp)
    assert np.array_equal(bit.min_distances(states), ref)
    assert np.array_equal(bit.min_distances_masks(masks), ref)
    for tiled in _tiled_forms(csp):
        assert np.array_equal(tiled.min_distances(states), ref)
        # both query regimes: the direct popcount broadcast and the
        # implicit BFS frontier walk
        tiled.DIRECT_FIT_LIMIT = -1
        assert np.array_equal(tiled.min_distances_masks(masks), ref)


@st.composite
def damages(draw):
    if draw(st.booleans()):
        return BoundedComponentDamage(draw(st.integers(0, 2)))
    return AdversarialBitDamage(draw(st.integers(0, 2)))


@settings(max_examples=50, deadline=None)
@given(csp=csps(max_n=9), data=st.data(), damage=damages(),
       k=st.integers(0, 3), flips=st.integers(1, 2))
def test_recoverability_reports_agree(csp, data, damage, k, flips):
    n = len(csp.variables)
    post = data.draw(st.none() | csps(n=n))
    reports = [
        is_k_recoverable(csp, damage, k, post_event_csp=post,
                         flips_per_step=flips, engine=kind)
        for kind in _engines(n)
    ]
    for got in reports[1:]:
        assert got == reports[0]
    if post is not None:
        bounds = [
            adaptation_bound(csp, post, flips_per_step=flips, engine=kind)
            for kind in _engines(n)
        ]
        assert len(set(bounds)) == 1
