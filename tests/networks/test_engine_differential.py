"""Generated-input differential tests across the network engine kinds.

The fixed cases in ``test_arraygraph.py`` and ``test_mmapgraph.py`` pin
hand-picked graphs; this harness draws graphs with Hypothesis — int,
shuffled-int, str and tuple labels; Erdős–Rényi, hub-heavy star,
disconnected and edgeless shapes — and asserts the equivalence
contract on every one of them:

* deterministic kernels (percolation curves under targeted and random
  attacks, load cascades, healing traces) are identical across
  ``object``, ``array`` and ``mmap``;
* stochastic kernels (SIS, SIR, spread cascades) draw identically on
  the in-RAM and memory-mapped CSR at every block size, including
  one-slot blocks and one block holding the whole graph.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.networks import (
    AdaptiveDegreeAttack,
    Graph,
    LoadCascadeModel,
    NetworkRecoverySimulator,
    ProbabilisticCascadeModel,
    RandomFailure,
    SIRModel,
    SISModel,
    TargetedDegreeAttack,
    as_arraygraph,
    percolation_curve,
)
from repro.networks.engine import CSRNetworkEngine

KINDS = ("object", "array", "mmap")
SHAPES = ("er", "star", "disconnected", "edgeless")
LABELLINGS = ("int", "shuffled", "str", "tuple")


def _label(labelling, i, perm):
    if labelling == "int":
        return i
    if labelling == "shuffled":
        return int(perm[i])
    if labelling == "str":
        return f"n{i}"
    return (i % 3, i)


def _edges(shape, n, rng):
    if shape == "edgeless":
        return []
    if shape == "star":
        # one or two hubs wired to everything, plus a sprinkle of leaves
        hubs = range(min(n, int(rng.integers(1, 3))))
        pairs = {(h, v) for h in hubs for v in range(h + 1, n)}
        pairs |= {
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.05
        }
        return sorted(pairs)
    if shape == "disconnected":
        # two or three ER blocks with no edge between them
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(
            n - 1, int(rng.integers(1, 3))), replace=False))
        groups = np.split(np.arange(n), cuts)
        return [
            (int(u), int(v)) for grp in groups
            for a, u in enumerate(grp) for v in grp[a + 1:]
            if rng.random() < 0.5
        ]
    p = rng.uniform(0.05, 0.5)
    return [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if rng.random() < p
    ]


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 24))
    shape = draw(st.sampled_from(SHAPES))
    labelling = draw(st.sampled_from(LABELLINGS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # shuffled ints: labels are a permutation of 0..n-1 but node order
    # is not label order, so the mmap spill keeps a label table
    perm = rng.permutation(n)
    labels = [_label(labelling, i, perm) for i in range(n)]
    g = Graph(nodes=labels)
    g.add_edges_from(
        (labels[u], labels[v]) for u, v in _edges(shape, n, rng)
    )
    return g


def _seeds(draw, g, max_seeds=3):
    nodes = list(g.nodes())
    k = draw(st.integers(1, min(max_seeds, len(nodes))))
    return draw(st.permutations(nodes))[:k]


def _block_sizes(g):
    # one slot, a prime that straddles rows, and the whole graph at once
    return (1, 7, max(1, 2 * g.n_edges))


@settings(max_examples=60, deadline=None)
@given(g=graphs(), seed=st.integers(0, 2**16))
def test_percolation_curves_agree(g, seed):
    for attack in (TargetedDegreeAttack(), RandomFailure()):
        curves = [
            percolation_curve(g, attack, seed=seed, engine=kind)
            for kind in KINDS
        ]
        ref = curves[0]
        for got in curves[1:]:
            assert np.array_equal(ref.giant_fraction, got.giant_fraction)
            assert np.array_equal(ref.removed_fraction, got.removed_fraction)


@settings(max_examples=60, deadline=None)
@given(g=graphs(), data=st.data(),
       tolerance=st.sampled_from((0.0, 0.2, 0.5, 1.0)))
def test_load_cascades_agree(g, data, tolerance):
    seeds = _seeds(data.draw, g)
    results = [
        LoadCascadeModel(g, tolerance=tolerance, engine=kind).trigger(seeds)
        for kind in KINDS
    ]
    for got in results[1:]:
        assert got.failed == results[0].failed
        assert got.waves == results[0].waves


@settings(max_examples=60, deadline=None)
@given(
    g=graphs(),
    attack=st.sampled_from(
        (TargetedDegreeAttack(), RandomFailure(), AdaptiveDegreeAttack())
    ),
    fraction=st.sampled_from((0.0, 0.25, 0.5, 1.0)),
    repairs=st.integers(0, 3),
    shock_time=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_healing_traces_agree(g, attack, fraction, repairs, shock_time,
                              seed):
    results = [
        NetworkRecoverySimulator(
            g, attack, repairs_per_step=repairs, engine=kind
        ).run(fraction, horizon=8, shock_time=shock_time, seed=seed)
        for kind in KINDS
    ]
    ref = results[0]
    for got in results[1:]:
        assert np.array_equal(ref.trace.times, got.trace.times)
        assert np.array_equal(ref.trace.quality, got.trace.quality)
        assert ref.fully_recovered == got.fully_recovered
        assert list(ref.removed) == list(got.removed)


def _mmap_engines(g):
    return [CSRNetworkEngine("mmap", block_elems=b) for b in _block_sizes(g)]


@settings(max_examples=40, deadline=None)
@given(g=graphs(), data=st.data(),
       beta=st.sampled_from((0.04, 0.3, 1.0)),
       gamma=st.sampled_from((0.1, 0.5)),
       seed=st.integers(0, 2**16))
def test_sis_draws_agree_across_blocks(g, data, beta, gamma, seed):
    initial = _seeds(data.draw, g)
    ref = SISModel(g, beta, gamma, engine="array").run(
        initial, steps=12, seed=seed
    )
    for eng in _mmap_engines(g):
        got = SISModel(g, beta, gamma, engine=eng).run(
            initial, steps=12, seed=seed
        )
        assert np.array_equal(ref.infected_counts, got.infected_counts)
        assert ref.final_infected == got.final_infected
        assert ref.total_ever_infected == got.total_ever_infected


@settings(max_examples=40, deadline=None)
@given(g=graphs(), data=st.data(),
       beta=st.sampled_from((0.04, 0.3, 1.0)),
       gamma=st.sampled_from((0.1, 0.5)),
       seed=st.integers(0, 2**16))
def test_sir_draws_agree_across_blocks(g, data, beta, gamma, seed):
    initial = _seeds(data.draw, g)
    ref = SIRModel(g, beta, gamma, engine="array").run(initial, seed=seed)
    for eng in _mmap_engines(g):
        got = SIRModel(g, beta, gamma, engine=eng).run(initial, seed=seed)
        assert np.array_equal(ref.infected_counts, got.infected_counts)
        assert ref.final_infected == got.final_infected
        assert ref.total_ever_infected == got.total_ever_infected


@settings(max_examples=40, deadline=None)
@given(g=graphs(), data=st.data(),
       spread_p=st.sampled_from((0.0, 0.04, 0.3, 1.0)),
       seed=st.integers(0, 2**16))
def test_spread_cascade_draws_agree_across_blocks(g, data, spread_p, seed):
    seeds = _seeds(data.draw, g)
    ref = ProbabilisticCascadeModel(g, spread_p, engine="array").trigger(
        seeds, seed=seed
    )
    for eng in _mmap_engines(g):
        got = ProbabilisticCascadeModel(g, spread_p, engine=eng).trigger(
            seeds, seed=seed
        )
        assert got.failed == ref.failed
        assert got.waves == ref.waves


@pytest.mark.parametrize("labelling", LABELLINGS)
def test_labellings_reach_the_csr_kernels(labelling):
    # guard the generator itself: every labelling round-trips to a CSR
    perm = np.random.default_rng(0).permutation(5)
    labels = [_label(labelling, i, perm) for i in range(5)]
    g = Graph(nodes=labels)
    g.add_edges_from(zip(labels, labels[1:]))
    assert list(as_arraygraph(g).labels) == labels
