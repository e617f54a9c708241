"""Containment counts, node contributions and the entropy summary."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperblock import internal_degree
from hyperblock.core import HypergraphLayer, make_hyperedge
from hyperblock.evaluation import score_hyperedge
from hyperblock.internal_degree import (
    _BLOCK_EDGES,
    SubHyperedgeCounter,
    entropy_report,
    theta_table,
)
import oracles
from oracles import (
    IndexCounter,
    compute_theta,
    contained_in_larger,
    count_sub_hyperedges,
    entropy_report_oracle,
)


def brute_force_counts(layer, nodes):
    """Oracle: scan every observed hyperedge for subset containment."""
    node_set = set(nodes)
    counts = {n: 0 for n in nodes}
    for e in layer.hyperedges:
        if node_set.issuperset(e.nodes):
            for n in e.nodes:
                counts[n] += 1
    return counts


def random_layer(rng, num_nodes, max_edges):
    seen = set()
    for _ in range(max_edges):
        size = int(rng.integers(2, min(6, num_nodes) + 1))
        nodes = tuple(sorted(rng.choice(num_nodes, size=size, replace=False).tolist()))
        seen.add(nodes)
    rows = sorted(seen)
    return oracles.layer(num_nodes, rows, [float(rng.integers(1, 3)) for _ in rows])


def test_worked_example():
    layer = HypergraphLayer.from_hyperedges(
        4, [make_hyperedge([1, 2]), make_hyperedge([1, 3]), make_hyperedge([1, 2, 3])]
    )
    e = make_hyperedge([1, 2, 3])
    assert count_sub_hyperedges(layer, e) == {1: 3, 2: 2, 3: 2}
    theta = compute_theta(layer, e)
    assert math.isclose(theta[1], 9 / 7, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(theta[2], 6 / 7, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(theta[3], 6 / 7, rel_tol=0, abs_tol=1e-15)
    assert abs(sum(theta.values()) - 3) < 1e-12


def test_edge_counts_itself():
    layer = oracles.layer(3, [[1, 2]])
    assert count_sub_hyperedges(layer, make_hyperedge([1, 2])) == {1: 1, 2: 1}


def test_candidate_with_no_subsets():
    layer = oracles.layer(5, [[1, 2]])
    e = make_hyperedge([3, 4])
    assert count_sub_hyperedges(layer, e) == {3: 0, 4: 0}
    assert compute_theta(layer, e) == {3: 1.0, 4: 1.0}


def test_counts_match_bruteforce_on_random_layers():
    rng = np.random.default_rng(0)
    for _ in range(30):
        layer = random_layer(rng, int(rng.integers(5, 13)), int(rng.integers(3, 30)))
        counter = SubHyperedgeCounter(layer)
        fresh = []
        for _ in range(5):
            size = int(rng.integers(2, min(5, layer.num_nodes) + 1))
            fresh.append(make_hyperedge(rng.choice(layer.num_nodes, size=size, replace=False)))
        # the layer's own edges, then candidate sets too
        for batch in (layer, HypergraphLayer.from_hyperedges(layer.num_nodes, fresh)):
            counts = counter.counts(batch).tolist()
            for eid, nodes in enumerate(batch.node_tuples()):
                got = counts[batch.offsets[eid]:batch.offsets[eid + 1]]
                assert dict(zip(nodes, got)) == brute_force_counts(layer, nodes)


def test_theta_sums_to_size():
    rng = np.random.default_rng(1)
    for _ in range(10):
        layer = random_layer(rng, 10, 25)
        table = theta_table(layer)
        for eid, e in enumerate(layer.hyperedges):
            assert abs(table.for_edge(eid).sum() - e.size) < 1e-12
            assert np.all(table.for_edge(eid) > 0)


def assert_table_matches_counter(layer):
    """theta_table against the inverted-index oracle, value for value."""
    table = theta_table(layer)
    counter = IndexCounter(layer)
    assert table.offsets.size == layer.num_hyperedges + 1
    for eid, e in enumerate(layer.hyperedges):
        span = slice(table.offsets[eid], table.offsets[eid + 1])
        assert tuple(table.nodes[span].tolist()) == e.nodes
        theta = counter.theta(e.nodes)
        assert np.array_equal(table.for_edge(eid), np.array([theta[n] for n in e.nodes]))


@st.composite
def layers(draw):
    n = draw(st.integers(2, 10))
    node_sets = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=2, max_size=min(8, n)), max_size=30
    ))
    return HypergraphLayer.from_hyperedges(n, [make_hyperedge(s) for s in node_sets])


@settings(max_examples=200, deadline=None)
@given(layers())
def test_theta_table_matches_counter(layer):
    assert_table_matches_counter(layer)


def test_counter_rejects_invalid_candidates():
    layer = oracles.layer(3, [[0, 1, 2]])
    counter = SubHyperedgeCounter(layer)
    u, w = np.ones((3, 1)), np.ones((1, 1))
    queries = (counter.counts, counter.theta, lambda c: score_hyperedge(c, counter, u, w))
    # candidates come as a layer only: one node set is a layer of one row
    for query in queries:
        for single in ((0, 1), [0, 1], make_hyperedge([0, 1])):
            with pytest.raises(TypeError, match="HypergraphLayer"):
                query(single)
        with pytest.raises(ValueError, match="4 nodes"):
            query(oracles.layer(4, [[0, 1]]))


@st.composite
def scoring_cases(draw):
    """A training layer, candidates, a state and a block size.

    Nodes from ``reach`` up lie in no training edge, some candidates are
    training edges, and the leading ``zero`` x ``zero`` block of w is 0, so
    candidates whose nodes sit only in those communities have rate 0.
    """
    n = draw(st.integers(2, 12))
    reach = draw(st.integers(2, n))
    train_sets = draw(st.lists(
        st.sets(st.integers(0, reach - 1), min_size=2, max_size=min(6, reach)), max_size=25
    ))
    train = HypergraphLayer.from_hyperedges(n, [make_hyperedge(s) for s in train_sets])
    picked = draw(st.lists(st.sampled_from(train_sets), max_size=10)) if train_sets else []
    fresh = draw(st.lists(
        st.sets(st.integers(0, n - 1), min_size=2, max_size=min(6, n)), max_size=25
    ))
    candidates = HypergraphLayer.from_hyperedges(
        n, [make_hyperedge(s) for s in picked + fresh]
    )
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.zeros((n, k))
    u[np.arange(n), rng.integers(k, size=n)] = rng.random(n) + 0.1
    u += (rng.random((n, k)) < 0.3) * rng.random((n, k))
    w = rng.random((k, k))
    w = w + w.T
    zero = draw(st.integers(0, k))
    w[:zero, :zero] = 0.0
    block = draw(st.sampled_from([1, 3, _BLOCK_EDGES]))
    return train, candidates, u, w, block


@settings(max_examples=300, deadline=None)
@given(scoring_cases())
def test_batch_theta_and_scores_match_the_oracle(case):
    train, candidates, u, w, block = case
    oracle = IndexCounter(train)
    rows = candidates.node_tuples()
    counts = [c for nodes in rows for c in oracle.counts(nodes).values()]
    theta = np.array([v for nodes in rows for v in oracle.theta(nodes).values()])
    scores = np.array([oracle.score(nodes, u, w) for nodes in rows])
    with mock.patch.object(internal_degree, "_BLOCK_EDGES", block):
        counter = SubHyperedgeCounter(train)
        assert counter.counts(candidates).tolist() == counts
        table = counter.theta(candidates)
        got = score_hyperedge(candidates, counter, u, w)
    assert np.array_equal(table.nodes, candidates.nodes)
    assert np.array_equal(table.offsets, candidates.offsets)
    assert table.values.tobytes() == theta.tobytes()
    assert got.tobytes() == scores.tobytes()


def test_theta_table_empty_layer():
    table = theta_table(oracles.layer(4, []))
    assert table.offsets.tolist() == [0]
    assert table.nodes.size == table.values.size == 0


def test_theta_table_across_blocks():
    # windows of 2-4 consecutive nodes plus skip pairs: every window edge
    # contains later-sorted edges, some of them in the next block
    n = 1200
    edges = [make_hyperedge(range(i, i + s)) for i in range(n - 3) for s in (2, 3, 4)]
    edges += [make_hyperedge([i, i + 2]) for i in range(n - 2)]
    layer = HypergraphLayer.from_hyperedges(n, edges)
    assert layer.num_hyperedges > _BLOCK_EDGES
    assert_table_matches_counter(layer)


def entropies(layer, **kwargs):
    return entropy_report(layer, threshold=0.5, **kwargs).entropies


def test_entropy_values():
    # counts (3, 2, 2) over a size-3 hyperedge
    layer = HypergraphLayer.from_hyperedges(
        4, [make_hyperedge([1, 2]), make_hyperedge([1, 3]), make_hyperedge([1, 2, 3])]
    )
    (h,) = entropies(layer, normalized=False)
    p = np.array([3, 2, 2]) / 7
    assert math.isclose(h, float(-(p * np.log(p)).sum()), abs_tol=1e-12)
    assert h == pytest.approx(1.07899, abs=1e-5)
    assert entropies(layer)[0] == pytest.approx(0.98214, abs=1e-5)
    # bits
    (bits,) = entropies(layer, normalized=False, base=2.0)
    assert math.isclose(bits, h / math.log(2), abs_tol=1e-12)


def test_entropy_uniform_and_degenerate():
    uniform = oracles.layer(3, [[0, 1, 2]])
    assert math.isclose(entropies(uniform)[0], 1.0, abs_tol=1e-12)
    assert math.isclose(entropies(uniform, normalized=False)[0], math.log(3), abs_tol=1e-12)
    empty = entropy_report(oracles.layer(4, []), threshold=0.5)
    assert empty.num_considered == empty.num_below == empty.histogram_counts.sum() == 0
    assert empty.size2_total == empty.size2_contained == 0
    assert math.isnan(empty.size2_containment_rate)


def test_entropy_bounds_random():
    rng = np.random.default_rng(2)
    for _ in range(10):
        layer = random_layer(rng, 9, 20)
        sizes = [e.size for e in layer.hyperedges if e.size >= 3]
        raw = entropies(layer, normalized=False)
        assert np.all(raw >= 0.0) and np.all(raw <= np.log(sizes) + 1e-12)
        normalized = entropies(layer)
        assert np.all(normalized >= 0.0) and np.all(normalized <= 1.0)


def test_contained_in_larger():
    layer = HypergraphLayer.from_hyperedges(
        5, [make_hyperedge([0, 1]), make_hyperedge([0, 1, 2]), make_hyperedge([3, 4])]
    )
    assert contained_in_larger(layer, (0, 1))
    assert not contained_in_larger(layer, (3, 4))
    rep = entropy_report(layer, threshold=0.5)
    assert (rep.size2_total, rep.size2_contained) == (2, 1)


@st.composite
def nested_layers(draw):
    """Layers of hyperedges of sizes 2-8, each followed by some of its subsets."""
    n = draw(st.integers(3, 12))
    node_sets = []
    for _ in range(draw(st.integers(1, 6))):
        outer = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=min(8, n))))
        node_sets.append(outer)
        node_sets += draw(st.lists(st.sets(st.sampled_from(outer), min_size=2), max_size=4))
    return HypergraphLayer.from_hyperedges(n, [make_hyperedge(s) for s in node_sets])


@settings(max_examples=200, deadline=None)
@given(nested_layers(), st.booleans(), st.sampled_from([math.e, 2.0]))
def test_entropy_report_matches_oracle(layer, normalized, base):
    rep = entropy_report(layer, threshold=0.6, normalized=normalized, base=base)
    want = entropy_report_oracle(layer, threshold=0.6, normalized=normalized, base=base)
    assert rep.entropies.shape == want["entropies"].shape
    assert np.allclose(rep.entropies, want["entropies"], rtol=1e-12, atol=0.0)
    for name in ("num_considered", "num_below", "size2_total", "size2_contained"):
        assert getattr(rep, name) == want[name], name
    assert np.array_equal(rep.histogram_counts, want["histogram_counts"])


def test_entropy_report_fields():
    layer = HypergraphLayer.from_hyperedges(
        6,
        [
            make_hyperedge([0, 1]),
            make_hyperedge([0, 1, 2]),
            make_hyperedge([3, 4]),
            make_hyperedge([0, 3, 5]),
        ],
    )
    rep = entropy_report(layer, threshold=0.95)
    assert rep.num_considered == 2
    assert rep.size2_total == 2
    assert rep.size2_contained == 1
    assert rep.size2_containment_rate == 0.5
    assert rep.histogram_counts.sum() == rep.num_considered
    assert rep.num_below == sum(v < 0.95 for v in rep.entropies)
    assert rep.fraction_below == rep.num_below / rep.num_considered
    # {0,3,5} has uniform counts (1,1,1): normalized entropy exactly 1
    assert np.max(rep.entropies) == pytest.approx(1.0, abs=1e-12)
    # uniform counts over five nodes come to one ulp above 1 before the
    # clip, which np.histogram would drop
    lone = entropy_report(oracles.layer(6, [[0, 1, 2, 3, 4]]), 0.95)
    assert lone.num_considered == 1
    assert lone.entropies.tolist() == [1.0]
    assert lone.histogram_counts.sum() == 1


def test_entropy_report_all_pairs():
    layer = HypergraphLayer.from_hyperedges(3, [make_hyperedge([0, 1]), make_hyperedge([1, 2])])
    rep = entropy_report(layer, threshold=0.6)
    assert rep.num_considered == 0
    assert rep.fraction_below == 0.0
    assert rep.size2_total == 2
    assert rep.size2_contained == 0
