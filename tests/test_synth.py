"""Benchmark generators: subsampled views, edge removal, model sampling."""

import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperblock import synth
from hyperblock.core import HypergraphLayer, InterEdgeSet, MultiHypergraph, make_hyperedge
from hyperblock.likelihood import LatentState
from hyperblock.synth import (
    SynthConfig,
    THREE_VIEW_HIGHSCHOOL,
    build_views,
    planted_memberships,
    planted_partition,
    remove_inter_edges,
    sample_from_model,
)
from oracles import community_aligned_pairs


def labeled_source(num_nodes=12, num_edges=30, labeled=None, seed=0):
    rng = np.random.default_rng(seed)
    seen = set()
    while len(seen) < num_edges:
        size = int(rng.integers(2, 4))
        seen.add(tuple(sorted(rng.choice(num_nodes, size=size, replace=False).tolist())))
    nodes = range(num_nodes) if labeled is None else labeled
    truth = {i: i % 2 for i in nodes}
    return HypergraphLayer(
        num_nodes, tuple(make_hyperedge(s) for s in sorted(seen)), truth
    )


# -- configuration -----------------------------------------------------------


def test_synth_config_validation():
    SynthConfig().validate()
    with pytest.raises(ValueError, match="fraction"):
        SynthConfig(sample_fraction=0.0).validate()
    with pytest.raises(ValueError, match="fraction"):
        SynthConfig(sample_fraction=(0.5, 1.2)).validate()
    with pytest.raises(ValueError, match="noise_fraction"):
        SynthConfig(noise_fraction=1.0).validate()
    with pytest.raises(ValueError, match="pair"):
        SynthConfig(num_layers=2, pairs=((0, 2),)).validate()
    with pytest.raises(ValueError, match="pair"):
        SynthConfig(num_layers=2, pairs=((1, 1),)).validate()
    with pytest.raises(ValueError, match="non-negative"):
        SynthConfig(inter_edge_count=-1).validate()
    assert SynthConfig(num_layers=3).resolved_pairs() == [(0, 1), (0, 2), (1, 2)]
    cfg = SynthConfig(sample_fraction=(0.5, 0.7), inter_edge_count=(3,), pairs=((0, 1),))
    assert cfg.fraction_for(1) == 0.7
    assert cfg.count_for(0) == 3


def test_three_view_preset():
    assert THREE_VIEW_HIGHSCHOOL.num_layers == 3
    assert THREE_VIEW_HIGHSCHOOL.sample_fraction == 0.2
    assert THREE_VIEW_HIGHSCHOOL.resolved_pairs() == [(0, 1), (0, 2)]
    assert THREE_VIEW_HIGHSCHOOL.count_for(0) == 2867
    assert THREE_VIEW_HIGHSCHOOL.count_for(1) == 2792
    THREE_VIEW_HIGHSCHOOL.validate()


# -- subsampled views --------------------------------------------------------


def test_build_views_full_fraction_copies_source():
    source = labeled_source()
    mh = build_views(source, SynthConfig(sample_fraction=1.0, num_layers=2))
    assert mh.num_layers == 2
    for layer in mh.layers:
        assert layer.hyperedges == source.hyperedges
        assert layer.ground_truth == source.ground_truth
        assert layer.num_nodes == source.num_nodes


def test_build_views_subsample_counts():
    source = labeled_source(num_edges=30)
    for f in (0.2, 0.5, 0.7):
        mh = build_views(source, SynthConfig(sample_fraction=f, num_layers=3))
        expect = math.ceil(f * 30)
        pool = source.node_sets()
        for layer in mh.layers:
            assert layer.num_hyperedges == expect
            assert all(e.nodes in pool for e in layer.hyperedges)
    # layers are sampled independently, so views differ at f < 1
    mh = build_views(source, SynthConfig(sample_fraction=0.5, num_layers=2, seed=1))
    assert mh.layers[0].hyperedges != mh.layers[1].hyperedges


def test_build_views_inter_edges_community_aligned():
    source = labeled_source()
    cfg = SynthConfig(sample_fraction=0.8, num_layers=2, inter_edge_count=10)
    mh = build_views(source, cfg)
    assert len(mh.inter_edges) == 1
    s = mh.inter_edges[0]
    assert s.num_edges == 10
    truth = source.ground_truth
    for i, j, w in s.edges:
        assert w == 1.0
        assert truth[i] == truth[j]


def test_build_views_noise_pairs_cross_community():
    source = labeled_source()
    cfg = SynthConfig(
        sample_fraction=0.8, num_layers=2, inter_edge_count=10, noise_fraction=0.5
    )
    mh = build_views(source, cfg)
    s = mh.inter_edges[0]
    assert s.num_edges == 15
    truth = source.ground_truth
    crossings = sum(1 for i, j, _ in s.edges if truth[i] != truth[j])
    assert crossings == 5


def test_build_views_budget_and_truth_errors():
    source = labeled_source(num_nodes=6)
    # 3 even and 3 odd nodes: 9 + 9 same-community ordered pairs
    with pytest.raises(ValueError, match="exceeds the 18 available"):
        build_views(source, SynthConfig(num_layers=2, inter_edge_count=19))
    bare = HypergraphLayer(source.num_nodes, source.hyperedges)
    with pytest.raises(ValueError, match="ground truth"):
        build_views(bare, SynthConfig(num_layers=2))


def test_build_views_skips_unlabeled_nodes():
    source = labeled_source(num_nodes=12, labeled=range(6))
    cfg = SynthConfig(sample_fraction=0.9, num_layers=2, inter_edge_count=8)
    mh = build_views(source, cfg)
    for i, j, _ in mh.inter_edges[0].edges:
        assert i < 6 and j < 6


def test_build_views_keeps_labels_beyond_float_precision_apart():
    # 2**53 and 2**53 + 1 are one float; as communities they stay two,
    # 3 even and 3 odd nodes: 9 + 9 same-community ordered pairs
    source = labeled_source(num_nodes=6)
    source = source.with_ground_truth({i: 2**53 + i % 2 for i in range(6)})
    s = build_views(source, SynthConfig(num_layers=2, inter_edge_count=18)).inter_edges[0]
    assert s.num_edges == 18
    assert all((i - j) % 2 == 0 for i, j, _ in s.edges)
    with pytest.raises(ValueError, match="exceeds the 18 available"):
        build_views(source, SynthConfig(num_layers=2, inter_edge_count=19))


def test_build_views_noise_beyond_the_cross_pairs_is_an_error():
    # five nodes in one community, one in another: 36 - 25 - 1 = 10 cross pairs
    source = labeled_source(num_nodes=6, num_edges=10)
    source = source.with_ground_truth({i: int(i == 5) for i in range(6)})
    cfg = SynthConfig(num_layers=2, inter_edge_count=26, noise_fraction=0.5)
    message = "^noise 13 exceeds the 10 available cross-community pairs$"
    with pytest.raises(ValueError, match=message):
        build_views(source, cfg)
    cfg = SynthConfig(num_layers=2, inter_edge_count=20, noise_fraction=0.5)
    s = build_views(source, cfg).inter_edges[0]
    assert sum((i == 5) != (j == 5) for i, j, _ in s.edges) == 10


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=1, max_size=8),
    st.data(),
    st.integers(0, 2**32 - 1),
)
def test_aligned_inter_edges_match_the_scalar_sampler(labels, data, seed):
    """Same-community pairs in the scalar sampler's order, and its noise set,
    for budgets up to every same-community pair and noise up to every
    cross pair; None is an unlabelled node."""
    n = len(labels)
    known = [i for i, lab in enumerate(labels) if lab is not None]
    codes = np.full(n, -1)
    codes[known] = np.unique([labels[i] for i in known], return_inverse=True)[1]
    same = sum(c * c for c in Counter(labels[i] for i in known).values())
    budget = data.draw(st.integers(0, same))
    noise = data.draw(st.integers(0, n * n - same))
    floats = [np.nan if lab is None else lab for lab in labels]
    expected = community_aligned_pairs(floats, budget, noise, np.random.default_rng(seed))

    drawn = []

    class Recording:
        @staticmethod
        def from_arrays(a, b, rows, cols, weights):
            drawn.extend(zip(rows.tolist(), cols.tolist()))
            return InterEdgeSet.from_arrays(a, b, rows, cols, weights)

    with mock.patch.object(synth, "InterEdgeSet", Recording):
        s = synth._aligned_inter_edges(0, 1, codes, budget, noise, np.random.default_rng(seed))
    assert drawn[:budget] == expected[:budget]
    assert sorted(drawn[budget:]) == sorted(expected[budget:])
    assert s.edges == tuple(sorted((i, j, 1.0) for i, j in expected))


def test_build_views_deterministic():
    source = labeled_source()
    cfg = SynthConfig(sample_fraction=0.6, num_layers=2, inter_edge_count=6, seed=9)
    assert build_views(source, cfg) == build_views(source, cfg)
    other = build_views(source, SynthConfig(
        sample_fraction=0.6, num_layers=2, inter_edge_count=6, seed=10))
    assert other != build_views(source, cfg)


# -- inter-edge removal ------------------------------------------------------


def inter_mh(num_edges=10):
    la = HypergraphLayer(num_edges, (make_hyperedge([0, 1]),))
    lb = HypergraphLayer(num_edges, (make_hyperedge([2, 3]),))
    edges = tuple((i, i, 1.0) for i in range(num_edges))
    from hyperblock.core import InterEdgeSet

    return MultiHypergraph((la, lb), (InterEdgeSet(0, 1, edges),))


def test_remove_inter_edges_counts():
    mh = inter_mh(10)
    assert remove_inter_edges(mh, 0.0) == mh
    assert remove_inter_edges(mh, 1.0).inter_edges[0].num_edges == 0
    assert remove_inter_edges(mh, 0.5).inter_edges[0].num_edges == 5
    # 0.7 * 10 lands a hair above 7 in floats; the guard keeps it at 7
    assert remove_inter_edges(mh, 0.7).inter_edges[0].num_edges == 3
    assert remove_inter_edges(mh, 0.01).inter_edges[0].num_edges == 9


def test_remove_inter_edges_subset_and_layers_untouched():
    mh = inter_mh(10)
    out = remove_inter_edges(mh, 0.4, seed=3)
    assert out.layers == mh.layers
    original = set(mh.inter_edges[0].edges)
    assert all(e in original for e in out.inter_edges[0].edges)
    assert remove_inter_edges(mh, 0.4, seed=3) == out
    with pytest.raises(ValueError, match="ratio"):
        remove_inter_edges(mh, 1.5)


# -- Poisson sampling from a latent state ------------------------------------


def one_hot_state(block=6, w_diag=3.0, cross=None):
    n = 2 * block
    u = np.zeros((n, 2))
    u[:block, 0] = 1.0
    u[block:, 1] = 1.0
    w = np.diag([w_diag, w_diag])
    w_cross = {} if cross is None else {(0, 1): cross}
    us = (u,) if cross is None else (u, u.copy())
    ws = (w,) if cross is None else (w, w.copy())
    return LatentState(us, ws, w_cross)


def test_sample_from_model_zero_rate_is_empty():
    state = LatentState((np.ones((5, 1)),), (np.array([[0.0]]),), {})
    mh = sample_from_model(state, max_size=3, seed=0)
    assert mh.layers[0].num_hyperedges == 0
    assert mh.inter_edges == ()


def test_sample_from_model_bounds():
    state = LatentState((np.ones((5, 1)),), (np.array([[1.0]]),), {})
    with pytest.raises(ValueError, match="max_size"):
        sample_from_model(state, max_size=5)
    with pytest.raises(ValueError, match="max_size"):
        sample_from_model(state, max_size=1)
    with pytest.raises(ValueError, match="layer_sizes"):
        sample_from_model(state, layer_sizes=[4])
    big = LatentState((np.ones((31, 1)),), (np.array([[1.0]]),), {})
    with pytest.raises(ValueError, match="at most 30"):
        sample_from_model(big)


def test_sample_from_model_respects_blocks_pairwise():
    state = one_hot_state(block=6, w_diag=4.0)
    mh = sample_from_model(state, max_size=2, seed=1)
    layer = mh.layers[0]
    assert layer.num_hyperedges > 0
    for e in layer.hyperedges:
        # disjoint blocks and diagonal affinity: no cross-block pair can appear
        assert (e.nodes[0] < 6) == (e.nodes[1] < 6)
        assert e.weight >= 1.0 and e.weight == int(e.weight)


def test_sample_from_model_inter_edges():
    state = one_hot_state(block=4, w_diag=2.0, cross=np.array([[3.0, 0.0], [0.0, 3.0]]))
    mh = sample_from_model(state, max_size=2, seed=2)
    assert len(mh.inter_edges) == 1
    s = mh.inter_edges[0]
    assert s.num_edges > 0
    for i, j, w in s.edges:
        assert (i < 4) == (j < 4)
        assert w == int(w) and w >= 1.0
    silent = one_hot_state(block=4, w_diag=2.0, cross=np.zeros((2, 2)))
    assert sample_from_model(silent, max_size=2, seed=2).inter_edges[0].num_edges == 0


def test_sample_from_model_deterministic():
    state = one_hot_state(block=5, w_diag=2.0)
    a = sample_from_model(state, max_size=3, seed=7)
    b = sample_from_model(state, max_size=3, seed=7)
    c = sample_from_model(state, max_size=3, seed=8)
    assert a == b
    assert a != c


# -- planted partition -------------------------------------------------------


def test_planted_memberships():
    labels, u = planted_memberships(7, 3)
    assert labels.tolist() == [0, 0, 0, 1, 1, 2, 2]
    assert u.shape == (7, 3)
    assert np.array_equal(u.sum(axis=1), np.ones(7))
    assert np.array_equal(np.argmax(u, axis=1), labels)
    with pytest.raises(ValueError):
        planted_memberships(3, 4)
    with pytest.raises(ValueError):
        planted_memberships(3, 0)


def test_planted_partition_structure():
    mh = planted_partition(
        num_nodes=18, num_communities=3, num_layers=3,
        c_in=0.5, c_out=0.02, max_size=3, inter_edge_count=12, seed=1,
    )
    assert mh.num_layers == 3
    assert {(s.layer_a, s.layer_b) for s in mh.inter_edges} == {(0, 1), (0, 2), (1, 2)}
    truth = {i: i // 6 for i in range(18)}
    for layer in mh.layers:
        assert layer.num_nodes == 18
        assert dict(layer.ground_truth) == truth
        assert layer.num_hyperedges > 0
    for s in mh.inter_edges:
        assert s.num_edges == 12
        for i, j, _ in s.edges:
            assert truth[i] == truth[j]


def test_planted_partition_noise_and_determinism():
    kw = dict(num_nodes=12, num_communities=2, num_layers=2, c_in=0.8,
              c_out=0.05, max_size=2, inter_edge_count=10, noise_fraction=0.3, seed=4)
    mh = planted_partition(**kw)
    truth = mh.layers[0].ground_truth
    s = mh.inter_edges[0]
    assert s.num_edges == 13
    assert sum(1 for i, j, _ in s.edges if truth[i] != truth[j]) == 3
    assert planted_partition(**kw) == mh


def test_planted_partition_errors():
    with pytest.raises(ValueError, match="non-negative"):
        planted_partition(c_in=-0.1)
    with pytest.raises(ValueError, match="max_size"):
        planted_partition(max_size=1)
    with pytest.raises(ValueError, match="enumeration cap"):
        planted_partition(num_nodes=150, max_size=3)
    with pytest.raises(RuntimeError, match="empty"):
        planted_partition(num_nodes=12, num_communities=2, c_in=0.0, c_out=0.0,
                          inter_edge_count=0)


def test_planted_partition_default_scale_works():
    mh = planted_partition(seed=2)
    assert mh.num_layers == 2
    assert all(layer.num_nodes == 60 for layer in mh.layers)
    assert mh.inter_edges[0].num_edges == 200
