"""Rate kernels, penalty constants, negative sampling and the objective."""

import math

import numpy as np
import pytest

from hyperblock.core import HypergraphLayer, InterEdgeSet, MultiHypergraph, make_hyperedge
from hyperblock.internal_degree import compute_theta, theta_table
from hyperblock.likelihood import (
    DegenerateStateError,
    LatentState,
    ThetaIncidence,
    lambda_e,
    lambda_ij,
    layer_constants,
    mu,
    pairwise_interaction_sum,
    pairwise_outer,
    sample_negatives,
    surrogate_objective,
)


def naive_lambda_e(nodes, theta, u, w):
    """Oracle: the raw double sum over ordered pairs i < j and communities."""
    total = 0.0
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            i, j = nodes[a], nodes[b]
            for k in range(u.shape[1]):
                for q in range(u.shape[1]):
                    total += theta[i] * theta[j] * u[i, k] * u[j, q] * w[k, q]
    return total


def naive_pairwise_sum(u, w):
    total = 0.0
    for i in range(u.shape[0]):
        for j in range(i + 1, u.shape[0]):
            total += float(u[i] @ w @ u[j])
    return total


def test_mu():
    assert mu(2) == 1.0
    assert mu(3) == 3.0
    assert mu(10) == 45.0
    with pytest.raises(ValueError):
        mu(1)


def test_lambda_e_examples():
    u1 = np.ones((3, 1))
    theta = {0: 1.0, 1: 1.0, 2: 1.0}
    assert lambda_e([0, 1, 2], theta, u1, np.array([[1.0]])) == pytest.approx(3.0)
    assert lambda_e([0, 1, 2], theta, u1, np.array([[0.0]])) == 0.0
    u = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    w = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert lambda_e([0, 1, 2], theta, u, w) == pytest.approx(10.0, abs=1e-12)


def test_lambda_e_matches_naive_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, 5))
        size = int(rng.integers(2, min(7, n) + 1))
        nodes = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        u = rng.random((n, k))
        w = rng.random((k, k))
        w = 0.5 * (w + w.T)
        theta = {i: float(rng.random() + 0.1) for i in nodes}
        fast = lambda_e(nodes, theta, u, w)
        slow = naive_lambda_e(nodes, theta, u, w)
        assert fast == pytest.approx(slow, rel=1e-9)


def test_lambda_e_node_order_invariant():
    rng = np.random.default_rng(5)
    u = rng.random((6, 2))
    w = np.array([[0.5, 0.2], [0.2, 0.9]])
    theta = {i: 1.0 for i in range(6)}
    a = lambda_e([1, 3, 5], theta, u, w)
    b = lambda_e([5, 1, 3], theta, u, w)
    assert a == pytest.approx(b, rel=1e-12)


def test_lambda_e_quadratic_scaling():
    rng = np.random.default_rng(6)
    u = rng.random((5, 2))
    w = np.eye(2)
    theta = {i: 1.0 for i in range(5)}
    base = lambda_e([0, 2, 4], theta, u, w)
    scaled = lambda_e([0, 2, 4], theta, 3.0 * u, w)
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_lambda_ij():
    assert lambda_ij(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                     np.array([[0.0, 5.0], [0.0, 0.0]])) == 5.0
    assert lambda_ij(np.array([1.0, 2.0]), np.array([3.0, 1.0]),
                     np.array([[1.0, 0.0], [0.0, 2.0]])) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        lambda_ij(np.ones(2), np.ones(3), np.ones((2, 2)))


def test_sample_negatives_contract():
    layer = HypergraphLayer.from_hyperedges(
        8, [make_hyperedge([0, 1]), make_hyperedge([2, 3, 4]), make_hyperedge([1, 5])]
    )
    negs = sample_negatives(layer, seed=9)
    assert sorted(len(e) for e in negs) == sorted(layer.sizes())
    observed = layer.node_sets()
    seen = set()
    for e in negs:
        assert e == tuple(sorted(e))
        assert e not in observed
        assert e not in seen
        seen.add(e)
    assert sample_negatives(layer, seed=9) == negs


def test_sample_negatives_tiny_space():
    layer = HypergraphLayer(3, (make_hyperedge([0, 1]),))
    negs = sample_negatives(layer, seed=0)
    assert negs[0] in {(0, 2), (1, 2)}

    full = HypergraphLayer.from_hyperedges(
        3, [make_hyperedge([0, 1]), make_hyperedge([0, 2]), make_hyperedge([1, 2])]
    )
    with pytest.raises(ValueError, match="size 2"):
        sample_negatives(full, seed=0)


def test_layer_constants_values():
    layer = HypergraphLayer(3, (make_hyperedge([0, 1]),))
    consts = layer_constants(layer)
    assert consts.q_pairs == 1
    assert consts.m_count == 1
    assert consts.c_l == pytest.approx(4.0 / 3.0, abs=1e-15)

    # one size-6 hyperedge on 7 nodes: q = 15, c = 1/15 + 2/42 = 4/35
    big = HypergraphLayer(7, (make_hyperedge(range(6)),))
    consts = layer_constants(big)
    assert consts.q_pairs == 15
    assert consts.c_l == pytest.approx(4.0 / 35.0, abs=1e-15)


def test_layer_constants_ignore_weights_and_allow_override():
    layer1 = HypergraphLayer.from_hyperedges(
        6, [make_hyperedge([0, 1], 1.0), make_hyperedge([2, 3, 4], 1.0)]
    )
    layer2 = HypergraphLayer.from_hyperedges(
        6, [make_hyperedge([0, 1], 2.0), make_hyperedge([2, 3, 4], 2.0)]
    )
    assert layer_constants(layer1).c_l == layer_constants(layer2).c_l
    doubled = layer_constants(layer1, m_override=4)
    assert doubled.c_l == pytest.approx(2 * layer_constants(layer1).c_l)


def test_layer_constants_validation():
    empty = HypergraphLayer(4, ())
    with pytest.raises(ValueError, match="no hyperedges"):
        layer_constants(empty)


def test_latent_state_validation():
    good = LatentState((np.ones((2, 2)),), (np.eye(2),), {})
    good.validate()
    with pytest.raises(ValueError):
        LatentState((np.array([[1.0, -0.1]]),), (np.eye(2),), {}).validate()
    with pytest.raises(ValueError):
        LatentState((np.ones((2, 2)),), (np.array([[1.0, 0.5], [0.1, 1.0]]),), {}).validate()
    with pytest.raises(ValueError):
        LatentState((np.full((2, 2), np.nan),), (np.eye(2),), {}).validate()


def test_incidence_rates_match_per_edge_lambda():
    rng = np.random.default_rng(7)
    layer = HypergraphLayer.from_hyperedges(
        9,
        [
            make_hyperedge(sorted(rng.choice(9, size=s, replace=False).tolist()))
            for s in (2, 3, 4, 3, 2)
        ],
    )
    table = theta_table(layer)
    inc = ThetaIncidence(layer, table)
    u = rng.random((9, 3))
    w = rng.random((3, 3))
    w = 0.5 * (w + w.T)
    rates = inc.edge_rates(u, w)
    for eid, e in enumerate(layer.hyperedges):
        theta = compute_theta(layer, e)
        assert rates[eid] == pytest.approx(lambda_e(e, theta, u, w), rel=1e-9)


def test_pairwise_outer_identity():
    rng = np.random.default_rng(8)
    u = rng.random((6, 2))
    w = rng.random((2, 2))
    w = 0.5 * (w + w.T)
    direct = np.zeros((2, 2))
    for i in range(6):
        for j in range(i + 1, 6):
            direct += 0.5 * (np.outer(u[i], u[j]) + np.outer(u[j], u[i]))
    assert np.allclose(pairwise_outer(u), direct, atol=1e-12)
    assert pairwise_interaction_sum(u, w) == pytest.approx(naive_pairwise_sum(u, w), rel=1e-12)


def scalar_objective(mh, state, consts):
    """Oracle: direct loop evaluation of the objective for tiny instances."""
    total = 0.0
    for l, layer in enumerate(mh.layers):
        u, w = state.u[l], state.w[l]
        total -= consts[l].c_l * naive_pairwise_sum(u, w)
        for e in layer.hyperedges:
            theta = compute_theta(layer, e)
            lam = naive_lambda_e(e.nodes, theta, u, w)
            if e.weight > 0:
                total += e.weight * math.log(lam)
    for s in mh.inter_edges:
        ua, ub = state.u[s.layer_a], state.u[s.layer_b]
        wc = state.w_cross[(s.layer_a, s.layer_b)]
        for i in range(ua.shape[0]):
            for j in range(ub.shape[0]):
                total -= float(ua[i] @ wc @ ub[j])
        for i, j, weight in s.edges:
            total += weight * math.log(float(ua[i] @ wc @ ub[j]))
    return total


def test_surrogate_scalar_example():
    layer = HypergraphLayer(3, (make_hyperedge([0, 1]),))
    mh = MultiHypergraph((layer,))
    consts = (layer_constants(layer),)
    state = LatentState((np.ones((3, 1)),), (np.array([[1.0]]),), {})
    value = surrogate_objective(mh, (theta_table(layer),), state, consts)
    assert value == pytest.approx(-4.0, abs=1e-12)


def test_surrogate_matches_scalar_oracle():
    rng = np.random.default_rng(10)
    for _ in range(15):
        n1, n2 = int(rng.integers(6, 9)), int(rng.integers(6, 9))
        k1, k2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))

        def rand_layer(n):
            # sizes capped at 3 on >= 6 nodes so unobserved sets always remain
            seen = set()
            for _ in range(rng.integers(2, 6)):
                size = int(rng.integers(2, 4))
                seen.add(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
            return HypergraphLayer(
                n, tuple(make_hyperedge(s, float(rng.integers(1, 4))) for s in sorted(seen))
            )

        la, lb = rand_layer(n1), rand_layer(n2)
        pairs = {(int(rng.integers(n1)), int(rng.integers(n2))) for _ in range(3)}
        inter = InterEdgeSet(0, 1, tuple(sorted((i, j, 1.0) for i, j in pairs)))
        mh = MultiHypergraph((la, lb), (inter,))
        consts = tuple(
            layer_constants(layer) for layer in mh.layers
        )
        w1 = rng.random((k1, k1))
        w2 = rng.random((k2, k2))
        state = LatentState(
            (rng.random((n1, k1)) + 0.05, rng.random((n2, k2)) + 0.05),
            (0.5 * (w1 + w1.T), 0.5 * (w2 + w2.T)),
            {(0, 1): rng.random((k1, k2)) + 0.05},
        )
        tables = tuple(theta_table(layer) for layer in mh.layers)
        assert surrogate_objective(mh, tables, state, consts) == pytest.approx(
            scalar_objective(mh, state, consts), rel=1e-9
        )


def test_surrogate_degenerate_state_errors():
    layer = HypergraphLayer(3, (make_hyperedge([0, 1]),))
    mh = MultiHypergraph((layer,))
    consts = (layer_constants(layer),)
    state = LatentState((np.zeros((3, 1)),), (np.array([[1.0]]),), {})
    with pytest.raises(DegenerateStateError):
        surrogate_objective(mh, (theta_table(layer),), state, consts)
