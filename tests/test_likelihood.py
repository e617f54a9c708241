"""Rate kernels, penalty constants, negative sampling and the objective."""

import math
from itertools import combinations

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hyperblock.core import (
    HypergraphLayer, InterEdgeSet, MultiHypergraph, _draw_fresh, make_hyperedge,
)
from hyperblock.inference import EMEngine
from hyperblock.internal_degree import theta_table
from hyperblock.likelihood import (
    DegenerateStateError,
    LatentState,
    ThetaIncidence,
    _column_sums,
    _pair_sum,
    cross_rates,
    lambda_e,
    layer_constants,
    mu,
    pairwise_interaction_sum,
    pairwise_outer,
    sample_negatives,
)
from hyperblock.synth import _poisson_layer
import oracles
from oracles import compute_theta, lambda_ij


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


def test_lambda_e_has_no_cancellation_noise():
    # sparse memberships under a diagonal w make many node sets' exact rate
    # 0, which must come back as exactly 0; row scales spread over 20 orders
    # of magnitude make tiny rates beside large rows, which keep their
    # relative accuracy
    rng = np.random.default_rng(8)
    n, k = 40, 4
    u = rng.random((n, k)) * (rng.random((n, k)) < 0.35)
    u *= 10.0 ** -rng.integers(0, 20, size=(n, 1))
    w = np.diag(rng.random(k) + 0.5)
    zeros = 0
    for _ in range(2000):
        size = int(rng.integers(2, 6))
        nodes = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        theta = rng.random(size) + 0.1
        x = theta[:, None] * u[list(nodes)]
        exact = math.fsum(
            x[a, p] * w[p, q] * x[b, q]
            for a in range(size) for b in range(a + 1, size)
            for p in range(k) for q in range(k)
        )
        got = lambda_e(nodes, theta, u, w)
        if exact == 0.0:
            zeros += 1
            assert got == 0.0
        else:
            assert got == pytest.approx(exact, rel=1e-12)
    assert zeros > 200
    # a tiny partner of a dominant row: s w s - sum_i x_i w x_i loses it
    assert lambda_e([0, 1], np.ones(2), np.array([[1.0], [1e-20]]), np.eye(1)) == 1e-20


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


def test_pair_sum_stack_matches_lambda_e_and_sampler():
    # sparse memberships and a zero off-diagonal block of w give many node
    # sets an exact rate of 0
    rng = np.random.default_rng(9)
    n, k = 10, 4
    u = 5.0 * rng.random((n, k)) * (rng.random((n, k)) < 0.4)
    w = rng.random((k, k))
    w = w + w.T
    w[:2, 2:] = w[2:, :2] = 0.0
    zero = set()
    for size in (2, 3, 4):
        combos = np.array(list(combinations(range(n), size)))
        stack = _pair_sum(u[combos], w)
        assert stack.shape == (len(combos),)
        for nodes, got in zip(combos, stack):
            assert math.isclose(got, lambda_e(nodes, np.ones(size), u, w), rel_tol=1e-15)
            exact = math.fsum(
                u[i, p] * w[p, q] * u[j, q]
                for i, j in combinations(nodes, 2) for p in range(k) for q in range(k)
            )
            if exact == 0.0:
                assert got == 0.0
                zero.add(tuple(nodes.tolist()))
    assert len(zero) > 50
    drawn = set(_poisson_layer(u, w, 4, np.random.default_rng(0)).node_tuples())
    assert drawn and not drawn & zero


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
    negs = sample_negatives(layer, seed=9).node_tuples()
    assert sorted(len(e) for e in negs) == sorted(layer.sizes())
    observed = layer.node_sets()
    seen = set()
    for e in negs:
        assert e == tuple(sorted(e))
        assert e not in observed
        assert e not in seen
        seen.add(e)
    assert sample_negatives(layer, seed=9).node_tuples() == negs


def test_sample_negatives_tiny_space():
    layer = oracles.layer(3, [[0, 1]])
    negs = sample_negatives(layer, seed=0).node_tuples()
    assert negs[0] in {(0, 2), (1, 2)}

    full = HypergraphLayer.from_hyperedges(
        3, [make_hyperedge([0, 1]), make_hyperedge([0, 2]), make_hyperedge([1, 2])]
    )
    with pytest.raises(ValueError, match="size 2"):
        sample_negatives(full, seed=0)


@st.composite
def sampler_cases(draw):
    """(layer, requested sizes): node counts from 5 up to 2**13, so that
    n**5 overflows int64, and sizes 2 to 5."""
    n = draw(st.one_of(st.integers(5, 12), st.integers(2**12, 2**13)))
    node_sets = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=5, unique=True),
        min_size=1, max_size=40,
    ))
    layer = HypergraphLayer.from_hyperedges(n, [make_hyperedge(e) for e in node_sets])
    return layer, draw(st.lists(st.integers(2, 5), max_size=30))


@settings(max_examples=100, deadline=None)
@given(sampler_cases(), st.integers(0, 2**32 - 1))
def test_sample_negatives_rows_are_fresh_and_match_the_request(case, seed):
    layer, sizes = case
    observed = layer.node_sets()
    free = {
        d: math.comb(layer.num_nodes, d) - sum(len(e) == d for e in observed) for d in set(sizes)
    }
    short = [d for d in sorted(free) if sizes.count(d) > free[d]]
    if short:
        with pytest.raises(ValueError, match=f"size {short[0]}"):
            sample_negatives(layer, seed, sizes=sizes)
        return
    negs = sample_negatives(layer, seed, sizes=sizes)
    rows = negs.node_tuples()
    assert all(list(e) == sorted(set(e)) for e in rows)
    assert len(set(rows)) == len(rows)
    assert not observed & set(rows)
    assert sorted(negs.sizes()) == sorted(sizes)
    assert negs.num_nodes == layer.num_nodes and np.all(negs.weights == 1.0)
    assert sample_negatives(layer, seed, sizes=sizes) == negs


def chi_square_p(counts):
    """p-value of the counts against equal expected counts."""
    return scipy.stats.chisquare(np.asarray(counts, dtype=float)).pvalue


def test_sample_negatives_are_uniform_over_unobserved_sets():
    # n = 7: 21 pairs and 35 triples, a few of each observed; each call
    # draws three pairs and two triples without replacement, so every
    # unobserved set of a size is drawn equally often in expectation
    observed = [(0, 1), (2, 5), (3, 4), (0, 1, 2), (1, 4, 6)]
    layer = HypergraphLayer.from_hyperedges(7, [make_hyperedge(e) for e in observed])
    counts = {e: 0 for d in (2, 3) for e in combinations(range(7), d) if e not in observed}
    for seed in range(2000):
        for e in sample_negatives(layer, seed, sizes=[2, 2, 2, 3, 3]).node_tuples():
            counts[e] += 1
    for d, per_call in ((2, 3), (3, 2)):
        of_size = [c for e, c in counts.items() if len(e) == d]
        assert sum(of_size) == 2000 * per_call
        assert chi_square_p(of_size) > 1e-3


def test_cross_pair_draws_are_uniform_over_unobserved_pairs():
    # the draw inter_edge_prediction makes: (i, j) rows over a 3 x 4 grid
    # with three pairs observed, four fresh pairs per call
    observed = [(0, 0), (1, 3), (2, 1)]
    known = np.array(observed).ravel()
    counts = {(i, j): 0 for i in range(3) for j in range(4) if (i, j) not in observed}
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        pairs, offsets = _draw_fresh(
            known, 2 * np.arange(len(observed) + 1), {2: 12}, {2: 4},
            lambda width, count: rng.integers((3, 4), size=(count, width)),
        )
        assert offsets.tolist() == [0, 2, 4, 6, 8]
        drawn = list(zip(pairs[0::2].tolist(), pairs[1::2].tolist()))
        assert len(set(drawn)) == 4
        for pair in drawn:
            counts[pair] += 1
    assert chi_square_p(list(counts.values())) > 1e-3


def test_sample_negatives_of_sizes_near_n_are_uniform():
    # n = 12, size 10: 66 sets, four observed; a draw with replacement
    # would repeat a node in all but 1.6% of its rows
    observed = [tuple(sorted(set(range(12)) - {i, i + 1})) for i in range(0, 8, 2)]
    layer = HypergraphLayer.from_hyperedges(12, [make_hyperedge(e) for e in observed])
    counts = {e: 0 for e in combinations(range(12), 10) if e not in observed}
    for seed in range(1000):
        for e in sample_negatives(layer, seed, sizes=[10, 10, 10]).node_tuples():
            counts[e] += 1
    assert sum(counts.values()) == 3000
    assert chi_square_p(list(counts.values())) > 1e-3


def test_sample_negatives_of_large_sizes_finish_with_uniform_nodes():
    # sizes 60 of 200 and 400 of 1,700 nodes: no row of distinct nodes is
    # rejected, so a call takes one round; each node is in a size-60 set
    # with probability 60 / 200
    layer = oracles.layer(200, [range(60)])
    hits = np.zeros(200)
    for seed in range(100):
        negs = sample_negatives(layer, seed, sizes=[60] * 10)
        assert negs.num_hyperedges == 10 and np.all(np.diff(negs.offsets) == 60)
        hits += np.bincount(negs.nodes, minlength=200)
    assert chi_square_p(hits) > 1e-3
    big = oracles.layer(1700, [range(400)])
    rows = sample_negatives(big, seed=0, sizes=[400] * 4).node_tuples()
    assert len(set(rows)) == 4 and all(len(set(e)) == 400 for e in rows)


def test_sample_negatives_exhausts_exactly():
    observed = [(0, 1), (1, 3), (2, 4), (0, 1, 2)]
    layer = HypergraphLayer.from_hyperedges(5, [make_hyperedge(e) for e in observed])
    free = [e for e in combinations(range(5), 2) if e not in observed]
    negs = sample_negatives(layer, seed=3, sizes=[2] * len(free) + [3])
    assert [e for e in negs.node_tuples() if len(e) == 2] == free
    with pytest.raises(ValueError, match="size 2"):
        sample_negatives(layer, seed=3, sizes=[2] * (len(free) + 1))
    with pytest.raises(ValueError, match="size 6"):
        sample_negatives(layer, seed=3, sizes=[6])
    # 62 of the 66 sets of size 10 among 12 nodes observed: the last four
    # are found in a few rounds, each scaled up by how few sets are left
    sets = list(combinations(range(12), 10))
    dense = HypergraphLayer.from_hyperedges(12, [make_hyperedge(e) for e in sets[4:]])
    assert sample_negatives(dense, seed=3, sizes=[10] * 4).node_tuples() == sets[:4]


def test_layer_constants_values():
    layer = oracles.layer(3, [[0, 1]])
    # one pair: q = m = 1, c = 1 + 2/6 = 4/3
    assert layer_constants(layer) == pytest.approx(4.0 / 3.0, abs=1e-15)

    # one size-6 hyperedge on 7 nodes: q = 15, c = 1/15 + 2/42 = 4/35
    big = oracles.layer(7, [range(6)])
    assert layer_constants(big) == pytest.approx(4.0 / 35.0, abs=1e-15)


def test_layer_constants_ignore_weights_and_allow_override():
    layer1 = HypergraphLayer.from_hyperedges(
        6, [make_hyperedge([0, 1], 1.0), make_hyperedge([2, 3, 4], 1.0)]
    )
    layer2 = HypergraphLayer.from_hyperedges(
        6, [make_hyperedge([0, 1], 2.0), make_hyperedge([2, 3, 4], 2.0)]
    )
    assert layer_constants(layer1) == layer_constants(layer2)
    doubled = layer_constants(layer1, m_override=4)
    assert doubled == pytest.approx(2 * layer_constants(layer1))


def test_layer_constants_validation():
    empty = oracles.layer(4, [])
    with pytest.raises(ValueError, match="no hyperedges"):
        layer_constants(empty)
    with pytest.raises(ValueError, match="m_override must be positive, got 0"):
        layer_constants(oracles.layer(3, [[0, 1]]), m_override=0)


def test_latent_state_validation():
    good = LatentState((np.ones((2, 2)),), (np.eye(2),), {})
    good.validate()
    with pytest.raises(ValueError):
        LatentState((np.array([[1.0, -0.1]]),), (np.eye(2),), {}).validate()
    with pytest.raises(ValueError):
        LatentState((np.ones((2, 2)),), (np.array([[1.0, 0.5], [0.1, 1.0]]),), {}).validate()
    with pytest.raises(ValueError):
        LatentState((np.full((2, 2), np.nan),), (np.eye(2),), {}).validate()
    # stacks: the last two axes are one restart's matrix, for R != K and R == K
    rng = np.random.default_rng(3)
    for r, k in ((3, 2), (2, 2), (1, 4)):
        w = rng.random((r, k, k))
        LatentState((rng.random((r, 5, k)),), (w + np.swapaxes(w, -1, -2),), {}).validate()
    w = rng.random((3, 3, 3))
    w = w + np.swapaxes(w, -1, -2)
    w[1, 0, 2] += 0.25
    with pytest.raises(ValueError, match="symmetric"):
        LatentState((rng.random((3, 5, 3)),), (w,), {}).validate()
    with pytest.raises(ValueError, match="symmetric"):
        LatentState((rng.random((2, 5, 3)),), (rng.random((2, 3, 2)),), {}).validate()


def test_incidence_rates_match_per_edge_lambda():
    # a stack of one and a stack of three, against the per-edge oracles
    rng = np.random.default_rng(17)
    n, restarts = 11, 3
    edges = {
        tuple(sorted(rng.choice(n, size=int(size), replace=False).tolist()))
        for size in rng.integers(2, 6, size=25)
    }
    layer = HypergraphLayer.from_hyperedges(n, [make_hyperedge(e) for e in sorted(edges)])
    inc = ThetaIncidence(layer, theta_table(layer))
    u = rng.random((restarts, n, 3))
    w = rng.random((restarts, 3, 3))
    w = w + np.swapaxes(w, -1, -2)
    rates = inc.edge_rates(u, w, inc.edge_sums(u))
    one = u[1:2]
    assert np.array_equal(inc.edge_rates(one, w[1:2], inc.edge_sums(one))[0], rates[1])
    for eid, e in enumerate(layer.hyperedges):
        theta = compute_theta(layer, e)
        for r in range(restarts):
            expected = lambda_e(e, theta, u[r], w[r])
            assert abs(rates[r, eid] - expected) <= 1e-12 * abs(expected)

    ub = rng.random((restarts, 7, 2))
    w_cross = rng.random((restarts, 3, 2))
    rows, cols = rng.integers(n, size=40), rng.integers(7, size=40)
    cross = cross_rates(u, ub, w_cross, rows, cols)
    assert np.array_equal(cross_rates(u[1], ub[1], w_cross[1], rows, cols), cross[1])
    for k, (i, j) in enumerate(zip(rows, cols)):
        for r in range(restarts):
            expected = lambda_ij(u[r, i], ub[r, j], w_cross[r])
            assert abs(cross[r, k] - expected) <= 1e-12 * abs(expected)


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


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(float, st.tuples(*[st.integers(1, 16)] * 3), elements=st.floats(1e-3, 1e3)),
    st.sampled_from(["C", "F"]),
)
def test_column_sums_match_sum(u, order):
    # the same bytes as the reduction they replace in the sweep, for every
    # layout: einsum where it adds rows in order, sum where it would not
    u = np.asarray(u, order=order)
    assert _column_sums(u).tobytes() == u.sum(axis=-2).tobytes()


def scalar_objective(mh, state, consts):
    """Oracle: direct loop evaluation of the objective for tiny instances."""
    total = 0.0
    for l, layer in enumerate(mh.layers):
        u, w = state.u[l], state.w[l]
        total -= consts[l] * naive_pairwise_sum(u, w)
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
        for i, j, weight in zip(s.rows, s.cols, s.weights):
            total += weight * math.log(float(ua[i] @ wc @ ub[j]))
    return total


def test_surrogate_scalar_example():
    layer = oracles.layer(3, [[0, 1]])
    mh = MultiHypergraph((layer,))
    consts = (layer_constants(layer),)
    state = LatentState.stack([LatentState((np.ones((3, 1)),), (np.array([[1.0]]),), {})])
    value = EMEngine(mh, consts=consts).objective(state)[0]
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
            rows = sorted(seen)
            return oracles.layer(n, rows, [float(rng.integers(1, 4)) for _ in rows])

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
        value = EMEngine(mh, consts=consts).objective(LatentState.stack([state]))[0]
        assert value == pytest.approx(
            scalar_objective(mh, state, consts), rel=1e-9
        )


def test_surrogate_degenerate_state_errors():
    layer = oracles.layer(3, [[0, 1]])
    mh = MultiHypergraph((layer,))
    consts = (layer_constants(layer),)
    state = LatentState.stack([LatentState((np.zeros((3, 1)),), (np.array([[1.0]]),), {})])
    with pytest.raises(DegenerateStateError):
        EMEngine(mh, consts=consts).objective(state)
