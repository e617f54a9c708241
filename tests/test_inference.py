"""EM engine: initialization, marginals, update rules, sweeps and fit."""

import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperblock.core import HypergraphLayer, InterEdgeSet, MultiHypergraph, make_hyperedge
from hyperblock.inference import (
    EMEngine,
    FitFailureError,
    InferenceConfig,
    NonFiniteUpdateError,
    RestartOutcome,
    _guarded_ratio,
    _run_restart,
    e_step_hyperedge,
    e_step_pair,
    fit,
    initialize,
)
from hyperblock.likelihood import DegenerateStateError, LatentState, LayerConstants


def tiny_layer():
    """Three nodes, a single pairwise hyperedge; node 2 is isolated."""
    return HypergraphLayer(3, (make_hyperedge([0, 1]),))


def random_multi(rng, num_layers=2, with_inter=True, n_lo=8, n_hi=14):
    layers = []
    for _ in range(num_layers):
        n = int(rng.integers(n_lo, n_hi))
        seen = set()
        for _ in range(3 * n):
            size = int(rng.integers(2, 4))
            seen.add(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
        layers.append(
            HypergraphLayer(
                n, tuple(make_hyperedge(s, float(rng.integers(1, 3))) for s in sorted(seen))
            )
        )
    inter = ()
    if with_inter and num_layers >= 2:
        na, nb = layers[0].num_nodes, layers[1].num_nodes
        pairs = {(int(rng.integers(na)), int(rng.integers(nb))) for _ in range(2 * na)}
        inter = (InterEdgeSet(0, 1, tuple(sorted((i, j, 1.0) for i, j in pairs))),)
    return MultiHypergraph(tuple(layers), inter)


def complete_pairwise(n):
    edges = [make_hyperedge([i, j]) for i in range(n) for j in range(i + 1, n)]
    return HypergraphLayer.from_hyperedges(n, edges)


def complete_consts(n):
    """Penalty constants of a complete pairwise layer, built without sampling.

    Every candidate pair is observed, so negatives cannot exist; the constant
    is m * (1/m + 2/(n(n-1))) = 2 exactly.
    """
    m = n * (n - 1) // 2
    return LayerConstants(q_pairs=m, m_count=m, c_l=2.0)


# -- initialization ----------------------------------------------------------


def test_initialize_deterministic_and_in_range():
    mh = random_multi(np.random.default_rng(0))
    cfg = InferenceConfig(k_per_layer=(3, 2))
    a = initialize(mh, cfg, restart_seed=17)
    b = initialize(mh, cfg, restart_seed=17)
    c = initialize(mh, cfg, restart_seed=18)
    for l in range(2):
        assert np.array_equal(a.u[l], b.u[l])
        assert not np.array_equal(a.u[l], c.u[l])
        assert np.all(a.u[l] > 0.05) and np.all(a.u[l] <= 1.0)
        assert np.array_equal(a.w[l], a.w[l].T)
        assert np.all(np.diag(a.w[l]) > 0.05)
    assert a.u[0].shape == (mh.layers[0].num_nodes, 3)
    assert a.w[1].shape == (2, 2)
    assert a.w_cross[(0, 1)].shape == (3, 2)
    a.validate()


def test_initialize_assortative_shares_diagonals():
    mh = random_multi(np.random.default_rng(1))
    cfg = InferenceConfig(k_per_layer=(3, 3))
    full = initialize(mh, cfg, restart_seed=5)
    diag = initialize(mh, replace(cfg, assortative=True), restart_seed=5)
    for l in range(2):
        off = diag.w[l][~np.eye(3, dtype=bool)]
        assert np.all(off == 0.0)
        assert np.array_equal(np.diag(diag.w[l]), np.diag(full.w[l]))
        # the streams stay aligned after the w draws too
        assert np.array_equal(diag.u[l], full.u[l])
    assert np.array_equal(diag.w_cross[(0, 1)], full.w_cross[(0, 1)])


# -- variational marginals ---------------------------------------------------


def test_e_step_hyperedge_uniform():
    u = np.ones((3, 1))
    theta = {0: 1.0, 1: 1.0, 2: 1.0}
    p_node, p_pair = e_step_hyperedge([0, 1, 2], theta, u, np.array([[1.0]]))
    assert np.allclose(p_node, 2.0 / 3.0)
    assert p_pair.sum() == pytest.approx(1.0, abs=1e-12)


def test_e_step_marginal_sums_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n, k = int(rng.integers(4, 9)), int(rng.integers(1, 4))
        size = int(rng.integers(2, min(5, n) + 1))
        nodes = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        u = rng.random((n, k)) + 0.01
        w = rng.random((k, k)) + 0.01
        w = 0.5 * (w + w.T)
        theta = {i: float(rng.random() + 0.1) for i in nodes}
        p_node, p_pair = e_step_hyperedge(nodes, theta, u, w)
        assert p_node.sum() == pytest.approx(2.0, rel=1e-10)
        assert p_pair.sum() == pytest.approx(1.0, rel=1e-10)
        assert np.all(p_node >= 0) and np.all(p_pair >= -1e-15)


def test_e_step_degenerate():
    with pytest.raises(DegenerateStateError):
        e_step_hyperedge([0, 1], {0: 1.0, 1: 1.0}, np.zeros((2, 1)), np.array([[1.0]]))
    with pytest.raises(DegenerateStateError):
        e_step_pair(np.zeros(2), np.ones(2), np.ones((2, 2)))


def test_e_step_pair_example():
    rho = e_step_pair(np.array([1.0, 2.0]), np.array([3.0, 1.0]),
                      np.array([[1.0, 0.0], [0.0, 2.0]]))
    assert np.allclose(rho, [[3.0 / 7.0, 0.0], [0.0, 4.0 / 7.0]], atol=1e-12)
    assert rho.sum() == pytest.approx(1.0, abs=1e-12)


# -- single update rules, checked against hand arithmetic --------------------


def test_updated_u_scalar_example():
    mh = MultiHypergraph((tiny_layer(),))
    engine = EMEngine(mh)
    assert engine.consts[0].c_l == pytest.approx(4.0 / 3.0)
    state = LatentState((np.ones((3, 1)),), (np.array([[1.0]]),), {})
    new_u = engine.updated_u(state, 0)
    assert np.allclose(new_u.ravel(), [3.0 / 8.0, 3.0 / 8.0, 0.0], atol=1e-12)


def test_updated_w_scalar_example():
    mh = MultiHypergraph((tiny_layer(),))
    engine = EMEngine(mh)
    state = LatentState((np.ones((3, 1)),), (np.array([[1.0]]),), {})
    new_w = engine.updated_w(state, 0)
    assert new_w[0, 0] == pytest.approx(0.25, abs=1e-12)


def test_updated_w_cross_scalar_example():
    # 2-node and 3-node layers, one unit inter-edge, all-ones memberships:
    # the update lands on 1/6 from any positive starting value
    la = HypergraphLayer(2, (make_hyperedge([0, 1]),))
    lb = HypergraphLayer(3, (make_hyperedge([0, 1, 2]),))
    inter = InterEdgeSet(0, 1, ((0, 0, 1.0),))
    mh = MultiHypergraph((la, lb), (inter,))
    dummy = LayerConstants(q_pairs=1, m_count=1, c_l=1.0)
    engine = EMEngine(mh, consts=(dummy, dummy))
    for start in (0.3, 1.0, 5.0):
        state = LatentState(
            (np.ones((2, 1)), np.ones((3, 1))),
            (np.array([[1.0]]), np.array([[1.0]])),
            {(0, 1): np.array([[start]])},
        )
        new_cross = engine.updated_w_cross(state, (0, 1))
        assert new_cross[0, 0] == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_guarded_ratio():
    num = np.array([1.0, 0.0, 2.0])
    den = np.array([2.0, 0.0, 4.0])
    assert np.array_equal(_guarded_ratio(num, den, "test"), [0.5, 0.0, 0.5])
    with pytest.raises(NonFiniteUpdateError, match="test"):
        _guarded_ratio(np.array([1.0]), np.array([0.0]), "test")


def test_zero_membership_row_is_absorbing():
    mh = MultiHypergraph((tiny_layer(),))
    engine = EMEngine(mh)
    u = np.array([[1.0], [1.0], [0.0]])
    state = LatentState((u,), (np.array([[1.0]]),), {})
    for _ in range(3):
        state = engine.sweep(state)
    assert state.u[0][2, 0] == 0.0


# -- sweeps ------------------------------------------------------------------


def test_sweep_monotone_objective():
    rng = np.random.default_rng(3)
    for trial in range(6):
        mh = random_multi(rng, with_inter=(trial % 2 == 0))
        cfg = InferenceConfig(k_per_layer=(2, 2))
        engine = EMEngine(mh)
        state = initialize(mh, cfg, restart_seed=trial)
        prev = engine.objective(state)
        for _ in range(30):
            state = engine.sweep(state)
            obj = engine.objective(state)
            assert obj >= prev - 1e-8 * abs(prev)
            prev = obj


def test_sweep_preserves_validity():
    rng = np.random.default_rng(4)
    mh = random_multi(rng)
    cfg = InferenceConfig(k_per_layer=(3, 2))
    engine = EMEngine(mh)
    state = initialize(mh, cfg, restart_seed=0)
    for _ in range(5):
        state = engine.sweep(state)
    state.validate()


def test_fixed_point_complete_layer():
    # complete pairwise layer: constant memberships 1/sqrt(c * b) and any
    # uniform affinity b reproduce themselves exactly under one sweep
    n = 8
    mh = MultiHypergraph((complete_pairwise(n),))
    engine = EMEngine(mh, consts=(complete_consts(n),))
    for b in (1.0, 0.7, 3.0):
        alpha = 1.0 / np.sqrt(2.0 * b)
        state = LatentState((np.full((n, 1), alpha),), (np.array([[b]]),), {})
        after = engine.sweep(state)
        assert np.max(np.abs(after.u[0] - alpha)) <= 1e-10
        assert abs(after.w[0][0, 0] - b) <= 1e-10


def test_fixed_point_two_block_memberships():
    # two communities filled with the same constant: a rank-deficient but
    # exact stationary point when the uniform affinity matches
    n = 6
    mh = MultiHypergraph((complete_pairwise(n),))
    engine = EMEngine(mh, consts=(complete_consts(n),))
    b = 0.5
    alpha = 1.0 / np.sqrt(2.0 * 4.0 * b)  # W = 4b for the all-b 2x2 affinity
    state = LatentState((np.full((n, 2), alpha),), (np.full((2, 2), b),), {})
    after = engine.sweep(state)
    assert np.max(np.abs(after.u[0] - alpha)) <= 1e-10
    assert np.max(np.abs(after.w[0] - b)) <= 1e-10


def test_fixed_point_joint_cross_layer():
    # complete layers coupled by a complete uniform bipartite inter-edge set:
    # cross affinity sigma * sqrt(c_a * c_b) closes the joint fixed point
    na, nb, sigma = 5, 7, 0.8
    inter = InterEdgeSet(
        0, 1, tuple((i, j, sigma) for i in range(na) for j in range(nb))
    )
    mh = MultiHypergraph((complete_pairwise(na), complete_pairwise(nb)), (inter,))
    engine = EMEngine(mh, consts=(complete_consts(na), complete_consts(nb)))
    alpha, beta = 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)
    gamma = sigma * 2.0
    state = LatentState(
        (np.full((na, 1), alpha), np.full((nb, 1), beta)),
        (np.array([[1.0]]), np.array([[1.0]])),
        {(0, 1): np.array([[gamma]])},
    )
    after = engine.sweep(state)
    assert np.max(np.abs(after.u[0] - alpha)) <= 1e-10
    assert np.max(np.abs(after.u[1] - beta)) <= 1e-10
    assert abs(after.w[0][0, 0] - 1.0) <= 1e-10
    assert abs(after.w[1][0, 0] - 1.0) <= 1e-10
    assert abs(after.w_cross[(0, 1)][0, 0] - gamma) <= 1e-10


def test_uncoupled_layers_decouple():
    # with no inter-edges, sweeping the joint state slice by slice must give
    # bitwise the same trajectories as sweeping each layer alone
    rng = np.random.default_rng(5)
    mh = random_multi(rng, with_inter=False)
    cfg = InferenceConfig(k_per_layer=(2, 3))
    joint = EMEngine(mh)
    state = initialize(mh, cfg, restart_seed=9)
    singles = [
        EMEngine(MultiHypergraph((mh.layers[l],)), tables=(joint.tables[l],),
                 consts=(joint.consts[l],))
        for l in range(2)
    ]
    parts = [LatentState((state.u[l],), (state.w[l],), {}) for l in range(2)]
    for _ in range(4):
        state = joint.sweep(state)
        parts = [singles[l].sweep(parts[l]) for l in range(2)]
        for l in range(2):
            assert np.array_equal(state.u[l], parts[l].u[0])
            assert np.array_equal(state.w[l], parts[l].w[0])


def test_sweep_node_permutation_equivariance():
    rng = np.random.default_rng(6)
    base = random_multi(rng, num_layers=1, with_inter=False).layers[0]
    n = base.num_nodes
    perm = rng.permutation(n)
    relabeled = HypergraphLayer.from_hyperedges(
        n, [make_hyperedge([int(perm[i]) for i in e.nodes], e.weight) for e in base.hyperedges]
    )
    cfg = InferenceConfig(k_per_layer=(2,))
    mh_a = MultiHypergraph((base,))
    mh_b = MultiHypergraph((relabeled,))
    engine_a = EMEngine(mh_a)
    engine_b = EMEngine(mh_b, consts=(engine_a.consts[0],))  # constants are size-only
    state_a = initialize(mh_a, cfg, restart_seed=1)
    u_b = np.empty_like(state_a.u[0])
    u_b[perm] = state_a.u[0]
    state_b = LatentState((u_b,), state_a.w, {})
    for _ in range(3):
        state_a = engine_a.sweep(state_a)
        state_b = engine_b.sweep(state_b)
    assert np.allclose(state_b.u[0][perm], state_a.u[0], rtol=1e-9, atol=1e-12)
    assert np.allclose(state_b.w[0], state_a.w[0], rtol=1e-9, atol=1e-12)


# -- fit ---------------------------------------------------------------------


def test_fit_deterministic():
    mh = random_multi(np.random.default_rng(7))
    cfg = InferenceConfig(k_per_layer=(2, 2), restarts=2, max_iters=30)
    a = fit(mh, cfg)
    b = fit(mh, cfg)
    for l in range(2):
        assert np.array_equal(a.state.u[l], b.state.u[l])
        assert np.array_equal(a.state.w[l], b.state.w[l])
    assert a.objective_trace == b.objective_trace
    assert a.best_restart == b.best_restart


def test_fit_picks_best_restart():
    mh = random_multi(np.random.default_rng(9))
    cfg = InferenceConfig(k_per_layer=(2, 2), restarts=3, max_iters=20)
    result = fit(mh, cfg)
    engine = EMEngine(mh)
    finals = [_run_restart(engine, mh, cfg, r)[1][-1][1] for r in range(3)]
    assert result.best_restart == int(np.argmax(finals))
    assert result.final_objective == pytest.approx(max(finals), rel=1e-12)


def test_fit_trace_and_convergence():
    mh = random_multi(np.random.default_rng(10), with_inter=False)
    cfg = InferenceConfig(k_per_layer=(2, 2), restarts=1)
    result = fit(mh, cfg)
    iters, objs = zip(*result.objective_trace)
    assert iters[0] == 0
    assert all(b - a == cfg.check_every for a, b in zip(iters[1:], iters[2:]))
    assert all(b >= a - 1e-8 * abs(a) for a, b in zip(objs, objs[1:]))
    assert result.converged
    assert result.iterations <= cfg.max_iters
    assert result.best_restart == 0


def test_fit_all_restarts_degenerate(monkeypatch):
    import hyperblock.inference as inf

    def dead_state(mh, cfg, restart_seed):
        u = tuple(
            np.zeros((layer.num_nodes, cfg.k_per_layer[l]))
            for l, layer in enumerate(mh.layers)
        )
        w = tuple(np.eye(cfg.k_per_layer[l]) for l in range(mh.num_layers))
        return LatentState(u, w, {})

    monkeypatch.setattr(inf, "initialize", dead_state)
    mh = MultiHypergraph((tiny_layer(),))
    with pytest.raises(FitFailureError):
        fit(mh, InferenceConfig(k_per_layer=(1,), restarts=2, max_iters=5))


def test_fit_skips_one_degenerate_restart(monkeypatch, caplog):
    import hyperblock.inference as inf

    real_initialize = inf.initialize

    def second_dead(mh, cfg, restart_seed):
        state = real_initialize(mh, cfg, restart_seed)
        if restart_seed != cfg.seed + 1:
            return state
        return LatentState(tuple(np.zeros_like(u) for u in state.u), state.w, state.w_cross)

    monkeypatch.setattr(inf, "initialize", second_dead)
    # on this instance restart 1 would win undropped; restart 2 wins without it
    mh = random_multi(np.random.default_rng(6))
    cfg = InferenceConfig(k_per_layer=(2, 2), restarts=4, max_iters=20)
    engine = EMEngine(mh)
    with pytest.raises(DegenerateStateError):
        _run_restart(engine, mh, cfg, 1)
    survivors = {r: _run_restart(engine, mh, cfg, r) for r in (0, 2, 3)}
    best = max(survivors, key=lambda r: survivors[r][1][-1][1])
    with caplog.at_level(logging.WARNING, logger="hyperblock"):
        result = fit(mh, cfg)
    assert result.best_restart == best == 2
    state, trace, converged = survivors[best]
    assert result.objective_trace == trace
    assert result.converged == converged
    for l in range(2):
        assert np.array_equal(result.state.u[l], state.u[l])
    assert result.restarts[1] == RestartOutcome(
        seed=cfg.seed + 1, final_objective=None, sweeps=0, converged=False,
        dropped="DegenerateStateError",
    )
    for r, (_, trace, converged) in survivors.items():
        assert result.restarts[r] == RestartOutcome(
            seed=cfg.seed + r, final_objective=trace[-1][1], sweeps=trace[-1][0],
            converged=converged, dropped=None,
        )
    dropped = [rec for rec in caplog.records if rec.name == "hyperblock"]
    assert len(dropped) == 1
    assert dropped[0].levelno == logging.WARNING
    assert "restart 1 " in dropped[0].getMessage()


def fit_both_ways(mh, cfg):
    """fit with one restart per batch and with every restart in one batch."""
    import hyperblock.inference as inf

    results = []
    for entries in (1, 10**12):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inf, "_BATCH_ENTRIES", entries)
            try:
                results.append(fit(mh, cfg))
            except FitFailureError as exc:
                results.append(exc)
    return results


def assert_same_fit(a, b):
    assert a.objective_trace == b.objective_trace
    assert (a.best_restart, a.converged, a.restarts) == (b.best_restart, b.converged, b.restarts)
    for name in ("u", "w"):
        for x, y in zip(getattr(a.state, name), getattr(b.state, name)):
            assert x.tobytes() == y.tobytes()
    assert a.state.w_cross.keys() == b.state.w_cross.keys()
    for key in a.state.w_cross:
        assert a.state.w_cross[key].tobytes() == b.state.w_cross[key].tobytes()


@settings(max_examples=30, deadline=None)
@given(
    instance=st.integers(0, 2**32 - 1),
    num_layers=st.integers(1, 3),
    with_inter=st.booleans(),
    k=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    restarts=st.integers(1, 5),
    dead=st.sets(st.integers(0, 4), max_size=2),
    tol=st.sampled_from([1e-2, 1e-4, 1e-7]),
    check_every=st.integers(1, 5),
    assortative=st.booleans(),
)
@example(instance=12, num_layers=2, with_inter=True, k=[2, 3, 1], restarts=4, dead={1},
         tol=1e-3, check_every=2, assortative=False)
def test_fit_batches_match_one_restart_at_a_time(
    instance, num_layers, with_inter, k, restarts, dead, tol, check_every, assortative
):
    # restarts in ``dead`` start all-zero and are dropped by the first check
    import hyperblock.inference as inf

    mh = random_multi(np.random.default_rng(instance), num_layers, with_inter)
    cfg = InferenceConfig(
        k_per_layer=k[:num_layers], restarts=restarts, max_iters=40, tol=tol,
        check_every=check_every, assortative=assortative, seed=instance % 1000,
    )

    def some_dead(mh, cfg, restart_seed):
        state = real_initialize(mh, cfg, restart_seed)
        if restart_seed - cfg.seed not in dead:
            return state
        return LatentState(tuple(np.zeros_like(u) for u in state.u), state.w, state.w_cross)

    real_initialize = inf.initialize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inf, "initialize", some_dead)
        one, together = fit_both_ways(mh, cfg)
    if isinstance(one, FitFailureError):
        assert isinstance(together, FitFailureError)
        assert set(range(restarts)) <= dead
        return
    assert_same_fit(one, together)
    assert [r.dropped is not None for r in one.restarts] == [
        r in dead for r in range(restarts)
    ]


def test_fit_batch_keeps_restarts_that_converge_early():
    # a loose tolerance: restarts converge at different sweeps and leave the
    # stack one by one, while the rest keep sweeping
    mh = random_multi(np.random.default_rng(12))
    cfg = InferenceConfig(k_per_layer=(2, 3), restarts=4, max_iters=60, tol=1e-3,
                          check_every=2)
    one, together = fit_both_ways(mh, cfg)
    assert_same_fit(one, together)
    sweeps = [r.sweeps for r in together.restarts]
    assert any(r.converged for r in together.restarts)
    assert len(set(sweeps)) > 1


def test_fit_validates_config_and_data():
    mh = MultiHypergraph((tiny_layer(),))
    with pytest.raises(ValueError, match="k_per_layer"):
        fit(mh, InferenceConfig(k_per_layer=(1, 1)))
    with pytest.raises(ValueError, match="positive"):
        fit(mh, InferenceConfig(k_per_layer=(0,)))
    with pytest.raises(ValueError, match="restarts"):
        fit(mh, InferenceConfig(k_per_layer=(1,), restarts=0))
    with pytest.raises(ValueError, match="tol"):
        fit(mh, InferenceConfig(k_per_layer=(1,), tol=0.0))
    with pytest.raises(ValueError, match="max_iters"):
        fit(mh, InferenceConfig(k_per_layer=(1,), max_iters=0))
    empty = MultiHypergraph((HypergraphLayer(4, ()),))
    with pytest.raises(ValueError, match="no hyperedges"):
        fit(empty, InferenceConfig(k_per_layer=(1,)))


def test_fit_on_complete_pairwise_layer():
    # all 10 pairs of 5 nodes are observed, so no unobserved hyperedge exists;
    # the penalty constant is closed-form and the fit needs none
    mh = MultiHypergraph((complete_pairwise(5),))
    result = fit(mh, InferenceConfig(k_per_layer=(2,), restarts=2, max_iters=20))
    assert np.isfinite(result.final_objective)
    result.state.validate()
    assert EMEngine(mh).consts[0].c_l == pytest.approx(2.0, abs=1e-15)


def test_assortative_fit_keeps_off_diagonal_zero():
    mh = random_multi(np.random.default_rng(11), with_inter=False)
    cfg = InferenceConfig(k_per_layer=(3, 3), restarts=1, max_iters=20, assortative=True)
    result = fit(mh, cfg)
    for l in range(2):
        off = result.state.w[l][~np.eye(3, dtype=bool)]
        assert np.all(off == 0.0)
