"""EM engine: initialization, marginals, update rules, sweeps and fit."""

import logging
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from hyperblock.core import HypergraphLayer, InterEdgeSet, MultiHypergraph, make_hyperedge
from hyperblock.inference import (
    EMEngine,
    FitFailureError,
    InferenceConfig,
    NonFiniteUpdateError,
    RestartOutcome,
    _guarded_ratio,
    _run_batch,
    fit,
    initialize,
)
from hyperblock.likelihood import (
    DegenerateStateError,
    LatentState,
    RateCarry,
    _per_restart_product,
    _row_dots,
    cross_rates,
    layer_constants,
)
import oracles


def tiny_layer():
    """Three nodes, a single pairwise hyperedge; node 2 is isolated."""
    return oracles.layer(3, [[0, 1]])


def random_multi(rng, num_layers=2, with_inter=True, n_lo=8, n_hi=14):
    layers = []
    for _ in range(num_layers):
        n = int(rng.integers(n_lo, n_hi))
        seen = set()
        for _ in range(3 * n):
            size = int(rng.integers(2, 4))
            seen.add(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
        rows = sorted(seen)
        layers.append(oracles.layer(n, rows, [float(rng.integers(1, 3)) for _ in rows]))
    inter = ()
    if with_inter and num_layers >= 2:
        na, nb = layers[0].num_nodes, layers[1].num_nodes
        pairs = {(int(rng.integers(na)), int(rng.integers(nb))) for _ in range(2 * na)}
        inter = (InterEdgeSet(0, 1, tuple(sorted((i, j, 1.0) for i, j in pairs))),)
    return MultiHypergraph(tuple(layers), inter)


def initialize_with_dead(dead):
    """``initialize`` with the restarts in ``dead`` (offsets from the config
    seed) started all-zero, so the first objective drops them."""

    def some_dead(mh, cfg, restart_seed):
        state = initialize(mh, cfg, restart_seed)
        if restart_seed - cfg.seed not in dead:
            return state
        return LatentState(tuple(np.zeros_like(u) for u in state.u), state.w, state.w_cross)

    return some_dead


def run_restart(engine, mh, cfg, restart):
    """One restart alone: (state, trace, converged); raises the error that
    would drop it from a fit."""
    (run,) = _run_batch(engine, mh, cfg, [restart])
    if run.error is not None:
        raise run.error
    return run.state, tuple(run.trace), run.converged


def complete_pairwise(n):
    edges = [make_hyperedge([i, j]) for i in range(n) for j in range(i + 1, n)]
    return HypergraphLayer.from_hyperedges(n, edges)


# The penalty constant of a complete pairwise layer: every candidate pair is
# observed, so q = m and the constant is m * (1/m + 2/(n(n-1))) = 2 exactly.
COMPLETE_CONST = 2.0


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


# -- single update rules, checked against hand arithmetic --------------------


def test_updated_u_scalar_example():
    mh = MultiHypergraph((tiny_layer(),))
    engine = EMEngine(mh)
    assert engine.consts[0] == pytest.approx(4.0 / 3.0)
    state = LatentState.stack([LatentState((np.ones((3, 1)),), (np.array([[1.0]]),), {})])
    new_u = engine.updated_u(state, 0)
    assert np.allclose(new_u.ravel(), [3.0 / 8.0, 3.0 / 8.0, 0.0], atol=1e-12)


def test_updated_w_scalar_example():
    mh = MultiHypergraph((tiny_layer(),))
    engine = EMEngine(mh)
    state = LatentState.stack([LatentState((np.ones((3, 1)),), (np.array([[1.0]]),), {})])
    new_w = engine.updated_w(state, 0)
    assert new_w[0, 0, 0] == pytest.approx(0.25, abs=1e-12)


def test_updated_w_cross_scalar_example():
    # 2-node and 3-node layers, one unit inter-edge, all-ones memberships:
    # the update lands on 1/6 from any positive starting value
    la = oracles.layer(2, [[0, 1]])
    lb = oracles.layer(3, [[0, 1, 2]])
    inter = InterEdgeSet(0, 1, ((0, 0, 1.0),))
    mh = MultiHypergraph((la, lb), (inter,))
    engine = EMEngine(mh, consts=(1.0, 1.0))
    for start in (0.3, 1.0, 5.0):
        state = LatentState.stack([LatentState(
            (np.ones((2, 1)), np.ones((3, 1))),
            (np.array([[1.0]]), np.array([[1.0]])),
            {(0, 1): np.array([[start]])},
        )])
        new_cross = engine.updated_w_cross(state, (0, 1))
        assert new_cross[0, 0, 0] == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_guarded_ratio():
    num = np.array([1.0, 0.0, 2.0])
    den = np.array([2.0, 0.0, 4.0])
    assert np.array_equal(_guarded_ratio(num, den, "test"), [0.5, 0.0, 0.5])
    with pytest.raises(NonFiniteUpdateError, match="test"):
        _guarded_ratio(np.array([1.0]), np.array([0.0]), "test")
    # zero, negative-zero and NaN numerators give 0 over any denominator,
    # zero and NaN included, with no warning and no error
    num = np.array([[0.0, -0.0, np.nan, 3.0], [np.nan, 0.0, 0.0, 1.0]])
    den = np.array([[0.0, -1.0, 0.0, 2.0], [np.nan, np.nan, 5.0, 8.0]])
    out = _guarded_ratio(num, den, "test")
    assert out.tobytes() == np.array([[0.0, 0.0, 0.0, 1.5], [0.0, 0.0, 0.0, 0.125]]).tobytes()
    # the error names the restarts (leading axis) with a positive numerator
    # over a non-positive denominator
    num = np.ones((3, 2))
    den = np.array([[1.0, 1.0], [1.0, 0.0], [-1.0, 1.0]])
    with pytest.raises(NonFiniteUpdateError) as info:
        _guarded_ratio(num, den, "test")
    assert info.value.restarts == (1, 2)


def test_zero_membership_row_is_absorbing():
    mh = MultiHypergraph((tiny_layer(),))
    engine = EMEngine(mh)
    u = np.array([[1.0], [1.0], [0.0]])
    state = LatentState.stack([LatentState((u,), (np.array([[1.0]]),), {})])
    for _ in range(3):
        state = engine.sweep(state)
    assert state.u[0][0, 2, 0] == 0.0


# -- sweeps ------------------------------------------------------------------


def test_sweep_monotone_objective():
    rng = np.random.default_rng(3)
    for trial in range(6):
        mh = random_multi(rng, with_inter=(trial % 2 == 0))
        cfg = InferenceConfig(k_per_layer=(2, 2))
        engine = EMEngine(mh)
        state = LatentState.stack([initialize(mh, cfg, restart_seed=trial)])
        prev = engine.objective(state)[0]
        for _ in range(30):
            state = engine.sweep(state)
            obj = engine.objective(state)[0]
            assert obj >= prev - 1e-8 * abs(prev)
            prev = obj


def test_sweep_preserves_validity():
    rng = np.random.default_rng(4)
    mh = random_multi(rng)
    cfg = InferenceConfig(k_per_layer=(3, 2))
    engine = EMEngine(mh)
    state = LatentState.stack([initialize(mh, cfg, restart_seed=0)])
    for _ in range(5):
        state = engine.sweep(state)
    state.validate()


def test_sweep_frees_the_old_carry_before_the_w_updates(monkeypatch):
    mh = random_multi(np.random.default_rng(5))
    engine = EMEngine(mh)
    state = LatentState.stack([initialize(mh, InferenceConfig(k_per_layer=(2, 3)), 0)])
    carry = RateCarry()
    engine.objective(state, carry)
    old = [weakref.ref(carry.sums[0]), weakref.ref(carry.rates[0])]
    real_updated_w = EMEngine.updated_w
    alive = []

    def recording_updated_w(self, state, l, carry=None):
        alive.append([ref() is not None for ref in old])
        return real_updated_w(self, state, l, carry)

    monkeypatch.setattr(EMEngine, "updated_w", recording_updated_w)
    engine.sweep(state, carry)
    assert alive == [[False, False], [False, False]]


def test_fixed_point_complete_layer():
    # complete pairwise layer: constant memberships 1/sqrt(c * b) and any
    # uniform affinity b reproduce themselves exactly under one sweep
    n = 8
    mh = MultiHypergraph((complete_pairwise(n),))
    engine = EMEngine(mh, consts=(COMPLETE_CONST,))
    for b in (1.0, 0.7, 3.0):
        alpha = 1.0 / np.sqrt(2.0 * b)
        state = LatentState((np.full((n, 1), alpha),), (np.array([[b]]),), {})
        after = engine.sweep(LatentState.stack([state])).take(0)
        assert np.max(np.abs(after.u[0] - alpha)) <= 1e-10
        assert abs(after.w[0][0, 0] - b) <= 1e-10


def test_fixed_point_two_block_memberships():
    # two communities filled with the same constant: a rank-deficient but
    # exact stationary point when the uniform affinity matches
    n = 6
    mh = MultiHypergraph((complete_pairwise(n),))
    engine = EMEngine(mh, consts=(COMPLETE_CONST,))
    b = 0.5
    alpha = 1.0 / np.sqrt(2.0 * 4.0 * b)  # W = 4b for the all-b 2x2 affinity
    state = LatentState((np.full((n, 2), alpha),), (np.full((2, 2), b),), {})
    after = engine.sweep(LatentState.stack([state])).take(0)
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
    engine = EMEngine(mh, consts=(COMPLETE_CONST, COMPLETE_CONST))
    alpha, beta = 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)
    gamma = sigma * 2.0
    state = LatentState(
        (np.full((na, 1), alpha), np.full((nb, 1), beta)),
        (np.array([[1.0]]), np.array([[1.0]])),
        {(0, 1): np.array([[gamma]])},
    )
    after = engine.sweep(LatentState.stack([state])).take(0)
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
    state = LatentState.stack([initialize(mh, cfg, restart_seed=9)])
    singles = [
        EMEngine(MultiHypergraph((mh.layers[l],)), consts=(joint.consts[l],))
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
    state_a, state_b = (
        LatentState.stack([s]) for s in (state_a, LatentState((u_b,), state_a.w, {}))
    )
    for _ in range(3):
        state_a = engine_a.sweep(state_a)
        state_b = engine_b.sweep(state_b)
    state_a, state_b = state_a.take(0), state_b.take(0)
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
    finals = [run_restart(engine, mh, cfg, r)[1][-1][1] for r in range(3)]
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

    monkeypatch.setattr(inf, "initialize", initialize_with_dead({1}))
    # on this instance restart 1 would win undropped; restart 2 wins without it
    mh = random_multi(np.random.default_rng(6))
    cfg = InferenceConfig(k_per_layer=(2, 2), restarts=4, max_iters=20)
    engine = EMEngine(mh)
    with pytest.raises(DegenerateStateError):
        run_restart(engine, mh, cfg, 1)
    survivors = {r: run_restart(engine, mh, cfg, r) for r in (0, 2, 3)}
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


def test_fit_warns_when_most_restarts_are_dropped(monkeypatch, caplog):
    import hyperblock.inference as inf

    mh = random_multi(np.random.default_rng(6))
    for restarts, dropped, warned in ((3, {0, 2}, True), (4, {1, 3}, False), (5, {0}, False)):
        monkeypatch.setattr(inf, "initialize", initialize_with_dead(dropped))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="hyperblock"):
            result = fit(mh, InferenceConfig(k_per_layer=(2, 2), restarts=restarts, max_iters=5))
        assert sum(r.dropped is not None for r in result.restarts) == len(dropped)
        messages = [rec.getMessage() for rec in caplog.records if rec.name == "hyperblock"]
        summary = f"{len(dropped)} of {restarts} restarts dropped"
        assert messages.count(summary) == int(warned)
        assert len(messages) == len(dropped) + int(warned)


def test_updated_w_cross_names_a_pair_without_inter_edges():
    mh = random_multi(np.random.default_rng(2))
    engine = EMEngine(mh)
    state = LatentState.stack([initialize(mh, InferenceConfig(k_per_layer=(2, 2)), 0)])
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        engine.updated_w_cross(state, (1, 0))


def test_every_phase_names_the_same_zero_cross_rate():
    # restart 1 of 3 has w_cross = 0, so every observed inter-edge has rate 0
    layer = oracles.layer(3, [[0, 1], [0, 1, 2]])
    inter = InterEdgeSet(0, 1, ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)))
    mh = MultiHypergraph((layer, layer), (inter,))
    engine = EMEngine(mh)
    cfg = InferenceConfig(k_per_layer=(2, 2))
    stack = LatentState.stack([initialize(mh, cfg, r) for r in range(3)])
    stack.w_cross[(0, 1)][1] = 0.0
    for call in (engine.objective, engine.sweep,
                 lambda state: engine.updated_w_cross(state, (0, 1))):
        with pytest.raises(DegenerateStateError) as caught:
            call(stack)
        assert caught.value.restarts == (1,)
        assert str(caught.value) == "zero rate on observed inter-edge (0, 1) of pair (0, 1)"


def assert_same_state(a, b):
    for x, y in zip(a.u + a.w, b.u + b.w):
        assert x.tobytes() == y.tobytes()
    assert a.w_cross.keys() == b.w_cross.keys()
    for key in a.w_cross:
        assert a.w_cross[key].tobytes() == b.w_cross[key].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    instance=st.integers(0, 2**32 - 1),
    num_layers=st.integers(1, 3),
    with_inter=st.booleans(),
    k=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    restarts=st.integers(1, 3),
    checks=st.lists(st.booleans(), min_size=1, max_size=8),
    drop=st.one_of(st.none(), st.tuples(st.integers(0, 7), st.integers(0, 2))),
)
def test_carry_matches_calls_without_it(instance, num_layers, with_inter, k, restarts,
                                        checks, drop):
    # sweep i is preceded by an objective when checks[i]; at sweep drop[0] the
    # restart at drop[1] leaves the stack and the carry is subset with it
    mh = random_multi(np.random.default_rng(instance), num_layers, with_inter)
    cfg = InferenceConfig(k_per_layer=k[:num_layers])
    engine = EMEngine(mh)
    plain = LatentState.stack([initialize(mh, cfg, instance % 1000 + r) for r in range(restarts)])
    carried, carry = plain, RateCarry()
    prev = None
    for i, check in enumerate(checks):
        if drop is not None and drop[0] == i and plain.u[0].shape[0] > 1:
            keep = [r for r in range(plain.u[0].shape[0]) if r != drop[1] % restarts]
            plain, carried, carry = plain.take(keep), carried.take(keep), carry.take(keep)
            prev = None if prev is None else prev[keep]
        if check:
            obj = engine.objective(plain)
            assert obj.tobytes() == engine.objective(carried, carry).tobytes()
            if prev is not None:
                assert np.all(obj >= prev - 1e-8 * np.abs(prev))
            prev = obj
        plain, carried = engine.sweep(plain), engine.sweep(carried, carry)
        assert_same_state(plain, carried)
        carried.validate()
    assert engine.objective(plain).tobytes() == engine.objective(carried, carry).tobytes()


def test_restart_failing_after_the_ratios_were_carried(monkeypatch):
    # restart 1 of 3 fails in layer 1's u update at sweep 3, after the sweep
    # built the cross ratios into the carry and layer 0's u update used
    # them; the others go on with the carry subset and must match running
    # alone
    import hyperblock.inference as inf

    mh = random_multi(np.random.default_rng(9))
    cfg = InferenceConfig(k_per_layer=(2, 3), restarts=3, max_iters=8, tol=1e-12, check_every=2)
    engine = EMEngine(mh)
    alone = {r: run_restart(engine, mh, cfg, r) for r in (0, 2)}
    real_updated_u = EMEngine.updated_u
    calls = []

    def failing_updated_u(self, state, l, carry=None):
        out = real_updated_u(self, state, l, carry)
        if l == 1 and state.u[0].shape[0] == 3:
            calls.append(sorted(carry.ratios))
            if len(calls) == 3:
                raise NonFiniteUpdateError("injected", restarts=(1,))
        return out

    monkeypatch.setattr(EMEngine, "updated_u", failing_updated_u)
    runs = inf._run_batch(engine, mh, cfg, [0, 1, 2])
    assert calls == [[(0, 1)]] * 3
    assert runs[1].sweeps == 2 and str(runs[1].error) == "injected"
    for r in (0, 2):
        state, trace, converged = alone[r]
        assert runs[r].error is None
        assert tuple(runs[r].trace) == trace and runs[r].converged == converged
        assert_same_state(runs[r].state, state)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    restarts=st.integers(1, 4),
    ka=st.integers(1, 4),
    kb=st.integers(1, 4),
    na=st.integers(2, 30),
    nb=st.integers(2, 30),
    num_pairs=st.integers(1, 60),
)
def test_stacked_kernels_match_their_reference_forms(seed, restarts, ka, kb, na, nb,
                                                     num_pairs):
    rng = np.random.default_rng(seed)
    ua, ub = rng.random((restarts, na, ka)), rng.random((restarts, nb, kb))
    w_cross = rng.random((restarts, ka, kb))
    pairs = sorted({(int(rng.integers(na)), int(rng.integers(nb))) for _ in range(num_pairs)})
    rows, cols = (np.array(side) for side in zip(*pairs))

    # cross rates contract u_a w_cross once per node, then gather; with one
    # pair the gathered product has one row, which numpy hands to another
    # BLAS routine, so the two forms may differ in the last bit
    gathered = _row_dots(ua[..., rows, :] @ w_cross, ub[..., cols, :])
    rates = cross_rates(ua, ub, w_cross, rows, cols)
    if len(pairs) > 1:
        assert rates.tobytes() == gathered.tobytes()
    else:
        np.testing.assert_allclose(rates, gathered, rtol=1e-15, atol=0)

    # one sparse product for all restarts, per restart as alone
    mat = sparse.random(nb, na, density=0.3, format="csr", random_state=rng)
    vectors = rng.random((restarts, na))
    assert _per_restart_product(mat, vectors).tobytes() == np.stack(
        [mat @ v for v in vectors]
    ).tobytes()
    assert _per_restart_product(mat, ua).tobytes() == np.stack(
        [mat @ m for m in ua]
    ).tobytes()


def fit_every_layout(mh, cfg):
    """fit with one restart per batch on three threads and on one, and with
    every restart in one batch."""
    import hyperblock.inference as inf

    results = []
    for entries, cores in ((1, 3), (1, 1), (10**12, 3)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inf, "_BATCH_ENTRIES", entries)
            mp.setattr(inf, "_cores", lambda: cores)
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

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inf, "initialize", initialize_with_dead(dead))
        concurrent, serial, together = fit_every_layout(mh, cfg)
    if isinstance(together, FitFailureError):
        assert isinstance(concurrent, FitFailureError) and isinstance(serial, FitFailureError)
        assert set(range(restarts)) <= dead
        return
    assert_same_fit(concurrent, together)
    assert_same_fit(serial, together)
    assert [r.dropped is not None for r in together.restarts] == [
        r in dead for r in range(restarts)
    ]


def test_fit_batch_keeps_restarts_that_converge_early():
    # a loose tolerance: restarts converge at different sweeps and leave the
    # stack one by one, while the rest keep sweeping
    mh = random_multi(np.random.default_rng(12))
    cfg = InferenceConfig(k_per_layer=(2, 3), restarts=4, max_iters=60, tol=1e-3,
                          check_every=2)
    concurrent, serial, together = fit_every_layout(mh, cfg)
    assert_same_fit(concurrent, together)
    assert_same_fit(serial, together)
    sweeps = [r.sweeps for r in together.restarts]
    assert any(r.converged for r in together.restarts)
    assert len(set(sweeps)) > 1


def test_fit_batches_on_more_threads_than_cores_keep_restart_order(monkeypatch):
    # eight one-restart batches on six threads that switch often: every
    # batch's runs must land at their own position
    import hyperblock.inference as inf

    mh = random_multi(np.random.default_rng(4))
    cfg = InferenceConfig(k_per_layer=(2, 2), restarts=8, max_iters=10, check_every=2)
    together = fit(mh, cfg)
    monkeypatch.setattr(inf, "_BATCH_ENTRIES", 1)
    monkeypatch.setattr(inf, "_cores", lambda: 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        concurrent = fit(mh, cfg)
    finally:
        sys.setswitchinterval(interval)
    assert_same_fit(concurrent, together)


def test_fit_raises_the_error_of_a_concurrent_batch(monkeypatch):
    import hyperblock.inference as inf

    real_run_batch = inf._run_batch
    started = []

    def failing_run_batch(engine, mh, cfg, restarts):
        started.append(restarts[0])
        if restarts[0] == 1:
            raise RuntimeError("injected")
        return real_run_batch(engine, mh, cfg, restarts)

    monkeypatch.setattr(inf, "_run_batch", failing_run_batch)
    monkeypatch.setattr(inf, "_BATCH_ENTRIES", 1)
    monkeypatch.setattr(inf, "_cores", lambda: 2)
    mh = random_multi(np.random.default_rng(4))
    with pytest.raises(RuntimeError, match="injected"):
        fit(mh, InferenceConfig(k_per_layer=(2, 2), restarts=6, max_iters=5))
    # each thread stops after its current batch
    assert 1 in started and len(started) < 6


def test_threaded_fit_leaves_no_thread_behind(monkeypatch):
    import hyperblock.inference as inf

    real_run_batch = inf._run_batch
    fail = []

    def run_batch(engine, mh, cfg, restarts):
        if restarts[0] in fail:
            raise RuntimeError("injected")
        return real_run_batch(engine, mh, cfg, restarts)

    monkeypatch.setattr(inf, "_run_batch", run_batch)
    monkeypatch.setattr(inf, "_BATCH_ENTRIES", 1)
    monkeypatch.setattr(inf, "_cores", lambda: 3)
    mh = random_multi(np.random.default_rng(4))
    cfg = InferenceConfig(k_per_layer=(2, 2), restarts=6, max_iters=5)
    before = threading.active_count()
    fit(mh, cfg)
    assert threading.active_count() == before
    fail.append(2)
    with pytest.raises(RuntimeError, match="injected"):
        fit(mh, cfg)
    assert threading.active_count() == before


def test_fit_at_the_batch_bound_matches_each_restart_alone(monkeypatch, caplog):
    # one restart alone fills a batch, so the batches run side by side on
    # three threads; restart 1 starts all-zero and is dropped by the first
    # objective
    import hyperblock.inference as inf

    rng = np.random.default_rng(17)
    n = 3000
    rows = np.sort(rng.integers(n, size=(16_000, 3)), axis=1)
    rows = rows[(rows[:, 0] < rows[:, 1]) & (rows[:, 1] < rows[:, 2])]
    layer = HypergraphLayer.from_arrays(
        n, rows.ravel(), np.arange(0, rows.size + 1, 3), np.ones(len(rows))
    )
    mh = MultiHypergraph((layer,))
    cfg = InferenceConfig(k_per_layer=(8,), restarts=3, max_iters=3, check_every=1)
    assert (n + layer.num_hyperedges) * 8 >= inf._BATCH_ENTRIES
    monkeypatch.setattr(inf, "initialize", initialize_with_dead({1}))
    monkeypatch.setattr(inf, "_cores", lambda: 3)
    with caplog.at_level(logging.DEBUG, logger="hyperblock"):
        result = fit(mh, cfg)
    messages = [rec.getMessage() for rec in caplog.records if rec.name == "hyperblock"]
    assert messages[0] == "fit layout: 3 batches of up to 1 restarts on 3 threads"
    assert len(messages) == 2 and messages[1].startswith("restart 1 (seed 1) dropped")

    engine = EMEngine(mh)
    with pytest.raises(DegenerateStateError):
        run_restart(engine, mh, cfg, 1)
    alone = {r: run_restart(engine, mh, cfg, r) for r in (0, 2)}
    best = max(alone, key=lambda r: alone[r][1][-1][1])
    assert result.best_restart == best
    assert result.objective_trace == alone[best][1]
    assert_same_state(result.state, alone[best][0])
    assert result.restarts == (
        RestartOutcome(0, alone[0][1][-1][1], 3, alone[0][2]),
        RestartOutcome(1, None, 0, False, "DegenerateStateError"),
        RestartOutcome(2, alone[2][1][-1][1], 3, alone[2][2]),
    )


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
    empty = MultiHypergraph((oracles.layer(4, []),))
    with pytest.raises(ValueError, match="no hyperedges"):
        fit(empty, InferenceConfig(k_per_layer=(1,)))


@pytest.mark.parametrize("field, value", [
    ("tol", float("nan")),   # compares False with 0, so the fit never converged
    ("m_override", 0),       # made every restart degenerate
    ("m_override", -3),
    ("seed", -1),            # numpy raised from inside the first batch
])
def test_fit_rejects_a_bad_config_value_before_engine_setup(monkeypatch, field, value):
    import hyperblock.inference as inf

    monkeypatch.setattr(inf, "EMEngine", lambda *args, **kwargs: pytest.fail("engine set up"))
    cfg = InferenceConfig(k_per_layer=(1,), **{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be"):
        fit(MultiHypergraph((tiny_layer(),)), cfg)


def test_m_override_reaches_the_fit():
    mh = random_multi(np.random.default_rng(7))
    cfg = InferenceConfig(k_per_layer=(2, 2), restarts=2, max_iters=10, m_override=50)
    result = fit(mh, cfg)
    state = LatentState.stack([result.state])
    consts = [layer_constants(layer, cfg.m_override) for layer in mh.layers]
    # float equality is byte equality here: the fit scored this state with
    # exactly these constants
    assert result.final_objective == EMEngine(mh, consts).objective(state)[0]
    assert result.final_objective != EMEngine(mh).objective(state)[0]


def test_fit_on_complete_pairwise_layer():
    # all 10 pairs of 5 nodes are observed, so no unobserved hyperedge exists;
    # the penalty constant is closed-form and the fit needs none
    mh = MultiHypergraph((complete_pairwise(5),))
    result = fit(mh, InferenceConfig(k_per_layer=(2,), restarts=2, max_iters=20))
    assert np.isfinite(result.final_objective)
    result.state.validate()
    assert EMEngine(mh).consts[0] == pytest.approx(2.0, abs=1e-15)


def test_assortative_fit_keeps_off_diagonal_zero():
    mh = random_multi(np.random.default_rng(11), with_inter=False)
    cfg = InferenceConfig(k_per_layer=(3, 3), restarts=1, max_iters=20, assortative=True)
    result = fit(mh, cfg)
    for l in range(2):
        off = result.state.w[l][~np.eye(3, dtype=bool)]
        assert np.all(off == 0.0)
