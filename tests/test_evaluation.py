"""Metrics and prediction protocols, checked against direct-computation oracles."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import hyperblock
from hyperblock.core import HypergraphLayer, InterEdgeSet, MultiHypergraph, make_hyperedge
from hyperblock.evaluation import (
    HyperedgePredictionReport,
    auc,
    community_f1,
    cosine_similarity,
    hard_labels,
    hyperedge_prediction_cv,
    inter_edge_prediction,
    nmi,
    score_hyperedge,
    select_k,
)
from hyperblock.inference import InferenceConfig
from hyperblock.internal_degree import SubHyperedgeCounter
from hyperblock.synth import planted_partition
import oracles


# -- oracles: independent direct computations --------------------------------


def nmi_oracle(x, y):
    """Entropy arithmetic from explicit probability dictionaries."""
    n = len(x)
    pxy = {}
    for a, b in zip(x, y):
        pxy[(a, b)] = pxy.get((a, b), 0) + 1 / n
    px, py = {}, {}
    for (a, b), p in pxy.items():
        px[a] = px.get(a, 0) + p
        py[b] = py.get(b, 0) + p
    mi = sum(p * math.log(p / (px[a] * py[b])) for (a, b), p in pxy.items())
    hx = -sum(p * math.log(p) for p in px.values())
    hy = -sum(p * math.log(p) for p in py.values())
    if hx + hy == 0:
        return 1.0
    return 2 * mi / (hx + hy)


def f1_oracle(x, y):
    """Set arithmetic over explicit community extents, both directions."""
    def extents(labels):
        out = {}
        for i, lab in enumerate(labels):
            out.setdefault(lab, set()).add(i)
        return out

    def one_direction(from_comms, to_comms):
        n = sum(len(s) for s in from_comms.values())
        total = 0.0
        for s in from_comms.values():
            best = max(2 * len(s & t) / (len(s) + len(t)) for t in to_comms.values())
            total += len(s) * best
        return total / n

    tx, ty = extents(x), extents(y)
    return 0.5 * (one_direction(ty, tx) + one_direction(tx, ty))


def auc_oracle(pos, neg):
    """Brute-force count over every positive-negative pair."""
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


# -- hard labels and partitions ----------------------------------------------


def test_hard_labels_ties_go_low():
    u = np.array([[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]])
    assert hard_labels(u).tolist() == [1, 0, 0]


def test_label_vector_validation():
    for metric in (nmi, community_f1):
        with pytest.raises(ValueError, match="equal-length"):
            metric(np.array([0, 1]), np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="equal-length"):
            metric(np.array([[0, 1]]), np.array([[0, 1]]))
        with pytest.raises(ValueError, match="empty"):
            metric(np.array([]), np.array([]))
        with pytest.raises(TypeError):
            metric([0, 1])


# -- NMI ---------------------------------------------------------------------


def test_nmi_examples():
    assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert nmi([0, 1, 0, 1], [0, 0, 1, 1]) == 0.0
    assert nmi([0, 0, 1, 1], [0, 0, 0, 1]) == pytest.approx(0.3437, abs=1e-4)
    # identical trivial partitions carry no information but match perfectly
    assert nmi([5, 5, 5], [2, 2, 2]) == 1.0


def test_nmi_matches_oracle_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(5, 40))
        x = rng.integers(0, 4, size=n).tolist()
        y = rng.integers(0, 3, size=n).tolist()
        assert nmi(x, y) == pytest.approx(max(0.0, nmi_oracle(x, y)), abs=1e-12)


def test_nmi_relabeling_invariant():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 3, size=30)
    y = rng.integers(0, 3, size=30)
    assert nmi(x, y) == pytest.approx(nmi((x + 7) * 3, y), abs=1e-14)
    assert nmi(x, y) == pytest.approx(nmi(y, x), abs=1e-14)


# -- best-match F1 -----------------------------------------------------------


def test_f1_examples():
    assert community_f1([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    # size-weighted both ways: truth direction (3*0.8 + 1*(2/3))/4,
    # predicted direction (2*0.8 + 2*(2/3))/4, averaged
    assert community_f1([0, 0, 1, 1], [0, 0, 0, 1]) == pytest.approx(0.75, abs=1e-12)
    # all-singletons vs one block: every F1 is 2/(n+1)
    n = 5
    assert community_f1(list(range(n)), [0] * n) == pytest.approx(2 / (n + 1), abs=1e-12)


def test_f1_matches_oracle_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(5, 40))
        x = rng.integers(0, 4, size=n).tolist()
        y = rng.integers(0, 3, size=n).tolist()
        assert community_f1(x, y) == pytest.approx(f1_oracle(x, y), abs=1e-12)


def test_f1_symmetric_and_relabeling_invariant():
    rng = np.random.default_rng(4)
    x = rng.integers(0, 4, size=25)
    y = rng.integers(0, 3, size=25)
    assert community_f1(x, y) == pytest.approx(community_f1(y, x), abs=1e-14)
    assert community_f1(x, y) == pytest.approx(community_f1(x * 10 + 3, y), abs=1e-14)


# -- cosine similarity -------------------------------------------------------


def test_cosine_similarity_perfect():
    u = np.array([[0.0, 2.0], [0.0, 1.0], [3.0, 0.0]])
    assert cosine_similarity(u, [1, 1, 0]) == pytest.approx(1.0, abs=1e-12)


def test_cosine_similarity_uniform_rows():
    for k in (2, 3, 4):
        u = np.full((6, k), 1.0 / k)
        truth = [i % k for i in range(6)]
        assert cosine_similarity(u, truth) == pytest.approx(1.0 / math.sqrt(k), abs=1e-12)


def test_cosine_similarity_zero_rows_and_errors():
    u = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert cosine_similarity(u, [0, 1]) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError, match="columns"):
        cosine_similarity(np.ones((3, 2)), [0, 1, 2])
    with pytest.raises(ValueError, match="align"):
        cosine_similarity(np.ones((3, 2)), [0, 1])
    with pytest.raises(ValueError, match="2-d"):
        cosine_similarity(np.ones(3), [0, 1, 2])


def test_cosine_similarity_column_permutation_invariant():
    rng = np.random.default_rng(5)
    u = rng.random((12, 3))
    truth = rng.integers(0, 3, size=12)
    base = cosine_similarity(u, truth)
    for perm in ([1, 0, 2], [2, 1, 0], [1, 2, 0]):
        assert cosine_similarity(u[:, perm], truth) == pytest.approx(base, abs=1e-12)


def test_scipy_optimize_loads_only_to_align_communities():
    # a fresh interpreter runs the paper's three tasks without the assignment
    # solver; the first cosine_similarity call loads it
    u = np.random.default_rng(5).random((12, 3))
    truth = [int(t) for t in np.random.default_rng(6).integers(0, 3, size=12)]
    script = textwrap.dedent(f"""
        import sys
        import numpy as np
        import hyperblock, hyperblock.cli
        from hyperblock.evaluation import (
            cosine_similarity, hyperedge_prediction_cv, inter_edge_prediction)
        from hyperblock.inference import InferenceConfig, fit
        from hyperblock.synth import planted_partition

        mh = planted_partition(num_nodes=30, num_communities=2, num_layers=2, c_in=0.5,
                               c_out=0.05, max_size=3, inter_edge_count=60, seed=0)
        cfg = InferenceConfig(k_per_layer=(2, 2), restarts=1, max_iters=3)
        fit(mh, cfg)
        hyperedge_prediction_cv(mh, cfg, folds=2)
        inter_edge_prediction(mh, cfg, repeats=1)
        print("scipy.optimize" in sys.modules)
        print(repr(cosine_similarity(np.array({u.tolist()!r}), {truth!r})))
        print("scipy.optimize" in sys.modules)
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hyperblock.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    before, value, after = proc.stdout.split()
    assert before == "False"
    assert float(value) == cosine_similarity(u, truth)
    assert after == "True"


# -- AUC ---------------------------------------------------------------------


def test_auc_examples():
    assert auc([1.0, 2.0], [0.1, 0.2]) == 1.0
    assert auc([0.5], [0.5]) == 0.5
    assert auc([0.9, 0.1], [0.5, 0.05]) == 0.75
    with pytest.raises(ValueError):
        auc([], [0.1])


def test_auc_matches_oracle_with_ties():
    rng = np.random.default_rng(7)
    for _ in range(60):
        np_, nn = int(rng.integers(1, 15)), int(rng.integers(1, 15))
        pos = (rng.integers(0, 6, size=np_) / 4.0).tolist()
        neg = (rng.integers(0, 6, size=nn) / 4.0).tolist()
        assert auc(pos, neg) == pytest.approx(auc_oracle(pos, neg), abs=1e-15)


def test_auc_complement_exact():
    rng = np.random.default_rng(8)
    for _ in range(30):
        pos = rng.integers(0, 8, size=int(rng.integers(1, 20))) / 8.0
        neg = rng.integers(0, 8, size=int(rng.integers(1, 20))) / 8.0
        assert auc(pos, neg) + auc(neg, pos) == 1.0


def test_auc_monotone_transform_invariant():
    rng = np.random.default_rng(9)
    pos = rng.integers(0, 64, size=12) / 64.0
    neg = rng.integers(0, 64, size=9) / 64.0
    base = auc(pos, neg)
    assert auc(np.exp(pos), np.exp(neg)) == base
    assert auc(3.0 * pos + 1.0, 3.0 * neg + 1.0) == base


# -- candidate scoring -------------------------------------------------------


def test_score_hyperedge_values():
    layer = oracles.layer(3, [[0, 1, 2]])
    counter = SubHyperedgeCounter(layer)
    u = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    w = np.array([[1.0, 2.0], [2.0, 3.0]])

    def score(nodes, w=w):
        batch = HypergraphLayer.from_arrays(3, nodes, [0, len(nodes)], [1.0])
        (value,) = score_hyperedge(batch, counter, u, w).tolist()
        return value

    # the candidate's only sub-hyperedge is itself, so contributions are 1
    assert score([0, 1, 2]) == pytest.approx(10.0 / 3.0, abs=1e-12)
    # candidates without observed sub-hyperedges fall back to uniform contributions
    assert score([0, 1]) == pytest.approx(2.0, abs=1e-12)
    assert score([0, 1], np.zeros((2, 2))) == 0.0
    # a layer of candidates scores one value per row, as each row alone
    batch = HypergraphLayer.from_hyperedges(3, [make_hyperedge([0, 1, 2]), make_hyperedge([0, 1])])
    assert score_hyperedge(batch, counter, u, w).tolist() == [score([0, 1]), score([0, 1, 2])]


# -- hyperedge prediction CV -------------------------------------------------


@pytest.fixture(scope="module")
def planted_easy():
    return planted_partition(
        num_nodes=24,
        num_communities=2,
        num_layers=2,
        c_in=0.3,
        c_out=0.01,
        max_size=3,
        inter_edge_count=100,
        seed=3,
    )


@pytest.fixture(scope="module")
def planted_separable():
    """Dense disjoint blocks, pairwise edges only: held-out edges separate
    perfectly because every unobserved candidate crosses communities."""
    return planted_partition(
        num_nodes=24,
        num_communities=2,
        num_layers=2,
        c_in=6.0,
        c_out=0.0,
        max_size=2,
        inter_edge_count=80,
        seed=0,
    )


def cv_cfg(**kw):
    base = dict(k_per_layer=(2, 2), restarts=2, max_iters=200, seed=0)
    base.update(kw)
    return InferenceConfig(**base)


def test_cv_on_separable_data(planted_separable):
    report = hyperedge_prediction_cv(
        planted_separable, cv_cfg(restarts=10), folds=3, seed=1
    )
    assert isinstance(report, HyperedgePredictionReport)
    assert len(report.fold_auc) == 2 and all(len(r) == 3 for r in report.fold_auc)
    assert report.auc_mean >= 0.98
    assert report.auc_mean == pytest.approx(float(np.mean(report.layer_mean)), abs=1e-12)
    assert set(report.by_max_size) == {2}
    payload = report.to_json_dict()
    assert payload["folds"] == 3 and payload["seed"] == 1
    assert payload["by_max_size"]["2"]["mean"] == report.by_max_size[2][0]


def test_cv_size_breakdown(planted_easy):
    report = hyperedge_prediction_cv(
        planted_easy, cv_cfg(restarts=1, max_iters=60), folds=2, seed=5
    )
    assert set(report.by_max_size) == {2, 3}
    for mean, sd in report.by_max_size.values():
        assert 0.0 <= mean <= 1.0 and sd >= 0.0
    # the D=3 slice covers every test hyperedge, so it carries the aggregate
    assert report.by_max_size[3][0] == pytest.approx(report.auc_mean, abs=1e-12)


def test_cv_deterministic(planted_separable):
    a = hyperedge_prediction_cv(planted_separable, cv_cfg(restarts=1), folds=2, seed=5)
    b = hyperedge_prediction_cv(planted_separable, cv_cfg(restarts=1), folds=2, seed=5)
    assert a == b


def test_cv_validation(planted_easy):
    with pytest.raises(ValueError, match="folds"):
        hyperedge_prediction_cv(planted_easy, cv_cfg(), folds=1)
    tiny = MultiHypergraph((oracles.layer(5, [[0, 1], [2, 3]]),))
    with pytest.raises(ValueError, match="too few"):
        hyperedge_prediction_cv(tiny, InferenceConfig(k_per_layer=(1,)), folds=3)


# -- inter-edge prediction ---------------------------------------------------


def test_inter_edge_prediction_on_planted(planted_easy):
    report = inter_edge_prediction(
        planted_easy, cv_cfg(restarts=2), removal_ratio=0.0, repeats=2, seed=2
    )
    assert report.auc_mean >= 0.8
    assert len(report.auc_per_repeat) == 2
    assert report.auc_sd >= 0.0
    payload = report.to_json_dict()
    assert payload["removal_ratio"] == 0.0 and payload["repeats"] == 2


def test_inter_edge_prediction_validation(planted_easy):
    no_inter = MultiHypergraph(planted_easy.layers)
    with pytest.raises(ValueError, match="no inter-edge"):
        inter_edge_prediction(no_inter, cv_cfg())
    with pytest.raises(ValueError, match="removal_ratio"):
        inter_edge_prediction(planted_easy, cv_cfg(), removal_ratio=1.0)
    with pytest.raises(ValueError, match="repeats"):
        inter_edge_prediction(planted_easy, cv_cfg(), repeats=0)
    small = MultiHypergraph(
        planted_easy.layers,
        (InterEdgeSet(0, 1, ((0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0))),),
    )
    with pytest.raises(ValueError, match="too small"):
        inter_edge_prediction(small, cv_cfg(), repeats=1)


def test_inter_edge_prediction_raises_when_cross_pairs_run_out(monkeypatch):
    # every one of the 3 x 3 cross pairs is observed, so the one test pair
    # has no unobserved pair to score against; that is known before a fit
    import hyperblock.evaluation as evaluation

    monkeypatch.setattr(evaluation, "fit", lambda *args: pytest.fail("fit before the check"))
    layers = tuple(oracles.layer(3, [[0, 1], [1, 2]]) for _ in range(2))
    full = InterEdgeSet(0, 1, [(i, j, 1.0) for i in range(3) for j in range(3)])
    with pytest.raises(ValueError, match=r"only 0 unobserved cross pairs of layer pair \(0, 1\)"):
        inter_edge_prediction(
            MultiHypergraph(layers, (full,)), InferenceConfig(k_per_layer=(1, 1)), repeats=1
        )


def test_cv_raises_before_fitting_when_node_sets_run_out(monkeypatch):
    # the layer holds all 10 pairs of 5 nodes, so no held-out pair has an
    # unobserved pair to score against; that is known before any fold's fit
    import hyperblock.evaluation as evaluation

    monkeypatch.setattr(evaluation, "fit", lambda *args: pytest.fail("fit before the check"))
    full = oracles.layer(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    with pytest.raises(ValueError, match="only 0 unobserved candidates of size 2"):
        hyperedge_prediction_cv(MultiHypergraph((full,)), InferenceConfig(k_per_layer=(1,)))


# -- K selection -------------------------------------------------------------


def test_select_k_prefers_true_k():
    mh = planted_partition(
        num_nodes=30,
        num_communities=2,
        num_layers=2,
        c_in=2.0,
        c_out=0.0,
        max_size=2,
        inter_edge_count=60,
        seed=8,
    )
    best, reports = select_k(
        mh, cv_cfg(restarts=2), k_grid=(1, 2), folds=2, seed=4
    )
    assert set(reports) == {1, 2}
    assert best == 2
    assert reports[2].auc_mean >= reports[1].auc_mean
    with pytest.raises(ValueError, match="empty"):
        select_k(mh, cv_cfg(), k_grid=())
