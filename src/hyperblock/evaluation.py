"""Community-recovery metrics and link-prediction protocols.

Hard-label metrics (NMI, best-match F1) compare argmax communities against
ground truth; cosine similarity compares the soft membership rows directly
after an optimal column alignment.  Prediction quality is measured by exact
pairwise AUC under k-fold hyperedge cross-validation and a train/test split
of inter-layer edges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import HypergraphLayer, MultiHypergraph, _draw_fresh
from .inference import InferenceConfig, FitResult, fit
from .internal_degree import SubHyperedgeCounter, _as_candidates
from .likelihood import _pair_sum, cross_rates, mu, sample_negatives
# scores no candidate here; bench/measure.py traces it under this module
from .likelihood import lambda_e  # noqa: F401

__all__ = [
    "PartitionPair",
    "hard_labels",
    "nmi",
    "community_f1",
    "cosine_similarity",
    "auc",
    "score_hyperedge",
    "HyperedgePredictionReport",
    "hyperedge_prediction_cv",
    "InterEdgePredictionReport",
    "inter_edge_prediction",
    "select_k",
]


@dataclass(frozen=True)
class PartitionPair:
    """Aligned hard labelings of the same node set; label values are opaque."""

    predicted: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        pred = np.asarray(self.predicted)
        tru = np.asarray(self.truth)
        if pred.ndim != 1 or tru.ndim != 1 or pred.shape != tru.shape:
            raise ValueError("predicted and truth must be equal-length label vectors")
        if pred.size == 0:
            raise ValueError("empty partition")
        object.__setattr__(self, "predicted", pred)
        object.__setattr__(self, "truth", tru)

    @classmethod
    def from_mappings(cls, predicted: Mapping, truth: Mapping) -> "PartitionPair":
        if set(predicted) != set(truth):
            raise ValueError("predicted and truth cover different node sets")
        nodes = sorted(truth)
        return cls(
            np.asarray([predicted[v] for v in nodes]),
            np.asarray([truth[v] for v in nodes]),
        )


def hard_labels(u: np.ndarray) -> np.ndarray:
    """Community per node by row argmax; ties go to the lowest index."""
    return np.argmax(np.asarray(u, dtype=float), axis=1)


def _as_pair(pp, truth=None) -> PartitionPair:
    if truth is not None:
        return PartitionPair(np.asarray(pp), np.asarray(truth))
    if isinstance(pp, PartitionPair):
        return pp
    raise TypeError("expected a PartitionPair or (predicted, truth) label vectors")


def _contingency(pp: PartitionPair):
    """Truth-by-predicted count matrix."""
    _, ti = np.unique(pp.truth, return_inverse=True)
    _, pi = np.unique(pp.predicted, return_inverse=True)
    nt, npred = ti.max() + 1, pi.max() + 1
    counts = np.zeros((nt, npred), dtype=np.int64)
    np.add.at(counts, (ti, pi), 1)
    return counts


def nmi(pp, truth=None) -> float:
    """Mutual information normalized by the arithmetic mean of entropies.

    Returns 1.0 for two identical trivial (single-cluster) partitions.
    """
    pair = _as_pair(pp, truth)
    counts = _contingency(pair)
    n = counts.sum()
    pxy = counts / n
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    nz = pxy > 0
    mi = float((pxy[nz] * np.log(pxy[nz] / np.outer(px, py)[nz])).sum())
    hx = float(-(px[px > 0] * np.log(px[px > 0])).sum())
    hy = float(-(py[py > 0] * np.log(py[py > 0])).sum())
    if hx + hy == 0.0:
        return 1.0
    return float(np.clip(2.0 * mi / (hx + hy), 0.0, 1.0))


def community_f1(pp, truth=None) -> float:
    """Size-weighted best-match set F1, averaged over both match directions.

    Each truth community is matched to the predicted community maximizing
    2|A∩B| / (|A|+|B|); the scores are averaged weighted by community size.
    The same is done with roles swapped and the two directions averaged,
    making the metric symmetric in its arguments.
    """
    pair = _as_pair(pp, truth)
    counts = _contingency(pair)
    n = counts.sum()
    row_sizes = counts.sum(axis=1)
    col_sizes = counts.sum(axis=0)
    f1 = 2.0 * counts / (row_sizes[:, None] + col_sizes[None, :])
    truth_dir = float((row_sizes * f1.max(axis=1)).sum() / n)
    pred_dir = float((col_sizes * f1.max(axis=0)).sum() / n)
    return 0.5 * (truth_dir + pred_dir)


def cosine_similarity(u: np.ndarray, truth) -> float:
    """Mean per-node cosine between membership rows and one-hot ground truth.

    Truth communities are assigned to membership columns by solving the
    optimal one-to-one alignment over all column permutations.  All-zero
    membership rows contribute 0.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ValueError("u must be a 2-d membership matrix")
    labels = np.asarray(truth)
    if labels.shape != (u.shape[0],):
        raise ValueError("truth labels must align with the rows of u")
    _, inv = np.unique(labels, return_inverse=True)
    n_comms = inv.max() + 1
    if n_comms > u.shape[1]:
        raise ValueError(
            f"{n_comms} ground-truth communities but u has only {u.shape[1]} columns"
        )
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    unit = np.divide(u, norms, out=np.zeros_like(u), where=norms > 0)
    per_comm = np.zeros((n_comms, u.shape[1]))
    np.add.at(per_comm, inv, unit)
    rows, cols = linear_sum_assignment(-per_comm)
    return float(per_comm[rows, cols].sum() / u.shape[0])


def auc(pos_scores, neg_scores) -> float:
    """Fraction of positive-negative pairs ranked correctly, ties counted half.

    Exact pairwise computation in integer arithmetic; no rank approximation.
    """
    pos = np.asarray(pos_scores, dtype=float).ravel()
    neg = np.asarray(neg_scores, dtype=float).ravel()
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both score lists must be non-empty")
    neg_sorted = np.sort(neg)
    lo = np.searchsorted(neg_sorted, pos, side="left")
    hi = np.searchsorted(neg_sorted, pos, side="right")
    wins = int(lo.sum())
    ties = int((hi - lo).sum())
    return (2 * wins + ties) / (2 * pos.size * neg.size)


def score_hyperedge(candidates, counter, u: np.ndarray, w: np.ndarray):
    """Poisson rates of candidate hyperedges under a fitted layer state,
    divided by their pair counts ``mu``.

    ``candidates`` is a ``HypergraphLayer`` of candidate node sets, scored
    one value per row, or one candidate (node ids or a ``Hyperedge``),
    scored as a batch of one and returned as a float.  Node contributions
    come from the containment counts of the given counter's layer (the
    training data, or a ``HypergraphLayer`` to count against), uniform
    where a candidate contains no observed sub-hyperedge.  Each size's
    rates are one ``_pair_sum`` over that size's rows.
    """
    if isinstance(counter, HypergraphLayer):
        counter = SubHyperedgeCounter(counter)
    batch = _as_candidates(candidates, counter.layer.num_nodes)
    table = counter.theta(batch)
    x = table.values[:, None] * u[batch.nodes]
    starts, sizes = batch.offsets[:-1], np.diff(batch.offsets)
    scores = np.empty(sizes.size)
    for size in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == size)
        block = x[(starts[rows, None] + np.arange(size)).ravel()].reshape(rows.size, size, -1)
        scores[rows] = _pair_sum(block, w) / mu(size)
    return scores if batch is candidates else float(scores[0])


# ---------------------------------------------------------------------------
# hyperedge prediction under k-fold cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperedgePredictionReport:
    """AUC per layer and fold, means and sds across both, and per-size curves."""

    fold_auc: tuple[tuple[float, ...], ...]
    layer_mean: tuple[float, ...]
    layer_sd: tuple[float, ...]
    auc_mean: float
    auc_sd: float
    by_max_size: dict[int, tuple[float, float]]
    folds: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "auc_mean": self.auc_mean,
            "auc_sd": self.auc_sd,
            "layer_mean": list(self.layer_mean),
            "layer_sd": list(self.layer_sd),
            "fold_auc": [list(r) for r in self.fold_auc],
            "by_max_size": {
                str(d): {"mean": m, "sd": s} for d, (m, s) in sorted(self.by_max_size.items())
            },
            "folds": self.folds,
            "seed": self.seed,
        }


def _fold_assignment(num_items: int, folds: int, rng: np.random.Generator) -> np.ndarray:
    order = rng.permutation(num_items)
    assign = np.empty(num_items, dtype=int)
    assign[order] = np.arange(num_items) % folds
    return assign


def _mean_sd(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray([v for v in values if not np.isnan(v)], dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), sd


def hyperedge_prediction_cv(
    mh: MultiHypergraph,
    cfg: InferenceConfig,
    folds: int = 5,
    seed: int = 0,
    max_sizes: Optional[Sequence[int]] = None,
) -> HyperedgePredictionReport:
    """Held-out hyperedge AUC with one model fit per fold.

    Every layer's hyperedges are partitioned into ``folds`` groups at once;
    fold f trains on the remainder and scores the held-out positives of each
    layer against a same-size-profile negative sample that never appears
    anywhere in the full data.  Reports the per-layer mean and standard
    deviation across folds, their across-layer averages, and AUC restricted
    to test hyperedges of size at most D for each D on the size grid.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    cfg.validate(mh.num_layers)
    rng = np.random.default_rng([seed, 101])
    assignments = []
    for l, layer in enumerate(mh.layers):
        if layer.num_hyperedges < folds:
            raise ValueError(
                f"layer {l} has {layer.num_hyperedges} hyperedges, too few for {folds} folds"
            )
        assignments.append(_fold_assignment(layer.num_hyperedges, folds, rng))

    if max_sizes is None:
        top = max(max(layer.sizes()) for layer in mh.layers)
        max_sizes = range(2, top + 1)
    size_grid = sorted(set(int(d) for d in max_sizes))

    # every fold's candidates are drawn before the first fit, so a layer
    # with too few unobserved node sets fails before any fitting
    candidates = []
    for f in range(folds):
        fold_candidates = []
        for l, layer in enumerate(mh.layers):
            held = assignments[l] == f
            if held.all():
                raise ValueError(f"fold {f} empties layer {l}")
            positives = layer.subset(held)
            negatives = sample_negatives(
                layer, seed=[seed, 211, f, l], sizes=np.diff(positives.offsets)
            )
            fold_candidates.append((positives, negatives))
        candidates.append(fold_candidates)

    fold_scores = []
    for f in range(folds):
        train = MultiHypergraph(
            tuple(layer.subset(assignments[l] != f) for l, layer in enumerate(mh.layers)),
            mh.inter_edges,
        )
        result = fit(train, replace(cfg, seed=cfg.seed + f))
        layer_scores = []
        for l, layer in enumerate(train.layers):
            positives, negatives = candidates[f][l]
            counter = SubHyperedgeCounter(layer)
            u, w = result.state.u[l], result.state.w[l]
            # the AUC reads the scores of each size as a multiset, so the
            # candidates' row order does not matter
            layer_scores.append(tuple(
                (np.diff(c.offsets), score_hyperedge(c, counter, u, w))
                for c in (positives, negatives)
            ))
        fold_scores.append(layer_scores)

    num_layers = mh.num_layers
    fold_auc = [[float("nan")] * folds for _ in range(num_layers)]
    size_auc = {d: [[float("nan")] * folds for _ in range(num_layers)] for d in size_grid}
    for f in range(folds):
        for l in range(num_layers):
            (pos_sizes, pos), (neg_sizes, neg) = fold_scores[f][l]
            if pos.size and neg.size:
                fold_auc[l][f] = auc(pos, neg)
            for d in size_grid:
                ps, ns = pos[pos_sizes <= d], neg[neg_sizes <= d]
                if ps.size and ns.size:
                    size_auc[d][l][f] = auc(ps, ns)

    layer_stats = [_mean_sd(fold_auc[l]) for l in range(num_layers)]
    layer_mean = tuple(m for m, _ in layer_stats)
    layer_sd = tuple(s for _, s in layer_stats)
    by_size = {}
    for d in size_grid:
        stats = [_mean_sd(size_auc[d][l]) for l in range(num_layers)]
        means = [m for m, _ in stats if not np.isnan(m)]
        sds = [s for _, s in stats if not np.isnan(s)]
        if means:
            by_size[d] = (float(np.mean(means)), float(np.mean(sds)))
    return HyperedgePredictionReport(
        fold_auc=tuple(tuple(r) for r in fold_auc),
        layer_mean=layer_mean,
        layer_sd=layer_sd,
        auc_mean=float(np.mean(layer_mean)),
        auc_sd=float(np.mean(layer_sd)),
        by_max_size=by_size,
        folds=folds,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# inter-layer edge prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterEdgePredictionReport:
    auc_per_repeat: tuple[float, ...]
    auc_mean: float
    auc_sd: float
    removal_ratio: float
    repeats: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "auc_mean": self.auc_mean,
            "auc_sd": self.auc_sd,
            "auc_per_repeat": list(self.auc_per_repeat),
            "removal_ratio": self.removal_ratio,
            "repeats": self.repeats,
            "seed": self.seed,
        }


def inter_edge_prediction(
    mh: MultiHypergraph,
    cfg: InferenceConfig,
    removal_ratio: float = 0.0,
    repeats: int = 5,
    seed: int = 0,
) -> InterEdgePredictionReport:
    """Held-out inter-layer edge AUC after removing a fraction of them.

    Per repeat: drop ``removal_ratio`` of each inter-edge set uniformly,
    split the remainder 4:1 into train and test, fit on the training edges,
    then score each test pair by its fitted cross rate against an equal
    number of uniformly sampled cross pairs unobserved in the full data.
    With several inter-edge sets the per-set AUCs are averaged per repeat.
    """
    from .synth import remove_inter_edges

    if not mh.inter_edges:
        raise ValueError("no inter-edge sets to predict")
    if not 0.0 <= removal_ratio < 1.0:
        raise ValueError("removal_ratio must be in [0, 1)")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    cfg.validate(mh.num_layers)

    values = []
    for rep in range(repeats):
        reduced = remove_inter_edges(mh, removal_ratio, seed=[seed, 307, rep])
        rng = np.random.default_rng([seed, 401, rep])
        train_sets = []
        test_sets = []
        for s in reduced.inter_edges:
            n_test = s.num_edges // 5
            if n_test == 0:
                raise ValueError(
                    f"inter-edge set ({s.layer_a}, {s.layer_b}) too small to split "
                    f"after removing {removal_ratio:.0%}"
                )
            shape = (mh.layers[s.layer_a].num_nodes, mh.layers[s.layer_b].num_nodes)
            full = mh.inter_for_pair(s.layer_a, s.layer_b)
            unobserved = shape[0] * shape[1] - full.num_edges
            if n_test > unobserved:
                raise ValueError(
                    f"only {unobserved} unobserved cross pairs of layer pair "
                    f"({s.layer_a}, {s.layer_b}), {n_test} requested"
                )
            held = np.zeros(s.num_edges, dtype=bool)
            held[rng.permutation(s.num_edges)[:n_test]] = True
            train_sets.append(s.subset(~held))
            test_sets.append((s.layer_a, s.layer_b, s.rows[held], s.cols[held], shape, full))
        train_mh = MultiHypergraph(mh.layers, tuple(train_sets))
        result = fit(train_mh, replace(cfg, seed=cfg.seed + rep))
        per_set = []
        for la, lb, test_rows, test_cols, shape, full in test_sets:
            negatives, _ = _draw_fresh(
                np.column_stack((full.rows, full.cols)).ravel(),
                2 * np.arange(full.num_edges + 1), {2: shape[0] * shape[1]},
                {2: test_rows.size},
                lambda width, count: rng.integers(shape, size=(count, width)),
            )
            # positives then negatives, scored by one cross_rates call
            scores = cross_rates(
                result.state.u[la], result.state.u[lb], result.state.w_cross[(la, lb)],
                np.concatenate((test_rows, negatives[0::2])),
                np.concatenate((test_cols, negatives[1::2])),
            ).tolist()
            per_set.append(auc(scores[: test_rows.size], scores[test_rows.size:]))
        values.append(float(np.mean(per_set)))
    mean, sd = _mean_sd(values)
    return InterEdgePredictionReport(
        auc_per_repeat=tuple(values),
        auc_mean=mean,
        auc_sd=sd,
        removal_ratio=removal_ratio,
        repeats=repeats,
        seed=seed,
    )


def select_k(
    mh: MultiHypergraph,
    base_cfg: InferenceConfig,
    k_grid: Sequence[int],
    folds: int = 5,
    seed: int = 0,
):
    """Repeat hyperedge CV over a grid of community counts; best mean AUC wins.

    Returns (best K, {K: report}).  K is applied to every layer.
    """
    if not k_grid:
        raise ValueError("empty K grid")
    reports = {}
    for k in k_grid:
        cfg = replace(base_cfg, k_per_layer=[int(k)] * mh.num_layers)
        reports[int(k)] = hyperedge_prediction_cv(mh, cfg, folds=folds, seed=seed)
    best = max(reports, key=lambda k: reports[k].auc_mean)
    return best, reports
