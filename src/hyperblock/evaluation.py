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

from .core import HypergraphLayer, InterEdgeSet, MultiHypergraph
from .inference import InferenceConfig, FitResult, fit
from .internal_degree import SubHyperedgeCounter
from .likelihood import lambda_e, lambda_ij, mu, sample_negatives

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


def cosine_similarity(u: np.ndarray, truth, normalize_rows: bool = False) -> float:
    """Mean per-node cosine between membership rows and one-hot ground truth.

    Truth communities are assigned to membership columns by solving the
    optimal one-to-one alignment over all column permutations.  All-zero
    membership rows contribute 0.  ``normalize_rows`` rescales each row to
    unit sum first; cosine is scale-invariant per row, so this exists only
    to mirror protocols that report on normalized memberships.
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
    if normalize_rows:
        sums = u.sum(axis=1, keepdims=True)
        u = np.divide(u, sums, out=np.zeros_like(u), where=sums > 0)
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


def score_hyperedge(e, counter, u: np.ndarray, w: np.ndarray) -> float:
    """Poisson rate of a candidate hyperedge under a fitted layer state.

    Node contributions come from sub-hyperedge counts on the given counter's
    layer (the training data), falling back to uniform when the candidate
    contains no observed sub-hyperedge.
    """
    if isinstance(counter, HypergraphLayer):
        counter = SubHyperedgeCounter(counter)
    nodes = tuple(sorted(e.nodes if hasattr(e, "nodes") else e))
    theta = counter.theta(nodes)
    lam = lambda_e(nodes, theta, u, w)
    return lam / mu(len(nodes))


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

    full_sets = [set(layer.node_sets()) for layer in mh.layers]

    fold_scores = []
    for f in range(folds):
        train_layers = []
        test_edges = []
        for l, layer in enumerate(mh.layers):
            keep = [e for e, a in zip(layer.hyperedges, assignments[l]) if a != f]
            held = [e for e, a in zip(layer.hyperedges, assignments[l]) if a == f]
            if not keep:
                raise ValueError(f"fold {f} empties layer {l}")
            train_layers.append(
                HypergraphLayer(layer.num_nodes, tuple(keep), layer.ground_truth)
            )
            test_edges.append(held)
        train = MultiHypergraph(tuple(train_layers), mh.inter_edges)
        result = fit(train, replace(cfg, seed=cfg.seed + f))
        layer_scores = []
        for l, layer in enumerate(train.layers):
            positives = test_edges[l]
            sizes = [e.size for e in positives]
            negatives = sample_negatives(
                layer,
                seed=[seed, 211, f, l],
                sizes=sizes,
                forbidden=full_sets[l],
            )
            counter = SubHyperedgeCounter(layer)
            u, w = result.state.u[l], result.state.w[l]
            pos = [(e.size, score_hyperedge(e, counter, u, w)) for e in positives]
            neg = [(len(e), score_hyperedge(e, counter, u, w)) for e in negatives]
            layer_scores.append((pos, neg))
        fold_scores.append(layer_scores)

    num_layers = mh.num_layers
    fold_auc = [[float("nan")] * folds for _ in range(num_layers)]
    size_auc = {d: [[float("nan")] * folds for _ in range(num_layers)] for d in size_grid}
    for f in range(folds):
        for l in range(num_layers):
            pos, neg = fold_scores[f][l]
            if pos and neg:
                fold_auc[l][f] = auc([s for _, s in pos], [s for _, s in neg])
            for d in size_grid:
                ps = [s for sz, s in pos if sz <= d]
                ns = [s for sz, s in neg if sz <= d]
                if ps and ns:
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


def _sample_cross_negatives(
    shape: tuple[int, int], count: int, observed: set, rng: np.random.Generator
) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    seen = set(observed)
    attempts = 0
    while len(out) < count:
        i = int(rng.integers(shape[0]))
        j = int(rng.integers(shape[1]))
        attempts += 1
        if attempts > 1000 * max(count, 1) + 1000:
            raise RuntimeError("could not sample enough unobserved cross pairs")
        if (i, j) in seen:
            continue
        seen.add((i, j))
        out.append((i, j))
    return out


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

    observed_full = {
        (s.layer_a, s.layer_b): {(i, j) for i, j, _ in s.edges} for s in mh.inter_edges
    }

    values = []
    for rep in range(repeats):
        reduced = remove_inter_edges(mh, removal_ratio, seed=[seed, 307, rep])
        rng = np.random.default_rng([seed, 401, rep])
        train_sets = []
        test_sets = []
        for s in reduced.inter_edges:
            edges = list(s.edges)
            n_test = len(edges) // 5
            if n_test == 0:
                raise ValueError(
                    f"inter-edge set ({s.layer_a}, {s.layer_b}) too small to split "
                    f"after removing {removal_ratio:.0%}"
                )
            order = rng.permutation(len(edges))
            test_idx = set(order[:n_test].tolist())
            train = [e for k, e in enumerate(edges) if k not in test_idx]
            test = [edges[k] for k in sorted(test_idx)]
            train_sets.append(InterEdgeSet(s.layer_a, s.layer_b, tuple(sorted(train))))
            test_sets.append((s.layer_a, s.layer_b, test))
        train_mh = MultiHypergraph(mh.layers, tuple(train_sets))
        result = fit(train_mh, replace(cfg, seed=cfg.seed + rep))
        per_set = []
        for la, lb, test in test_sets:
            ua, ub = result.state.u[la], result.state.u[lb]
            w = result.state.w_cross[(la, lb)]
            pos = [lambda_ij(ua[i], ub[j], w) for i, j, _ in test]
            shape = (mh.layers[la].num_nodes, mh.layers[lb].num_nodes)
            negatives = _sample_cross_negatives(
                shape, len(pos), observed_full[(la, lb)], rng
            )
            neg = [lambda_ij(ua[i], ub[j], w) for i, j in negatives]
            per_set.append(auc(pos, neg))
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
