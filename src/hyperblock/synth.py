"""Benchmark multi-hypergraph construction.

Three generators: subsampled views of a real hypergraph joined by
community-aligned inter-edges, a planted-partition sampler with one-hot
memberships, and exhaustive Poisson sampling from an arbitrary latent state
on small node sets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence, Union

import numpy as np

from .core import HypergraphLayer, InterEdgeSet, MultiHypergraph, _draw_fresh
from .likelihood import LatentState, _pair_sum, mu

__all__ = [
    "SynthConfig",
    "THREE_VIEW_HIGHSCHOOL",
    "build_views",
    "remove_inter_edges",
    "sample_from_model",
    "planted_memberships",
    "planted_partition",
]

_ENUM_NODE_LIMIT = 30
_ENUM_SIZE_LIMIT = 4
_PLANTED_CANDIDATE_CAP = 500_000


def _ceil(x: float) -> int:
    # guard against 0.7 * 10 style float fuzz just above an integer
    return int(math.ceil(x - 1e-12))


@dataclass
class SynthConfig:
    """Parameters of the subsampled-views construction."""

    sample_fraction: Union[float, Sequence[float]] = 0.8
    num_layers: int = 2
    inter_edge_count: Union[int, Sequence[int]] = 0
    noise_fraction: float = 0.0
    seed: int = 0
    pairs: Optional[Sequence[tuple[int, int]]] = None

    def resolved_pairs(self) -> list[tuple[int, int]]:
        if self.pairs is not None:
            return [tuple(p) for p in self.pairs]
        return list(combinations(range(self.num_layers), 2))

    def fraction_for(self, layer: int) -> float:
        if np.isscalar(self.sample_fraction):
            return float(self.sample_fraction)
        return float(self.sample_fraction[layer])

    def count_for(self, pair_index: int) -> int:
        if np.isscalar(self.inter_edge_count):
            return int(self.inter_edge_count)
        return int(self.inter_edge_count[pair_index])

    def validate(self) -> None:
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        for l in range(self.num_layers):
            f = self.fraction_for(l)
            if not 0.0 < f <= 1.0:
                raise ValueError(f"sample fraction {f} outside (0, 1]")
        if not 0.0 <= self.noise_fraction < 1.0:
            raise ValueError("noise_fraction must be in [0, 1)")
        pairs = self.resolved_pairs()
        for a, b in pairs:
            if not 0 <= a < b < self.num_layers:
                raise ValueError(f"invalid layer pair ({a}, {b})")
        for p in range(len(pairs)):
            if self.count_for(p) < 0:
                raise ValueError("inter_edge_count must be non-negative")


# three 20% views of the Highschool contact hypergraph, first view linked to
# the other two with fixed inter-edge budgets
THREE_VIEW_HIGHSCHOOL = SynthConfig(
    sample_fraction=0.2,
    num_layers=3,
    inter_edge_count=(2867, 2792),
    noise_fraction=0.0,
    seed=0,
    pairs=((0, 1), (0, 2)),
)


def _aligned_inter_edges(
    layer_a: int,
    layer_b: int,
    codes: np.ndarray,
    budget: int,
    noise: int,
    rng: np.random.Generator,
) -> InterEdgeSet:
    """Unit-weight inter-edges: ``budget`` uniform same-community node pairs
    plus ``noise`` uniform cross-community pairs, all distinct.

    ``codes`` holds each node's community code, or -1 for an unlabelled
    node, which shares a community with no node.  Same-community pairs are
    drawn without replacement by indexing into the per-community blocks of
    pairs; noise pairs are drawn in batches through ``_draw_fresh``.
    """
    n = codes.size
    members = np.argsort(codes, kind="stable")[np.count_nonzero(codes < 0):]
    counts = np.bincount(codes[codes >= 0])
    sizes = counts * counts
    same = int(sizes.sum())
    if budget > same:
        raise ValueError(f"budget {budget} exceeds the {same} available same-community pairs")
    if noise > n * n - same:
        raise ValueError(
            f"noise {noise} exceeds the {n * n - same} available cross-community pairs"
        )
    flat = rng.choice(same, size=budget, replace=False)
    ends = np.cumsum(sizes)
    block = np.searchsorted(ends, flat, side="right")
    i, j = np.divmod(flat - (ends - sizes)[block], counts[block])
    first = (np.cumsum(counts) - counts)[block]

    def draw(width, count):
        pairs = rng.integers((n, n), size=(count, width))
        a, b = codes[pairs[:, 0]], codes[pairs[:, 1]]
        return pairs[(a != b) | (a < 0)]

    pairs, _ = _draw_fresh(
        np.array([], dtype=np.int64), np.zeros(1, dtype=np.int64),
        {2: n * n - same}, {2: noise}, draw,
    )
    return InterEdgeSet.from_arrays(
        layer_a, layer_b, np.concatenate((members[first + i], pairs[0::2])),
        np.concatenate((members[first + j], pairs[1::2])), np.ones(budget + noise),
    )


def build_views(source: HypergraphLayer, cfg: SynthConfig) -> MultiHypergraph:
    """Independent hyperedge subsamples of one hypergraph, linked by community.

    Each view keeps the source's node indexing and ground truth and draws
    ceil(f * |E|) hyperedges uniformly without replacement.  Inter-edges
    connect same-community node pairs across each configured layer pair
    until the budget is met; ceil(noise_fraction * budget) extra edges then
    connect different-community pairs.  All inter-edge weights are 1.
    """
    cfg.validate()
    if source.ground_truth is None:
        raise ValueError("source layer has no ground truth to align inter-edges with")
    rng = np.random.default_rng(cfg.seed)
    codes = np.full(source.num_nodes, -1)
    codes[list(source.ground_truth)] = np.unique(
        list(source.ground_truth.values()), return_inverse=True
    )[1]

    layers = []
    for l in range(cfg.num_layers):
        m = _ceil(cfg.fraction_for(l) * source.num_hyperedges)
        keep = np.zeros(source.num_hyperedges, dtype=bool)
        keep[rng.choice(source.num_hyperedges, size=m, replace=False)] = True
        layers.append(source.subset(keep))

    inter = []
    for p, (a, b) in enumerate(cfg.resolved_pairs()):
        budget = cfg.count_for(p)
        noise = _ceil(cfg.noise_fraction * budget)
        inter.append(_aligned_inter_edges(a, b, codes, budget, noise, rng))
    return MultiHypergraph(tuple(layers), tuple(inter))


def remove_inter_edges(mh: MultiHypergraph, ratio: float, seed=0) -> MultiHypergraph:
    """Uniformly drop ceil(ratio * |S|) inter-edges from every set."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("ratio must be in [0, 1]")
    rng = np.random.default_rng(seed)
    new_sets = []
    for s in mh.inter_edges:
        n = s.num_edges
        k = min(_ceil(ratio * n), n)
        keep = np.ones(n, dtype=bool)
        if k:
            keep[rng.choice(n, size=k, replace=False)] = False
        new_sets.append(s.subset(keep))
    return MultiHypergraph(mh.layers, tuple(new_sets))


def _poisson_layer(
    u: np.ndarray,
    w: np.ndarray,
    max_size: int,
    rng: np.random.Generator,
    ground_truth=None,
) -> HypergraphLayer:
    """Draw every candidate node set of size 2..max_size from its Poisson rate.

    Node contributions are uniform (the within-edge weighting is data-derived
    and has no meaning before data exists).
    """
    n = u.shape[0]
    nodes, sizes, weights = [], [], []
    for size in range(2, max_size + 1):
        combos = _combinations(n, size)
        if combos.size == 0:
            continue
        rates = _pair_sum(u[combos], w) / mu(size)
        draws = rng.poisson(rates)
        hit = draws > 0
        nodes.append(combos[hit].ravel())
        sizes.append(np.full(int(hit.sum()), size))
        weights.append(draws[hit].astype(float))
    if not nodes:
        return HypergraphLayer.from_arrays(n, [], [0], [], ground_truth)
    offsets = np.concatenate(([0], np.cumsum(np.concatenate(sizes))))
    return HypergraphLayer.from_arrays(
        n, np.concatenate(nodes), offsets, np.concatenate(weights), ground_truth
    )


@functools.lru_cache(maxsize=8)
def _combinations(n: int, size: int) -> np.ndarray:
    """Every size-subset of range(n) as a row, in lexicographic order (read-only)."""
    combos = np.array(list(combinations(range(n), size)), dtype=int).reshape(-1, size)
    combos.flags.writeable = False
    return combos


def sample_from_model(
    state: LatentState,
    max_size: int = 3,
    seed=0,
) -> MultiHypergraph:
    """Exhaustive Poisson draw of a multi-hypergraph from a latent state.

    Enumerates every node set of size 2..max_size per layer and every cross
    pair per inter-layer matrix; keeps the non-zero counts as weights.  The
    candidate space is enumerated exhaustively, so this is restricted to
    at most 30 nodes per layer and max_size at most 4.
    """
    state.validate()
    sizes = [m.shape[0] for m in state.u]
    if not 2 <= max_size <= _ENUM_SIZE_LIMIT:
        raise ValueError(f"max_size must be in [2, {_ENUM_SIZE_LIMIT}]")
    if any(n > _ENUM_NODE_LIMIT for n in sizes):
        raise ValueError(f"layers must have at most {_ENUM_NODE_LIMIT} nodes")
    rng = np.random.default_rng(seed)
    layers = tuple(
        _poisson_layer(state.u[l], state.w[l], max_size, rng)
        for l in range(len(state.u))
    )
    inter = []
    for (a, b), w_c in sorted(state.w_cross.items()):
        lam = state.u[a] @ w_c @ state.u[b].T
        counts = rng.poisson(np.clip(lam, 0.0, None))
        ii, jj = np.nonzero(counts)
        inter.append(InterEdgeSet.from_arrays(a, b, ii, jj, counts[ii, jj].astype(float)))
    return MultiHypergraph(layers, tuple(inter))


def planted_memberships(num_nodes: int, num_communities: int):
    """Equal-size contiguous community blocks; returns (labels, one-hot u)."""
    if num_communities < 1 or num_communities > num_nodes:
        raise ValueError("need 1 <= num_communities <= num_nodes")
    base = num_nodes // num_communities
    extra = num_nodes % num_communities
    sizes = [base + (1 if c < extra else 0) for c in range(num_communities)]
    labels = np.repeat(np.arange(num_communities), sizes)
    u = np.zeros((num_nodes, num_communities))
    u[np.arange(num_nodes), labels] = 1.0
    return labels, u


def planted_partition(
    num_nodes: int = 60,
    num_communities: int = 3,
    num_layers: int = 2,
    c_in: float = 0.1,
    c_out: float = 0.01,
    max_size: int = 3,
    inter_edge_count: int = 200,
    noise_fraction: float = 0.0,
    seed=0,
) -> MultiHypergraph:
    """Planted-partition benchmark: block-structured layers plus aligned links.

    Every layer is an independent exhaustive Poisson sample from one-hot
    memberships with affinity c_in on the diagonal and c_out off it
    (c_in > c_out plants assortative structure, c_in < c_out disassortative).
    Inter-edges follow the same community-aligned rule as build_views for
    every layer pair.  Ground truth is attached to all layers.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    if c_in < 0 or c_out < 0:
        raise ValueError("affinities must be non-negative")
    if max_size < 2:
        raise ValueError("max_size must be >= 2")
    if not 0.0 <= noise_fraction < 1.0:
        raise ValueError("noise_fraction must be in [0, 1)")
    candidates = sum(math.comb(num_nodes, s) for s in range(2, max_size + 1))
    if candidates > _PLANTED_CANDIDATE_CAP:
        raise ValueError(
            f"{candidates} candidate node sets exceed the enumeration cap "
            f"{_PLANTED_CANDIDATE_CAP}; lower num_nodes or max_size"
        )
    labels, u = planted_memberships(num_nodes, num_communities)
    w = np.full((num_communities, num_communities), float(c_out))
    np.fill_diagonal(w, float(c_in))
    rng = np.random.default_rng(seed)
    truth = {i: int(labels[i]) for i in range(num_nodes)}
    layers = []
    for l in range(num_layers):
        layer = _poisson_layer(u, w, max_size, rng, ground_truth=truth)
        if layer.num_hyperedges == 0:
            raise RuntimeError(
                f"planted layer {l} came out empty; increase c_in/c_out or num_nodes"
            )
        layers.append(layer)
    noise = _ceil(noise_fraction * inter_edge_count)
    inter = [
        _aligned_inter_edges(a, b, labels, inter_edge_count, noise, rng)
        for a, b in combinations(range(num_layers), 2)
    ]
    return MultiHypergraph(tuple(layers), tuple(inter))
