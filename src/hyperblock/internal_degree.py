"""Node contributions to hyperedges from sub-hyperedge containment counts.

For a hyperedge e, a node's containment count is the number of observed
hyperedges that contain the node and are subsets of e (e counts itself when
observed).  The per-node contribution rescales these counts to sum to |e|,
so nodes that anchor many nested interactions weigh more than passive
members.  Contributions depend only on the observed hyperedge set and stay
fixed during inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import Hyperedge, HypergraphLayer

__all__ = [
    "SubHyperedgeCounter",
    "InternalDegreeTable",
    "EntropyReport",
    "count_sub_hyperedges",
    "compute_theta",
    "entropy_report",
    "theta_table",
]


class SubHyperedgeCounter:
    """Containment queries against one layer via a per-node inverted index.

    Candidate sub-hyperedges are generated from the incidence lists of the
    query's nodes (any subset of e consists solely of nodes of e), then
    subset-checked; this avoids scanning the full hyperedge list per query.
    """

    def __init__(self, layer: HypergraphLayer):
        self.layer = layer
        self._edges = layer.node_tuples()
        # ids of the edges holding each node, ascending: a stable sort of the
        # incidence entries by node keeps them in edge order
        order = np.argsort(layer.nodes, kind="stable")
        edge_ids = np.repeat(np.arange(layer.num_hyperedges), np.diff(layer.offsets))[order]
        ends = np.cumsum(np.bincount(layer.nodes, minlength=layer.num_nodes))
        self._incident: list[list[int]] = [
            ids.tolist() for ids in np.split(edge_ids, ends[:-1])
        ]

    def counts(self, nodes: tuple[int, ...]) -> dict[int, int]:
        """Containment count for every node of the query set (0 allowed)."""
        node_set = set(nodes)
        size = len(nodes)
        counts = dict.fromkeys(nodes, 0)
        candidates: set[int] = set()
        for node in nodes:
            if node < self.layer.num_nodes:
                candidates.update(self._incident[node])
        for eid in candidates:
            sub = self._edges[eid]
            if len(sub) <= size and node_set.issuperset(sub):
                for node in sub:
                    counts[node] += 1
        return counts

    def theta(self, nodes: tuple[int, ...]) -> dict[int, float]:
        """Contributions summing to |e|; uniform 1 when no sub-hyperedge exists."""
        counts = self.counts(nodes)
        total = sum(counts.values())
        if total == 0:
            return dict.fromkeys(nodes, 1.0)
        scale = len(nodes) / total
        return {node: c * scale for node, c in counts.items()}


def count_sub_hyperedges(layer: HypergraphLayer, e: Hyperedge) -> dict[int, int]:
    return SubHyperedgeCounter(layer).counts(e.nodes)


def compute_theta(layer: HypergraphLayer, e: Hyperedge) -> dict[int, float]:
    return SubHyperedgeCounter(layer).theta(e.nodes)


# Edges per block of the containment product in theta_table.  The overlap
# block holds one entry per (edge in block, edge sharing a node with it), so
# the block size bounds the temporary around hub nodes.
_BLOCK_EDGES = 4096


@dataclass(frozen=True)
class InternalDegreeTable:
    """Node contributions of every observed hyperedge, flattened edge by edge.

    Hyperedge ``eid`` owns positions ``offsets[eid]:offsets[eid + 1]`` of
    ``nodes`` (its node ids, ascending) and of ``values`` (their
    contributions); all three arrays are read-only.
    """

    nodes: np.ndarray
    offsets: np.ndarray
    values: np.ndarray

    def for_edge(self, eid: int) -> np.ndarray:
        return self.values[self.offsets[eid]:self.offsets[eid + 1]]


def _containment_counts(layer: HypergraphLayer) -> tuple[sparse.csr_matrix, np.ndarray]:
    """The binary edge-by-node incidence B of the layer, and every node's
    containment count in each observed hyperedge, aligned with ``layer.nodes``.

    The overlap |e & f| of every pair of hyperedges is B B^T, f is a subset
    of e iff the overlap equals |f|, and node i's containment count in e is
    (contain B)[e, i].  The product runs over blocks of _BLOCK_EDGES edges.
    Every observed edge contains itself, so each count is positive and the
    counts of e are exactly the entries of row e.
    """
    m = layer.num_hyperedges
    nodes, offsets = layer.nodes, layer.offsets
    sizes = np.diff(offsets)
    members = sparse.csr_matrix(
        (np.ones(nodes.size, dtype=np.int32), nodes, offsets), shape=(m, layer.num_nodes)
    )
    members_t = members.T.tocsr()
    counts = np.empty(nodes.size, dtype=np.int64)
    for start in range(0, m, _BLOCK_EDGES):
        stop = min(start + _BLOCK_EDGES, m)
        contain = members[start:stop] @ members_t
        contain.data = (contain.data == sizes[contain.indices]).astype(np.int32)
        contain.eliminate_zeros()
        block = contain @ members
        block.sort_indices()
        counts[offsets[start]:offsets[stop]] = block.data
    return members, counts


def theta_table(layer: HypergraphLayer) -> InternalDegreeTable:
    """Contributions for every observed hyperedge of the layer.

    theta = count * (|e| / total) over the counts of ``_containment_counts``
    matches SubHyperedgeCounter.theta bit for bit.
    """
    offsets = layer.offsets
    sizes = np.diff(offsets)
    counts = _containment_counts(layer)[1]
    totals = np.add.reduceat(counts, offsets[:-1])
    values = counts * np.repeat(sizes / totals, sizes)
    values.flags.writeable = False
    return InternalDegreeTable(layer.nodes, offsets, values)


@dataclass(frozen=True)
class EntropyReport:
    """Entropy distribution of hyperedges of size >= 3, plus pair nesting."""

    threshold: float
    normalized: bool
    num_considered: int
    num_below: int
    fraction_below: float
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray
    entropies: np.ndarray
    size2_total: int
    size2_contained: int
    size2_containment_rate: float


def entropy_report(layer: HypergraphLayer, threshold: float, normalized: bool = True,
                   base: float = math.e, bins: int = 10) -> EntropyReport:
    """Summarize containment entropies and the nesting of size-2 hyperedges.

    The entropy statistics cover observed hyperedges of size >= 3; the
    size-2 statistic is the fraction of observed pairs contained in some
    larger observed hyperedge.
    """
    members, counts = _containment_counts(layer)
    starts = layer.offsets[:-1]
    sizes = np.diff(layer.offsets)
    p = counts / np.repeat(np.add.reduceat(counts, starts), sizes)
    h = -np.add.reduceat(p * np.log(p), starts)
    large = sizes >= 3
    if normalized:
        # uniform counts can land one ulp above 1, outside the histogram range
        values = np.clip(h[large] / np.log(sizes[large]), 0.0, 1.0)
    else:
        values = h[large] / math.log(base)

    # a pair is nested iff it overlaps some larger edge in both its nodes
    overlap = members[sizes == 2] @ members[large].T
    num_pairs = overlap.shape[0]
    contained = int(np.count_nonzero((overlap == 2).getnnz(axis=1)))

    if values.size:
        upper = 1.0 if normalized else max(1.0, float(values.max()))
        hist, bin_edges = np.histogram(values, bins=bins, range=(0.0, upper))
        fraction = float(np.mean(values < threshold))
    else:
        hist, bin_edges = np.histogram([], bins=bins, range=(0.0, 1.0))
        fraction = 0.0
    return EntropyReport(
        threshold=threshold,
        normalized=normalized,
        num_considered=int(values.size),
        num_below=int(np.sum(values < threshold)) if values.size else 0,
        fraction_below=fraction,
        histogram_counts=hist,
        histogram_edges=bin_edges,
        entropies=values,
        size2_total=num_pairs,
        size2_contained=contained,
        size2_containment_rate=contained / num_pairs if num_pairs else float("nan"),
    )
