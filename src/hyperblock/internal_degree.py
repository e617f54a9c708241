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
from itertools import chain

import numpy as np
from scipy import sparse

from .core import Hyperedge, HypergraphLayer

__all__ = [
    "SubHyperedgeCounter",
    "InternalDegreeTable",
    "EntropyReport",
    "count_sub_hyperedges",
    "compute_theta",
    "hyperedge_entropy",
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
        self._incident: list[list[int]] = [[] for _ in range(layer.num_nodes)]
        for eid, e in enumerate(layer.hyperedges):
            for node in e.nodes:
                self._incident[node].append(eid)

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
            sub = self.layer.hyperedges[eid].nodes
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

    def entropy(self, nodes: tuple[int, ...], normalized: bool = False,
                base: float = math.e) -> float:
        """Entropy of the containment-count distribution over the query's nodes."""
        counts = self.counts(nodes)
        total = sum(counts.values())
        if total == 0:
            raise ValueError(f"no sub-hyperedges for {tuple(nodes)}")
        h = 0.0
        for c in counts.values():
            if c > 0:
                p = c / total
                h -= p * math.log(p)
        if normalized:
            return h / math.log(len(nodes))
        return h / math.log(base)

    def contained_in_larger(self, e: Hyperedge) -> bool:
        """True when e is a strict subset of some observed hyperedge."""
        node = min(e.nodes, key=lambda n: len(self._incident[n]))
        e_set = set(e.nodes)
        for eid in self._incident[node]:
            other = self.layer.hyperedges[eid].nodes
            if len(other) > e.size and set(other).issuperset(e_set):
                return True
        return False


def count_sub_hyperedges(layer: HypergraphLayer, e: Hyperedge) -> dict[int, int]:
    return SubHyperedgeCounter(layer).counts(e.nodes)


def compute_theta(layer: HypergraphLayer, e: Hyperedge) -> dict[int, float]:
    return SubHyperedgeCounter(layer).theta(e.nodes)


def hyperedge_entropy(layer: HypergraphLayer, e: Hyperedge, normalized: bool = False,
                      base: float = math.e) -> float:
    return SubHyperedgeCounter(layer).entropy(e.nodes, normalized=normalized, base=base)


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


def theta_table(layer: HypergraphLayer) -> InternalDegreeTable:
    """Contributions for every observed hyperedge of the layer.

    With B the binary edge-by-node incidence, the overlap |e & f| of every
    pair of hyperedges is B B^T, f is a subset of e iff the overlap equals
    |f|, and node i's containment count in e is (contain B)[e, i].  The
    product runs over blocks of _BLOCK_EDGES edges.  Every observed edge
    contains itself, so each count is positive and the counts of e are
    exactly the entries of row e; theta = count * (|e| / total) matches
    SubHyperedgeCounter.theta bit for bit.
    """
    m = layer.num_hyperedges
    sizes = np.fromiter((e.size for e in layer.hyperedges), dtype=np.int64, count=m)
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    nodes = np.fromiter(
        chain.from_iterable(e.nodes for e in layer.hyperedges), dtype=np.int64,
        count=int(offsets[-1]),
    )
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
    totals = np.add.reduceat(counts, offsets[:-1])
    values = counts * np.repeat(sizes / totals, sizes)
    for arr in (nodes, offsets, values):
        arr.flags.writeable = False
    return InternalDegreeTable(nodes, offsets, values)


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
    counter = SubHyperedgeCounter(layer)
    entropies = []
    for e in layer.hyperedges:
        if e.size >= 3:
            entropies.append(counter.entropy(e.nodes, normalized=normalized, base=base))
    values = np.array(entropies, dtype=float)

    size2 = [e for e in layer.hyperedges if e.size == 2]
    contained = sum(1 for e in size2 if counter.contained_in_larger(e))

    if values.size:
        upper = 1.0 if normalized else max(1.0, float(values.max()))
        counts, edges = np.histogram(values, bins=bins, range=(0.0, upper))
        fraction = float(np.mean(values < threshold))
    else:
        counts, edges = np.histogram([], bins=bins, range=(0.0, 1.0))
        fraction = 0.0
    return EntropyReport(
        threshold=threshold,
        normalized=normalized,
        num_considered=int(values.size),
        num_below=int(np.sum(values < threshold)) if values.size else 0,
        fraction_below=fraction,
        histogram_counts=counts,
        histogram_edges=edges,
        entropies=values,
        size2_total=len(size2),
        size2_contained=contained,
        size2_containment_rate=contained / len(size2) if size2 else float("nan"),
    )
