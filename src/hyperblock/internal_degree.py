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

from .core import HypergraphLayer

__all__ = [
    "SubHyperedgeCounter",
    "InternalDegreeTable",
    "EntropyReport",
    "entropy_report",
    "theta_table",
]


# Query rows per block of the containment product.  The overlap block holds
# one entry per (query in block, training edge sharing a node with it), so
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


def _incidence(layer: HypergraphLayer) -> sparse.csr_matrix:
    """The binary edge-by-node incidence of a layer."""
    return sparse.csr_matrix(
        (np.ones(layer.nodes.size, dtype=np.int32), layer.nodes, layer.offsets),
        shape=(layer.num_hyperedges, layer.num_nodes),
    )


class SubHyperedgeCounter:
    """Containment queries against one training layer.

    A node's containment count in a query node set q is the number of
    training hyperedges that hold the node and are subsets of q.  The counter
    holds the layer's binary edge-by-node incidence B; queries come as a
    ``HypergraphLayer`` of candidates over the same nodes and are answered
    by one blocked sparse pass, ``_containment_counts``.  To query one node
    set, pass a layer of one row.
    """

    def __init__(self, layer: HypergraphLayer):
        self.layer = layer
        self.members = _incidence(layer)
        self._members_t = self.members.T.tocsr()
        self._sizes = np.diff(layer.offsets)

    def counts(self, candidates: HypergraphLayer) -> np.ndarray:
        """Containment count of every node of every candidate (0 allowed),
        aligned with ``candidates.nodes``.  Raises TypeError on anything but
        a ``HypergraphLayer`` and ValueError on a layer over another number
        of nodes."""
        if not isinstance(candidates, HypergraphLayer):
            raise TypeError(
                f"candidates must be a HypergraphLayer, got {type(candidates).__name__}"
            )
        n = self.layer.num_nodes
        if candidates.num_nodes != n:
            raise ValueError(f"candidates cover {candidates.num_nodes} nodes, the layer {n}")
        queries = self.members if candidates is self.layer else _incidence(candidates)
        return _containment_counts(queries, self.members, self._members_t, self._sizes)

    def theta(self, candidates: HypergraphLayer) -> InternalDegreeTable:
        """Contributions summing to |e| per candidate, uniform 1 where its
        counts are all 0, as an ``InternalDegreeTable`` over the candidates'
        rows."""
        counts = self.counts(candidates)
        offsets = candidates.offsets
        sizes = np.diff(offsets)
        totals = np.add.reduceat(counts, offsets[:-1])
        values = counts * np.repeat(sizes / np.maximum(totals, 1), sizes)
        values[np.repeat(totals == 0, sizes)] = 1.0
        values.flags.writeable = False
        return InternalDegreeTable(candidates.nodes, offsets, values)


def _containment_counts(queries: sparse.csr_matrix, members: sparse.csr_matrix,
                        members_t: sparse.csr_matrix, sizes: np.ndarray) -> np.ndarray:
    """Every query node's containment count, aligned with the entries of the
    binary query-by-node matrix Q.

    With B the training incidence (``members``) and ``sizes`` its row sums,
    the overlap |q & f| of every query and training edge is Q B^T, f is a
    subset of q iff the overlap equals |f|, and node i's count in q is
    (contain B)[q, i].  The product runs over blocks of _BLOCK_EDGES
    queries.  A contained edge lies inside q, so each row of contain B holds
    only q's nodes; it misses the nodes of count 0, of which a query that is
    itself a training edge (as in ``theta_table``) has none.
    """
    indptr = queries.indptr
    counts = np.zeros(queries.nnz, dtype=np.int64)
    for start in range(0, queries.shape[0], _BLOCK_EDGES):
        stop = min(start + _BLOCK_EDGES, queries.shape[0])
        contain = queries[start:stop] @ members_t
        contain.data = (contain.data == sizes[contain.indices]).astype(np.int32)
        contain.eliminate_zeros()
        block = contain @ members
        block.sort_indices()
        span = slice(indptr[start], indptr[stop])
        if block.nnz == span.stop - span.start:
            counts[span] = block.data
        else:
            rows = np.repeat(np.arange(stop - start), np.diff(indptr[start:stop + 1]))
            counts[span] = np.asarray(block[rows, queries.indices[span]]).ravel()
    return counts


def theta_table(layer: HypergraphLayer) -> InternalDegreeTable:
    """Contributions for every observed hyperedge of the layer: the layer
    queried against itself."""
    return SubHyperedgeCounter(layer).theta(layer)


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
    members, counts = counter.members, counter.counts(layer)
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
