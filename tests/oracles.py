"""Per-edge reference implementations that the vectorised library code is
checked against."""

import math

import numpy as np

from hyperblock.internal_degree import SubHyperedgeCounter
from hyperblock.likelihood import lambda_e, mu


def count_sub_hyperedges(layer, e) -> dict:
    """Containment count of every node of one candidate, keyed by node: a
    batch of one through the library's counter."""
    return SubHyperedgeCounter(layer).counts(e)


def compute_theta(layer, e) -> dict:
    """Contributions of every node of one candidate, keyed by node: a batch
    of one through the library's counter."""
    return SubHyperedgeCounter(layer).theta(e)


class IndexCounter:
    """Containment queries one node set at a time, via a per-node inverted
    index of the layer's hyperedges.

    Candidate sub-hyperedges are gathered from the incidence lists of the
    query's nodes (any subset of e consists solely of nodes of e), then
    subset-checked.
    """

    def __init__(self, layer):
        self.layer = layer
        self._edges = layer.node_tuples()
        self._incident = [[] for _ in range(layer.num_nodes)]
        for eid, nodes in enumerate(self._edges):
            for node in nodes:
                self._incident[node].append(eid)

    def counts(self, nodes) -> dict:
        """Containment count for every node of the query set (0 allowed)."""
        node_set = set(nodes)
        counts = dict.fromkeys(nodes, 0)
        candidates = set()
        for node in nodes:
            candidates.update(self._incident[node])
        for eid in candidates:
            sub = self._edges[eid]
            if len(sub) <= len(nodes) and node_set.issuperset(sub):
                for node in sub:
                    counts[node] += 1
        return counts

    def theta(self, nodes) -> dict:
        """Contributions summing to |e|; uniform 1 when no sub-hyperedge exists."""
        counts = self.counts(nodes)
        total = sum(counts.values())
        if total == 0:
            return dict.fromkeys(nodes, 1.0)
        scale = len(nodes) / total
        return {node: c * scale for node, c in counts.items()}

    def score(self, nodes, u, w) -> float:
        """The candidate's rate by ``lambda_e``, divided by its pair count."""
        return lambda_e(nodes, self.theta(nodes), u, w) / mu(len(nodes))


def edge_entropy(counter, nodes, normalized=False, base=math.e) -> float:
    """Entropy of the containment-count distribution over the query's nodes,
    divided by log |e| when normalized and by log(base) otherwise."""
    counts = counter.counts(nodes)
    total = sum(counts.values())
    h = 0.0
    for c in counts.values():
        if c > 0:
            p = c / total
            h -= p * math.log(p)
    if normalized:
        return h / math.log(len(nodes))
    return h / math.log(base)


def contained_in_larger(layer, nodes) -> bool:
    """True when the node set is a strict subset of some observed hyperedge."""
    node_set = set(nodes)
    return any(
        len(other) > len(nodes) and node_set.issubset(other) for other in layer.node_tuples()
    )


def entropy_report_oracle(layer, threshold, normalized=True, base=math.e, bins=10) -> dict:
    """The fields of ``entropy_report``, computed edge by edge.

    A normalized entropy is at most 1; the rounding of a uniform
    distribution can land one ulp above it, so it is capped at 1.
    """
    counter = IndexCounter(layer)
    edges = layer.node_tuples()
    values = np.array([
        edge_entropy(counter, nodes, normalized=normalized, base=base)
        for nodes in edges if len(nodes) >= 3
    ])
    if normalized:
        values = np.minimum(values, 1.0)
    upper = max(1.0, float(values.max())) if values.size and not normalized else 1.0
    pairs = [nodes for nodes in edges if len(nodes) == 2]
    return {
        "entropies": values,
        "num_considered": values.size,
        "num_below": int(np.sum(values < threshold)),
        "histogram_counts": np.histogram(values, bins=bins, range=(0.0, upper))[0],
        "size2_total": len(pairs),
        "size2_contained": sum(contained_in_larger(layer, nodes) for nodes in pairs),
    }
