"""Per-edge reference implementations that the vectorised library code is
checked against."""

import math
from typing import Optional

import numpy as np

from hyperblock.core import _MAX_ID, Hyperedge, HypergraphLayer, make_hyperedge
from hyperblock.internal_degree import SubHyperedgeCounter
from hyperblock.likelihood import lambda_e, mu


def layer(n, node_sets, weights=None, truth=None) -> HypergraphLayer:
    """A layer of ``n`` nodes from node sets (ids in any order) and their
    weights (default 1), through ``HypergraphLayer.from_arrays``."""
    rows = [sorted(int(i) for i in nodes) for nodes in node_sets]
    offsets = np.cumsum([0] + [len(row) for row in rows])
    nodes = np.array([i for row in rows for i in row], dtype=np.int64)
    weights = np.ones(len(rows)) if weights is None else weights
    return HypergraphLayer.from_arrays(n, nodes, offsets, weights, truth)


def _layer_of_one(layer, e) -> HypergraphLayer:
    """One candidate (node ids in any order, or a ``Hyperedge``) as a layer
    of one row over the nodes of ``layer``."""
    e = e if isinstance(e, Hyperedge) else make_hyperedge(e)
    nodes = np.array(e.nodes, dtype=np.int64)
    return HypergraphLayer.from_arrays(layer.num_nodes, nodes, [0, nodes.size], [1.0])


def count_sub_hyperedges(layer, e) -> dict:
    """Containment count of every node of one candidate, keyed by node,
    through the library's counter."""
    batch = _layer_of_one(layer, e)
    return dict(zip(batch.nodes.tolist(), SubHyperedgeCounter(layer).counts(batch).tolist()))


def compute_theta(layer, e) -> dict:
    """Contributions of every node of one candidate, keyed by node, through
    the library's counter."""
    table = SubHyperedgeCounter(layer).theta(_layer_of_one(layer, e))
    return dict(zip(table.nodes.tolist(), table.values.tolist()))


def lambda_ij(u_i: np.ndarray, u_j: np.ndarray, w_cross: np.ndarray) -> float:
    """Inter-layer edge rate u_i w_cross u_j of one node pair."""
    u_i = np.asarray(u_i, dtype=float)
    u_j = np.asarray(u_j, dtype=float)
    if w_cross.shape != (u_i.shape[0], u_j.shape[0]):
        raise ValueError(
            f"w_cross has shape {w_cross.shape}, expected {(u_i.shape[0], u_j.shape[0])}"
        )
    return float(u_i @ w_cross @ u_j)


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


def community_aligned_pairs(labels, budget, noise_count, rng) -> list:
    """Inter-edge node pairs in draw order, one candidate at a time:
    ``budget`` same-community pairs by indexing into the per-community
    blocks, then uniform pairs until ``noise_count`` distinct
    cross-community pairs are found.  ``labels`` is a float array, NaN for
    an unlabelled node (NaN != NaN keeps it out of every block)."""
    labels = np.asarray(labels, dtype=float)
    blocks = [np.flatnonzero(labels == c) for c in np.unique(labels[~np.isnan(labels)])]
    sizes = np.array([ia.size * ia.size for ia in blocks], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    flat = rng.choice(int(sizes.sum()), size=budget, replace=False) if budget else []
    pairs = []
    for idx in flat:
        block = int(np.searchsorted(offsets, idx, side="right")) - 1
        within = int(idx - offsets[block])
        ia = blocks[block]
        pairs.append((int(ia[within // ia.size]), int(ia[within % ia.size])))
    seen = set(pairs)
    while len(pairs) < budget + noise_count:
        i = int(rng.integers(labels.size))
        j = int(rng.integers(labels.size))
        if labels[i] == labels[j] or (i, j) in seen:
            continue
        seen.add((i, j))
        pairs.append((i, j))
    return pairs


# -- line-by-line file readers ----------------------------------------------
# Per-line readers of the three data-file formats: the library's token pass is
# checked against their results and their file:line messages.


def data_lines(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def scan_hyperedge_file(path: str, num_nodes: Optional[int]) -> HypergraphLayer:
    """Line-by-line reading of a hyperedge file: the first bad line raises
    its error, and a good file gives the same layer as the token pass."""
    edges = []
    max_id = -1
    for lineno, line in data_lines(path):
        fields = line.split()
        if len(fields) < 3:
            raise ValueError(f"{path}:{lineno}: expected 'weight id id ...', got {line!r}")
        try:
            weight = float(fields[0])
            ids = [int(f) for f in fields[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if weight <= 0:
            raise ValueError(f"{path}:{lineno}: hyperedge weight must be positive, got {weight}")
        if min(ids) < 0:
            raise ValueError(f"{path}:{lineno}: negative node id")
        try:
            edges.append(make_hyperedge(ids, weight))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        top = max(ids)
        if num_nodes is not None and top >= num_nodes:
            raise ValueError(f"{path}:{lineno}: node id {top} >= declared num_nodes {num_nodes}")
        if top >= _MAX_ID:
            raise ValueError(f"{path}:{lineno}: node id {top} too large")
        max_id = max(max_id, top)
    if num_nodes is None:
        if max_id < 0:
            raise ValueError(f"{path}: empty hyperedge file and no num_nodes given")
        num_nodes = max_id + 1
    return HypergraphLayer.from_hyperedges(num_nodes, edges)


def scan_inter_edge_file(path: str, layer_sizes):
    """Line-by-line reading of an inter-edge file: the first bad line raises
    its error, and a good file gives the token pass's fields."""
    rows = []
    for lineno, line in data_lines(path):
        fields = line.split()
        if len(fields) != 5:
            raise ValueError(f"{path}:{lineno}: expected 'layer_a layer_b i j weight', got {line!r}")
        try:
            la, lb, i, j = (int(f) for f in fields[:4])
            w = float(fields[4])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if la == lb:
            raise ValueError(f"{path}:{lineno}: self-pair layer {la}")
        if w < 0:
            raise ValueError(f"{path}:{lineno}: negative weight {w}")
        if not np.isfinite(w):
            raise ValueError(f"{path}:{lineno}: inter-edge weight must be finite, got {w}")
        if min(la, lb, i, j) < 0:
            raise ValueError(f"{path}:{lineno}: negative index")
        if la > lb:
            la, lb, i, j = lb, la, j, i
        if layer_sizes is not None:
            if lb >= len(layer_sizes):
                raise ValueError(
                    f"{path}:{lineno}: inter-edge names missing layer {lb} "
                    f"(there are {len(layer_sizes)} layers)"
                )
            if i >= layer_sizes[la] or j >= layer_sizes[lb]:
                raise ValueError(
                    f"{path}:{lineno}: inter-edge ({i}, {j}) out of range for pair ({la}, {lb})"
                )
        if max(lb, i, j) >= _MAX_ID:
            raise ValueError(f"{path}:{lineno}: index {max(lb, i, j)} too large")
        rows.append((la, lb, i, j, w))
    columns = list(zip(*rows)) or [(), (), (), (), ()]
    return tuple(
        np.array(col, dtype=float if c == 4 else np.int64) for c, col in enumerate(columns)
    )


def scan_ground_truth_file(path: str, num_nodes: Optional[int]) -> dict[int, int]:
    """Line-by-line reading of a ground-truth file: the first bad line
    raises its error, and a good file gives the token pass's map."""
    truth: dict[int, int] = {}
    for lineno, line in data_lines(path):
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'node_id community_id', got {line!r}")
        try:
            node, label = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if node < 0:
            raise ValueError(f"{path}:{lineno}: negative node id")
        if node in truth:
            raise ValueError(f"{path}:{lineno}: duplicate node {node}")
        if num_nodes is not None and not 0 <= node < num_nodes:
            raise ValueError(
                f"{path}:{lineno}: ground-truth node {node} out of range for {num_nodes} nodes"
            )
        truth[node] = label
    return truth

