"""Immutable data model for coupled hypergraphs plus text-file ingestion.

A multi-hypergraph is a list of hypergraph layers (each a node set plus
weighted hyperedges) joined by sparse weighted edges between the node sets
of layer pairs.  Node ids are layer-local 0-based integers; cross-layer
identity exists only through the inter-edge sets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "Hyperedge",
    "HypergraphLayer",
    "InterEdgeSet",
    "MultiHypergraph",
    "make_hyperedge",
    "parse_hyperedge_file",
    "parse_inter_edge_file",
    "parse_ground_truth_file",
    "parse_manifest",
    "write_hyperedge_file",
    "write_inter_edge_file",
    "write_ground_truth_file",
    "write_matrix",
    "read_matrix",
]

# Shortest decimal that round-trips an IEEE double.
_FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class Hyperedge:
    """A weighted node set of size >= 2 within one layer.

    ``nodes`` is strictly increasing; ``weight`` is the (count-like)
    observation weight, always positive: every stored hyperedge is observed.
    """

    nodes: tuple[int, ...]
    weight: float = 1.0

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError(f"hyperedge needs at least 2 nodes, got {self.nodes}")
        if any(b <= a for a, b in zip(self.nodes, self.nodes[1:])):
            raise ValueError(f"hyperedge nodes must be strictly increasing, got {self.nodes}")
        if not (self.weight > 0.0) or not np.isfinite(self.weight):
            raise ValueError(f"hyperedge weight must be finite and > 0, got {self.weight}")

    @property
    def size(self) -> int:
        return len(self.nodes)


def make_hyperedge(nodes: Iterable[int], weight: float = 1.0) -> Hyperedge:
    """Build a Hyperedge from unordered node ids, validating uniqueness."""
    ordered = tuple(sorted(int(n) for n in nodes))
    if len(set(ordered)) != len(ordered):
        raise ValueError(f"duplicate node ids in hyperedge: {ordered}")
    return Hyperedge(ordered, float(weight))


@dataclass(frozen=True)
class HypergraphLayer:
    """One hypergraph: ``num_nodes`` nodes and a canonical hyperedge list.

    Hyperedges are stored sorted lexicographically by node tuple with no
    duplicate node sets (use :meth:`from_hyperedges` to merge raw input).
    ``ground_truth`` optionally maps node id to a community label.
    """

    num_nodes: int
    hyperedges: tuple[Hyperedge, ...]
    ground_truth: Optional[Mapping[int, int]] = None

    def __post_init__(self):
        if self.num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {self.num_nodes}")
        prev = None
        for e in self.hyperedges:
            if e.nodes[-1] >= self.num_nodes or e.nodes[0] < 0:
                raise ValueError(f"hyperedge {e.nodes} out of range for {self.num_nodes} nodes")
            if prev is not None and e.nodes <= prev:
                raise ValueError("hyperedges must be sorted lexicographically and distinct")
            prev = e.nodes
        if self.ground_truth is not None:
            for node in self.ground_truth:
                if not 0 <= node < self.num_nodes:
                    raise ValueError(f"ground-truth node {node} out of range")

    @classmethod
    def from_hyperedges(
        cls,
        num_nodes: int,
        edges: Iterable[Hyperedge],
        ground_truth: Optional[Mapping[int, int]] = None,
    ) -> "HypergraphLayer":
        """Merge duplicate node sets by weight summation and canonicalize order.

        A node set that occurs once keeps its Hyperedge object; only merged
        duplicates are built anew.
        """
        merged: dict[tuple[int, ...], Hyperedge] = {}
        for e in edges:
            prior = merged.get(e.nodes)
            merged[e.nodes] = e if prior is None else Hyperedge(e.nodes, prior.weight + e.weight)
        canon = tuple(merged[nodes] for nodes in sorted(merged))
        return cls(num_nodes, canon, ground_truth)

    @property
    def num_hyperedges(self) -> int:
        return len(self.hyperedges)

    def sizes(self) -> list[int]:
        return [e.size for e in self.hyperedges]

    def node_sets(self) -> set[tuple[int, ...]]:
        return {e.nodes for e in self.hyperedges}

    def weights(self) -> np.ndarray:
        return np.array([e.weight for e in self.hyperedges], dtype=float)


@dataclass(frozen=True)
class InterEdgeSet:
    """Sparse weighted edges between the node sets of two layers.

    ``layer_a < layer_b``; ``edges`` holds (node in a, node in b, weight > 0)
    sorted by node pair, with absent pairs meaning weight 0.
    """

    layer_a: int
    layer_b: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.layer_a >= self.layer_b:
            raise ValueError(f"need layer_a < layer_b, got ({self.layer_a}, {self.layer_b})")
        prev = None
        for i, j, w in self.edges:
            if i < 0 or j < 0:
                raise ValueError(f"negative node index in inter-edge ({i}, {j})")
            if not (w > 0.0) or not np.isfinite(w):
                raise ValueError(f"stored inter-edge weight must be finite and > 0, got {w}")
            if prev is not None and (i, j) <= prev:
                raise ValueError("inter-edges must be sorted by node pair and distinct")
            prev = (i, j)

    @classmethod
    def from_entries(
        cls, layer_a: int, layer_b: int, entries: Iterable[tuple[int, int, float]]
    ) -> "InterEdgeSet":
        """Merge duplicate pairs by weight summation; drop zero-total pairs."""
        merged: dict[tuple[int, int], float] = {}
        for i, j, w in entries:
            merged[(i, j)] = merged.get((i, j), 0.0) + w
        canon = tuple((i, j, w) for (i, j), w in sorted(merged.items()) if w > 0.0)
        return cls(layer_a, layer_b, canon)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))


@dataclass(frozen=True)
class MultiHypergraph:
    """Several hypergraph layers plus inter-layer edge sets."""

    layers: tuple[HypergraphLayer, ...]
    inter_edges: tuple[InterEdgeSet, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a multi-hypergraph needs at least one layer")
        seen_pairs = set()
        for s in self.inter_edges:
            if s.layer_b >= len(self.layers):
                raise ValueError(f"inter-edge set references missing layer {s.layer_b}")
            pair = (s.layer_a, s.layer_b)
            if pair in seen_pairs:
                raise ValueError(f"duplicate inter-edge set for layer pair {pair}")
            seen_pairs.add(pair)
            na = self.layers[s.layer_a].num_nodes
            nb = self.layers[s.layer_b].num_nodes
            for i, j, _ in s.edges:
                if i >= na or j >= nb:
                    raise ValueError(f"inter-edge ({i}, {j}) out of range for pair {pair}")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def inter_for_pair(self, layer_a: int, layer_b: int) -> Optional[InterEdgeSet]:
        for s in self.inter_edges:
            if (s.layer_a, s.layer_b) == (layer_a, layer_b):
                return s
        return None


# ---------------------------------------------------------------------------
# Text-file ingestion.  All formats are whitespace-separated UTF-8 with
# '#' comment lines.
# ---------------------------------------------------------------------------


def _data_lines(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def parse_hyperedge_file(path: str, num_nodes: Optional[int] = None) -> HypergraphLayer:
    """Read a hyperedge list: one ``weight id id ...`` line per hyperedge.

    Duplicate node sets are merged by weight summation.  When ``num_nodes``
    is omitted it is inferred as 1 + the largest node id.
    """
    edges = []
    max_id = -1
    for lineno, line in _data_lines(path):
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
        max_id = max(max_id, *ids)
    if num_nodes is None:
        if max_id < 0:
            raise ValueError(f"{path}: empty hyperedge file and no num_nodes given")
        num_nodes = max_id + 1
    elif max_id >= num_nodes:
        raise ValueError(f"{path}: node id {max_id} >= declared num_nodes {num_nodes}")
    return HypergraphLayer.from_hyperedges(num_nodes, edges)


def parse_inter_edge_file(path: str) -> list[InterEdgeSet]:
    """Read inter-layer edges: one ``layer_a layer_b i j weight`` line each.

    Pairs are normalized to layer_a < layer_b (swapping i and j) and grouped
    per layer pair; duplicates merge by weight summation.
    """
    grouped: dict[tuple[int, int], list[tuple[int, int, float]]] = {}
    for lineno, line in _data_lines(path):
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
        if min(la, lb, i, j) < 0:
            raise ValueError(f"{path}:{lineno}: negative index")
        if la > lb:
            la, lb, i, j = lb, la, j, i
        grouped.setdefault((la, lb), []).append((i, j, w))
    return [
        InterEdgeSet.from_entries(la, lb, entries)
        for (la, lb), entries in sorted(grouped.items())
    ]


def parse_ground_truth_file(path: str) -> dict[int, int]:
    """Read ``node_id community_id`` lines into a node -> label map."""
    truth: dict[int, int] = {}
    for lineno, line in _data_lines(path):
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'node_id community_id', got {line!r}")
        try:
            node, label = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if node in truth:
            raise ValueError(f"{path}:{lineno}: duplicate node {node}")
        truth[node] = label
    return truth


def write_hyperedge_file(path: str, layer: HypergraphLayer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in layer.hyperedges:
            fh.write(_FLOAT_FMT % e.weight + " " + " ".join(map(str, e.nodes)) + "\n")


def write_inter_edge_file(path: str, sets: Sequence[InterEdgeSet]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sets:
            for i, j, w in s.edges:
                fh.write(f"{s.layer_a} {s.layer_b} {i} {j} " + _FLOAT_FMT % w + "\n")


def write_ground_truth_file(path: str, truth: Mapping[int, int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for node in sorted(truth):
            fh.write(f"{node} {truth[node]}\n")


def write_matrix(path: str, m: np.ndarray) -> None:
    """Write a dense matrix as CSV at full (round-trip) precision."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    with open(path, "w", encoding="utf-8") as fh:
        for row in m:
            fh.write(",".join(_FLOAT_FMT % v for v in row) + "\n")


def read_matrix(path: str) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(v) for v in line.split(",")])
    return np.array(rows, dtype=float)


def parse_manifest(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` manifest; values keep inline spaces."""
    entries: dict[str, str] = {}
    for lineno, line in _data_lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: empty key or value")
        if key in entries:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def load_manifest(path: str) -> tuple[MultiHypergraph, list[int]]:
    """Build a MultiHypergraph from a manifest file.

    Recognized keys (paths are resolved relative to the manifest):
    ``layer.<i>.edges``, ``layer.<i>.truth``, ``layer.<i>.nodes``,
    ``layer.<i>.k`` and ``inter.edges``.  Returns the multi-hypergraph and
    the per-layer community counts K.
    """
    entries = parse_manifest(path)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    indices = set()
    for key in entries:
        parts = key.split(".")
        if parts[0] == "layer":
            if len(parts) != 3 or not parts[1].isdigit():
                raise ValueError(f"{path}: bad layer key {key!r}")
            indices.add(int(parts[1]))
    if not indices:
        raise ValueError(f"{path}: no layer entries")
    if indices != set(range(len(indices))):
        raise ValueError(f"{path}: layer indices must be 0..{len(indices) - 1}, got {sorted(indices)}")

    layers = []
    k_per_layer = []
    for i in range(len(indices)):
        edges_key = f"layer.{i}.edges"
        if edges_key not in entries:
            raise ValueError(f"{path}: missing {edges_key}")
        num_nodes = entries.get(f"layer.{i}.nodes")
        layer = parse_hyperedge_file(
            resolve(entries[edges_key]),
            num_nodes=int(num_nodes) if num_nodes is not None else None,
        )
        truth_path = entries.get(f"layer.{i}.truth")
        if truth_path is not None:
            truth = parse_ground_truth_file(resolve(truth_path))
            layer = HypergraphLayer(layer.num_nodes, layer.hyperedges, truth)
        layers.append(layer)
        k_key = f"layer.{i}.k"
        if k_key not in entries:
            raise ValueError(f"{path}: missing {k_key}")
        k_per_layer.append(int(entries[k_key]))

    inter: tuple[InterEdgeSet, ...] = ()
    if "inter.edges" in entries:
        inter = tuple(parse_inter_edge_file(resolve(entries["inter.edges"])))
    return MultiHypergraph(tuple(layers), inter), k_per_layer
