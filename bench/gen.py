"""Seeded benchmark instances, written as plain text files.

Two families:

* the planted-partition instance of acceptance criterion 5 (60 nodes,
  3 communities, 2 layers, pairwise edges), built with ``hyperblock.synth``;
* a nested community hypergraph that ``planted_partition`` cannot reach,
  because that generator enumerates every candidate node set.  Each layer
  draws hyperedges of sizes 2-5 mostly inside planted communities, and half
  of the edges smaller than the largest size are drawn as subsets of an
  earlier, larger edge.  Those nested subsets are what give the
  containment-based node contributions (theta) non-uniform values.

Everything is drawn from ``numpy.random.default_rng`` seeded by the caller,
so the same seed gives byte-identical files.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import combinations

import numpy as np

from hyperblock.core import (
    HypergraphLayer,
    InterEdgeSet,
    MultiHypergraph,
    make_hyperedge,
    write_ground_truth_file,
    write_hyperedge_file,
    write_inter_edge_file,
)
from hyperblock.synth import planted_partition

# size distribution of fresh edges; mean 2.73 nodes per edge
SIZES = np.array([2, 3, 4, 5])
SIZE_PROBS = np.array([0.55, 0.25, 0.12, 0.08])
WITHIN_COMMUNITY = 0.9
NESTED_SHARE = 0.5


def planted_instance(seed: int) -> MultiHypergraph:
    """The acceptance-criterion-5 planted instance."""
    return planted_partition(
        num_nodes=60, num_communities=3, num_layers=2,
        c_in=0.5, c_out=0.05, max_size=2, inter_edge_count=600, seed=seed,
    )


def _fresh_edge(size, labels, members, rng):
    """Distinct node ids, all from one community with prob WITHIN_COMMUNITY."""
    if rng.random() < WITHIN_COMMUNITY:
        pool = members[int(rng.integers(len(members)))]
    else:
        pool = None
    while True:
        if pool is None:
            nodes = rng.integers(len(labels), size=size)
        else:
            nodes = pool[rng.integers(len(pool), size=size)]
        if len(set(nodes.tolist())) == size:
            return tuple(sorted(nodes.tolist()))


def nested_layer(num_nodes: int, num_edges: int, labels: np.ndarray,
                 rng: np.random.Generator) -> HypergraphLayer:
    """``num_edges`` distinct unit-weight hyperedges over ``num_nodes`` nodes."""
    members = [np.flatnonzero(labels == c) for c in range(int(labels.max()) + 1)]
    cumulative = np.cumsum(SIZE_PROBS)
    by_size: dict[int, list[tuple[int, ...]]] = {int(s): [] for s in SIZES}
    seen: set[tuple[int, ...]] = set()
    while len(seen) < num_edges:
        size = int(SIZES[np.searchsorted(cumulative, rng.random(), side="right")])
        larger = sum(len(by_size[s]) for s in by_size if s > size)
        if larger and rng.random() < NESTED_SHARE:
            # a uniform earlier edge among those larger than ``size``
            pick = int(rng.integers(larger))
            for s in range(size + 1, int(SIZES[-1]) + 1):
                if pick < len(by_size[s]):
                    break
                pick -= len(by_size[s])
            parent = by_size[s][pick]
            keep = np.sort(rng.choice(s, size=size, replace=False))
            nodes = tuple(parent[k] for k in keep)
        else:
            nodes = _fresh_edge(size, labels, members, rng)
        if nodes in seen:
            continue
        seen.add(nodes)
        by_size[size].append(nodes)
    truth = {i: int(labels[i]) for i in range(num_nodes)}
    edges = [make_hyperedge(nodes) for nodes in seen]
    return HypergraphLayer.from_hyperedges(num_nodes, edges, truth)


def nested_instance(num_nodes: int, num_edges: int, num_communities: int,
                    num_inter: int, seed: int) -> MultiHypergraph:
    """Two nested community layers joined by community-aligned inter-edges.

    Each layer places its nodes into communities by its own random
    permutation; an inter-edge joins a uniform node of layer 0 to a uniform
    node of the same community in layer 1.
    """
    rng = np.random.default_rng([seed, 7])
    base = np.arange(num_nodes) % num_communities
    labels = [rng.permutation(base) for _ in range(2)]
    layers = tuple(nested_layer(num_nodes, num_edges, lab, rng) for lab in labels)
    members_b = [np.flatnonzero(labels[1] == c) for c in range(num_communities)]
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < num_inter:
        i = int(rng.integers(num_nodes))
        pool = members_b[labels[0][i]]
        pairs.add((i, int(pool[rng.integers(len(pool))])))
    inter = InterEdgeSet(0, 1, tuple((i, j, 1.0) for i, j in sorted(pairs)))
    return MultiHypergraph(layers, (inter,))


def write_instance(mh: MultiHypergraph, k_per_layer, out_dir: str) -> str:
    """Write the instance with the ``hyperblock.core`` writers; return the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for l, layer in enumerate(mh.layers):
        write_hyperedge_file(os.path.join(out_dir, f"edges_{l}.txt"), layer)
        write_ground_truth_file(os.path.join(out_dir, f"truth_{l}.txt"), layer.ground_truth)
        lines += [
            f"layer.{l}.edges = edges_{l}.txt",
            f"layer.{l}.truth = truth_{l}.txt",
            f"layer.{l}.nodes = {layer.num_nodes}",
            f"layer.{l}.k = {k_per_layer[l]}",
        ]
    write_inter_edge_file(os.path.join(out_dir, "inter.txt"), mh.inter_edges)
    lines.append("inter.edges = inter.txt")
    path = os.path.join(out_dir, "manifest.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _non_uniform_theta(nodes: tuple[int, ...], observed: set) -> bool:
    """True when the containment counts inside ``nodes`` are not all equal."""
    counts = Counter()
    for size in range(2, len(nodes) + 1):
        for sub in combinations(nodes, size):
            if sub in observed:
                counts.update(sub)
    return len({counts[n] for n in nodes}) > 1


def instance_counts(mh: MultiHypergraph) -> dict:
    """Size and shape of an instance, as plain counts."""
    out = {"inter_edges": sum(s.num_edges for s in mh.inter_edges), "layers": []}
    for layer in mh.layers:
        observed = layer.node_sets()
        sizes = Counter(layer.sizes())
        out["layers"].append({
            "nodes": layer.num_nodes,
            "edges": layer.num_hyperedges,
            "edges_per_size": {str(s): sizes[s] for s in sorted(sizes)},
            "non_uniform_theta_edges": sum(
                _non_uniform_theta(e.nodes, observed) for e in layer.hyperedges
            ),
            "incidence_nnz": sum(sizes[s] * s for s in sizes),
        })
    return out
