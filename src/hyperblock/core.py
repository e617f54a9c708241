"""Immutable data model for coupled hypergraphs plus text-file ingestion.

A multi-hypergraph is a list of hypergraph layers (each a node set plus
weighted hyperedges) joined by sparse weighted edges between the node sets
of layer pairs.  Node ids are layer-local 0-based integers; cross-layer
identity exists only through the inter-edge sets.  Layers and inter-edge
sets hold their edges as flat read-only arrays, the form the fit reads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
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

# Node ids and layer indices read from files stay below this bound, so that
# they and the node counts derived from them fit in int64.
_MAX_ID = 1 << 62


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


# ---------------------------------------------------------------------------
# Flat edge arrays: edge k owns nodes[offsets[k]:offsets[k + 1]].
# ---------------------------------------------------------------------------


def _offsets(sizes: np.ndarray) -> np.ndarray:
    out = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


def _take_rows(nodes: np.ndarray, offsets: np.ndarray, rows: np.ndarray):
    """(nodes, offsets) of the given rows, in the given order."""
    sizes = np.diff(offsets)[rows]
    new = _offsets(sizes)
    idx = np.repeat(offsets[:-1][rows] - new[:-1], sizes) + np.arange(new[-1])
    return nodes[idx], new


def _split_rows(nodes: np.ndarray, offsets: np.ndarray) -> list[tuple[int, ...]]:
    flat, bounds = nodes.tolist(), offsets.tolist()
    return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def _order_by(major: np.ndarray, minor: np.ndarray, minor_max: int) -> np.ndarray:
    """The stable order of ``np.lexsort((minor, major))``, for int64 keys
    with ``major >= 0`` and ``0 <= minor <= minor_max``.

    It is one stable argsort of the packed key ``major * (minor_max + 1) +
    minor``, which runs in near-linear time on keys already in order.  When
    the packed key would overflow int64, it is ``np.lexsort`` itself.
    """
    span = int(minor_max) + 1
    if (int(major.max(initial=0)) + 1) * span >= 1 << 63:
        return np.lexsort((minor, major))
    return np.argsort(major * span + minor, kind="stable")


def _row_order(nodes: np.ndarray, offsets: np.ndarray):
    """Stable lexicographic order of the rows as node tuples, and a flag per
    position of that order telling whether its row equals the one before.

    Rows sharing their first c nodes form a group, one contiguous run of
    the order.  Step c sorts the rows of each group by their node at
    column c, shifted up by one; a row of exactly c nodes takes 0 there, so
    it sorts before its extensions, and then leaves the sort.  Step c
    touches only the rows of at least c nodes, so the work follows the node
    entries, however unequal the row sizes (padding every row to the longest
    would not).
    """
    sizes = np.diff(offsets)
    order = np.arange(sizes.size)
    starts = np.zeros(sizes.size, dtype=bool)  # position begins a group
    starts[:1] = True
    pos = order.copy()  # positions of the rows still being sorted
    key_max = int(nodes.max(initial=-1)) + 1
    for c in range(int(sizes.max(initial=0))):
        rows = order[pos]
        live = sizes[rows] > c
        key = np.zeros(pos.size, dtype=np.int64)
        key[live] = nodes[offsets[:-1][rows[live]] + c] + 1
        sub = _order_by(np.cumsum(starts[pos]), key, key_max)
        order[pos] = rows[sub]
        key = key[sub]
        starts[pos[1:]] |= key[1:] != key[:-1]
        pos = pos[live[sub]]
    return order, ~starts


def _draw_fresh(known_nodes, known_offsets, space, want, draw):
    """(nodes, offsets) of ``want[w]`` rows of each width w that ``draw(w, count)``
    draws uniformly among ``space[w]``, kept as a one-at-a-time rejection sampler
    keeps them: equal to no known row (all distinct) or earlier draw, by one
    stable ``_row_order``.  A round draws each width's shortfall, scaled up by
    the share of its space still free."""
    nodes, widths, m = known_nodes, np.diff(known_offsets), known_offsets.size - 1
    free = {w: space[w] - int(np.count_nonzero(widths == w)) for w in want}
    for w, count in want.items():
        if count > free[w]:
            raise ValueError(f"only {free[w]} unobserved candidates of size {w}, {count} requested")
    while True:
        short = {w: count - int(np.count_nonzero(widths[m:] == w)) for w, count in want.items()}
        if not any(short.values()):
            return nodes[known_offsets[-1]:], _offsets(widths[m:])
        for w, k in short.items():
            if k:
                left = free[w] - want[w] + k  # free rows not kept yet
                rows = draw(w, max(k, (2 * k * space[w] + left) // (2 * left)))
                nodes = np.concatenate((nodes, rows.ravel()))
                widths = np.concatenate((widths, np.full(len(rows), w)))
        order, same = _row_order(nodes, _offsets(widths))
        keep = np.ones(widths.size, dtype=bool)
        keep[order[same]] = False
        for w, count in want.items():
            keep[m + np.flatnonzero(keep[m:] & (widths[m:] == w))[count:]] = False
        nodes, widths = nodes[np.repeat(keep, widths)], widths[keep]


def _merge_sorted(order: np.ndarray, same: np.ndarray, weights: np.ndarray):
    """(first row of each distinct key along ``order``, summed weights).

    Weights of equal keys add left to right in input order, as a running
    sum would: ``order`` is stable and ``np.add.at`` applies its updates in
    index order.
    """
    ranked = weights[order]
    first = ~same
    merged = ranked[first]
    dup = np.flatnonzero(same)
    with np.errstate(over="ignore"):  # the callers reject a sum that overflows
        np.add.at(merged, np.cumsum(first)[dup] - 1, ranked[dup])
    return order[first], merged


def _first_or_none(mask: np.ndarray) -> Optional[int]:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _check_truth_nodes(ground_truth: Optional[Mapping[int, int]], num_nodes: int) -> None:
    """Raise for the first ground-truth node outside [0, num_nodes)."""
    if ground_truth is None:
        return
    nodes = list(ground_truth)
    keys = np.asarray(nodes)
    if keys.ndim != 1 or keys.dtype.kind not in "iu":
        # keys that are not all int64 (or uint64) compare as Python objects
        keys = np.fromiter(nodes, dtype=object, count=len(nodes))
    with np.errstate(invalid="ignore"):  # a NaN key is out of range
        bad = _first_or_none(~((keys >= 0) & (keys < num_nodes)))
    if bad is not None:
        raise ValueError(f"ground-truth node {nodes[bad]} out of range")


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


class _Frozen:
    """Attributes are set once, by the constructors (``_set``)."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **attrs) -> None:
        self.__dict__.update(attrs)


class HypergraphLayer(_Frozen):
    """One hypergraph: ``num_nodes`` nodes and its weighted hyperedges.

    The hyperedges are flat read-only arrays, the layout of
    ``InternalDegreeTable``: hyperedge ``eid`` owns positions
    ``offsets[eid]:offsets[eid + 1]`` of ``nodes`` (its node ids, strictly
    increasing) and has weight ``weights[eid] > 0``.  Hyperedges are
    distinct node sets sorted lexicographically; ``from_arrays`` validates
    raw input and merges it into that form, and ``from_hyperedges`` converts
    ``Hyperedge`` objects into that call.  ``ground_truth`` optionally maps
    node id to a community label.  Layers compare by value.
    """

    @classmethod
    def _from_canonical(cls, num_nodes, nodes, offsets, weights, ground_truth=None):
        """A layer from arrays and a ground truth already in canonical form
        (not re-checked)."""
        _read_only(nodes, offsets, weights)
        layer = cls.__new__(cls)
        layer._set(
            num_nodes=num_nodes, nodes=nodes, offsets=offsets, weights=weights,
            ground_truth=ground_truth,
        )
        return layer

    @classmethod
    def from_hyperedges(
        cls,
        num_nodes: int,
        edges: Iterable[Hyperedge],
        ground_truth: Optional[Mapping[int, int]] = None,
    ) -> "HypergraphLayer":
        """``from_arrays`` on the node ids and weights of ``Hyperedge`` objects."""
        edges = tuple(edges)
        offsets = _offsets(np.fromiter((len(e.nodes) for e in edges), np.int64, len(edges)))
        nodes = np.fromiter(chain.from_iterable(e.nodes for e in edges), np.int64, int(offsets[-1]))
        weights = np.fromiter((e.weight for e in edges), float, len(edges))
        return cls.from_arrays(num_nodes, nodes, offsets, weights, ground_truth)

    @classmethod
    def from_arrays(
        cls,
        num_nodes: int,
        nodes: np.ndarray,
        offsets: np.ndarray,
        weights: np.ndarray,
        ground_truth: Optional[Mapping[int, int]] = None,
    ) -> "HypergraphLayer":
        """A layer from flat hyperedge arrays in any edge order.

        Node ids must be strictly increasing within each hyperedge, in
        [0, num_nodes), at least two per hyperedge; weights finite and
        positive.  Duplicate node sets merge by weight summation, in input
        order.
        """
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be positive, got {num_nodes}")
        nodes = np.asarray(nodes, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        sizes = np.diff(offsets)
        if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != nodes.size:
            raise ValueError("offsets must run from 0 to the number of node entries")
        if weights.shape != sizes.shape:
            raise ValueError(f"{weights.size} weights for {sizes.size} hyperedges")
        if np.any(sizes < 2):
            raise ValueError("every hyperedge needs at least 2 nodes")
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise ValueError("hyperedge weights must be finite and > 0")
        if nodes.size and (nodes.min() < 0 or nodes.max() >= num_nodes):
            raise ValueError(f"node ids out of range for {num_nodes} nodes")
        rising = nodes[1:] > nodes[:-1]
        rising[offsets[1:-1] - 1] = True  # an edge boundary needs no order
        if not rising.all():
            raise ValueError("node ids must be strictly increasing within each hyperedge")
        order, same = _row_order(nodes, offsets)
        rows, merged = _merge_sorted(order, same, weights)
        if not np.all(np.isfinite(merged)):
            raise ValueError("merged hyperedge weight is not finite")
        nodes, offsets = _take_rows(nodes, offsets, rows)
        layer = cls._from_canonical(num_nodes, nodes, offsets, merged, ground_truth)
        _check_truth_nodes(ground_truth, num_nodes)
        return layer

    def with_ground_truth(self, ground_truth: Optional[Mapping[int, int]]) -> "HypergraphLayer":
        """The same hyperedges (shared arrays) with another ground truth."""
        _check_truth_nodes(ground_truth, self.num_nodes)
        return self._from_canonical(
            self.num_nodes, self.nodes, self.offsets, self.weights, ground_truth
        )

    def subset(self, keep: np.ndarray) -> "HypergraphLayer":
        """The hyperedges selected by a boolean mask, with the same nodes and
        ground truth (checked when this layer was built)."""
        rows = np.flatnonzero(np.asarray(keep, dtype=bool))
        nodes, offsets = _take_rows(self.nodes, self.offsets, rows)
        return self._from_canonical(
            self.num_nodes, nodes, offsets, self.weights[rows], self.ground_truth
        )

    @cached_property
    def hyperedges(self) -> tuple[Hyperedge, ...]:
        """The rows as ``Hyperedge(nodes, weight)`` objects, built on first
        access; nothing in the library reads them."""
        return tuple(map(Hyperedge, self.node_tuples(), self.weights.tolist()))

    @property
    def num_hyperedges(self) -> int:
        return self.offsets.size - 1

    def sizes(self) -> list[int]:
        return np.diff(self.offsets).tolist()

    def node_tuples(self) -> list[tuple[int, ...]]:
        """Node ids of every hyperedge, in canonical order."""
        return _split_rows(self.nodes, self.offsets)

    def node_sets(self) -> set[tuple[int, ...]]:
        return set(self.node_tuples())

    def __eq__(self, other):
        if not isinstance(other, HypergraphLayer):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
            and self.ground_truth == other.ground_truth
        )

    __hash__ = None

    def __repr__(self):
        truth = "" if self.ground_truth is None else ", with ground truth"
        return (
            f"HypergraphLayer(num_nodes={self.num_nodes}, "
            f"num_hyperedges={self.num_hyperedges}{truth})"
        )


class InterEdgeSet(_Frozen):
    """Sparse weighted edges between the node sets of two layers.

    ``0 <= layer_a < layer_b``; edge k joins node ``rows[k]`` of layer a to
    node ``cols[k]`` of layer b with weight ``weights[k] > 0``.  The three
    arrays are read-only and sorted by node pair, with no pair twice; absent
    pairs mean weight 0.  Sets compare by value.

    ``from_arrays`` validates raw input and merges it into that form; the
    constructor converts (i, j, weight) triples, in any order, into that
    call.
    """

    def __init__(self, layer_a: int, layer_b: int, edges: Iterable[tuple[int, int, float]] = ()):
        edges = tuple(edges)
        m = len(edges)
        rows = np.fromiter((e[0] for e in edges), np.int64, m)
        cols = np.fromiter((e[1] for e in edges), np.int64, m)
        weights = np.fromiter((e[2] for e in edges), float, m)
        self._set(**vars(self.from_arrays(layer_a, layer_b, rows, cols, weights)))

    @classmethod
    def _from_canonical(cls, layer_a, layer_b, rows, cols, weights):
        """Edges from arrays already in canonical form (not re-checked)."""
        _read_only(rows, cols, weights)
        s = cls.__new__(cls)
        s._set(layer_a=layer_a, layer_b=layer_b, rows=rows, cols=cols, weights=weights)
        return s

    @classmethod
    def from_arrays(
        cls, layer_a: int, layer_b: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray
    ) -> "InterEdgeSet":
        """Edges from flat arrays in any order.

        Layer indices must be integers (``int`` or numpy integers, not
        ``bool``) with ``0 <= layer_a < layer_b`` and are stored as ``int``;
        node indices must be non-negative and weights finite and >= 0;
        duplicate pairs merge by weight summation in input order, and pairs
        whose total is zero are dropped.
        """
        for index in (layer_a, layer_b):
            if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
                raise ValueError(
                    f"layer indices must be integers, got ({layer_a!r}, {layer_b!r})"
                )
        layer_a, layer_b = int(layer_a), int(layer_b)
        if not 0 <= layer_a < layer_b:
            raise ValueError(f"need 0 <= layer_a < layer_b, got ({layer_a}, {layer_b})")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        if not rows.shape == cols.shape == weights.shape:
            raise ValueError("rows, cols and weights must have one entry per edge")
        if rows.size and min(rows.min(), cols.min()) < 0:
            raise ValueError("negative node index in inter-edges")
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            raise ValueError("inter-edge weights must be finite and >= 0")
        order = _order_by(rows, cols, cols.max(initial=0))
        r, c = rows[order], cols[order]
        same = np.zeros(order.size, dtype=bool)
        same[1:] = (r[1:] == r[:-1]) & (c[1:] == c[:-1])
        first, merged = _merge_sorted(order, same, weights)
        if not np.all(np.isfinite(merged)):
            raise ValueError("merged inter-edge weight is not finite")
        kept = merged > 0.0
        return cls._from_canonical(
            layer_a, layer_b, rows[first][kept], cols[first][kept], merged[kept]
        )

    def subset(self, keep: np.ndarray) -> "InterEdgeSet":
        """The edges selected by a boolean mask."""
        keep = np.asarray(keep, dtype=bool)
        return self._from_canonical(
            self.layer_a, self.layer_b, self.rows[keep], self.cols[keep], self.weights[keep]
        )

    @property
    def num_edges(self) -> int:
        return self.rows.size

    def __eq__(self, other):
        if not isinstance(other, InterEdgeSet):
            return NotImplemented
        return (
            (self.layer_a, self.layer_b) == (other.layer_a, other.layer_b)
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.weights, other.weights)
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"InterEdgeSet(layer_a={self.layer_a}, layer_b={self.layer_b}, "
            f"num_edges={self.num_edges})"
        )


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
            k = _first_or_none((s.rows >= na) | (s.cols >= nb))
            if k is not None:
                raise ValueError(
                    f"inter-edge ({s.rows[k]}, {s.cols[k]}) out of range for pair {pair}"
                )

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def inter_for_pair(self, layer_a: int, layer_b: int) -> Optional[InterEdgeSet]:
        for s in self.inter_edges:
            if (s.layer_a, s.layer_b) == (layer_a, layer_b):
                return s
        return None


# ---------------------------------------------------------------------------
# Text-file ingestion.  Data files (hyperedges, inter-edges, ground truth)
# are lines of fields separated by ASCII whitespace; a line whose first
# field starts with '#' is a comment and may hold any text.  Integers are
# ASCII decimal (an optional sign, then at most 19 digits), and ids, layer
# indices and labels lie below 2**62 in magnitude.  One token pass (``_Tokens``) splits
# a file into tokens with numpy and decodes them by digit column; each
# format checks its rules as masks over the data lines, and a file that
# breaks one raises ``file:line: message`` for the first bad line.
# ---------------------------------------------------------------------------

_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(_MAX_DIGITS + 1, dtype=np.int64)

# Byte classes of the token pass: a decimal digit maps to its value; '\n'
# and '\r' end a line, as they do in text mode (universal newlines); the
# rest of str.split()'s ASCII whitespace (\t \v \f, \x1c-\x1f and space)
# separates tokens; '#' and every other byte are token characters.
_OTHER, _HASH, _BLANK, _NEWLINE = 10, 11, 12, 13


def _byte_classes() -> bytes:
    table = bytearray([_OTHER]) * 256
    table[ord("0"):ord("9") + 1] = range(10)
    table[ord("#")] = _HASH
    for byte in b"\t\v\f\x1c\x1d\x1e\x1f ":
        table[byte] = _BLANK
    table[ord("\n")] = table[ord("\r")] = _NEWLINE
    return bytes(table)


_CLASSES = _byte_classes()


class _Tokens:
    """The data lines of a file, split into tokens at once; a line whose
    first token starts with '#' is a comment, whatever bytes it holds.

    Data line k holds tokens ``first[k]:first[k + 1]``; token t is
    ``data[start[t]:end[t]]``.
    """

    def __init__(self, data: bytes):
        # A small file pays per numpy call, so the pass makes few calls,
        # all of them methods or ufuncs with ``out``.
        self.data = data
        self.classes = classes = np.frombuffer(data.translate(_CLASSES), dtype=np.uint8)
        space = np.empty(classes.size + 2, dtype=bool)
        space[0] = space[-1] = True
        np.greater_equal(classes, _BLANK, out=space[1:-1])
        change = (space[1:] != space[:-1]).nonzero()[0]
        start, end = change[::2], change[1::2]
        # bounds: 0, the first token after each line end (2t changes lie
        # before token t), the token count; the distinct bounds start the
        # non-blank lines, and end the last one
        newline = (classes == _NEWLINE).nonzero()[0]
        bounds = np.empty(newline.size + 2, dtype=np.int64)
        bounds[0], bounds[-1] = 0, start.size
        np.right_shift(change.searchsorted(newline, "right"), 1, out=bounds[1:-1])
        distinct = np.empty(bounds.size, dtype=bool)
        distinct[0] = True
        np.not_equal(bounds[1:], bounds[:-1], out=distinct[1:])
        first = bounds[distinct]
        if b"#" in data:
            data_line = classes[start[first[:-1]]] != _HASH
            if not data_line.all():
                counts = first[1:] - first[:-1]
                keep = np.repeat(data_line, counts)
                start, end = start[keep], end[keep]
                first = _offsets(counts[data_line])
        self.start, self.end, self.first = start, end, first

    @classmethod
    def read(cls, path: str) -> "_Tokens":
        with open(path, "rb") as fh:
            return cls(fh.read())

    def counts(self) -> np.ndarray:
        return self.first[1:] - self.first[:-1]

    def table(self, width: int):
        """(fits, start, end): which data lines hold ``width`` tokens, and the
        tokens as (line, field) arrays; short lines repeat their last token."""
        counts = self.counts()
        fits = counts == width
        if fits.all():
            return fits, self.start.reshape(-1, width), self.end.reshape(-1, width)
        at = self.first[:-1, None] + np.minimum(np.arange(width), counts[:, None] - 1)
        return fits, self.start[at], self.end[at]

    def digits(self, start: np.ndarray, end: np.ndarray):
        """(value, plain) of the tokens ``data[start:end]``, for start and
        end arrays of any one shape: plain tokens are at most 18 decimal
        digits, and only their values are meaningful.

        Column c is every token's digit c places from its right end, read
        with one gather, and adds digit * 10**c; a token shorter than c + 1
        reads a byte before it (``end - c - 1`` is at least ``1 - len(data)``,
        a valid index) and counts it as 0.  Memory is a few arrays per
        token, not per byte.
        """
        size = end - start
        value = np.zeros(size.shape, dtype=np.int64)
        term = np.empty_like(value)
        bad = size > _MAX_DIGITS
        shortest = int(size.min(initial=_MAX_DIGITS))
        for c in range(min(int(size.max(initial=0)), _MAX_DIGITS)):
            digit = self.classes[np.subtract(end, c + 1, out=term)]
            if c >= shortest:
                digit *= size > c
            bad |= digit > 9
            # int64 product: uint8 digits times a small scalar would stay
            # uint8 under value-based casting (NumPy 1.x)
            np.multiply(digit, _POW10[c], out=term, dtype=np.int64)
            value += term
        return value, ~bad

    def integers(self, start: np.ndarray, end: np.ndarray):
        """(value, ok) of integer tokens, for start and end arrays of any
        one shape: an optional '+' or '-', then at most 19 decimal digits,
        or more when the first is not 0.  A value at or past ``_MAX_ID`` in
        magnitude reads as +-``_MAX_ID``.  Past the sign, the last 18 digits
        read by column and the rest by their largest byte class."""
        value, ok = self.digits(start, end)
        if ok.all():
            return value, ok
        sign = np.frombuffer(self.data, dtype=np.uint8)[start]
        start = start + ((sign == ord("+")) | (sign == ord("-")))
        size = end - start
        value, ok = self.digits(np.maximum(start, end - _MAX_DIGITS), end)
        lead = self.classes[np.minimum(start, end - 1)].astype(np.int64)  # a lone sign: 10
        ok &= (size > 0) & ((size <= 19) | (lead != 0))
        if (long := size > _MAX_DIGITS).any():
            heads = np.stack((start[long], end[long] - _MAX_DIGITS), axis=1).ravel()
            ok[long] &= np.maximum.reduceat(self.classes, heads)[::2] <= 9
        value = np.minimum(value + (size == 19) * np.minimum(lead, 5) * 10**18, _MAX_ID)
        value[size > 19] = _MAX_ID
        value[sign == ord("-")] *= -1
        return value, ok

    def floats(self, start: np.ndarray, end: np.ndarray):
        """(value, ok) of the tokens as ``float()`` reads ASCII text; a
        token it does not read is NaN and not ok."""
        values, ok = self.digits(start, end)
        out = values.astype(float)
        for t in np.flatnonzero(~ok).tolist():
            try:
                out[t], ok[t] = float(self.data[start[t]:end[t]]), True  # of bytes: ASCII only
            except ValueError:
                out[t] = np.nan
        return out, ok

    def line(self, k: int) -> str:
        """Data line k as text, from its first token to its last."""
        text = self.data[self.start[self.first[k]]:self.end[self.first[k + 1] - 1]]
        return text.decode("utf-8", "replace")

    def check(self, path: str, rules) -> None:
        """Raise ``path:line: message`` for the first data line that a rule
        flags, with the message of the first rule that flags it.  ``rules``
        are (mask over the data lines, message of line k) pairs in checking
        order; a mask may be wrong after a flagged line, or on a line that an
        earlier rule flags."""
        hits = [k for k in (_first_or_none(mask) for mask, _ in rules) if k is not None]
        if hits:
            k = min(hits)
            at, count = int(self.start[self.first[k]]), self.data.count  # '\r\n' ends one line
            number = 1 + count(b"\n", 0, at) + count(b"\r", 0, at) - count(b"\r\n", 0, at)
            message = next(message for mask, message in rules if mask[k])
            raise ValueError(f"{path}:{number}: {message(k)}") from None

    def field_error(self, k: int, kinds) -> str:
        """The message for data line k's first field that does not read as
        its kind (``kinds[f]``, the last kind serving the later fields):
        Python's error when ``int()`` or ``float()`` rejects it too."""
        for f, t in enumerate(range(self.first[k], self.first[k + 1])):
            kind = kinds[min(f, len(kinds) - 1)]
            read = self.floats if kind is float else self.integers
            if not read(self.start[t:t + 1], self.end[t:t + 1])[1][0]:
                text = self.data[self.start[t]:self.end[t]].decode("utf-8", "replace")
                try:
                    kind(text)
                except ValueError as exc:
                    return str(exc)
                rule = "a number" if kind is float else "an integer of at most 19 digits"
                return f"expected {rule} in ASCII, got {text!r}"


def parse_hyperedge_file(path: str, num_nodes: Optional[int] = None) -> HypergraphLayer:
    """Read a hyperedge list: one ``weight id id ...`` line per hyperedge.

    Node ids may come in any order within a line.  Duplicate node sets are
    merged by weight summation, in file order.  When ``num_nodes`` is
    omitted it is inferred as 1 + the largest node id.  The file is read
    straight into the layer's flat arrays; a malformed line raises
    ValueError naming ``file:line``.
    """
    if num_nodes is not None and num_nodes <= 0:
        raise ValueError(f"num_nodes must be positive, got {num_nodes}")
    tokens = _Tokens.read(path)
    sizes, weights, weight_ok, ids, id_ok = fields = _hyperedge_fields(tokens)
    top = int(ids.max(initial=-1))
    if np.any(sizes < 2) or not (weight_ok.all() and id_ok.all()) or top >= _MAX_ID:
        tokens.check(path, _hyperedge_rules(tokens, num_nodes, *fields))
    first = tokens.first  # line k's ids start at first[k] - k, after k weights
    del tokens, fields  # free the token arrays before the sorts
    if sizes.size == 0 and num_nodes is None:
        raise ValueError(f"{path}: empty hyperedge file and no num_nodes given")
    ids = ids[_order_by(np.repeat(np.arange(sizes.size), sizes), ids, top)]
    try:
        n = top + 1 if num_nodes is None else num_nodes
        return HypergraphLayer.from_arrays(n, ids, first - np.arange(first.size), weights)
    except ValueError:  # a line's fault, or else the merged weights'
        tokens = _Tokens.read(path)
        tokens.check(path, _hyperedge_rules(tokens, num_nodes, *_hyperedge_fields(tokens)))
        raise


def _hyperedge_fields(tokens: _Tokens):
    """(id count, weight, weight ok) per data line, and (id, id ok) per id."""
    head = tokens.first[:-1]
    weights, weight_ok = tokens.floats(tokens.start[head], tokens.end[head])
    id_at = np.ones(tokens.start.size, dtype=bool)
    id_at[head] = False
    ids, id_ok = tokens.integers(tokens.start[id_at], tokens.end[id_at])
    return tokens.counts() - 1, weights, weight_ok, ids, id_ok


def _hyperedge_rules(tokens, num_nodes, sizes, weights, weight_ok, ids, id_ok):
    """The rules of a hyperedge file, as masks over its data lines."""
    line = np.repeat(np.arange(sizes.size), sizes)  # of each id
    # ids equal to the one before them in their line's sorted ids; ids past
    # the bound all read as _MAX_ID, so they fail as too large instead
    order = np.lexsort((ids, line))
    same = np.zeros(ids.size, dtype=bool)
    same[order[1:]] = (ids[order[1:]] == ids[order[:-1]]) & (line[order[1:]] == line[order[:-1]])

    def any_id(flags):
        return np.bincount(line[flags], minlength=sizes.size) > 0

    def values(k):
        weight, *node_ids = tokens.line(k).split()
        return float(weight), sorted(map(int, node_ids))

    return [
        (sizes < 2, lambda k: f"expected 'weight id id ...', got {tokens.line(k)!r}"),
        (~weight_ok | any_id(~id_ok), lambda k: tokens.field_error(k, (float, int))),
        (weights <= 0, lambda k: f"hyperedge weight must be positive, got {values(k)[0]}"),
        (any_id(ids < 0), lambda k: "negative node id"),
        (any_id(same & (ids < _MAX_ID)),
         lambda k: f"duplicate node ids in hyperedge: {tuple(values(k)[1])}"),
        (~np.isfinite(weights),
         lambda k: f"hyperedge weight must be finite and > 0, got {values(k)[0]}"),
        (any_id(ids >= (np.inf if num_nodes is None else num_nodes)),
         lambda k: f"node id {values(k)[1][-1]} >= declared num_nodes {num_nodes}"),
        (any_id(ids >= _MAX_ID), lambda k: f"node id {values(k)[1][-1]} too large"),
    ]


def parse_inter_edge_file(
    path: str, layer_sizes: Optional[Sequence[int]] = None
) -> list[InterEdgeSet]:
    """Read inter-layer edges: one ``layer_a layer_b i j weight`` line each.

    Pairs are normalized to layer_a < layer_b (swapping i and j) and grouped
    per layer pair; duplicates merge by weight summation in file order, and
    pairs whose total weight is zero are dropped.  Weights must be finite
    and >= 0.  With ``layer_sizes`` (node count per layer) every layer index
    and node id is checked against it.  A malformed line raises ValueError
    naming ``file:line``.
    """
    la, lb, i, j, w = _inter_fields(path, layer_sizes)
    out = []
    for a in np.unique(la).tolist():
        for b in np.unique(lb[la == a]).tolist():
            mask = (la == a) & (lb == b)
            out.append(InterEdgeSet.from_arrays(a, b, i[mask], j[mask], w[mask]))
    return out


def _inter_fields(path: str, layer_sizes: Optional[Sequence[int]]):
    """Normalized (layer_a, layer_b, i, j, weight) arrays in file order."""
    tokens = _Tokens.read(path)
    fits, start, end = tokens.table(5)
    ints, ok = tokens.integers(start[:, :4], end[:, :4])
    w, w_ok = tokens.floats(start[:, 4], end[:, 4])
    la, lb, i, j = ints.T
    swap = la > lb
    la, lb = np.where(swap, lb, la), np.where(swap, la, lb)
    i, j = np.where(swap, j, i), np.where(swap, i, j)

    def values(k):  # line k's (layer_a, layer_b, i, j), normalized, and its weight
        *ids, weight = tokens.line(k).split()
        a, b, x, y = map(int, ids)
        return ((b, a, y, x) if a > b else (a, b, x, y)), float(weight)

    rules = [
        (~fits, lambda k: f"expected 'layer_a layer_b i j weight', got {tokens.line(k)!r}"),
        (~(ok[:, 0] & ok[:, 1] & ok[:, 2] & ok[:, 3] & w_ok),
         lambda k: tokens.field_error(k, (int, int, int, int, float))),
        # a layer index past the bound reads as _MAX_ID and fails as missing or too large
        ((la == lb) & (np.abs(lb) < _MAX_ID), lambda k: f"self-pair layer {values(k)[0][0]}"),
        (w < 0, lambda k: f"negative weight {values(k)[1]}"),
        (~np.isfinite(w), lambda k: f"inter-edge weight must be finite, got {values(k)[1]}"),
        (np.minimum(np.minimum(la, lb), np.minimum(i, j)) < 0, lambda k: "negative index"),
    ]
    if layer_sizes is not None:
        count = len(layer_sizes)
        sizes = np.append(np.asarray(layer_sizes, dtype=np.int64), 0)  # 0 past the last layer
        rules += [
            (lb >= count, lambda k: "inter-edge names missing layer {} (there are {} layers)"
                .format(values(k)[0][1], count)),
            ((i >= sizes[np.clip(la, 0, count)]) | (j >= sizes[np.clip(lb, 0, count)]),
             lambda k: "inter-edge ({2}, {3}) out of range for pair ({0}, {1})"
                .format(*values(k)[0])),
        ]
    rules.append((np.maximum(lb, np.maximum(i, j)) >= _MAX_ID,
                  lambda k: f"index {max(values(k)[0][1:])} too large"))
    tokens.check(path, rules)
    return la, lb, i, j, w


def parse_ground_truth_file(path: str, num_nodes: Optional[int] = None) -> dict[int, int]:
    """Read ``node_id community_id`` lines into a node -> label map.

    Node ids are non-negative, and with ``num_nodes`` they must lie in
    [0, num_nodes); ids and labels are below 2**62 in magnitude.  The map
    keeps file order.  A malformed line raises ValueError naming
    ``file:line``.
    """
    tokens = _Tokens.read(path)
    fits, start, end = tokens.table(2)
    pairs, ok = tokens.integers(start, end)
    node, label = pairs.T
    # nodes equal to one on an earlier line; nodes past the bound all read
    # as _MAX_ID, so they fail as out of range or too large instead
    order = np.argsort(node, kind="stable")
    repeat = np.zeros(node.size, dtype=bool)
    repeat[order[1:]] = node[order[1:]] == node[order[:-1]]

    def values(k):
        return tuple(map(int, tokens.line(k).split()))

    tokens.check(path, [
        (~fits, lambda k: f"expected 'node_id community_id', got {tokens.line(k)!r}"),
        (~(ok[:, 0] & ok[:, 1]), lambda k: tokens.field_error(k, (int,))),
        (node < 0, lambda k: "negative node id"),
        (repeat & (node < _MAX_ID), lambda k: f"duplicate node {values(k)[0]}"),
        (node >= (np.inf if num_nodes is None else num_nodes),
         lambda k: f"ground-truth node {values(k)[0]} out of range for {num_nodes} nodes"),
        (node >= _MAX_ID, lambda k: f"node id {values(k)[0]} too large"),
        (np.abs(label) >= _MAX_ID, lambda k: f"label {values(k)[1]} out of range"),
    ])
    return dict(zip(node.tolist(), label.tolist()))


def write_hyperedge_file(path: str, layer: HypergraphLayer) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for nodes, weight in zip(layer.node_tuples(), layer.weights.tolist()):
            fh.write(_FLOAT_FMT % weight + " " + " ".join(map(str, nodes)) + "\n")


def write_inter_edge_file(path: str, sets: Sequence[InterEdgeSet]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sets:
            for i, j, w in zip(s.rows.tolist(), s.cols.tolist(), s.weights.tolist()):
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
    """Read a matrix that ``write_matrix`` wrote; a row that is not as many
    finite numbers as the first raises ValueError naming ``file:line``."""
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(map(str.strip, fh), start=1):
            if line:
                try:
                    rows.append([float(v) for v in line.split(",")])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if len(rows[-1]) != len(rows[0]) or not np.all(np.isfinite(rows[-1])):
                    raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} finite numbers")
    return np.array(rows, dtype=float)


def parse_manifest(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` manifest; values keep inline spaces."""
    return {key: value for key, (_, value) in _manifest_lines(path).items()}


def _manifest_lines(path: str) -> dict[str, tuple[int, str]]:
    """The manifest's entries as key -> (line number, value)."""
    entries: dict[str, tuple[int, str]] = {}
    with open(path, "rb") as fh:  # lines end at '\n', '\r' and '\r\n', as in text mode
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: empty key or value")
        if key in entries:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = (lineno, value)
    return entries


_LAYER_KEYS = ("edges", "truth", "nodes", "k")


def _layer_index(key: str) -> Optional[int]:
    """i for a documented ``layer.<i>.<field>`` key, else None."""
    parts = key.split(".")
    if len(parts) == 3 and parts[0] == "layer" and parts[2] in _LAYER_KEYS:
        i = parts[1]
        if i.isascii() and i.isdigit() and str(int(i)) == i:
            return int(i)
    return None


def load_manifest(path: str) -> tuple[MultiHypergraph, list[int]]:
    """Build a MultiHypergraph from a manifest file.

    The keys are ``layer.<i>.edges``, ``layer.<i>.truth``,
    ``layer.<i>.nodes``, ``layer.<i>.k`` and ``inter.edges``, and no others;
    ``nodes`` and ``k`` are positive integers, and paths are resolved
    relative to the manifest.  Returns the multi-hypergraph and the
    per-layer community counts K.
    """
    entries = _manifest_lines(path)
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(base, p)

    def positive(key: str) -> Optional[int]:
        if key not in entries:
            return None
        lineno, value = entries[key]
        if not (value.isascii() and value.isdigit() and int(value) > 0):
            raise ValueError(f"{path}:{lineno}: {key} must be a positive integer, got {value!r}")
        return int(value)

    indices = {_layer_index(key) for key in entries} - {None}
    if not indices:
        raise ValueError(f"{path}: no layer entries")
    for key, (lineno, _) in entries.items():
        if key != "inter.edges" and _layer_index(key) is None:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    if indices != set(range(len(indices))):
        raise ValueError(f"{path}: layer indices must be 0..{len(indices) - 1}, got {sorted(indices)}")

    for i in range(len(indices)):
        for key in (f"layer.{i}.edges", f"layer.{i}.k"):
            if key not in entries:
                raise ValueError(f"{path}: missing {key}")
    k_per_layer = [positive(f"layer.{i}.k") for i in range(len(indices))]
    num_nodes = [positive(f"layer.{i}.nodes") for i in range(len(indices))]

    layers = []
    for i, n in enumerate(num_nodes):
        layer = parse_hyperedge_file(resolve(entries[f"layer.{i}.edges"][1]), num_nodes=n)
        if f"layer.{i}.truth" in entries:
            truth_path = resolve(entries[f"layer.{i}.truth"][1])
            layer = layer.with_ground_truth(
                parse_ground_truth_file(truth_path, num_nodes=layer.num_nodes)
            )
        layers.append(layer)

    inter: tuple[InterEdgeSet, ...] = ()
    if "inter.edges" in entries:
        inter = tuple(parse_inter_edge_file(
            resolve(entries["inter.edges"][1]), layer_sizes=[layer.num_nodes for layer in layers]
        ))
    return MultiHypergraph(tuple(layers), inter), k_per_layer
