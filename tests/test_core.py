"""Data model and file-format tests."""

import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hyperblock import core
from hyperblock.core import (
    Hyperedge,
    HypergraphLayer,
    InterEdgeSet,
    MultiHypergraph,
    load_manifest,
    make_hyperedge,
    parse_ground_truth_file,
    parse_hyperedge_file,
    parse_inter_edge_file,
    parse_manifest,
    read_matrix,
    write_ground_truth_file,
    write_hyperedge_file,
    write_inter_edge_file,
    write_matrix,
)
from hyperblock.evaluation import hyperedge_prediction_cv
from hyperblock.inference import InferenceConfig, fit
from hyperblock.synth import planted_partition
import oracles
from oracles import scan_ground_truth_file, scan_hyperedge_file, scan_inter_edge_file


def test_make_hyperedge_sorts_nodes():
    e = make_hyperedge([3, 1, 2], 2.5)
    assert e.nodes == (1, 2, 3)
    assert e.weight == 2.5
    assert e.size == 3


def test_hyperedge_rejects_bad_input():
    with pytest.raises(ValueError):
        make_hyperedge([1, 1, 2])
    with pytest.raises(ValueError):
        make_hyperedge([1])
    with pytest.raises(ValueError):
        make_hyperedge([1, 2], -0.5)
    with pytest.raises(ValueError):
        make_hyperedge([1, 2], float("nan"))
    with pytest.raises(ValueError):
        Hyperedge((2, 1), 1.0)
    with pytest.raises(ValueError):
        make_hyperedge([1, 2], 0.0)
    with pytest.raises(ValueError):
        Hyperedge((0, 1), 0.0)


def test_from_hyperedges_merges_duplicates():
    layer = HypergraphLayer.from_hyperedges(
        4, [make_hyperedge([1, 3], 1.0), make_hyperedge([3, 1], 2.0), make_hyperedge([0, 2], 1.0)]
    )
    assert layer.num_hyperedges == 2
    assert layer.hyperedges[0].nodes == (0, 2)
    assert layer.hyperedges[1] == Hyperedge((1, 3), 3.0)


@st.composite
def edge_rows(draw):
    """(num_nodes, rows of (increasing ids, weight), ground truth) whose rows
    repeat node sets.  Some inputs are malformed: num_nodes below the ids'
    range or not positive, a truth node out of range, or repeated weights
    that sum past the largest float."""
    top = draw(st.integers(2, 8))
    ids = st.lists(st.integers(0, top - 1), min_size=2, max_size=4, unique=True).map(sorted)
    pool = draw(st.lists(ids, min_size=1, max_size=4))
    weight = st.floats(1e-3, 1e3) | st.sampled_from([0.5, 1.0, 3.25, 1e308])
    rows = draw(st.lists(st.tuples(st.sampled_from(pool), weight), max_size=12))
    truth = draw(st.none() | st.dictionaries(st.integers(0, top), st.integers(0, 2), max_size=3))
    num_nodes = draw(st.just(top) | st.integers(-1, top - 1))
    return num_nodes, rows, truth


@given(edge_rows())
def test_from_hyperedges_is_from_arrays_on_the_same_rows(case):
    n, rows, truth = case
    edges = [Hyperedge(tuple(ids), w) for ids, w in rows]
    nodes = np.array([i for ids, _ in rows for i in ids], dtype=np.int64)
    offsets = core._offsets(np.array([len(ids) for ids, _ in rows], dtype=np.int64))
    weights = np.array([w for _, w in rows])
    built = []
    for build in (
        lambda: HypergraphLayer.from_hyperedges(n, edges, truth),
        lambda: HypergraphLayer.from_arrays(n, nodes, offsets, weights, truth),
    ):
        try:
            built.append(build())
        except ValueError as err:
            built.append(f"ValueError: {err}")
    objects, arrays = built
    if isinstance(arrays, str) or isinstance(objects, str):
        assert objects == arrays  # the same error
        return
    for name in ("nodes", "offsets", "weights"):
        a, b = getattr(objects, name), getattr(arrays, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert objects.ground_truth == arrays.ground_truth
    merged = {}
    for ids, w in rows:  # a running sum in input order
        merged[tuple(ids)] = merged[tuple(ids)] + w if tuple(ids) in merged else w
    assert arrays.node_tuples() == sorted(merged)
    assert arrays.weights.tolist() == [merged[k] for k in sorted(merged)]


def test_inter_edge_set_validation():
    s = InterEdgeSet(0, 1, ((0, 0, 1.0), (0, 1, 2.0)))
    assert s.num_edges == 2
    assert s.weights.tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        InterEdgeSet(1, 0, ())
    # triples in any order, and zero weights, convert into from_arrays
    unsorted = InterEdgeSet(0, 1, ((0, 1, 1.0), (0, 0, 1.0)))
    assert unsorted == InterEdgeSet.from_arrays(0, 1, [0, 0], [1, 0], [1.0, 1.0])
    assert unsorted.rows.tolist() == [0, 0] and unsorted.cols.tolist() == [0, 1]
    zero = InterEdgeSet(0, 1, ((0, 0, 0.0),))
    assert zero == InterEdgeSet.from_arrays(0, 1, [0], [0], [0.0])
    assert zero.num_edges == 0
    # numpy integer layer indices are stored as int
    s = InterEdgeSet.from_arrays(np.int64(0), np.int32(2), [0], [1], [1.0])
    assert (type(s.layer_a), type(s.layer_b)) == (int, int)


def triple_columns(triples):
    """The rows, cols and weights of (i, j, weight) triples, as arrays."""
    rows, cols, weights = zip(*triples) if triples else ((), (), ())
    return np.array(rows, np.int64), np.array(cols, np.int64), np.array(weights, float)


@st.composite
def inter_triples(draw):
    """(i, j, weight) triples in any order, with repeated pairs and zero weights."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=6))
    weight = st.one_of(st.sampled_from([0.0, 1.0, 1e16]), st.floats(0.0, 10.0))
    count = draw(st.integers(0, 20))
    return [(*draw(st.sampled_from(pairs)), draw(weight)) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(inter_triples())
def test_triples_are_from_arrays_on_their_columns(triples):
    s = InterEdgeSet(0, 2, triples)
    expected = InterEdgeSet.from_arrays(0, 2, *triple_columns(triples))
    assert s == expected
    for name in ("rows", "cols", "weights"):
        a, b = getattr(s, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    merged = {}
    for i, j, w in triples:  # a running sum in input order
        merged[i, j] = merged[i, j] + w if (i, j) in merged else w
    kept = sorted(pair for pair, w in merged.items() if w > 0)
    assert list(zip(s.rows.tolist(), s.cols.tolist())) == kept
    assert s.weights.tolist() == [merged[pair] for pair in kept]


BAD_INTER_INPUT = [
    ((0, 1), (-1, 0, 1.0)), ((0, 1), (0, -1, 1.0)), ((0, 1), (0, 0, np.nan)),
    ((0, 1), (0, 0, np.inf)), ((0, 1), (0, 0, -1.0)),
    ((1, 0), (0, 0, 1.0)), ((0, 0), (0, 0, 1.0)), ((-1, 0), (0, 0, 1.0)),
]


@settings(max_examples=100, deadline=None)
@given(inter_triples(), st.sampled_from(BAD_INTER_INPUT), st.data())
def test_bad_triples_fail_as_from_arrays_does(triples, bad, data):
    (a, b), triple = bad
    at = data.draw(st.integers(0, len(triples)))
    triples = triples[:at] + [triple] + triples[at:]
    with pytest.raises(ValueError) as from_arrays:
        InterEdgeSet.from_arrays(a, b, *triple_columns(triples))
    with pytest.raises(ValueError) as from_triples:
        InterEdgeSet(a, b, triples)
    assert str(from_triples.value) == str(from_arrays.value)


def test_a_negative_layer_index_is_rejected_in_both_forms():
    # a set for the pair (-1, 0) would reach a fit as a w_cross keyed
    # (-1, 0), which couples the last layer to layer 0
    message = re.escape("need 0 <= layer_a < layer_b, got (-1, 0)")
    with pytest.raises(ValueError, match=message):
        InterEdgeSet.from_arrays(-1, 0, [4], [2], [1.0])
    with pytest.raises(ValueError, match=message):
        InterEdgeSet(-1, 0, [(4, 2, 1.0)])


@pytest.mark.parametrize("a, b", [(0.5, 1), (0, True), (np.float64(0), 1), ("0", 1),
                                  (0, np.bool_(True))],
                         ids=["float", "bool", "numpy-float", "str", "numpy-bool"])
def test_a_non_integer_layer_index_is_rejected_in_both_forms(a, b):
    # (0.5, 1) was stored and failed later in MultiHypergraph with a
    # TypeError; (0, True) was stored with layer_b=True
    message = re.escape(f"layer indices must be integers, got ({a!r}, {b!r})")
    with pytest.raises(ValueError, match=message):
        InterEdgeSet.from_arrays(a, b, [0], [1], [1.0])
    with pytest.raises(ValueError, match=message):
        InterEdgeSet(a, b, [(0, 1, 1.0)])


def test_inter_edge_from_arrays_merges_and_drops_zeros():
    s = InterEdgeSet.from_arrays(0, 2, [1, 1, 0], [1, 1, 0], [0.5, 0.5, 0.0])
    assert tuple(zip(s.rows, s.cols, s.weights)) == ((1, 1, 1.0),)


def test_multi_hypergraph_checks_pairs():
    layer = oracles.layer(2, [[0, 1]])
    s = InterEdgeSet(0, 1, ((0, 1, 1.0),))
    mh = MultiHypergraph((layer, layer), (s,))
    assert mh.num_layers == 2
    assert mh.inter_for_pair(0, 1) is s
    assert mh.inter_for_pair(0, 2) is None
    with pytest.raises(ValueError):
        MultiHypergraph((layer, layer), (s, s))
    with pytest.raises(ValueError):
        MultiHypergraph((layer,), (s,))
    with pytest.raises(ValueError):
        MultiHypergraph((layer, layer), (InterEdgeSet(0, 1, ((0, 5, 1.0),)),))


def test_parse_hyperedge_file(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# comment\n1.0 0 1\n\n2 1 2 3\n")
    layer = parse_hyperedge_file(str(p))
    assert layer.num_nodes == 4
    assert layer.hyperedges == (Hyperedge((0, 1), 1.0), Hyperedge((1, 2, 3), 2.0))

    layer5 = parse_hyperedge_file(str(p), num_nodes=5)
    assert layer5.num_nodes == 5


def test_parse_hyperedge_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0 0\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        parse_hyperedge_file(str(p))
    p.write_text("1.0 0 7\n")
    with pytest.raises(ValueError, match="node id 7 >= declared num_nodes 3"):
        parse_hyperedge_file(str(p), num_nodes=3)
    for n in (0, -3):  # a node count, not a line, is at fault
        with pytest.raises(ValueError, match=f"^num_nodes must be positive, got {n}$"):
            parse_hyperedge_file(str(p), num_nodes=n)
    p.write_text("x 0 1\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        parse_hyperedge_file(str(p))


def test_parse_hyperedge_file_rejects_non_positive_weights(tmp_path):
    p = tmp_path / "zero.txt"
    for line in ("0 1 2", "0.0 0 1", "-1 0 1"):
        p.write_text(f"1.0 0 1\n{line}\n")
        with pytest.raises(ValueError, match="zero.txt:2: hyperedge weight must be positive"):
            parse_hyperedge_file(str(p))


def test_parse_inter_edge_file_normalizes_layer_order(tmp_path):
    p = tmp_path / "inter.txt"
    p.write_text("1 0 4 5 2.0\n0 1 5 4 1.0\n")
    sets = parse_inter_edge_file(str(p))
    assert len(sets) == 1
    assert sets[0].layer_a == 0 and sets[0].layer_b == 1
    # the first line swaps to (i=5, j=4); the second stays as written
    s = sets[0]
    assert tuple(zip(s.rows, s.cols, s.weights)) == ((5, 4, 3.0),)

    p.write_text("0 0 1 2 1.0\n")
    with pytest.raises(ValueError, match="self-pair"):
        parse_inter_edge_file(str(p))


def test_parse_ground_truth(tmp_path):
    p = tmp_path / "truth.txt"
    p.write_text("0 1\n1 1\n2 0\n")
    assert parse_ground_truth_file(str(p)) == {0: 1, 1: 1, 2: 0}
    p.write_text("0 -1\n1 2\n")
    assert parse_ground_truth_file(str(p)) == {0: -1, 1: 2}
    p.write_text("0 1\n0 2\n")
    with pytest.raises(ValueError, match="duplicate node"):
        parse_ground_truth_file(str(p))
    p.write_text("0 1\n# comment\n-1 0\n")
    with pytest.raises(ValueError, match="truth.txt:3: negative node id"):
        parse_ground_truth_file(str(p))


def test_hyperedge_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    edges = []
    seen = set()
    for _ in range(20):
        size = int(rng.integers(2, 5))
        nodes = tuple(sorted(rng.choice(12, size=size, replace=False).tolist()))
        if nodes in seen:
            continue
        seen.add(nodes)
        edges.append(Hyperedge(nodes, float(rng.random()) + 0.1))
    layer = HypergraphLayer.from_hyperedges(12, edges)
    p = tmp_path / "rt.txt"
    write_hyperedge_file(str(p), layer)
    back = parse_hyperedge_file(str(p), num_nodes=12)
    assert back == layer


def test_inter_edge_round_trip(tmp_path):
    s = InterEdgeSet(0, 1, ((0, 3, 0.25), (2, 1, 1.75)))
    p = tmp_path / "inter.txt"
    write_inter_edge_file(str(p), [s])
    assert parse_inter_edge_file(str(p)) == [s]


def test_ground_truth_round_trip(tmp_path):
    truth = {5: 2, 0: 1, 3: 0}
    p = tmp_path / "t.txt"
    write_ground_truth_file(str(p), truth)
    assert parse_ground_truth_file(str(p)) == truth


def test_matrix_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(11)
    m = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 8, (7, 3))
    p = tmp_path / "m.csv"
    write_matrix(str(p), m)
    assert np.array_equal(read_matrix(str(p)), m)
    with pytest.raises(ValueError):
        write_matrix(str(p), np.array([[np.inf]]))


@pytest.mark.parametrize("text, at, message", [
    ("1,2\n3\n", 2, "expected 2 finite numbers"),
    ("1,2\n3,4,5\n", 2, "expected 2 finite numbers"),
    ("1,2\n3,x\n", 2, "could not convert string to float: 'x'"),
    ("1,2\n\n3,nan\n", 3, "expected 2 finite numbers"),
    ("inf,2\n", 1, "expected 2 finite numbers"),
])
def test_read_matrix_names_the_line_of_a_bad_row(tmp_path, text, at, message):
    p = tmp_path / "u.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"u.csv:{at}: {message}")):
        read_matrix(str(p))


def test_manifest_loading(tmp_path):
    (tmp_path / "e0.txt").write_text("1 0 1\n1 1 2\n")
    (tmp_path / "e1.txt").write_text("1 0 1\n")
    (tmp_path / "t0.txt").write_text("0 0\n1 0\n2 1\n")
    (tmp_path / "inter.txt").write_text("0 1 2 0 1.5\n")
    man = tmp_path / "m.cfg"
    man.write_text(
        "layer.0.edges = e0.txt\n"
        "layer.0.truth = t0.txt\n"
        "layer.0.k = 2\n"
        "layer.1.edges = e1.txt\n"
        "layer.1.nodes = 4\n"
        "layer.1.k = 3\n"
        "inter.edges = inter.txt\n"
    )
    mh, ks = load_manifest(str(man))
    assert ks == [2, 3]
    assert mh.num_layers == 2
    assert mh.layers[0].ground_truth == {0: 0, 1: 0, 2: 1}
    assert mh.layers[1].num_nodes == 4
    s = mh.inter_edges[0]
    assert tuple(zip(s.rows, s.cols, s.weights)) == ((2, 0, 1.5),)


def test_manifest_errors(tmp_path):
    man = tmp_path / "m.cfg"
    man.write_text("layer.0.edges = missing.txt\nlayer.0.k = 2\n")
    with pytest.raises(FileNotFoundError):
        load_manifest(str(man))
    man.write_text("layer.1.edges = e.txt\nlayer.1.k = 2\n")
    with pytest.raises(ValueError, match="indices"):
        load_manifest(str(man))
    man.write_text("nothing = here\n")
    with pytest.raises(ValueError, match="no layer entries"):
        load_manifest(str(man))
    man.write_text("a = 1\na = 2\n")
    with pytest.raises(ValueError, match="duplicate key"):
        parse_manifest(str(man))

    (tmp_path / "e0.txt").write_text("1 0 1\n")
    good = ["layer.0.edges = e0.txt", "layer.0.nodes = 3", "layer.0.k = 2"]
    man.write_text("\n".join(good) + "\n")
    assert load_manifest(str(man))[1] == [2]
    for at, line, message in [
        (2, "layer.0.nodes = ten", "layer.0.nodes must be a positive integer, got 'ten'"),
        (2, "layer.0.nodes = 0", "layer.0.nodes must be a positive integer, got '0'"),
        (2, "layer.0.nodes = -3", "layer.0.nodes must be a positive integer, got '-3'"),
        (3, "layer.0.k = x", "layer.0.k must be a positive integer, got 'x'"),
        (3, "layer.0.k = 0", "layer.0.k must be a positive integer, got '0'"),
        (3, "layer.0.k = 2.5", "layer.0.k must be a positive integer, got '2.5'"),
        (4, "inter.edgez = inter.txt", "unknown key 'inter.edgez'"),
        (4, "layer.0.truht = t0.txt", "unknown key 'layer.0.truht'"),
        (4, "layer.00.k = 2", "unknown key 'layer.00.k'"),
        (4, "layer.x.edges = e0.txt", "unknown key 'layer.x.edges'"),
    ]:
        lines = good[:at - 1] + [line] + good[at:]
        man.write_text("\n".join(["# a comment"] + lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"m.cfg:{at + 1}: {message}")):
            load_manifest(str(man))


def test_manifest_names_a_line_that_is_not_utf8(tmp_path):
    (tmp_path / "e0.txt").write_text("1 0 1\n")
    man = tmp_path / "m.cfg"
    man.write_bytes(b"layer.0.edges = e0.txt\n# caf\xff\nlayer.0.k = 2\n")
    with pytest.raises(ValueError, match=r"m\.cfg:2: not UTF-8 text"):
        load_manifest(str(man))


def test_manifest_requires_k(tmp_path):
    (tmp_path / "e0.txt").write_text("1 0 1\n")
    man = tmp_path / "m.cfg"
    man.write_text("layer.0.edges = e0.txt\n")
    with pytest.raises(ValueError, match="layer.0.k"):
        load_manifest(str(man))


# -- file:line errors ---------------------------------------------------------


def test_parse_hyperedge_file_names_the_line_of_an_undeclared_node(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0 0 1\n# comment\n1.0 2 7 0\n1.0 0 9\n")
    with pytest.raises(ValueError, match="bad.txt:3: node id 7 >= declared num_nodes 3"):
        parse_hyperedge_file(str(p), num_nodes=3)


def test_parse_inter_edge_file_rejects_nan_weight(tmp_path):
    p = tmp_path / "inter.txt"
    p.write_text("0 1 0 0 1\n0 1 0 1 nan\n")
    with pytest.raises(ValueError, match="inter.txt:2: inter-edge weight must be finite, got nan"):
        parse_inter_edge_file(str(p))


def test_parse_inter_edge_file_rejects_infinite_weight(tmp_path):
    p = tmp_path / "inter.txt"
    p.write_text("0 1 0 0 1\n\n1 0 2 3 inf\n")
    with pytest.raises(ValueError, match="inter.txt:3: inter-edge weight must be finite, got inf"):
        parse_inter_edge_file(str(p))


def write_manifest(tmp_path, truth="0 0\n1 1\n", inter="0 1 0 1 1\n"):
    (tmp_path / "e0.txt").write_text("1 0 1\n1 1 2\n")
    (tmp_path / "e1.txt").write_text("1 0 1\n")
    (tmp_path / "t0.txt").write_text(truth)
    (tmp_path / "inter.txt").write_text(inter)
    man = tmp_path / "m.cfg"
    man.write_text(
        "layer.0.edges = e0.txt\nlayer.0.truth = t0.txt\nlayer.0.k = 2\n"
        "layer.1.edges = e1.txt\nlayer.1.k = 2\ninter.edges = inter.txt\n"
    )
    return str(man)


def test_load_manifest_names_the_line_of_an_out_of_range_truth_node(tmp_path):
    man = write_manifest(tmp_path, truth="0 0\n1 1\n5 0\n")
    with pytest.raises(ValueError, match="t0.txt:3: ground-truth node 5 out of range for 3 nodes"):
        load_manifest(man)


def test_load_manifest_names_the_line_of_an_out_of_range_inter_edge(tmp_path):
    man = write_manifest(tmp_path, inter="0 1 0 1 1\n# swapped to pair (0, 1)\n1 0 1 7 1\n")
    with pytest.raises(
        ValueError, match=r"inter.txt:3: inter-edge \(7, 1\) out of range for pair \(0, 1\)"
    ):
        load_manifest(man)


def test_load_manifest_names_the_line_of_a_missing_layer(tmp_path):
    man = write_manifest(tmp_path, inter="0 1 0 1 1\n0 2 0 0 1\n")
    with pytest.raises(ValueError, match="inter.txt:2: inter-edge names missing layer 2"):
        load_manifest(man)


# -- array-backed layers and inter-edge sets ----------------------------------


def test_layer_holds_read_only_arrays_and_a_hyperedge_view():
    layer = HypergraphLayer.from_arrays(
        5, np.array([3, 4, 0, 1, 2, 0, 1, 2]), np.array([0, 2, 5, 8]), np.array([1.0, 2.0, 0.5])
    )
    assert layer.nodes.tolist() == [0, 1, 2, 3, 4]
    assert layer.offsets.tolist() == [0, 3, 5]
    assert layer.weights.tolist() == [2.5, 1.0]
    for arr in (layer.nodes, layer.offsets, layer.weights):
        assert not arr.flags.writeable
    assert layer.hyperedges == (Hyperedge((0, 1, 2), 2.5), Hyperedge((3, 4), 1.0))
    assert layer == HypergraphLayer.from_hyperedges(5, layer.hyperedges)
    assert layer.sizes() == [3, 2] and layer.node_sets() == {(0, 1, 2), (3, 4)}
    with pytest.raises(AttributeError):
        layer.num_nodes = 6
    assert layer.subset(np.array([False, True])) == oracles.layer(5, [(3, 4)])
    labelled = layer.with_ground_truth({0: 1})
    assert labelled.ground_truth == {0: 1} and labelled.nodes is layer.nodes
    assert labelled != layer


@pytest.mark.parametrize("nodes, offsets, weights", [
    ([0, 1], [0, 1, 2], [1.0, 1.0]),          # a one-node hyperedge
    ([1, 0], [0, 2], [1.0]),                  # ids not increasing
    ([0, 0], [0, 2], [1.0]),                  # a repeated id
    ([0, 5], [0, 2], [1.0]),                  # id out of range
    ([0, 1], [0, 2], [0.0]),                  # zero weight
    ([0, 1], [0, 2], [np.nan]),               # non-finite weight
    ([0, 1], [0, 2], [1.0, 1.0]),             # weights per edge
])
def test_layer_from_arrays_rejects_bad_input(nodes, offsets, weights):
    with pytest.raises(ValueError):
        HypergraphLayer.from_arrays(3, np.array(nodes), np.array(offsets), np.array(weights))


def test_layer_sorts_edges_of_any_sizes_as_tuples():
    # prefixes of one another, one edge far longer than the rest, repeats;
    # ids just below _MAX_ID overflow the packed sort keys (the lexsort fallback)
    for base in (0, core._MAX_ID - 40):
        rng = np.random.default_rng(7)
        rows = [(0, 1), tuple(range(40)), (0, 1, 2), (0, 2), (1, 2), (0, 1)]
        rows += [tuple(sorted(rng.choice(40, int(rng.integers(2, 5)), replace=False).tolist()))
                 for _ in range(200)]
        rows = [tuple(base + v for v in rows[k])
                for k in rng.permutation(2 * len(rows)) % len(rows)]
        weights = rng.random(len(rows)) + 0.1
        merged = {}
        for row, w in zip(rows, weights.tolist()):
            merged[row] = merged[row] + w if row in merged else w
        layer = HypergraphLayer.from_arrays(
            base + 40, np.concatenate(rows), core._offsets(np.array([len(r) for r in rows])),
            weights,
        )
        assert layer.node_tuples() == sorted(merged)
        assert layer.weights.tolist() == [merged[row] for row in sorted(merged)]
        edges = [Hyperedge(row, w) for row, w in zip(rows, weights.tolist())]
        assert HypergraphLayer.from_hyperedges(base + 40, edges) == layer


def test_inter_edge_set_holds_read_only_arrays():
    s = InterEdgeSet.from_arrays(0, 1, [2, 0, 2], [1, 3, 1], [0.5, 1.0, 0.25])
    assert (s.rows.tolist(), s.cols.tolist(), s.weights.tolist()) == ([0, 2], [3, 1], [1.0, 0.75])
    assert not s.rows.flags.writeable
    assert s == InterEdgeSet(0, 1, ((0, 3, 1.0), (2, 1, 0.75)))
    part = s.subset(np.array([False, True]))
    assert tuple(zip(part.rows, part.cols, part.weights)) == ((2, 1, 0.75),)
    with pytest.raises(ValueError):
        InterEdgeSet.from_arrays(0, 1, [0], [0], [np.nan])


# -- canonical sort ------------------------------------------------------------


@st.composite
def sort_keys(draw):
    """(major, minor, minor_max) with repeated keys, at magnitudes on both
    sides of the packed key's int64 overflow."""
    minor_max = draw(st.one_of(
        st.integers(0, 20), st.sampled_from([10**18 - 1, (1 << 62) - 1]),
        st.integers(0, (1 << 62) - 1),
    ))
    minors = draw(st.lists(st.integers(0, minor_max), min_size=1, max_size=4))
    n = draw(st.integers(0, 30))
    major = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    minor = draw(st.lists(st.sampled_from(minors), min_size=n, max_size=n))
    return np.array(major, dtype=np.int64), np.array(minor, dtype=np.int64), minor_max


@settings(max_examples=300, deadline=None)
@given(sort_keys())
@example((np.zeros(0, np.int64), np.zeros(0, np.int64), 0))
@example((np.array([3, 0, 3, 0]), np.array([(1 << 62) - 1, 5, 5, (1 << 62) - 1]), (1 << 62) - 1))
def test_order_by_matches_lexsort(keys):
    major, minor, minor_max = keys
    order = core._order_by(major, minor, minor_max)
    expected = np.lexsort((minor, major))
    assert order.dtype == expected.dtype and order.tolist() == expected.tolist()


def test_order_by_falls_back_to_lexsort_only_on_overflow(monkeypatch):
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(len(keys)) or lexsort(keys))
    major, minor = np.array([1, 0, 1]), np.array([5, 7, 4])
    assert core._order_by(major, minor, 10**18 - 1).tolist() == [1, 2, 0]  # 2e18 fits
    assert calls == []
    assert core._order_by(major, minor, (1 << 62) - 1).tolist() == [1, 2, 0]  # 2^63 does not
    assert calls == [2]


# -- parser properties --------------------------------------------------------

NOISE_LINES = ["", "   ", "# a comment", "  # 1 2 3", "\t"]
FILE_SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def weight_text():
    """A positive weight as a file may hold it: an integer or a float."""
    return st.one_of(
        st.integers(1, 10**6).map(str),
        st.floats(1e-6, 1e6).map(repr),
        st.sampled_from(["1.0", "2.5e0", "007"]),
    )


def with_noise(draw, lines):
    """The data lines with comment and blank lines between them, joined by
    one newline convention (text mode reads a bare "\r" as a line end)."""
    out = []
    for line in lines:
        out += draw(st.lists(st.sampled_from(NOISE_LINES), max_size=2)) + [line]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(out) + draw(st.sampled_from(["", newline]))


def with_line(text, at, line):
    """The text with ``line`` inserted as line ``at`` (0-based), in the
    text's newline convention."""
    lines = text.splitlines()
    lines.insert(at, line)
    newline = "\r\n" if "\r\n" in text else "\r" if "\r" in text else "\n"
    return newline.join(lines)


def node_ids():
    """Node ids of 1 to 19 decimal digits: the digit columns read up to 18,
    and 19-digit ids (below 2**62) take the longer decode."""
    return st.integers(1, 19).flatmap(
        lambda d: st.integers(10 ** (d - 1) if d > 1 else 0, min(10**d, core._MAX_ID) - 1)
    )


def merged_layer(n, rows):
    """The layer of (ids, weight text) rows, by a dict merge in file order."""
    merged = {}
    for ids, weight in rows:
        key = tuple(sorted(ids))
        merged[key] = merged[key] + float(weight) if key in merged else float(weight)
    return oracles.layer(n, sorted(merged), [merged[k] for k in sorted(merged)])


@st.composite
def hyperedge_files(draw):
    """(num_nodes, file text, the layer it holds by a dict merge in file order).

    The ids are a few of 1 to 19 digits, so lines share node sets and
    every digit count the decoder reads appears."""
    pool = draw(st.one_of(
        st.integers(2, 9).map(range), st.lists(node_ids(), min_size=2, max_size=9, unique=True)
    ))
    n = max(pool) + 1
    rows = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(pool), min_size=2, max_size=5, unique=True),
                  weight_text()),
        min_size=1, max_size=25,
    ))
    text = with_noise(draw, [" ".join([w, *map(str, ids)]) for ids, w in rows])
    return n, text, merged_layer(n, rows)


def huge_id_hyperedge_file():
    """A hyperedge_files case with 18-digit ids, the longest the array path
    reads.  With 30 lines, the packed keys of every canonical sort overflow
    int64, so the file sorts through the lexsort fallback."""
    rng = np.random.default_rng(5)
    n = 10**18
    rows = [((n - 1 - rng.choice(12, int(rng.integers(2, 5)), replace=False)).tolist(), "1.5")
            for _ in range(30)]
    rows += rows[:3]
    return n, "".join(" ".join([w, *map(str, ids)]) + "\n" for ids, w in rows), merged_layer(n, rows)


@FILE_SETTINGS
@given(hyperedge_files())
@example(huge_id_hyperedge_file())
def test_hyperedge_file_parses_to_the_merged_layer(tmp_path, case):
    n, text, expected = case
    p = tmp_path / "edges.txt"
    p.write_bytes(text.encode())
    assert parse_hyperedge_file(str(p), num_nodes=n) == expected
    assert scan_hyperedge_file(str(p), n) == expected
    write_hyperedge_file(str(p), expected)
    assert parse_hyperedge_file(str(p), num_nodes=n) == expected


@st.composite
def inter_edge_files(draw):
    """(layer sizes, file text, the sets it holds by a dict merge in file order)."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=3))
    grouped = {}
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        la, lb = draw(st.permutations(range(len(sizes))))[:2]
        i = draw(st.integers(0, sizes[la] - 1))
        j = draw(st.integers(0, sizes[lb] - 1))
        w = draw(st.one_of(weight_text(), st.just("0")))
        lines.append(f"{la} {lb} {i} {j} {w}")
        if la > lb:
            la, lb, i, j = lb, la, j, i
        pair = grouped.setdefault((la, lb), {})
        pair[(i, j)] = pair.get((i, j), 0.0) + float(w)
    sets = [
        InterEdgeSet(la, lb, tuple((i, j, w) for (i, j), w in sorted(pairs.items()) if w > 0))
        for (la, lb), pairs in sorted(grouped.items())
    ]
    return sizes, with_noise(draw, lines), sets


def huge_id_inter_edge_file():
    """An inter_edge_files case with ids from 2^61, where the packed pair
    keys overflow int64 and the pair sort takes the lexsort fallback."""
    base = 1 << 61
    lines = [f"0 1 {base + i} {base + j} 1" for i, j in [(3, 1), (0, 2), (3, 1), (1, 0), (0, 0)]]
    lines.append(f"1 0 {base + 1} {base + 3} 0.5")  # swapped: the pair (3, 1) again
    pairs = [(0, 0, 1.0), (0, 2, 1.0), (1, 0, 1.0), (3, 1, 2.5)]
    sizes = [base + 4, base + 4]
    return sizes, "\n".join(lines), [InterEdgeSet(0, 1, [(base + i, base + j, w) for i, j, w in pairs])]


@FILE_SETTINGS
@given(inter_edge_files())
@example(huge_id_inter_edge_file())
def test_inter_edge_file_parses_to_the_merged_sets(tmp_path, case):
    sizes, text, expected = case
    p = tmp_path / "inter.txt"
    p.write_bytes(text.encode())
    assert parse_inter_edge_file(str(p), layer_sizes=sizes) == expected
    write_inter_edge_file(str(p), expected)
    assert parse_inter_edge_file(str(p)) == [s for s in expected if s.num_edges]


def scan_error(scan, *args):
    with pytest.raises(ValueError) as info:
        scan(*args)
    return str(info.value)


BAD_HYPEREDGE_LINES = [
    "1.0 0", "x 0 1", "1.0 0 y", "1 0 1.5", "0 0 1", "-1 0 1", "nan 0 1", "inf 0 1",
    "1e999 0 1", "1 -1 0", "1 0 0", "1 2 {n}", "1 0 99999999999999999999",
]


@FILE_SETTINGS
@given(hyperedge_files(), st.sampled_from(BAD_HYPEREDGE_LINES), st.data())
def test_hyperedge_file_errors_match_the_line_scan(tmp_path, case, bad, data):
    n, text, _ = case
    at = data.draw(st.integers(0, len(text.splitlines())))
    p = tmp_path / "edges.txt"
    p.write_bytes(with_line(text, at, bad.format(n=n)).encode())
    message = scan_error(scan_hyperedge_file, str(p), n)
    assert f"edges.txt:{at + 1}: " in message
    with pytest.raises(ValueError) as info:
        parse_hyperedge_file(str(p), num_nodes=n)
    assert str(info.value) == message


BAD_INTER_LINES = [
    "0 1 0", "0 1 0 0 1 1", "a 1 0 0 1", "0 1 0 0 w", "0 0 1 0 1", "0 1 0 0 -1",
    "0 1 0 0 nan", "1 0 0 0 inf", "0 1 -1 0 1", "0 9 0 0 1", "1 0 0 {n0} 1",
    "0 1 {n0} 0 1",
]


@FILE_SETTINGS
@given(inter_edge_files(), st.sampled_from(BAD_INTER_LINES), st.data())
def test_inter_edge_file_errors_match_the_line_scan(tmp_path, case, bad, data):
    sizes, text, _ = case
    at = data.draw(st.integers(0, len(text.splitlines())))
    p = tmp_path / "inter.txt"
    p.write_bytes(with_line(text, at, bad.format(n0=sizes[0])).encode())
    message = scan_error(scan_inter_edge_file, str(p), sizes)
    assert f"inter.txt:{at + 1}: " in message
    with pytest.raises(ValueError) as info:
        parse_inter_edge_file(str(p), layer_sizes=sizes)
    assert str(info.value) == message


def padded(value):
    """An integer's decimal text with up to two leading zeros, as a strategy."""
    sign = "-" if value < 0 else ""
    return st.sampled_from(["", "0", "00"]).map(lambda zeros: sign + zeros + str(abs(value)))


@st.composite
def truth_files(draw):
    """(num_nodes or None, file text, the map it holds in file order).

    Node ids are a permutation of 0..k-1 or distinct ids of 1 to 19
    digits, with leading zeros; labels have either sign and any width."""
    nodes = draw(st.one_of(
        st.integers(0, 30).flatmap(lambda k: st.permutations(range(k))),
        st.lists(node_ids(), max_size=25, unique=True),
    ))
    labels = draw(st.sampled_from([
        st.integers(0, 10**18 - 1), st.one_of(st.integers(-9, 99), st.integers(-10**20, 10**20))
    ]))
    truth = {node: draw(labels) for node in nodes}
    lines = [
        draw(padded(node)) + draw(st.sampled_from([" ", "\t", "  "])) + draw(padded(label))
        for node, label in truth.items()
    ]
    top = max(truth, default=-1) + 1
    num_nodes = draw(st.one_of(st.none(), st.integers(top, top + 3)))
    return num_nodes, with_noise(draw, lines), truth


def past_the_bound(field):
    """True for an integer field the oracle scan reads and the token pass
    rejects: over 19 digits after its sign, or 2**62 or more in magnitude."""
    digits = field.lstrip("+-")
    return digits.isascii() and digits.isdigit() and (
        len(digits) > 19 or int(digits) >= core._MAX_ID
    )


def first_line_past_the_bound(text):
    """The file line number of the first data line holding such a field."""
    for number, line in enumerate(text.splitlines(), start=1):
        if "#" not in line and any(past_the_bound(f) for f in line.split()):
            return number
    return None


@FILE_SETTINGS
@given(truth_files())
def test_truth_file_parses_to_the_scanned_map(tmp_path, case):
    n, text, expected = case
    p = tmp_path / "truth.txt"
    p.write_bytes(text.encode())
    assert list(scan_ground_truth_file(str(p), n).items()) == list(expected.items())
    # the token pass reads every field of at most 19 digits below 2**62,
    # and raises at the first line holding any other
    bad = first_line_past_the_bound(text)
    if bad is None:
        truth = parse_ground_truth_file(str(p), num_nodes=n)
        assert list(truth.items()) == list(expected.items())
    else:
        with pytest.raises(ValueError, match=f"truth.txt:{bad}: "):
            parse_ground_truth_file(str(p), num_nodes=n)


# {n} is the node count and {top} the first id above every node of the file
BAD_TRUTH_LINES = [
    "0", "0 1 2", "x 1", "0 y", "1.5 0", "0 1.5", "-1 0", "{n} 0", "{top} 0\n{top} 1",
]


@FILE_SETTINGS
@given(truth_files(), st.sampled_from(BAD_TRUTH_LINES), st.data())
def test_truth_file_errors_match_the_line_scan(tmp_path, case, bad, data):
    _, text, truth = case
    top = max(truth, default=-1) + 1
    at = data.draw(st.integers(0, len(text.splitlines())))
    p = tmp_path / "truth.txt"
    text = with_line(text, at, bad.format(n=top + 1, top=top))
    p.write_bytes(text.encode())
    message = scan_error(scan_ground_truth_file, str(p), top + 1)
    line = at + 1 + bad.count(chr(10))
    assert f"truth.txt:{line}: " in message
    with pytest.raises(ValueError) as info:
        parse_ground_truth_file(str(p), num_nodes=top + 1)
    # a field past the bound on an earlier line fails first
    early = first_line_past_the_bound(text)
    if early is not None and early < line:
        assert f"truth.txt:{early}: " in str(info.value)
    else:
        assert str(info.value) == message


# lines the oracle scans read and the token pass rejects: '_' separators,
# Unicode digits and whitespace, an integer over 19 digits with a leading
# zero, a label past 2**62
SCAN_ONLY_LINES = [
    ("edges", "1 0 1_0"), ("edges", "1 0 \u0661"), ("edges", "1 0\xa01 2"),
    ("edges", "1 0 " + "0" * 19 + "1"), ("truth", "0 100000000000000000000"),
]


@pytest.mark.parametrize("kind, line", SCAN_ONLY_LINES)
def test_lines_only_the_scan_reads_raise_at_their_line(tmp_path, kind, line):
    scan, parse, good = {
        "edges": (scan_hyperedge_file, parse_hyperedge_file, "1 0 2"),
        "truth": (scan_ground_truth_file, parse_ground_truth_file, "1 0"),
    }[kind]
    p = tmp_path / f"{kind}.txt"
    p.write_text(f"# a comment\n{good}\n{line}\n", encoding="utf-8")
    scan(str(p), None)
    with pytest.raises(ValueError, match=f"{kind}.txt:3: "):
        parse(str(p))


def test_comment_lines_may_hold_any_bytes(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_bytes(b"# caf\xff \xe9\n1 0 1\n  #\xff\n")
    assert parse_hyperedge_file(str(p)) == oracles.layer(2, [(0, 1)])


def test_parsers_peak_memory_per_input_byte(tmp_path):
    """tracemalloc's peak while a parser reads a 20k-line file, or raises
    for its last line, stays within 24 bytes per byte of the file."""
    rng = np.random.default_rng(0)
    n, m = 10_000, 20_000
    sizes = rng.integers(2, 6, m)
    ids = rng.integers(0, n // 2, (m, 1)) + np.cumsum(rng.integers(1, 100, (m, 5)), axis=1)
    ids = rng.permuted(ids, axis=1)
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(
        "1 " + " ".join(map(str, row[:k])) + "\n" for row, k in zip(ids.tolist(), sizes.tolist())
    ))
    inter = tmp_path / "inter.txt"
    pairs = rng.integers(0, n, (m, 2)).tolist()
    inter.write_text("".join(f"0 1 {i} {j} 1\n" for i, j in pairs))
    bad = tmp_path / "bad.txt"  # found only once the ids are sorted
    bad.write_bytes(edges.read_bytes() + b"1 0 0\n")

    def parse_bad():
        with pytest.raises(ValueError, match=f"bad.txt:{m + 1}: duplicate node ids"):
            parse_hyperedge_file(str(bad), num_nodes=n)

    for path, parse in [
        (edges, lambda: parse_hyperedge_file(str(edges), num_nodes=n)),
        (inter, lambda: parse_inter_edge_file(str(inter), layer_sizes=[n, n])),
        (bad, parse_bad),
    ]:
        gc.collect()
        tracemalloc.start()
        try:
            parse()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * path.stat().st_size, (path.name, peak / path.stat().st_size)


def test_ground_truth_nodes_are_checked_once(monkeypatch):
    edges = (Hyperedge((0, 1)), Hyperedge((1, 2)))
    layer = HypergraphLayer.from_hyperedges(3, edges)
    bad = {0: 1, 4: 0, -1: 2}
    for build in (
        lambda: HypergraphLayer.from_hyperedges(3, edges, bad),
        lambda: HypergraphLayer.from_arrays(3, layer.nodes, layer.offsets, layer.weights, bad),
        lambda: layer.with_ground_truth(bad),
    ):
        with pytest.raises(ValueError, match="^ground-truth node 4 out of range$"):
            build()
    for truth, node in [({1: 0, -1: 1, 5: 0}, -1), ({2**70: 0}, 2**70), ({0: 1, -0.5: 0}, -0.5)]:
        with pytest.raises(ValueError, match=f"^ground-truth node {node} out of range$"):
            layer.with_ground_truth(truth)

    labelled = layer.with_ground_truth({2: 0, 0: 1})
    checks = []
    monkeypatch.setattr(core, "_check_truth_nodes", lambda *args: checks.append(args))
    part = labelled.subset(np.array([True, False]))
    assert checks == [] and part.ground_truth is labelled.ground_truth
    labelled.with_ground_truth({1: 1})
    assert checks == [({1: 1}, 3)]


def test_files_the_array_path_does_not_read_still_parse(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# café\n+2 +1 0\n1 0 2\n", encoding="utf-8")
    assert parse_hyperedge_file(str(p)) == oracles.layer(3, [(0, 1), (0, 2)], [2.0, 1.0])


def test_loading_and_fitting_build_no_hyperedge_objects(tmp_path, monkeypatch):
    mh = planted_partition(
        num_nodes=30, num_communities=2, num_layers=2, c_in=0.5, c_out=0.05,
        max_size=3, inter_edge_count=40, seed=1,
    )
    lines = []
    for l, layer in enumerate(mh.layers):
        write_hyperedge_file(str(tmp_path / f"e{l}.txt"), layer)
        write_ground_truth_file(str(tmp_path / f"t{l}.txt"), layer.ground_truth)
        lines += [f"layer.{l}.edges = e{l}.txt", f"layer.{l}.truth = t{l}.txt", f"layer.{l}.k = 2"]
    write_inter_edge_file(str(tmp_path / "inter.txt"), mh.inter_edges)
    man = tmp_path / "m.cfg"
    man.write_text("\n".join(lines + ["inter.edges = inter.txt"]) + "\n")

    built = []
    checked = Hyperedge.__post_init__  # every Hyperedge is built through it
    monkeypatch.setattr(Hyperedge, "__post_init__", lambda e: built.append(e) or checked(e))
    mh, ks = load_manifest(str(man))
    cfg = InferenceConfig(k_per_layer=ks, restarts=2, max_iters=10, seed=0)
    fit(mh, cfg)
    hyperedge_prediction_cv(mh, cfg, folds=3, seed=0)
    assert built == []
    layer = mh.layers[0]
    rows = zip(layer.node_tuples(), layer.weights.tolist())
    assert layer.hyperedges == tuple(Hyperedge(nodes, weight) for nodes, weight in rows)
    assert len(built) == 2 * layer.num_hyperedges


def test_duplicate_weights_add_in_file_order(tmp_path):
    # (1 + 1) + 1e16 keeps both ones; adding either one to 1e16 first loses it
    total = (1.0 + 1.0) + 1e16
    p = tmp_path / "edges.txt"
    p.write_text("1 0 1\n1 0 2\n1 1 0\n1e16 0 1\n")
    assert parse_hyperedge_file(str(p)).weights.tolist() == [total, 1.0]
    q = tmp_path / "inter.txt"
    q.write_text("0 1 0 1 1\n1 0 1 0 1\n0 1 0 1 1e16\n")
    assert parse_inter_edge_file(str(q))[0].weights.tolist() == [total]
