"""Data model and file-format tests."""

import numpy as np
import pytest

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


def test_layer_requires_canonical_order():
    a = make_hyperedge([0, 1])
    b = make_hyperedge([0, 2])
    HypergraphLayer(3, (a, b))
    with pytest.raises(ValueError):
        HypergraphLayer(3, (b, a))
    with pytest.raises(ValueError):
        HypergraphLayer(3, (a, a))
    with pytest.raises(ValueError):
        HypergraphLayer(2, (b,))


def test_from_hyperedges_merges_duplicates():
    layer = HypergraphLayer.from_hyperedges(
        4, [make_hyperedge([1, 3], 1.0), make_hyperedge([3, 1], 2.0), make_hyperedge([0, 2], 1.0)]
    )
    assert layer.num_hyperedges == 2
    assert layer.hyperedges[0].nodes == (0, 2)
    assert layer.hyperedges[1] == Hyperedge((1, 3), 3.0)


def test_inter_edge_set_validation():
    s = InterEdgeSet(0, 1, ((0, 0, 1.0), (0, 1, 2.0)))
    assert s.num_edges == 2
    assert s.total_weight() == 3.0
    with pytest.raises(ValueError):
        InterEdgeSet(1, 0, ())
    with pytest.raises(ValueError):
        InterEdgeSet(0, 1, ((0, 1, 1.0), (0, 0, 1.0)))
    with pytest.raises(ValueError):
        InterEdgeSet(0, 1, ((0, 0, 0.0),))


def test_inter_edge_from_entries_merges_and_drops_zeros():
    s = InterEdgeSet.from_entries(0, 2, [(1, 1, 0.5), (1, 1, 0.5), (0, 0, 0.0)])
    assert s.edges == ((1, 1, 1.0),)


def test_multi_hypergraph_checks_pairs():
    layer = HypergraphLayer(2, (make_hyperedge([0, 1]),))
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
    assert sets[0].edges == ((5, 4, 3.0),)

    p.write_text("0 0 1 2 1.0\n")
    with pytest.raises(ValueError, match="self-pair"):
        parse_inter_edge_file(str(p))


def test_parse_ground_truth(tmp_path):
    p = tmp_path / "truth.txt"
    p.write_text("0 1\n1 1\n2 0\n")
    assert parse_ground_truth_file(str(p)) == {0: 1, 1: 1, 2: 0}
    p.write_text("0 1\n0 2\n")
    with pytest.raises(ValueError, match="duplicate node"):
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
    assert mh.inter_edges[0].edges == ((2, 0, 1.5),)


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


def test_manifest_requires_k(tmp_path):
    (tmp_path / "e0.txt").write_text("1 0 1\n")
    man = tmp_path / "m.cfg"
    man.write_text("layer.0.edges = e0.txt\n")
    with pytest.raises(ValueError, match="layer.0.k"):
        load_manifest(str(man))
