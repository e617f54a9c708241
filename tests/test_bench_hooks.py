"""The benchmark's tracing hooks resolve against the library.

``bench/measure.py`` wraps library attributes by name; this keeps a
deletion of one of them failing here, not only in ``bench/test_bench.py``.
"""

import os

import hyperblock.core as core
import hyperblock.evaluation as evaluation
import hyperblock.inference as inference
import hyperblock.likelihood as likelihood
from hyperblock.inference import InferenceConfig
from hyperblock.synth import planted_partition
import oracles

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def attributes():
    owners = [core, inference, likelihood, evaluation, inference.EMEngine,
              likelihood.ThetaIncidence]
    return {(owner.__name__, k): v for owner in owners for k, v in vars(owner).items()}


def test_measure_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import measure
    from tracer import Tracer

    before = attributes()
    layer = oracles.layer(3, [[0, 1]])
    with Tracer() as tracer:
        measure.install(tracer, [], [])
        measure.install_setup(tracer)
        # the scoring counter is wrapped per instance, on construction
        theta = evaluation.SubHyperedgeCounter(layer).theta(layer)
    assert theta.values.tolist() == [1.0, 1.0]
    assert [span[0] for span in tracer.take()] == ["internal_degree.counter_theta"]
    after = attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_setup_hooks_trace_the_parsers(monkeypatch, tmp_path):
    # the per-layer parse metrics read 0 if load_manifest stops calling the
    # wrapped parsers through the module
    monkeypatch.syspath_prepend(BENCH)
    import measure
    from tracer import Tracer

    for name, text in [("e0.txt", "1 0 1\n"), ("e1.txt", "1 1 0\n"), ("inter.txt", "0 1 0 1 1\n")]:
        (tmp_path / name).write_text(text)
    manifest = tmp_path / "m.cfg"
    manifest.write_text(
        "layer.0.edges = e0.txt\nlayer.0.k = 2\nlayer.1.edges = e1.txt\nlayer.1.k = 2\n"
        "inter.edges = inter.txt\n"
    )
    with Tracer() as tracer:
        measure.install_setup(tracer)
        mh, _ = core.load_manifest(str(manifest))
    s = mh.inter_edges[0]
    assert tuple(zip(s.rows, s.cols, s.weights)) == ((0, 1, 1.0),)
    assert [span[0] for span in tracer.take()] == (
        ["core.parse_hyperedge_file"] * 2 + ["core.parse_inter_edge_file"]
    )


def test_cv_traces_one_scoring_span_per_candidate_batch(monkeypatch):
    # the benchmark's cv-2k scoring metrics read 0 if the protocol stops
    # scoring through the traced counter and scorer; each (fold, layer)
    # scores its positives and its negatives with one call each
    monkeypatch.syspath_prepend(BENCH)
    import measure
    from tracer import Tracer, self_times

    mh = planted_partition(
        num_nodes=24, num_communities=2, num_layers=2, c_in=0.3, c_out=0.01,
        max_size=3, inter_edge_count=40, seed=3,
    )
    cfg = InferenceConfig(k_per_layer=(2, 2), restarts=1, max_iters=5, seed=0)
    with Tracer() as tracer:
        measure.install(tracer, [], [])
        tracer.call("workload", evaluation.hyperedge_prediction_cv, mh, cfg, folds=2)
    st = self_times(tracer.take())
    assert st["internal_degree.counter_theta"][1] == st["evaluation.score_hyperedge"][1] == 8
    assert "likelihood.lambda_e" not in st


def test_gen_builds_counts_and_writes_its_instances(monkeypatch, tmp_path):
    # bench/gen.py builds instances through the object model (make_hyperedge,
    # from_hyperedges, InterEdgeSet triples, layer.hyperedges, node_sets);
    # deleting any of that fails here, not only in bench/test_bench.py
    monkeypatch.syspath_prepend(BENCH)
    import gen

    for name, mh, k in [
        ("nested", gen.nested_instance(40, 60, 2, 20, 1), (2, 2)),
        ("planted", gen.planted_instance(1), (3, 3)),
    ]:
        counts = gen.instance_counts(mh)
        assert [layer["edges"] for layer in counts["layers"]] == [
            layer.num_hyperedges for layer in mh.layers
        ]
        assert counts["inter_edges"] == mh.inter_edges[0].num_edges
        written = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            manifest = gen.write_instance(mh, k, str(out))
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert written[0] == written[1]
        assert core.load_manifest(manifest) == (mh, list(k))
