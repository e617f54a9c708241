"""The benchmark's tracing hooks resolve against the library.

``bench/measure.py`` wraps library attributes by name; this keeps a
deletion of one of them failing here, not only in ``bench/test_bench.py``.
"""

import os

import hyperblock.core as core
import hyperblock.evaluation as evaluation
import hyperblock.inference as inference
import hyperblock.likelihood as likelihood
from hyperblock.core import HypergraphLayer, make_hyperedge

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
    layer = HypergraphLayer(3, (make_hyperedge([0, 1]),))
    with Tracer() as tracer:
        measure.install(tracer, [], [])
        measure.install_setup(tracer)
        # the scoring counter is wrapped per instance, on construction
        theta = evaluation.SubHyperedgeCounter(layer).theta((0, 1))
    assert theta == {0: 1.0, 1: 1.0}
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
    assert mh.inter_edges[0].edges == ((0, 1, 1.0),)
    assert [span[0] for span in tracer.take()] == (
        ["core.parse_hyperedge_file"] * 2 + ["core.parse_inter_edge_file"]
    )
