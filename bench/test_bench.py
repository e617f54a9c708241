"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``."""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import measure  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

import hyperblock.core as core  # noqa: E402
import hyperblock.evaluation as evaluation  # noqa: E402
import hyperblock.inference as inference  # noqa: E402
import hyperblock.likelihood as likelihood  # noqa: E402
from hyperblock.inference import InferenceConfig  # noqa: E402

FILES = ["edges_0.txt", "edges_1.txt", "truth_0.txt", "truth_1.txt", "inter.txt", "manifest.cfg"]


def write_nested(seed, out_dir):
    mh = gen.nested_instance(300, 900, 4, 200, seed)
    gen.write_instance(mh, (4, 4), str(out_dir))
    return mh


def test_nested_instance_is_byte_identical_per_seed(tmp_path):
    mh = write_nested(3, tmp_path / "a")
    write_nested(3, tmp_path / "b")
    write_nested(4, tmp_path / "c")
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", FILES, shallow=False)
    assert match == FILES and not mismatch and not errors
    assert filecmp.cmpfiles(tmp_path / "a", tmp_path / "c", FILES, shallow=False)[1]

    counts = gen.instance_counts(mh)
    assert counts["inter_edges"] == 200
    for layer in counts["layers"]:
        assert layer["nodes"] == 300 and layer["edges"] == 900
        assert sum(layer["edges_per_size"].values()) == 900
        assert set(layer["edges_per_size"]) <= {"2", "3", "4", "5"}
        assert 0 < layer["non_uniform_theta_edges"] < 900


def test_planted_instance_is_byte_identical_per_seed(tmp_path):
    for name in ("a", "b"):
        gen.write_instance(gen.planted_instance(5), (3, 3), str(tmp_path / name))
    assert filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", FILES, shallow=False)[0] == FILES


def test_non_uniform_theta_matches_the_library():
    mh = gen.nested_instance(200, 600, 4, 50, 1)
    layer = mh.layers[0]
    table = inference.theta_table(layer)
    expected = sum(len(set(table.for_edge(i).tolist())) > 1 for i in range(layer.num_hyperedges))
    assert gen.instance_counts(mh)["layers"][0]["non_uniform_theta_edges"] == expected


def attributes():
    """Every attribute the tracer may patch, by identity."""
    owners = [core, inference, likelihood, evaluation]
    snapshot = {(m.__name__, k): v for m in owners for k, v in vars(m).items()}
    for cls in (inference.EMEngine, likelihood.ThetaIncidence):
        snapshot.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snapshot


def test_tracer_records_spans_and_restores_every_attribute(tmp_path):
    before = attributes()
    mh = write_nested(0, tmp_path)
    fits, nnz = [], []
    with Tracer() as tracer:
        measure.install(tracer, fits, nnz)
        measure.install_setup(tracer)
        assert inference.EMEngine.__dict__["sweep"] is not before[("EMEngine", "sweep")]
        cfg = InferenceConfig(k_per_layer=(4, 4), restarts=1, max_iters=5, seed=0)
        tracer.call("workload", evaluation.hyperedge_prediction_cv, mh, cfg, folds=2)
    after = attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []

    spans = tracer.take()
    st = self_times(spans)
    assert st["evaluation.fit"][1] == len(fits) == 2
    assert st["inference.sweep"][1] == 10
    assert st["internal_degree.counter_theta"][1] == st["evaluation.score_hyperedge"][1] > 0
    assert len(nnz) == 4
    # every span nests under the root, so self times add up to its duration
    assert spans[0][0] == "workload"
    assert sum(t for t, _ in st.values()) == pytest.approx(spans[0][2] - spans[0][1])


def test_self_time_subtracts_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
    ]
    st = self_times(spans)
    assert st["root"] == (pytest.approx(3.0), 1)
    assert st["a"] == (pytest.approx(6.0), 2)
    assert st["b"] == (pytest.approx(1.0), 1)


def run_bench(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload,trace", [
    ("planted-restarts", 0), ("planted-restarts", 1), ("cv-2k", 1),
])
def test_every_declared_metric_is_printed(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in declared
    ]
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "planted-restarts", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
