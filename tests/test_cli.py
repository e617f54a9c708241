"""Command-line workflow: data generation, fitting, scoring, prediction."""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy

from hyperblock.cli import build_parser, main
from hyperblock.core import (
    load_manifest,
    write_ground_truth_file,
    write_hyperedge_file,
)
from hyperblock.synth import planted_partition
import oracles


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> fit chain shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    synth_dir = os.path.join(root, "data")
    fit_dir = os.path.join(root, "fit")
    rc = main([
        "synth", "--preset", "planted", "--nodes", "24", "--communities", "2",
        "--layers", "2", "--c-in", "6.0", "--c-out", "0.0", "--max-size", "2",
        "--inter-edges", "80", "--seed", "0", "--out", synth_dir,
    ])
    assert rc == 0
    rc = main([
        "fit", "--manifest", os.path.join(synth_dir, "manifest.cfg"),
        "--restarts", "10", "--max-iters", "200", "--seed", "0",
        "--out", fit_dir,
    ])
    assert rc == 0
    return str(root), synth_dir, fit_dir


def test_synth_outputs(pipeline):
    _, synth_dir, _ = pipeline
    for name in ("edges_0.txt", "edges_1.txt", "truth_0.txt", "truth_1.txt",
                 "inter.txt", "manifest.cfg", "run_manifest.json"):
        assert os.path.exists(os.path.join(synth_dir, name)), name
    mh, k_per_layer = load_manifest(os.path.join(synth_dir, "manifest.cfg"))
    assert k_per_layer == [2, 2]
    assert mh.num_layers == 2
    assert mh.inter_edges[0].num_edges == 80
    assert mh.layers[0].ground_truth is not None
    manifest = read_json(os.path.join(synth_dir, "run_manifest.json"))
    assert manifest["command"] == "synth"
    assert manifest["tool"] == "hyperblock"
    env = manifest["environment"]
    assert env["numpy"] == np.__version__
    assert env["python"] == platform.python_version()
    assert env["scipy"] == scipy.__version__
    assert env["cpus_available"] == len(os.sched_getaffinity(0))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert env[name] == os.environ.get(name)


def subcommand_flags(command):
    """The destinations of a subcommand's flags, but help, output directory
    and verbosity."""
    sub = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {action.dest for action in sub.choices[command]._actions} - {"help", "out", "verbose"}


def test_run_manifest_records_every_flag(pipeline, tmp_path):
    _, synth_dir, fit_dir = pipeline
    edges = os.path.join(synth_dir, "edges_0.txt")
    assert main(["eval-communities", "--manifest", os.path.join(synth_dir, "manifest.cfg"),
                 "--state", fit_dir, "--out", str(tmp_path / "eval")]) == 0
    assert main(["entropy-report", "--edges", edges, "--out", str(tmp_path / "entropy")]) == 0
    for command, out in (("synth", synth_dir), ("eval-communities", tmp_path / "eval"),
                         ("entropy-report", tmp_path / "entropy")):
        params = read_json(os.path.join(out, "run_manifest.json"))["params"]
        assert set(params) == subcommand_flags(command), command
    assert params["edges"] == os.path.abspath(edges)


def test_fit_outputs(pipeline):
    _, _, fit_dir = pipeline
    for name in ("u_layer0.csv", "u_layer1.csv", "w_layer0.csv", "w_layer1.csv",
                 "w_cross_0_1.csv", "trace.csv", "summary.json", "run_manifest.json"):
        assert os.path.exists(os.path.join(fit_dir, name)), name
    summary = read_json(os.path.join(fit_dir, "summary.json"))
    assert np.isfinite(summary["final_objective"])
    assert 0 <= summary["best_restart"] < 10
    with open(os.path.join(fit_dir, "trace.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "iteration,objective"
    objs = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b >= a - 1e-8 * abs(a) for a, b in zip(objs, objs[1:]))


def test_fit_rerun_is_byte_identical(pipeline, tmp_path):
    _, synth_dir, fit_dir = pipeline
    again = str(tmp_path / "again")
    rc = main([
        "fit", "--manifest", os.path.join(synth_dir, "manifest.cfg"),
        "--restarts", "10", "--max-iters", "200", "--seed", "0",
        "--out", again,
    ])
    assert rc == 0
    for name in ("u_layer0.csv", "u_layer1.csv", "w_layer0.csv", "w_cross_0_1.csv",
                 "trace.csv", "summary.json", "run_manifest.json"):
        with open(os.path.join(fit_dir, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(again, name), "rb") as fh:
            second = fh.read()
        assert first == second, name


def test_fit_rejects_a_nan_tol(pipeline, tmp_path, capsys):
    _, synth_dir, _ = pipeline
    rc = main([
        "fit", "--manifest", os.path.join(synth_dir, "manifest.cfg"), "--tol", "nan",
        "--restarts", "1", "--max-iters", "5", "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert "tol must be positive, got nan" in capsys.readouterr().err


def test_synth_rerun_is_byte_identical(pipeline, tmp_path):
    _, synth_dir, _ = pipeline
    again = str(tmp_path / "again")
    rc = main([
        "synth", "--preset", "planted", "--nodes", "24", "--communities", "2",
        "--layers", "2", "--c-in", "6.0", "--c-out", "0.0", "--max-size", "2",
        "--inter-edges", "80", "--seed", "0", "--out", again,
    ])
    assert rc == 0
    for name in ("edges_0.txt", "inter.txt", "manifest.cfg"):
        with open(os.path.join(synth_dir, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(again, name), "rb") as fh:
            second = fh.read()
        assert first == second, name


def test_eval_communities_end_to_end(pipeline, tmp_path):
    _, synth_dir, fit_dir = pipeline
    out = str(tmp_path / "eval")
    rc = main([
        "eval-communities", "--manifest", os.path.join(synth_dir, "manifest.cfg"),
        "--state", fit_dir, "--out", out,
    ])
    assert rc == 0
    metrics = read_json(os.path.join(out, "metrics.json"))
    assert len(metrics["layers"]) == 2
    for entry in metrics["layers"]:
        assert entry["nmi"] >= 0.9
        assert entry["f1"] >= 0.9
        assert entry["cosine_similarity"] >= 0.55
    assert os.path.exists(os.path.join(out, "run_manifest.json"))


def test_eval_communities_rejects_a_label_past_the_bound(pipeline, tmp_path, capsys):
    _, synth_dir, fit_dir = pipeline
    data = tmp_path / "data"
    shutil.copytree(synth_dir, data)
    truth = data / "truth_0.txt"
    lines = truth.read_text().splitlines()
    lines[1] = lines[1].split()[0] + " 100000000000000000000"
    truth.write_text("\n".join(lines) + "\n")
    rc = main([
        "eval-communities", "--manifest", str(data / "manifest.cfg"),
        "--state", fit_dir, "--out", str(tmp_path / "eval"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "truth_0.txt:2: label 100000000000000000000 out of range" in err
    assert "Traceback" not in err


def test_predict_hyperedges_cli(pipeline, tmp_path):
    _, synth_dir, _ = pipeline
    out = str(tmp_path / "pred")
    rc = main([
        "predict-hyperedges", "--manifest", os.path.join(synth_dir, "manifest.cfg"),
        "--folds", "2", "--restarts", "2", "--max-iters", "60", "--seed", "0",
        "--out", out,
    ])
    assert rc == 0
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["folds"] == 2
    assert len(summary["fold_auc"]) == 2
    with open(os.path.join(out, "folds.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "layer,fold,auc"
    assert len(rows) == 1 + 2 * 2
    with open(os.path.join(out, "by_size.csv")) as fh:
        assert fh.readline().strip() == "max_size,auc_mean,auc_sd"


def test_predict_interedges_cli(pipeline, tmp_path):
    _, synth_dir, _ = pipeline
    out = str(tmp_path / "inter")
    rc = main([
        "predict-interedges", "--manifest", os.path.join(synth_dir, "manifest.cfg"),
        "--removal-ratio", "0.0,0.3", "--repeats", "1", "--restarts", "2",
        "--max-iters", "60", "--seed", "0", "--out", out,
    ])
    assert rc == 0
    summary = read_json(os.path.join(out, "summary.json"))
    assert [entry["removal_ratio"] for entry in summary["sweep"]] == [0.0, 0.3]
    with open(os.path.join(out, "sweep.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "removal_ratio,auc_mean,auc_sd"
    assert len(rows) == 3


def test_synth_views_preset(tmp_path):
    mh = planted_partition(num_nodes=16, num_communities=2, num_layers=2,
                           c_in=1.0, c_out=0.05, max_size=3, inter_edge_count=0, seed=5)
    source = mh.layers[0]
    edges_path = str(tmp_path / "source.txt")
    truth_path = str(tmp_path / "truth.txt")
    write_hyperedge_file(edges_path, source)
    write_ground_truth_file(truth_path, source.ground_truth)
    out = str(tmp_path / "views")
    rc = main([
        "synth", "--preset", "views", "--source", edges_path, "--truth", truth_path,
        "--nodes", "16", "--layers", "2", "--sample-fraction", "0.5",
        "--inter-edges", "10", "--seed", "1", "--out", out,
    ])
    assert rc == 0
    built, k_per_layer = load_manifest(os.path.join(out, "manifest.cfg"))
    assert k_per_layer == [2, 2]
    assert built.num_layers == 2
    expected = -(-source.num_hyperedges // 2)  # ceil of half
    assert all(layer.num_hyperedges == expected for layer in built.layers)
    assert built.inter_edges[0].num_edges == 10


def test_synth_views_takes_the_node_count_from_the_source(tmp_path):
    # without --nodes, the views keep the source's node count: the planted
    # preset's default of 60 neither rejects a larger source nor pads a
    # smaller one with isolated nodes
    for n in (100, 20):
        source = oracles.layer(n, [(i, i + 1) for i in range(n - 1)])
        edges_path, truth_path = str(tmp_path / f"source{n}.txt"), str(tmp_path / f"truth{n}.txt")
        write_hyperedge_file(edges_path, source)
        write_ground_truth_file(truth_path, {i: i % 2 for i in range(n)})
        out = str(tmp_path / f"views{n}")
        assert main([
            "synth", "--preset", "views", "--source", edges_path, "--truth", truth_path,
            "--inter-edges", "10", "--seed", "1", "--out", out,
        ]) == 0
        built, _ = load_manifest(os.path.join(out, "manifest.cfg"))
        assert [layer.num_nodes for layer in built.layers] == [n, n]


def test_entropy_report_cli(tmp_path):
    mh = planted_partition(num_nodes=15, num_communities=3, num_layers=1,
                           c_in=1.5, c_out=0.1, max_size=3, inter_edge_count=0, seed=6)
    edges_path = str(tmp_path / "edges.txt")
    write_hyperedge_file(edges_path, mh.layers[0])
    out = str(tmp_path / "entropy")
    rc = main(["entropy-report", "--edges", edges_path, "--threshold", "0.6",
               "--out", out])
    assert rc == 0
    payload = read_json(os.path.join(out, "entropy.json"))
    assert payload["threshold"] == 0.6
    assert payload["num_considered"] >= payload["num_below"] >= 0
    assert 0.0 <= payload["fraction_below"] <= 1.0
    assert sum(payload["histogram_counts"]) == payload["num_considered"]
    assert 0.0 <= payload["size2_containment_rate"] <= 1.0
    with open(os.path.join(out, "entropies.csv")) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "entropy"
    assert len(rows) == 1 + payload["num_considered"]
    # a lone edge with uniform counts has normalized entropy 1, the top of
    # the histogram range
    write_hyperedge_file(edges_path, oracles.layer(5, [range(5)]))
    assert main(["entropy-report", "--edges", edges_path, "--threshold", "0.6",
                 "--out", out]) == 0
    payload = read_json(os.path.join(out, "entropy.json"))
    assert payload["num_considered"] == sum(payload["histogram_counts"]) == 1


def test_cli_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--manifest", "x.cfg"])  # --out missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--preset", "bogus", "--out", "d"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--manifest", "x.cfg", "--threads", "2", "--out", "d"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval-communities", "--manifest", "x.cfg", "--state", "s", "--out", "d",
              "--cs-normalize-rows"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_cli_runtime_errors_exit_1(tmp_path, capsys):
    rc = main(["fit", "--manifest", str(tmp_path / "missing.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = main([
        "synth", "--preset", "planted", "--inter-edges", "5,5",
        "--out", str(tmp_path / "o2"),
    ])
    assert rc == 1
    assert "single inter-edge budget" in capsys.readouterr().err
    source = planted_partition(num_nodes=8, num_communities=2, num_layers=1, c_in=1.0,
                               c_out=0.05, max_size=2, inter_edge_count=0, seed=5).layers[0]
    write_hyperedge_file(str(tmp_path / "source.txt"), source)
    write_ground_truth_file(str(tmp_path / "truth.txt"), source.ground_truth)
    rc = main([
        "synth", "--preset", "views", "--source", str(tmp_path / "source.txt"),
        "--truth", str(tmp_path / "truth.txt"), "--inter-edges", "",
        "--out", str(tmp_path / "o3"),
    ])
    assert rc == 1
    assert "--inter-edges needs at least one count" in capsys.readouterr().err


def test_a_node_count_below_one_exits_1(tmp_path, capsys):
    # --nodes 0 is a node count, not an unset flag, and no line is at fault
    edges_path, truth_path = str(tmp_path / "source.txt"), str(tmp_path / "truth.txt")
    write_hyperedge_file(edges_path, oracles.layer(4, [(0, 1), (2, 3)]))
    write_ground_truth_file(truth_path, {i: i % 2 for i in range(4)})
    for argv, nodes in (
        (["entropy-report", "--edges", edges_path], "0"),
        (["synth", "--preset", "views", "--source", edges_path, "--truth", truth_path], "0"),
        (["synth", "--preset", "planted"], "0"),
        (["synth", "--preset", "planted"], "-5"),
    ):
        assert main(argv + ["--nodes", nodes, "--out", str(tmp_path / "o")]) == 1
        assert f"error: num_nodes must be positive, got {nodes}" in capsys.readouterr().err


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "hyperblock" in capsys.readouterr().out


def test_assortative_single_community_warns(pipeline, tmp_path, caplog):
    _, synth_dir, _ = pipeline
    out = str(tmp_path / "flat")
    with caplog.at_level("WARNING", logger="hyperblock"):
        rc = main([
            "fit", "--manifest", os.path.join(synth_dir, "manifest.cfg"),
            "--k", "1", "--assortative", "--restarts", "1", "--max-iters", "20",
            "--out", out,
        ])
    assert rc == 0
    assert any("K=1" in rec.message for rec in caplog.records)


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperblock.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "hyperblock" in proc.stdout
