"""Print sha256 prefixes of the outputs a byte-identical refactor must keep.

Usage, from the root of a source checkout::

    python3 tools/output_hashes.py [--root DIR] [--work DIR] > hashes.json

``--root`` names the checkout whose ``src/`` and ``bench/`` are used (by
default the one holding this script), so the same script hashes a copy of
another commit.  ``--work`` is emptied and receives every file the runs
write; run manifests hold absolute paths, so compare two trees with the
same ``--work``.  BLAS runs on one thread.  Nothing under ``bench/`` is
written: the instances come from ``bench/gen.py`` and the fit settings
from ``bench/measure.py``.

Hashed:

* for each benchmark workload, the seed-11 instance written by
  ``gen.write_instance`` and read back with ``load_manifest``, fit with
  seed 11000 and the workload's K, restarts and max_iters: the best
  restart, converged, the objective trace as ``float.hex``, the repr of
  the restart outcomes and the bytes of u, w and w_cross; for ``cv-2k``,
  also the repr of its 5-fold ``hyperedge_prediction_cv`` report (seed 11);
* every output file of each CLI subcommand, run on one planted synth of
  30 nodes and 2 communities (seed 4).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIT_SEED = 11000
INSTANCE_SEED = 11


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fit_hashes(result) -> dict:
    state = result.state
    return {
        "best": result.best_restart,
        "converged": result.converged,
        "trace": digest(repr([(it, obj.hex()) for it, obj in result.objective_trace]).encode()),
        "outcomes": digest(repr(result.restarts).encode()),
        "u": digest(b"".join(m.tobytes() for m in state.u)),
        "w": digest(b"".join(m.tobytes() for m in state.w)),
        "w_cross": digest(b"".join(
            repr(key).encode() + m.tobytes() for key, m in sorted(state.w_cross.items())
        )),
    }


def benchmark_hashes(work: str) -> dict:
    import gen
    from measure import WORKLOADS

    from hyperblock.core import load_manifest
    from hyperblock.evaluation import hyperedge_prediction_cv
    from hyperblock.inference import InferenceConfig, fit

    hashes = {}
    for name, spec in WORKLOADS.items():
        if spec["instance"] == "planted":
            mh = gen.planted_instance(INSTANCE_SEED)
        else:
            mh = gen.nested_instance(
                spec["nodes"], spec["edges"], spec["communities"], spec["inter"], INSTANCE_SEED
            )
        mh, k_per_layer = load_manifest(
            gen.write_instance(mh, spec["k"], os.path.join(work, name))
        )
        cfg = InferenceConfig(k_per_layer=k_per_layer, restarts=spec["restarts"],
                              max_iters=spec["max_iters"], seed=FIT_SEED)
        hashes[f"{name} fit"] = fit_hashes(fit(mh, cfg))
        if spec["call"] == "cv":
            report = hyperedge_prediction_cv(mh, cfg, folds=spec["folds"], seed=INSTANCE_SEED)
            hashes[f"{name} cv"] = digest(repr(report).encode())
    return hashes


def cli_hashes(root: str, work: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def run(name: str, *argv: str) -> str:
        out = os.path.join(work, name)
        subprocess.run([sys.executable, "-m", "hyperblock.cli", *argv, "--out", out],
                       env=env, check=True)
        return out

    data = run("synth-planted", "synth", "--preset", "planted", "--nodes", "30",
               "--communities", "2", "--seed", "4")
    manifest = os.path.join(data, "manifest.cfg")
    fit_flags = ("--manifest", manifest, "--restarts", "2", "--max-iters", "30", "--seed", "3")
    state = run("fit", "fit", "--manifest", manifest, "--restarts", "4",
                "--max-iters", "60", "--seed", "3")
    run("synth-views", "synth", "--preset", "views", "--source",
        os.path.join(data, "edges_0.txt"), "--truth", os.path.join(data, "truth_0.txt"),
        "--seed", "4")
    run("fit-m-override", "fit", *fit_flags, "--m-override", "500")
    run("predict-hyperedges", "predict-hyperedges", *fit_flags, "--folds", "3")
    run("predict-interedges", "predict-interedges", *fit_flags,
        "--removal-ratio", "0,0.2", "--repeats", "2")
    run("eval-communities", "eval-communities", "--manifest", manifest, "--state", state)
    run("entropy-report", "entropy-report", "--edges", os.path.join(data, "edges_0.txt"))

    hashes = {}
    for name in sorted(os.listdir(work)):
        folder = os.path.join(work, name)
        files = {}
        for file in sorted(os.listdir(folder)):
            with open(os.path.join(folder, file), "rb") as fh:
                files[file] = digest(fh.read())
        hashes[f"cli {name}"] = files
    return hashes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=ROOT, help="source checkout to hash")
    parser.add_argument("--work", default=os.path.join(tempfile.gettempdir(),
                                                       "hyperblock-output-hashes"),
                        help="directory the runs write to; emptied first")
    args = parser.parse_args(argv)
    os.environ.update({name: "1" for name in PINNED_THREADS})  # before numpy loads BLAS
    sys.dont_write_bytecode = True  # importing bench/ must leave it as it is
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    shutil.rmtree(args.work, ignore_errors=True)
    cli_work, bench_work = os.path.join(args.work, "cli"), os.path.join(args.work, "bench")
    os.makedirs(cli_work)
    hashes = {**benchmark_hashes(bench_work), **cli_hashes(root, cli_work)}
    json.dump({"sha256_prefixes": hashes}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
