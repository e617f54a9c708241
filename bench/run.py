"""hyperblock benchmark: one named workload, end to end or traced per layer.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload planted-restarts --seed 0 --seconds 30 --trace 0

The workload's instance is generated from ``--seed`` and written as text
files under ``.bench_work/<workload>/``; ``measure.py`` then loads those
files in a fresh process (BLAS pinned to one thread) and times the
library call.  The library is imported from ``src/`` of the checkout, never
from an installed copy, and the run fails when ``src/`` is missing.

Standard output ends with a report line (instance shape, output quality,
environment) and then the result line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

whose metrics are the ``end_to_end`` list of BENCHMARK.json with
``--trace 0`` and the ``per_layer`` list with ``--trace 1``.  The exit code
is 0 only when every repetition ran and passed its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD_TIMEOUT_S = 170
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int, child_env: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "num_threads_env": {k: v for k, v in sorted(child_env.items()) if k.endswith("_NUM_THREADS")},
        "seed": seed,
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hyperblock", "__init__.py")):
        return fail(f"no hyperblock sources under {SRC}")
    if args.seed < 0:
        return fail("--seed must be non-negative")
    sys.path.insert(0, SRC)
    import hyperblock

    if not os.path.abspath(hyperblock.__file__).startswith(SRC + os.sep):
        return fail(f"imported hyperblock from {hyperblock.__file__}, not from {SRC}")
    import gen
    from measure import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    spec = WORKLOADS[args.workload]
    if spec["instance"] == "planted":
        mh = gen.planted_instance(args.seed)
    else:
        mh = gen.nested_instance(
            spec["nodes"], spec["edges"], spec["communities"], spec["inter"], args.seed
        )
    out_dir = os.path.join(WORK, args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    manifest = gen.write_instance(mh, spec["k"], out_dir)
    counts = gen.instance_counts(mh)
    del mh

    child_env = dict(os.environ, PYTHONPATH=SRC, **{k: "1" for k in PINNED_THREADS})
    command = [
        sys.executable, os.path.join(BENCH, "measure.py"),
        "--workload", args.workload, "--manifest", manifest, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir,
    ]
    try:
        child = subprocess.run(
            command, env=child_env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return fail(f"measurement did not finish within {CHILD_TIMEOUT_S} s")
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return fail(f"measurement exited with code {child.returncode}")
    outcome = json.loads(lines[-1])

    missing = [m["name"] for m in declared if m["name"] not in outcome["metrics"]]
    problems = outcome["problems"] + [f"metric {name} not measured" for name in missing]
    report = {
        "workload": args.workload,
        "instance": counts,
        "outputs": outcome["report"],
        "problems": problems,
        "environment": environment(args.seed, child_env),
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"report": report}))
    correct = not problems and outcome["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": max(outcome["failed"], 0 if correct else 1),
        "metrics": {
            m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in outcome["metrics"]
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
