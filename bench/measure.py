"""Time one workload on instance files and check its outputs.

Run by ``run.py`` in a fresh process, so that peak memory belongs to the
workload alone::

    python3 bench/measure.py --workload sparse-10k --manifest DIR/manifest.cfg \
        --seed 0 --seconds 30 --trace 0 --out-dir DIR

The program sees the instance only through ``load_manifest``.  The run is
a sequence of rounds, each of which loads the instance (repeatedly, for at
least ``SETUP_ROUND_S``) and then calls the workload once, so set-up and
call samples are both spread over the whole ``--seconds`` window; reported
times are medians.  Repetition ``r`` fits with seed ``1000 * seed + 10 * r``,
so the restarts of different repetitions never share an initial state.
With ``--trace 1`` untraced and traced repetitions alternate, the traced
ones with every layer wrapped (see ``install``), and the per-layer figures
are medians over the traced repetitions.

The last line of standard output is one JSON object with the repetition
counts, the failed checks, every metric the run computed, and a report of
output quality.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import hyperblock.core as core
import hyperblock.evaluation as evaluation
import hyperblock.inference as inference
import hyperblock.likelihood as likelihood
from hyperblock.core import load_manifest
from hyperblock.evaluation import hard_labels, hyperedge_prediction_cv, nmi
from hyperblock.inference import InferenceConfig, NonFiniteUpdateError, fit
from hyperblock.likelihood import DegenerateStateError

from tracer import Tracer, durations, self_times, write_spans

# Instance and fit settings per workload.  "nested" instances come from
# gen.nested_instance; "planted" is the acceptance-criterion-5 instance.
WORKLOADS = {
    "planted-restarts": {
        "instance": "planted", "call": "fit",
        "k": (3, 3), "restarts": 10, "max_iters": 100,
    },
    "sparse-10k": {
        "instance": "nested", "nodes": 10_000, "edges": 50_000, "communities": 8,
        "inter": 25_000, "call": "fit", "k": (8, 8), "restarts": 2, "max_iters": 30,
    },
    "cv-2k": {
        "instance": "nested", "nodes": 2_000, "edges": 8_000, "communities": 4,
        "inter": 4_000, "call": "cv", "k": (4, 4), "restarts": 2, "max_iters": 30,
        "folds": 5,
    },
}

SETUP_ROUND_S = 0.25
MONOTONE_RTOL = 1e-8
NMI_FLOOR = 0.9
DROPPED = (DegenerateStateError.__name__, NonFiniteUpdateError.__name__)


def install(tracer: Tracer, fits: list, nnz: list) -> None:
    """Wrap every public call the workloads make into the library's layers."""
    for owner, attr, name in [
        (inference, "theta_table", "internal_degree.theta_table"),
        (inference, "sample_negatives", "likelihood.sample_negatives"),
        (inference, "layer_constants", "likelihood.layer_constants"),
        (inference, "initialize", "inference.initialize"),
        (likelihood.ThetaIncidence, "edge_rates", "likelihood.edge_rates"),
        (inference.EMEngine, "__init__", "inference.engine_setup"),
        (inference.EMEngine, "sweep", "inference.sweep"),
        (inference.EMEngine, "updated_u", "inference.updated_u"),
        (inference.EMEngine, "updated_w", "inference.updated_w"),
        (inference.EMEngine, "updated_w_cross", "inference.updated_w_cross"),
        (inference.EMEngine, "objective", "inference.objective"),
        (evaluation, "score_hyperedge", "evaluation.score_hyperedge"),
        (evaluation, "lambda_e", "likelihood.lambda_e"),
        (evaluation, "sample_negatives", "evaluation.sample_negatives"),
        (evaluation, "auc", "evaluation.auc"),
    ]:
        tracer.wrap(owner, attr, name)
    tracer.wrap(inference, "ThetaIncidence", "likelihood.theta_incidence",
                on_result=lambda inc: nnz.append(inc.b.nnz))
    tracer.wrap(evaluation, "fit", "evaluation.fit", on_result=fits.append)

    # Only the counters the protocols build for scoring are traced; the ones
    # inside theta_table stay part of that span's self time.
    counter_cls = evaluation.SubHyperedgeCounter

    def traced_counter(layer):
        counter = counter_cls(layer)
        counter.theta = functools.partial(
            tracer.call, "internal_degree.counter_theta", counter.theta
        )
        return counter

    tracer.patch(evaluation, "SubHyperedgeCounter", traced_counter)


def install_setup(tracer: Tracer) -> None:
    tracer.wrap(core, "parse_hyperedge_file", "core.parse_hyperedge_file")
    tracer.wrap(core, "parse_inter_edge_file", "core.parse_inter_edge_file")


def capture_fits(tracer: Tracer, fits: list) -> None:
    """Keep the protocol's fold fits for the output checks, without spans."""
    original = evaluation.fit

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        fits.append(result)
        return result

    tracer.patch(evaluation, "fit", capturing)


def call_workload(spec: dict, mh, k_per_layer, seed: int, rep: int):
    cfg = InferenceConfig(
        k_per_layer=k_per_layer, restarts=spec["restarts"],
        max_iters=spec["max_iters"], seed=1000 * seed + 10 * rep,
    )
    if spec["call"] == "fit":
        return fit(mh, cfg)
    return hyperedge_prediction_cv(mh, cfg, folds=spec["folds"], seed=seed)


def nmi_min(mh, result) -> float:
    scores = []
    for l, layer in enumerate(mh.layers):
        truth = [layer.ground_truth[i] for i in range(layer.num_nodes)]
        scores.append(nmi(hard_labels(result.state.u[l]), truth))
    return min(scores)


def check_fit(result) -> list[str]:
    problems = []
    objectives = [obj for _, obj in result.objective_trace]
    if not math.isfinite(result.final_objective):
        problems.append(f"final objective {result.final_objective} is not finite")
    if not all(b >= a - MONOTONE_RTOL * abs(a) for a, b in zip(objectives, objectives[1:])):
        problems.append("objective trace decreases")
    try:
        result.state.validate()
    except ValueError as exc:
        problems.append(f"invalid state: {exc}")
    return problems


def layer_metrics(spans, wall: float, fits: list, nnz: list, errors) -> dict:
    """Per-layer figures of one traced repetition."""
    st = self_times(spans)
    out = {}
    for name in [
        "internal_degree.theta_table", "internal_degree.counter_theta",
        "likelihood.sample_negatives", "likelihood.layer_constants",
        "likelihood.theta_incidence", "likelihood.edge_rates", "likelihood.lambda_e",
        "inference.engine_setup", "inference.initialize", "inference.sweep",
        "inference.updated_u", "inference.updated_w", "inference.updated_w_cross",
        "inference.objective", "evaluation.fit", "evaluation.score_hyperedge",
        "evaluation.sample_negatives", "evaluation.auc",
    ]:
        total, calls = st.get(name, (0.0, 0))
        out[f"{name}.s"] = total
        out[f"{name}.calls"] = calls
    sweeps_ms = np.array(durations(spans, "inference.sweep")) * 1e3
    out["inference.sweep.p50_ms"] = float(np.percentile(sweeps_ms, 50)) if sweeps_ms.size else 0.0
    out["inference.sweep.p99_ms"] = float(np.percentile(sweeps_ms, 99)) if sweeps_ms.size else 0.0
    out["likelihood.incidence_nnz"] = sum(nnz)
    out["inference.best_iterations"] = statistics.fmean(f.iterations for f in fits)
    out["inference.best_converged"] = statistics.fmean(float(f.converged) for f in fits)
    out["inference.restarts_dropped"] = sum(
        n for (name, kind), n in errors.items()
        if name in ("inference.sweep", "inference.objective") and kind in DROPPED
    )
    out["trace.wall_s"] = wall
    out["trace.coverage"] = (wall - st["workload"][0]) / wall
    return out


def median_dict(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def load(manifest: str, traced: bool):
    """One timed ``load_manifest``: (instance, K, seconds or per-layer self times)."""
    if not traced:
        start = time.perf_counter()
        mh, k_per_layer = load_manifest(manifest)
        return mh, k_per_layer, time.perf_counter() - start
    with Tracer() as tracer:
        install_setup(tracer)
        mh, k_per_layer = tracer.call("setup", load_manifest, manifest)
    st = self_times(tracer.take())
    return mh, k_per_layer, {
        f"{name}.s": st.get(name, (0.0, 0))[0]
        for name in ("core.parse_hyperedge_file", "core.parse_inter_edge_file")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    attempted = failed = 0
    problems: list[str] = []
    setups: list = []          # seconds, or per-layer dicts when traced
    walls: dict = {False: [], True: []}
    traced_rows: list[dict] = []
    span_runs: list[list] = []
    fit_scores: list[tuple[float, float]] = []  # (final objective, nmi_min) per fit
    aucs: list[float] = []
    round_times: list[float] = []
    deadline = time.perf_counter() + args.seconds
    rep = 0
    # A round is set-up (repeated for SETUP_ROUND_S) followed by one call of
    # the workload.  Rounds run while the next one is expected to end within
    # --seconds; with --trace 1 they alternate untraced and traced calls and
    # at least one of each runs.
    while True:
        round_start = time.perf_counter()
        traced = bool(args.trace) and rep % 2 == 1
        mh = None
        gc.collect()
        setup_end = time.perf_counter() + SETUP_ROUND_S
        while True:
            mh = None
            mh, k_per_layer, setup = load(args.manifest, bool(args.trace))
            setups.append(setup)
            if time.perf_counter() >= setup_end:
                break

        fits: list = []
        nnz: list = []
        gc.collect()
        attempted += 1
        try:
            with Tracer() as tracer:
                if traced:
                    install(tracer, fits, nnz)
                elif spec["call"] == "cv":
                    capture_fits(tracer, fits)
                start = time.perf_counter()
                if traced:
                    result = tracer.call(
                        "workload", call_workload, spec, mh, k_per_layer, args.seed, rep
                    )
                else:
                    result = call_workload(spec, mh, k_per_layer, args.seed, rep)
                wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            failed += 1
            problems.append(f"repetition {rep} raised")
        else:
            if spec["call"] == "fit":
                fits = [result]
            rep_problems = [p for f in fits for p in check_fit(f)]
            if spec["call"] == "cv":
                aucs.append(result.auc_mean)
                if not (math.isfinite(result.auc_mean) and 0.0 <= result.auc_mean <= 1.0):
                    rep_problems.append(f"held-out AUC {result.auc_mean} outside [0, 1]")
            if rep_problems:
                failed += 1
                problems += [f"repetition {rep}: {p}" for p in rep_problems]
            else:
                fit_scores += [(f.final_objective, nmi_min(mh, f)) for f in fits]
                walls[traced].append(wall)
                if traced:
                    spans = tracer.take()
                    span_runs.append(spans)
                    traced_rows.append(layer_metrics(spans, wall, fits, nnz, tracer.errors))
        rep += 1
        now = time.perf_counter()
        round_times.append(now - round_start)
        if rep >= 1 + args.trace and now + statistics.median(round_times) > deadline:
            break

    # The fit recovers the planted partition in most but not all seeds (the
    # acceptance test asks for 8 of 10), so the check is on the fit with the
    # best objective among this run's repetitions.
    best = max(fit_scores, default=(float("nan"), float("nan")))
    if spec["instance"] == "planted" and not best[1] >= NMI_FLOOR:
        problems.append(f"best fit of the run has nmi_min {best[1]} < {NMI_FLOOR}")

    metrics: dict = {}
    if args.trace and traced_rows and walls[False]:
        write_spans(os.path.join(args.out_dir, "spans.csv"), span_runs)
        metrics.update(median_dict(traced_rows))
        metrics["trace.overhead_s"] = (
            metrics.pop("trace.wall_s") - statistics.median(walls[False])
        )
        metrics.update(median_dict(setups))
    elif not args.trace and walls[False]:
        metrics["wall_s"] = statistics.median(walls[False])
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    nmis = [score for _, score in fit_scores]
    report = {
        "repetitions": rep,
        "walls_s": walls[False],
        "traced_walls_s": walls[True],
        "setups": len(setups),
        "fits_checked": len(fit_scores),
        "final_objective_best": best[0],
        "nmi_min_best": best[1],
        "nmi_min_median": statistics.median(nmis) if nmis else None,
        f"fits_nmi_min_below_{NMI_FLOOR}": sum(score < NMI_FLOOR for score in nmis),
        "heldout_auc": statistics.median(aucs) if aucs else None,
        "error_rate": failed / attempted,
    }
    print(json.dumps({
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, "report": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
