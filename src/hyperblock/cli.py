"""Command-line front end.

Subcommands cover the full workflow: generate benchmark data (synth),
fit the model (fit), score community recovery (eval-communities), run the
prediction protocols (predict-hyperedges, predict-interedges) and summarize
within-edge structure (entropy-report).  Every run writes the effective
configuration next to its outputs so it can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__
from .core import (
    HypergraphLayer,
    load_manifest,
    parse_ground_truth_file,
    parse_hyperedge_file,
    read_matrix,
    write_ground_truth_file,
    write_hyperedge_file,
    write_inter_edge_file,
    write_matrix,
)
from .evaluation import (
    cosine_similarity,
    community_f1,
    hard_labels,
    hyperedge_prediction_cv,
    inter_edge_prediction,
    nmi,
)
from .inference import InferenceConfig, _cores, fit
from .internal_degree import entropy_report
from .synth import SynthConfig, build_views, planted_partition

log = logging.getLogger("hyperblock")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """Interpreter and library versions, the CPUs a fit's restarts may run
    on, and the BLAS thread settings (null when unset)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpus_available": _cores(),
        **{name: os.environ.get(name) for name in _THREAD_VARIABLES},
    }


def _write_run_manifest(out_dir: str, command: str, params: dict) -> None:
    _write_json(
        os.path.join(out_dir, "run_manifest.json"),
        {"tool": "hyperblock", "version": __version__, "command": command, "params": params,
         "environment": _environment()},
    )


def _parse_int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _inference_config(args, k_per_layer) -> InferenceConfig:
    if args.k is not None:
        ks = _parse_int_list(args.k)
        if len(ks) == 1:
            ks = ks * len(k_per_layer)
        k_per_layer = ks
    cfg = InferenceConfig(
        k_per_layer=list(k_per_layer),
        restarts=args.restarts,
        max_iters=args.max_iters,
        tol=args.tol,
        check_every=args.check_every,
        assortative=args.assortative,
        seed=args.seed,
        m_override=args.m_override,
    )
    if cfg.assortative and any(k == 1 for k in cfg.k_per_layer):
        log.warning("assortative structure with K=1 leaves nothing off the diagonal")
    return cfg


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", help="communities per layer, comma-separated or one value for all")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--max-iters", "--max-iter", dest="max_iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--check-every", type=int, default=5)
    p.add_argument("--assortative", action="store_true",
                   help="initialize with zero off-diagonal affinities")
    p.add_argument("--m-override", type=int, default=None,
                   help="override the candidate-count constant in the penalty scale")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--verbose", "-v", action="count", default=0)
    p.add_argument("--out", "--out-dir", dest="out", required=True,
                   help="output directory (created if missing)")


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_fit(args) -> int:
    mh, k_per_layer = load_manifest(args.manifest)
    cfg = _inference_config(args, k_per_layer)
    result = fit(mh, cfg)
    for it, obj in result.objective_trace:
        log.info("iteration %d objective %.10g", it, obj)
    out = args.out
    os.makedirs(out, exist_ok=True)
    for l in range(mh.num_layers):
        write_matrix(os.path.join(out, f"u_layer{l}.csv"), result.state.u[l])
        write_matrix(os.path.join(out, f"w_layer{l}.csv"), result.state.w[l])
    for (a, b), w in sorted(result.state.w_cross.items()):
        write_matrix(os.path.join(out, f"w_cross_{a}_{b}.csv"), w)
    with open(os.path.join(out, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write("iteration,objective\n")
        for it, obj in result.objective_trace:
            fh.write("%d,%.17g\n" % (it, obj))
    _write_json(
        os.path.join(out, "summary.json"),
        {
            "final_objective": result.final_objective,
            "best_restart": result.best_restart,
            "converged": result.converged,
            "iterations": result.iterations,
            "restarts": [dataclasses.asdict(outcome) for outcome in result.restarts],
        },
    )
    _write_run_manifest(
        out, "fit",
        {"manifest": os.path.abspath(args.manifest), **dataclasses.asdict(cfg)},
    )
    return 0


def _labelled_nodes(layer: HypergraphLayer):
    nodes = sorted(layer.ground_truth)
    labels = np.array([layer.ground_truth[n] for n in nodes], dtype=int)
    return np.array(nodes, dtype=int), labels


def _cmd_eval_communities(args) -> int:
    mh, _ = load_manifest(args.manifest)
    out = args.out
    os.makedirs(out, exist_ok=True)
    per_layer = []
    for l, layer in enumerate(mh.layers):
        if layer.ground_truth is None:
            raise ValueError(f"layer {l} has no ground truth in the manifest")
        u = read_matrix(os.path.join(args.state, f"u_layer{l}.csv"))
        if u.shape[0] != layer.num_nodes:
            raise ValueError(
                f"u_layer{l}.csv has {u.shape[0]} rows for {layer.num_nodes} nodes"
            )
        nodes, labels = _labelled_nodes(layer)
        pred = hard_labels(u)[nodes]
        per_layer.append({
            "layer": l,
            "nmi": nmi(pred, labels),
            "f1": community_f1(pred, labels),
            "cosine_similarity": cosine_similarity(u[nodes], labels),
        })
    _write_json(os.path.join(out, "metrics.json"), {"layers": per_layer})
    _write_run_manifest(
        out, "eval-communities",
        {"manifest": os.path.abspath(args.manifest), "state": os.path.abspath(args.state),
         "seed": args.seed},
    )
    return 0


def _cmd_predict_hyperedges(args) -> int:
    mh, k_per_layer = load_manifest(args.manifest)
    cfg = _inference_config(args, k_per_layer)
    max_sizes = range(2, args.max_size + 1) if args.max_size else None
    report = hyperedge_prediction_cv(
        mh, cfg, folds=args.folds, seed=args.seed, max_sizes=max_sizes
    )
    out = args.out
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "folds.csv"), "w", encoding="utf-8") as fh:
        fh.write("layer,fold,auc\n")
        for l, row in enumerate(report.fold_auc):
            for f, v in enumerate(row):
                fh.write("%d,%d,%.17g\n" % (l, f, v))
    with open(os.path.join(out, "by_size.csv"), "w", encoding="utf-8") as fh:
        fh.write("max_size,auc_mean,auc_sd\n")
        for d, (m, s) in sorted(report.by_max_size.items()):
            fh.write("%d,%.17g,%.17g\n" % (d, m, s))
    _write_json(os.path.join(out, "summary.json"), report.to_json_dict())
    _write_run_manifest(
        out, "predict-hyperedges",
        {"manifest": os.path.abspath(args.manifest), "folds": args.folds,
         "max_size": args.max_size, **dataclasses.asdict(cfg)},
    )
    return 0


def _cmd_predict_interedges(args) -> int:
    mh, k_per_layer = load_manifest(args.manifest)
    cfg = _inference_config(args, k_per_layer)
    ratios = _parse_float_list(args.removal_ratio)
    out = args.out
    os.makedirs(out, exist_ok=True)
    reports = []
    for r in ratios:
        reports.append(inter_edge_prediction(
            mh, cfg, removal_ratio=r, repeats=args.repeats, seed=args.seed
        ))
    with open(os.path.join(out, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write("removal_ratio,auc_mean,auc_sd\n")
        for rep in reports:
            fh.write("%.17g,%.17g,%.17g\n" % (rep.removal_ratio, rep.auc_mean, rep.auc_sd))
    _write_json(
        os.path.join(out, "summary.json"),
        {"sweep": [rep.to_json_dict() for rep in reports]},
    )
    _write_run_manifest(
        out, "predict-interedges",
        {"manifest": os.path.abspath(args.manifest), "removal_ratio": ratios,
         "repeats": args.repeats, **dataclasses.asdict(cfg)},
    )
    return 0


def _write_synth_outputs(out: str, mh, k_per_layer: list[int]) -> None:
    lines = []
    for l, layer in enumerate(mh.layers):
        write_hyperedge_file(os.path.join(out, f"edges_{l}.txt"), layer)
        lines.append(f"layer.{l}.edges = edges_{l}.txt")
        lines.append(f"layer.{l}.nodes = {layer.num_nodes}")
        lines.append(f"layer.{l}.k = {k_per_layer[l]}")
        if layer.ground_truth is not None:
            write_ground_truth_file(os.path.join(out, f"truth_{l}.txt"), layer.ground_truth)
            lines.append(f"layer.{l}.truth = truth_{l}.txt")
    if mh.inter_edges:
        write_inter_edge_file(os.path.join(out, "inter.txt"), mh.inter_edges)
        lines.append("inter.edges = inter.txt")
    with open(os.path.join(out, "manifest.cfg"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_synth(args) -> int:
    out = args.out
    os.makedirs(out, exist_ok=True)
    counts = _parse_int_list(args.inter_edges)
    if not counts:
        raise ValueError("--inter-edges needs at least one count")
    if args.preset == "planted":
        if len(counts) != 1:
            raise ValueError("the planted preset takes a single inter-edge budget")
        mh = planted_partition(
            num_nodes=args.nodes,
            num_communities=args.communities,
            num_layers=args.layers,
            c_in=args.c_in,
            c_out=args.c_out,
            max_size=args.max_size,
            inter_edge_count=counts[0],
            noise_fraction=args.noise,
            seed=args.seed,
        )
        k_per_layer = [args.communities] * args.layers
    else:
        if not args.source:
            raise ValueError("--source is required for the views preset")
        source = parse_hyperedge_file(args.source, num_nodes=args.nodes or None)
        if not args.truth:
            raise ValueError("--truth is required for the views preset")
        truth = parse_ground_truth_file(args.truth, num_nodes=source.num_nodes)
        source = source.with_ground_truth(truth)
        cfg = SynthConfig(
            sample_fraction=args.sample_fraction,
            num_layers=args.layers,
            inter_edge_count=counts if len(counts) > 1 else counts[0],
            noise_fraction=args.noise,
            seed=args.seed,
        )
        mh = build_views(source, cfg)
        k = len(set(truth.values()))
        k_per_layer = [k] * args.layers
    _write_synth_outputs(out, mh, k_per_layer)
    _write_run_manifest(
        out, "synth",
        {"preset": args.preset, "nodes": args.nodes, "communities": args.communities,
         "layers": args.layers, "c_in": args.c_in, "c_out": args.c_out,
         "max_size": args.max_size, "inter_edges": args.inter_edges,
         "noise": args.noise, "sample_fraction": args.sample_fraction,
         "source": args.source and os.path.abspath(args.source),
         "truth": args.truth and os.path.abspath(args.truth), "seed": args.seed},
    )
    return 0


def _cmd_entropy_report(args) -> int:
    layer = parse_hyperedge_file(args.edges, num_nodes=args.nodes or None)
    report = entropy_report(
        layer,
        threshold=args.threshold,
        normalized=not args.raw_nats,
        base=2.0 if args.base == "2" else float(np.e),
        bins=args.bins,
    )
    out = args.out
    os.makedirs(out, exist_ok=True)
    _write_json(
        os.path.join(out, "entropy.json"),
        {
            "threshold": report.threshold,
            "normalized": report.normalized,
            "num_considered": report.num_considered,
            "num_below": report.num_below,
            "fraction_below": report.fraction_below,
            "histogram_counts": [int(c) for c in report.histogram_counts],
            "histogram_edges": [float(x) for x in report.histogram_edges],
            "size2_total": report.size2_total,
            "size2_contained": report.size2_contained,
            "size2_containment_rate": float(report.size2_containment_rate),
        },
    )
    with open(os.path.join(out, "entropies.csv"), "w", encoding="utf-8") as fh:
        fh.write("entropy\n")
        for v in report.entropies:
            fh.write("%.17g\n" % v)
    _write_run_manifest(
        out, "entropy-report",
        {"edges": os.path.abspath(args.edges), "nodes": args.nodes,
         "threshold": args.threshold, "raw_nats": args.raw_nats,
         "base": args.base, "bins": args.bins, "seed": args.seed},
    )
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperblock",
        description="Overlapping community inference on coupled hypergraphs",
    )
    parser.add_argument("--version", action="version", version=f"hyperblock {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the model and write the latent state")
    p.add_argument("--manifest", required=True)
    _add_fit_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval-communities", help="score a fitted state against ground truth")
    p.add_argument("--manifest", required=True)
    p.add_argument("--state", required=True, help="output directory of a previous fit")
    _add_common(p)
    p.set_defaults(func=_cmd_eval_communities)

    p = sub.add_parser("predict-hyperedges", help="held-out hyperedge AUC via cross-validation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--max-size", type=int, default=None,
                   help="cap of the per-size AUC curve grid")
    _add_fit_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_predict_hyperedges)

    p = sub.add_parser("predict-interedges", help="held-out inter-edge AUC vs removal ratio")
    p.add_argument("--manifest", required=True)
    p.add_argument("--removal-ratio", default="0.0",
                   help="comma-separated removal ratios, e.g. 0,0.1,0.3")
    p.add_argument("--repeats", type=int, default=5)
    _add_fit_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_predict_interedges)

    p = sub.add_parser("synth", help="generate benchmark data plus a ready manifest")
    p.add_argument("--preset", choices=("views", "planted"), required=True)
    p.add_argument("--nodes", type=int, default=60)
    p.add_argument("--communities", type=int, default=3)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--c-in", type=float, default=0.1)
    p.add_argument("--c-out", type=float, default=0.01)
    p.add_argument("--max-size", type=int, default=3)
    p.add_argument("--inter-edges", default="200",
                   help="inter-edge budget, comma-separated per layer pair")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--sample-fraction", type=float, default=0.8)
    p.add_argument("--source", help="hyperedge file to subsample (views preset)")
    p.add_argument("--truth", help="ground-truth file of the source (views preset)")
    _add_common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("entropy-report", help="within-edge contribution entropy summary")
    p.add_argument("--edges", required=True)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--threshold", type=float, default=0.6)
    p.add_argument("--raw-nats", action="store_true",
                   help="report raw entropies instead of normalizing by log size")
    p.add_argument("--base", choices=("e", "2"), default="e")
    p.add_argument("--bins", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=_cmd_entropy_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
