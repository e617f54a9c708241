"""Overlapping community inference on coupled hypergraphs.

A multi-hypergraph is a set of hypergraph layers joined by weighted
inter-layer node links.  The model assigns every node a non-negative
mixed membership over communities and every layer (and layer pair) a
community affinity matrix; hyperedge weights and inter-edges are Poisson
with rates bilinear in the memberships.  EM fitting, hyperedge and
inter-edge prediction, synthetic benchmarks and recovery metrics are all
importable here; the ``hyperblock`` executable wires them into a CLI.
"""

from .core import (
    Hyperedge,
    HypergraphLayer,
    InterEdgeSet,
    MultiHypergraph,
    load_manifest,
    make_hyperedge,
    parse_ground_truth_file,
    parse_hyperedge_file,
    parse_inter_edge_file,
)
from .internal_degree import (
    SubHyperedgeCounter,
    compute_theta,
    count_sub_hyperedges,
    entropy_report,
    hyperedge_entropy,
    theta_table,
)
from .likelihood import (
    DegenerateStateError,
    LatentState,
    LayerConstants,
    lambda_e,
    lambda_ij,
    layer_constants,
    mu,
    sample_negatives,
    surrogate_objective,
)
from .inference import (
    EMEngine,
    FitFailureError,
    FitResult,
    InferenceConfig,
    NonFiniteUpdateError,
    RestartOutcome,
    e_step_hyperedge,
    e_step_pair,
    fit,
    initialize,
)
from .evaluation import (
    PartitionPair,
    auc,
    community_f1,
    cosine_similarity,
    hard_labels,
    hyperedge_prediction_cv,
    inter_edge_prediction,
    nmi,
    score_hyperedge,
    select_k,
)
from .synth import (
    SynthConfig,
    build_views,
    planted_partition,
    remove_inter_edges,
    sample_from_model,
)

__version__ = "0.1.0"

__all__ = [
    "Hyperedge",
    "HypergraphLayer",
    "InterEdgeSet",
    "MultiHypergraph",
    "make_hyperedge",
    "parse_hyperedge_file",
    "parse_inter_edge_file",
    "parse_ground_truth_file",
    "load_manifest",
    "SubHyperedgeCounter",
    "count_sub_hyperedges",
    "compute_theta",
    "hyperedge_entropy",
    "theta_table",
    "entropy_report",
    "DegenerateStateError",
    "LatentState",
    "LayerConstants",
    "mu",
    "lambda_e",
    "lambda_ij",
    "sample_negatives",
    "layer_constants",
    "surrogate_objective",
    "InferenceConfig",
    "FitResult",
    "RestartOutcome",
    "EMEngine",
    "FitFailureError",
    "NonFiniteUpdateError",
    "initialize",
    "e_step_hyperedge",
    "e_step_pair",
    "fit",
    "PartitionPair",
    "hard_labels",
    "nmi",
    "community_f1",
    "cosine_similarity",
    "auc",
    "score_hyperedge",
    "hyperedge_prediction_cv",
    "inter_edge_prediction",
    "select_k",
    "SynthConfig",
    "build_views",
    "remove_inter_edges",
    "sample_from_model",
    "planted_partition",
]
