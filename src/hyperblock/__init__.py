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
    HypergraphLayer,
    InterEdgeSet,
    MultiHypergraph,
    load_manifest,
    parse_ground_truth_file,
    parse_hyperedge_file,
    parse_inter_edge_file,
)
from .internal_degree import (
    SubHyperedgeCounter,
    entropy_report,
    theta_table,
)
from .likelihood import (
    DegenerateStateError,
    LatentState,
    RateCarry,
    layer_constants,
    mu,
    sample_negatives,
)
from .inference import (
    EMEngine,
    FitFailureError,
    FitResult,
    InferenceConfig,
    NonFiniteUpdateError,
    RestartOutcome,
    fit,
    initialize,
)
from .evaluation import (
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
    "HypergraphLayer",
    "InterEdgeSet",
    "MultiHypergraph",
    "parse_hyperedge_file",
    "parse_inter_edge_file",
    "parse_ground_truth_file",
    "load_manifest",
    "SubHyperedgeCounter",
    "theta_table",
    "entropy_report",
    "DegenerateStateError",
    "LatentState",
    "RateCarry",
    "mu",
    "sample_negatives",
    "layer_constants",
    "InferenceConfig",
    "FitResult",
    "RestartOutcome",
    "EMEngine",
    "FitFailureError",
    "NonFiniteUpdateError",
    "initialize",
    "fit",
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
