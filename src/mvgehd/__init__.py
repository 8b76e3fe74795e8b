"""Auto-weighted multi-view graph embedding with hub detection.

Fits one orthonormal node embedding across several affinity views of the
same node set, adaptively weighting the views while driving the rows of
boundary-spanning nodes (hubs) toward zero. Includes the downstream
pipeline: hub scoring and selection, node clustering, subject-level
clustering from embedding distances, ACC/NMI evaluation, and a seeded
synthetic generator with planted modules and hubs.

Lower-level pieces (the per-view operator, eigensolver and metric helpers)
stay importable from their submodules.

Importing the package loads numpy but no SciPy module: each is imported
inside the function that calls it, so a command-line stage loads only the
SciPy it uses.
"""

from .graph import (
    GraphValidationError,
    IsolatedNodeError,
    MultiViewGraph,
    load_matrix_csv,
    load_multiview,
    save_matrix_csv,
    save_multiview,
)
from .solver import EmbedConfig, SolveTrace, solve
from .hubs import HubReport, betweenness, hub_report, hub_scores, remove_hub_edges
from .clustering import (
    KMeansConfig,
    cluster_subjects,
    kmeans,
    node_clusters,
    pairwise_similarity,
)
from .metrics import EvalResult, accuracy, evaluate, nmi
from .synth import (
    PlantedSpec,
    PlantedTruth,
    generate_cohort,
    generate_multiview,
)

__version__ = "0.1.0"

__all__ = [
    "EmbedConfig", "EvalResult", "GraphValidationError", "HubReport",
    "IsolatedNodeError", "KMeansConfig", "MultiViewGraph", "PlantedSpec",
    "PlantedTruth", "SolveTrace", "accuracy", "betweenness",
    "cluster_subjects", "evaluate", "generate_cohort", "generate_multiview",
    "hub_report", "hub_scores", "kmeans", "load_matrix_csv",
    "load_multiview", "nmi", "node_clusters", "pairwise_similarity",
    "remove_hub_edges", "save_matrix_csv", "save_multiview", "solve",
]
