"""Multi-view subspace clustering via an augmented latent representation.

The package builds an augmented cross-view data matrix, solves a
latent-representation self-expression objective with an alternating
multiplier method, aggregates the block representation, and clusters it
spectrally. See the cli module for the end-to-end command-line pipeline.
"""

from .dataset import (
    AugmentedMatrix,
    DatasetError,
    MultiViewDataset,
    build_augmented,
    cosine_similarity,
    default_pca_components,
    gen_synthetic,
    load_dataset,
)
from .metrics import (
    EvalReport,
    LabelPair,
    acc,
    aggregate_trials,
    all_metrics,
    ari,
    nmi,
    pairwise_f1,
)
from .numerics import (
    NumericalError,
    SylvesterSingularError,
    col_l21_prox,
    orthogonal_procrustes,
    pca_reduce,
    soft_threshold,
    solve_sylvester,
    spd_solve,
    svd,
    sym_eig,
)
from .solver import (
    AdmmState,
    ConvergenceTrace,
    ElmscConfig,
    KktReport,
    SolverOutput,
    aggregate_z,
    effective_data,
    kkt_residuals,
    run,
)
from .spectral import ClusteringResult, cluster, kmeans, spectral_embed

__all__ = [
    "AdmmState",
    "AugmentedMatrix",
    "ClusteringResult",
    "ConvergenceTrace",
    "DatasetError",
    "ElmscConfig",
    "EvalReport",
    "KktReport",
    "LabelPair",
    "MultiViewDataset",
    "NumericalError",
    "SolverOutput",
    "SylvesterSingularError",
    "acc",
    "aggregate_trials",
    "aggregate_z",
    "all_metrics",
    "ari",
    "build_augmented",
    "cluster",
    "col_l21_prox",
    "cosine_similarity",
    "default_pca_components",
    "effective_data",
    "gen_synthetic",
    "kkt_residuals",
    "kmeans",
    "load_dataset",
    "nmi",
    "orthogonal_procrustes",
    "pairwise_f1",
    "pca_reduce",
    "run",
    "soft_threshold",
    "solve_sylvester",
    "spd_solve",
    "spectral_embed",
    "svd",
    "sym_eig",
]

__version__ = "0.1.0"
