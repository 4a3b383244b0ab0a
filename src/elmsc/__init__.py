"""Multi-view subspace clustering via an augmented latent representation.

The package builds an augmented cross-view data matrix, solves a
latent-representation self-expression objective with an alternating
multiplier method, aggregates the block representation, and clusters it
spectrally. See the cli module for the end-to-end command-line pipeline.
It exports the pipeline's names; every other one is in its own module.
"""

from .dataset import (
    DatasetError,
    MultiViewDataset,
    build_augmented,
    default_pca_components,
    gen_synthetic,
    load_dataset,
)
from .metrics import LabelPair, acc, all_metrics, ari, nmi, pairwise_f1
from .numerics import NumericalError
from .solver import ElmscConfig, aggregate_z, run
from .spectral import cluster

__all__ = [
    "DatasetError",
    "ElmscConfig",
    "LabelPair",
    "MultiViewDataset",
    "NumericalError",
    "acc",
    "aggregate_z",
    "all_metrics",
    "ari",
    "build_augmented",
    "cluster",
    "default_pca_components",
    "gen_synthetic",
    "load_dataset",
    "nmi",
    "pairwise_f1",
    "run",
]

__version__ = "0.1.0"
