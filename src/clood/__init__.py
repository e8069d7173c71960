"""Cluster-aware contrastive learning for unsupervised OOD detection,
with closed-form loss gradients, spherical k-means pseudo-labeling, and
AUROC-based evaluation on synthetic vector data."""

from .config import TrainConfig, benchmark_config
from .data import DatasetBundle, DatasetSpec, augment, generate_synthetic
from .train import evaluate, load_checkpoint, save_checkpoint

__all__ = [
    "TrainConfig",
    "benchmark_config",
    "DatasetBundle",
    "DatasetSpec",
    "augment",
    "generate_synthetic",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
]
