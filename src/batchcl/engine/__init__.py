"""Array-level train-step arithmetic and optimizers used by the rest of the package."""

from .autodiff import (
    GraphError,
    NonFiniteError,
    batch_norm_arrays,
    batch_norm_grads,
    check_finite,
    dropout_mask,
    dropout_multiplier,
    fold_batch_stats,
    loss_and_grads,
    softmax_cross_entropy,
    stacked_distance,
)
from .optim import SGD, PlateauScheduler, train_epochs

__all__ = [
    "GraphError",
    "NonFiniteError",
    "batch_norm_arrays",
    "batch_norm_grads",
    "check_finite",
    "dropout_mask",
    "dropout_multiplier",
    "fold_batch_stats",
    "loss_and_grads",
    "softmax_cross_entropy",
    "stacked_distance",
    "SGD",
    "PlateauScheduler",
    "train_epochs",
]
