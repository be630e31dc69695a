"""Numpy tape autodiff and optimizers used by the rest of the package."""

from .autodiff import (
    GraphError,
    NonFiniteError,
    Tensor,
    add,
    backward,
    batch_norm_arrays,
    batch_norm_grads,
    dropout_mask,
    gradients,
    loss_and_grads,
    scale,
    softmax_cross_entropy,
    stacked_distance,
)
from .optim import SGD, PlateauScheduler, train_epochs

__all__ = [
    "GraphError",
    "NonFiniteError",
    "Tensor",
    "add",
    "backward",
    "batch_norm_arrays",
    "batch_norm_grads",
    "dropout_mask",
    "gradients",
    "loss_and_grads",
    "scale",
    "softmax_cross_entropy",
    "stacked_distance",
    "SGD",
    "PlateauScheduler",
    "train_epochs",
]
