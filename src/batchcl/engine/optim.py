"""Plain SGD and a reduce-on-plateau learning-rate schedule."""

from __future__ import annotations

from typing import Mapping, MutableMapping

import numpy as np

from .autodiff import NonFiniteError


class SGD:
    """Vanilla stochastic gradient descent (no momentum, no weight decay).

    Holds a mutable learning rate so a scheduler can adjust it between
    epochs. Updates are applied in place to the parameter arrays.
    """

    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = float(lr)

    def step(
        self,
        params: MutableMapping[str, np.ndarray],
        grads: Mapping[str, np.ndarray],
    ) -> None:
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(f"non-finite gradient for parameter '{name}'")
            p = params[name]
            p -= np.asarray(self.lr, dtype=p.dtype) * g.astype(p.dtype, copy=False)


class PlateauScheduler:
    """Multiply the LR by ``factor`` after ``patience`` epochs without improvement.

    An epoch counts as an improvement when its monitored value drops below
    the best seen so far by more than ``min_delta``. The counter resets on
    improvement and after each reduction. ``min_lr`` floors the decay.
    """

    def __init__(
        self,
        optimizer: SGD,
        factor: float = 0.5,
        patience: int = 5,
        min_delta: float = 1e-4,
        min_lr: float = 1e-5,
    ):
        if not 0.0 < factor < 1.0:
            raise ValueError(f"factor must be in (0, 1), got {factor}")
        if patience < 0:
            raise ValueError(f"patience must be >= 0, got {patience}")
        self.optimizer = optimizer
        self.factor = float(factor)
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.min_lr = float(min_lr)
        self.best: float | None = None
        self.bad_epochs = 0

    def step(self, metric: float) -> float:
        """Record one epoch's monitored value; returns the (possibly new) LR."""
        metric = float(metric)
        if self.best is None or metric < self.best - self.min_delta:
            self.best = metric
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs > self.patience:
                self.optimizer.lr = max(self.optimizer.lr * self.factor, self.min_lr)
                self.bad_epochs = 0
        return self.optimizer.lr
