"""Plain SGD, a reduce-on-plateau learning-rate schedule, and the one epoch
loop every trainer runs them in."""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from .autodiff import check_finite

PLATEAU_FACTOR = 0.5
PLATEAU_PATIENCE = 5
PLATEAU_MIN_DELTA = 1e-4
MIN_LR = 1e-5


class SGD:
    """Vanilla stochastic gradient descent (no momentum, no weight decay).

    Holds a mutable learning rate so a scheduler can adjust it between
    epochs. A step updates one flat parameter array in place from one flat
    gradient of the same layout, and only once every entry is finite: a
    non-finite one raises :class:`NonFiniteError` naming the parameter
    whose slice holds it before anything moves. The step spends the
    gradient: it scales it by the learning rate in place, so no temporary
    the size of the model is made.
    """

    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = float(lr)

    def step(self, params: np.ndarray, grads: np.ndarray, slices: Mapping[str, slice]) -> None:
        """``params -= lr * grads``, scaling ``grads`` in place; ``slices``
        names each parameter's slice."""
        check_finite(grads, slices, "gradient for parameter")
        step = grads.astype(params.dtype, copy=False)
        step *= np.asarray(self.lr, dtype=params.dtype)
        params -= step


class PlateauScheduler:
    """Multiply the LR by ``PLATEAU_FACTOR`` once more than
    ``PLATEAU_PATIENCE`` epochs in a row bring no improvement.

    An epoch counts as an improvement when its monitored value drops below
    the best seen so far by more than ``PLATEAU_MIN_DELTA``. The counter
    resets on improvement and after each reduction. ``MIN_LR`` floors the
    decay.
    """

    def __init__(self, optimizer: SGD):
        self.optimizer = optimizer
        self.best: float | None = None
        self.bad_epochs = 0

    def step(self, metric: float) -> float:
        """Record one epoch's monitored value; returns the (possibly new) LR."""
        metric = float(metric)
        if self.best is None or metric < self.best - PLATEAU_MIN_DELTA:
            self.best = metric
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs > PLATEAU_PATIENCE:
                self.optimizer.lr = max(self.optimizer.lr * PLATEAU_FACTOR, MIN_LR)
                self.bad_epochs = 0
        return self.optimizer.lr


def train_epochs(
    params: np.ndarray,
    slices: Mapping[str, slice],
    lr: float,
    epochs: int,
    batches: Callable[[], Iterable],
    step: Callable[[object], tuple[float, np.ndarray]],
) -> list[float]:
    """Train the flat parameter array ``params`` in place for ``epochs``
    epochs; returns each epoch's mean loss.

    ``params`` is a model's ``flat_params``, the parameter region of its
    arena (a stack's slice 0 when a student trains in a stack), and
    ``slices`` names each parameter's slice of it. A fresh :class:`SGD` at
    ``lr`` and a fresh :class:`PlateauScheduler` serve the whole call. Each
    epoch iterates ``batches()`` and, per batch, takes ``(loss value,
    grads) = step(batch)``, a flat gradient laid out like ``params``, and
    applies one SGD update. The scheduler then sees the epoch's mean loss.
    An epoch without batches adds no mean and leaves the learning rate
    alone. A non-finite gradient raises :class:`NonFiniteError` from the
    update.
    """
    opt = SGD(lr)
    sched = PlateauScheduler(opt)
    means: list[float] = []
    for _ in range(epochs):
        losses = []
        for batch in batches():
            value, grads = step(batch)
            opt.step(params, grads, slices)
            losses.append(value)
        if losses:
            means.append(float(np.mean(losses)))
            sched.step(means[-1])
    return means
