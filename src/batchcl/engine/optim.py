"""Plain SGD, a reduce-on-plateau learning-rate schedule, and the one epoch
loop every trainer runs them in."""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, MutableMapping

import numpy as np

from .autodiff import NonFiniteError

PLATEAU_FACTOR = 0.5
PLATEAU_PATIENCE = 5
PLATEAU_MIN_DELTA = 1e-4
MIN_LR = 1e-5


class SGD:
    """Vanilla stochastic gradient descent (no momentum, no weight decay).

    Holds a mutable learning rate so a scheduler can adjust it between
    epochs. Updates are applied in place to the parameter arrays, and only
    once every gradient is finite: a non-finite one raises
    :class:`NonFiniteError` naming its parameter before any array moves.
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
        # one check per step: an inf or nan entry makes the sum of all
        # entries non-finite, and only then is each gradient scanned (a sum
        # of finite entries that merely overflowed passes the scan)
        if not np.isfinite(sum([np.add.reduce(g, axis=None) for g in grads.values()])):
            for name, g in grads.items():
                if not np.isfinite(g).all():
                    raise NonFiniteError(f"non-finite gradient for parameter '{name}'")
        for name, g in grads.items():
            p = params[name]
            p -= np.asarray(self.lr, dtype=p.dtype) * g.astype(p.dtype, copy=False)


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
    params: MutableMapping[str, np.ndarray],
    lr: float,
    epochs: int,
    batches: Callable[[], Iterable],
    step: Callable[[object], tuple[float, Mapping[str, np.ndarray]]],
) -> list[float]:
    """Train ``params`` in place for ``epochs`` epochs; returns each epoch's mean loss.

    A fresh :class:`SGD` at ``lr`` and a fresh :class:`PlateauScheduler`
    serve the whole call. Each epoch iterates ``batches()`` and, per batch,
    takes ``(loss value, grads) = step(batch)`` and applies one SGD update.
    The scheduler then sees the epoch's mean loss. An epoch without batches
    adds no mean and leaves the learning rate alone. A non-finite gradient
    raises :class:`NonFiniteError` from the update.
    """
    opt = SGD(lr)
    sched = PlateauScheduler(opt)
    means: list[float] = []
    for _ in range(epochs):
        losses = []
        for batch in batches():
            value, grads = step(batch)
            opt.step(params, grads)
            losses.append(value)
        if losses:
            means.append(float(np.mean(losses)))
            sched.step(means[-1])
    return means
