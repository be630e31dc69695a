"""Exemplar stores for rehearsal.

Two kinds of store exist: per-expert Buffers (filled from one task,
uploaded once, then discarded) and the central Memory (fixed capacity,
refreshed after every consolidation). Exemplars are kept columnar — one
feature matrix plus parallel label/task/origin arrays — since stores are
sliced and concatenated far more often than inspected row by row.

Origin tags record where each pooled exemplar came from in the current
step: ``ORIGIN_MEMORY`` (-1) or the contributing buffer's expert index.

Buffers are sampled at random or by per-example gradient norm; the norms
come from the model's one batched eval pass
(``ResidualClassifier.per_example_grad_norms``), not a graph per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ORIGIN_MEMORY = -1

SAMPLING_STRATEGIES = ("random", "grad_max_base", "grad_min_expert")


@dataclass(frozen=True)
class ExemplarSet:
    """Immutable columnar collection of exemplars."""

    features: np.ndarray  # (n, d) float32
    labels: np.ndarray  # (n,) global class ids
    task_ids: np.ndarray  # (n,)
    origins: np.ndarray  # (n,) ORIGIN_MEMORY or buffer owner index

    def __post_init__(self):
        n = len(self.labels)
        if self.features.shape[0] != n or len(self.task_ids) != n or len(self.origins) != n:
            raise ValueError("columnar arrays disagree on exemplar count")
        if self.features.dtype != np.float32:
            raise ValueError(f"features must be float32, got {self.features.dtype}")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @classmethod
    def empty(cls, dim: int) -> "ExemplarSet":
        return cls(
            features=np.empty((0, dim), dtype=np.float32),
            labels=np.empty(0, dtype=np.int64),
            task_ids=np.empty(0, dtype=np.int64),
            origins=np.empty(0, dtype=np.int64),
        )

    @classmethod
    def from_task_data(
        cls, features: np.ndarray, labels: np.ndarray, task_id: int, origin: int
    ) -> "ExemplarSet":
        n = len(labels)
        return cls(
            features=np.asarray(features, dtype=np.float32),
            labels=np.asarray(labels, dtype=np.int64),
            task_ids=np.full(n, task_id, dtype=np.int64),
            origins=np.full(n, origin, dtype=np.int64),
        )

    def take(self, idx: np.ndarray) -> "ExemplarSet":
        return ExemplarSet(
            features=self.features[idx],
            labels=self.labels[idx],
            task_ids=self.task_ids[idx],
            origins=self.origins[idx],
        )

    def with_origin(self, origin: int) -> "ExemplarSet":
        return ExemplarSet(
            features=self.features,
            labels=self.labels,
            task_ids=self.task_ids,
            origins=np.full(len(self), origin, dtype=np.int64),
        )

    @staticmethod
    def concat(parts: list["ExemplarSet"]) -> "ExemplarSet":
        if not parts:
            raise ValueError("nothing to concatenate")
        return ExemplarSet(
            features=np.concatenate([p.features for p in parts]),
            labels=np.concatenate([p.labels for p in parts]),
            task_ids=np.concatenate([p.task_ids for p in parts]),
            origins=np.concatenate([p.origins for p in parts]),
        )


@dataclass(frozen=True)
class Buffer:
    """One expert's exemplar subset, uploaded once per step then discarded."""

    exemplars: ExemplarSet
    capacity: int
    owner: int

    def __post_init__(self):
        if len(self.exemplars) > self.capacity:
            raise ValueError(
                f"buffer over capacity: {len(self.exemplars)} > {self.capacity}"
            )
        owners = np.unique(self.exemplars.task_ids)
        if len(owners) > 1:
            raise ValueError(f"buffer mixes tasks {owners.tolist()}")

    def __len__(self) -> int:
        return len(self.exemplars)


class Memory:
    """Central fixed-capacity store; only the consolidation phase reads it."""

    def __init__(self, capacity: int, dim: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._exemplars = ExemplarSet.empty(dim)

    @property
    def exemplars(self) -> ExemplarSet:
        return self._exemplars

    def __len__(self) -> int:
        return len(self._exemplars)

    def replace(self, exemplars: ExemplarSet) -> None:
        if len(exemplars) > self.capacity:
            raise ValueError(
                f"memory over capacity: {len(exemplars)} > {self.capacity}"
            )
        self._exemplars = exemplars.with_origin(ORIGIN_MEMORY)


def sample_buffer(
    features: np.ndarray,
    labels: np.ndarray,
    task_id: int,
    capacity: int,
    strategy: str,
    seed: int,
    owner: int,
    base_model=None,
    expert_model=None,
) -> Buffer:
    """Select up to ``capacity`` task exemplars for upload.

    ``random`` draws uniformly without replacement; ``grad_max_base`` keeps
    the examples with the largest per-example task-loss gradient norm under
    the base model; ``grad_min_expert`` keeps the smallest under the trained
    expert. If the task fits within capacity, everything is kept. The
    norms of all rows come from one batched eval pass of the model, which
    builds no tape and leaves the model untouched.
    """
    n = len(labels)
    data = ExemplarSet.from_task_data(features, labels, task_id, origin=owner)
    if n <= capacity:
        return Buffer(exemplars=data, capacity=capacity, owner=owner)
    if strategy == "random":
        idx = np.random.default_rng(seed).choice(n, size=capacity, replace=False)
        idx.sort()
    elif strategy in ("grad_max_base", "grad_min_expert"):
        largest = strategy == "grad_max_base"
        model, role = (base_model, "base") if largest else (expert_model, "expert")
        if model is None:
            raise ValueError(f"{strategy} needs the {role} model")
        norms = model.per_example_grad_norms(data.features, data.labels)
        # stable sort: ties resolve to lower index
        idx = np.argsort(-norms if largest else norms, kind="stable")[:capacity]
        idx.sort()
    else:
        raise ValueError(
            f"unknown sampling strategy {strategy!r}; expected one of {SAMPLING_STRATEGIES}"
        )
    return Buffer(exemplars=data.take(idx), capacity=capacity, owner=owner)


def merge_pool(memory: Memory, buffers: list[Buffer]) -> ExemplarSet:
    """Pool for consolidation: memory contents plus every uploaded buffer.

    Pure concatenation — duplicates stay duplicated, inputs untouched,
    origin tags preserved.
    """
    parts = [memory.exemplars] + [b.exemplars for b in buffers]
    parts = [p for p in parts if len(p) > 0]
    if not parts:
        return ExemplarSet.empty(memory.exemplars.dim)
    return ExemplarSet.concat(parts)


def subsample_memory(pool: ExemplarSet, capacity: int, seed: int) -> ExemplarSet:
    """Shrink a pool to ``capacity`` with per-task-balanced quotas.

    Each task present gets ⌊capacity / #tasks⌋ uniformly chosen slots
    (or all its exemplars if it has fewer); any remaining slots are filled
    uniformly from the leftovers. Guarantees every sufficiently represented
    task keeps at least its quota, so no task is crowded out by recency.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if len(pool) <= capacity:
        return pool
    rng = np.random.default_rng(seed)
    tasks = np.unique(pool.task_ids)
    quota = capacity // len(tasks)
    chosen: list[np.ndarray] = []
    leftovers: list[np.ndarray] = []
    for t in tasks:
        idx = np.flatnonzero(pool.task_ids == t)
        if len(idx) <= quota:
            chosen.append(idx)
        else:
            pick = rng.choice(len(idx), size=quota, replace=False)
            mask = np.zeros(len(idx), dtype=bool)
            mask[pick] = True
            chosen.append(idx[mask])
            leftovers.append(idx[~mask])
    n_chosen = sum(len(c) for c in chosen)
    remainder = capacity - n_chosen
    if remainder > 0 and leftovers:
        rest = np.concatenate(leftovers)
        take = min(remainder, len(rest))
        pick = rng.choice(len(rest), size=take, replace=False)
        chosen.append(rest[np.sort(pick)])
    out = np.sort(np.concatenate(chosen))
    return pool.take(out)


def draw_batch(pool: ExemplarSet, batch_size: int, rng: np.random.Generator) -> ExemplarSet:
    """Uniform-with-replacement minibatch over the whole pool."""
    if len(pool) == 0:
        raise ValueError("cannot draw from an empty pool")
    idx = rng.integers(0, len(pool), size=batch_size)
    return pool.take(idx)
