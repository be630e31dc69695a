"""Task streams and class-incremental evaluation.

A stream is an ordered list of tasks with pairwise-disjoint global class
ranges; :func:`ranges_overlap` is the one rule that decides disjointness,
for streams, stream files and the tasks of one step. Two synthetic
generators are provided — ``permuted`` (one base dataset seen through
per-task input permutations, the classic forgetting benchmark) and
``split_synthetic`` (fresh Gaussian clusters per task) — plus a binary file
format so externally extracted feature datasets can be ingested without
this package knowing how they were produced.

Evaluation is strictly class-incremental: the predictor sees a feature
vector and answers with a class id from the union of everything learned
so far; task identity never reaches the model at test time.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

STREAM_MAGIC = b"CLFS"
STREAM_VERSION = 1

STREAM_KINDS = ("permuted", "split_synthetic")


class StreamFormatError(ValueError):
    """Malformed stream file (bad magic/version, truncation, inconsistent
    dims, more class ids than a task header declares)."""


def ranges_overlap(ranges) -> bool:
    """Whether any two half-open ``(lo, hi)`` class ranges share an id
    (sorted, a range overlaps an earlier one iff it overlaps its predecessor)."""
    ordered = sorted(ranges)
    return any(lo < prev_hi for (_, prev_hi), (lo, _) in zip(ordered, ordered[1:]))


@dataclass(frozen=True)
class Task:
    """One labeled dataset with an exclusive global class-id range."""

    task_id: int
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    class_lo: int
    class_hi: int  # exclusive

    def __post_init__(self):
        if len(self.val_y) == 0:
            raise ValueError(f"task {self.task_id}: validation split is empty")
        if self.train_x.shape[1] != self.val_x.shape[1]:
            raise ValueError(f"task {self.task_id}: train/val dim mismatch")
        for y in (self.train_y, self.val_y):
            if len(y) and (y.min() < self.class_lo or y.max() >= self.class_hi):
                raise ValueError(
                    f"task {self.task_id}: labels outside [{self.class_lo}, {self.class_hi})"
                )

    @property
    def dim(self) -> int:
        return self.train_x.shape[1]

    @property
    def num_classes(self) -> int:
        return self.class_hi - self.class_lo


@dataclass(frozen=True)
class TaskStream:
    tasks: tuple[Task, ...]

    def __post_init__(self):
        if ranges_overlap((t.class_lo, t.class_hi) for t in self.tasks):
            raise ValueError("task class ranges overlap")
        dims = {t.dim for t in self.tasks}
        if len(dims) > 1:
            raise ValueError(f"tasks disagree on feature dim: {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def dim(self) -> int:
        return self.tasks[0].dim

    @property
    def total_classes(self) -> int:
        return max(t.class_hi for t in self.tasks)


def _sample_clusters(
    rng: np.random.Generator,
    means: np.ndarray,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` points split as evenly as possible over the cluster means."""
    c = len(means)
    per = np.full(c, count // c)
    per[: count % c] += 1
    xs, ys = [], []
    for cls, n in enumerate(per):
        xs.append(means[cls] + rng.standard_normal((n, means.shape[1])))
        ys.append(np.full(n, cls, dtype=np.int64))
    x = np.concatenate(xs).astype(np.float32)
    y = np.concatenate(ys)
    order = rng.permutation(len(y))
    return x[order], y[order]


def generate_stream(
    kind: str,
    n_tasks: int,
    classes_per_task: int,
    dim: int,
    train_per_task: int,
    val_per_task: int,
    seed: int,
    separation: float = 3.0,
) -> TaskStream:
    """Build a synthetic stream.

    ``permuted``: one base Gaussian-cluster dataset; task t applies a fixed
    random permutation of input coordinates (task 0 is the identity).
    ``split_synthetic``: every task draws brand-new cluster means. Task t's
    labels fill the class-id block starting at ``t * classes_per_task``;
    ``separation`` scales how far apart class means sit (0 makes all
    classes indistinguishable).
    """
    if kind not in STREAM_KINDS:
        raise ValueError(f"unknown stream kind {kind!r}; expected one of {STREAM_KINDS}")
    if min(n_tasks, classes_per_task, dim, train_per_task, val_per_task) < 1:
        raise ValueError("all stream size parameters must be >= 1")
    if classes_per_task > train_per_task or classes_per_task > val_per_task:
        raise ValueError("need at least one example per class in each split")
    if separation < 0:
        raise ValueError(f"separation must be >= 0, got {separation}")
    rng = np.random.default_rng(seed)

    def draw() -> tuple[np.ndarray, ...]:  # fresh means, then train and val samples
        means = rng.standard_normal((classes_per_task, dim)) * separation
        return (*_sample_clusters(rng, means, train_per_task),
                *_sample_clusters(rng, means, val_per_task))

    if kind == "permuted":
        base = draw()
    tasks = []
    for t in range(n_tasks):
        if kind == "permuted":
            perm = np.arange(dim) if t == 0 else rng.permutation(dim)
            train_x, train_y, val_x, val_y = base
            train_x, val_x = train_x[:, perm], val_x[:, perm]
        else:
            train_x, train_y, val_x, val_y = draw()
        lo = t * classes_per_task
        tasks.append(Task(t, train_x, train_y + lo, val_x, val_y + lo, lo, lo + classes_per_task))
    return TaskStream(tasks=tuple(tasks))


# ---------------------------------------------------------------------------
# binary stream files
#
# Little-endian layout:
#   magic "CLFS" | version u16 | task count u32
#   per task: task id u32 | class count u32 | dim u32
#             | train count u64 | val count u64
#             | train rows | val rows
#   row: dim x float32 features | class id u32
# ---------------------------------------------------------------------------


def _row_dtype(dim: int) -> np.dtype:
    return np.dtype([("x", "<f4", (dim,)), ("y", "<u4")])


def save_stream(stream: TaskStream, path: str) -> None:
    with open(path, "wb") as f:
        f.write(STREAM_MAGIC)
        f.write(struct.pack("<HI", STREAM_VERSION, len(stream)))
        for t in stream.tasks:
            f.write(
                struct.pack(
                    "<IIIQQ",
                    t.task_id,
                    t.num_classes,
                    t.dim,
                    len(t.train_y),
                    len(t.val_y),
                )
            )
            for x, y in ((t.train_x, t.train_y), (t.val_x, t.val_y)):
                rows = np.empty(len(y), dtype=_row_dtype(t.dim))
                rows["x"] = x
                rows["y"] = y
                f.write(rows.tobytes())


def load_feature_stream(path: str) -> TaskStream:
    """Read a stream file, validating structure and re-basing class ids if needed.

    Tasks materialize in file order, each with the class range
    ``[min id, max id + 1)`` of its rows. A task whose rows carry more
    distinct ids than its header's class count is malformed. If no two
    tasks' ranges overlap, the file's ids are kept; otherwise every task's
    ids are remapped (file order, ascending original id) onto consecutive
    global blocks, and the remap is reported through the module logger.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != STREAM_MAGIC:
        raise StreamFormatError(
            f"bad magic {blob[:4]!r} at byte 0, expected {STREAM_MAGIC!r}"
        )
    try:
        version, n_tasks = struct.unpack_from("<HI", blob, 4)
    except struct.error:
        raise StreamFormatError("truncated header at byte 4") from None
    if version != STREAM_VERSION:
        raise StreamFormatError(f"unsupported version {version}")
    if n_tasks == 0:
        raise StreamFormatError("task count 0 at byte 6: a stream needs at least one task")
    off = 10
    raw = []
    dim0: int | None = None
    for _ in range(n_tasks):
        header_at = off
        if off + 28 > len(blob):
            raise StreamFormatError(f"truncated task header at byte {off}")
        task_id, n_classes, dim, n_train, n_val = struct.unpack_from("<IIIQQ", blob, off)
        for split, count in (("train", n_train), ("validation", n_val)):
            if count == 0:
                raise StreamFormatError(
                    f"task {task_id}: no rows in its {split} split (header at byte {header_at})"
                )
        off += 28
        if dim0 is None:
            dim0 = dim
        elif dim != dim0:
            raise StreamFormatError(
                f"task {task_id}: dim {dim} != stream dim {dim0} (header at byte {header_at})"
            )
        rows_dt = _row_dtype(dim)
        xs, ys = [], []
        for count in (n_train, n_val):
            nbytes = count * rows_dt.itemsize
            if off + nbytes > len(blob):
                raise StreamFormatError(f"truncated payload at byte {off}")
            rows = np.frombuffer(blob, dtype=rows_dt, count=count, offset=off)
            off += nbytes
            xs.append(rows["x"].copy())
            ys.append(rows["y"])
        labels = np.concatenate(ys)
        classes, inverse = np.unique(labels, return_inverse=True)
        if len(classes) > n_classes:
            raise StreamFormatError(f"task {task_id}: {len(classes)} distinct class ids, but "
                                    f"its header declares {n_classes} (header at byte {header_at})")
        raw.append((task_id, xs, labels, classes, inverse))
    if off != len(blob):
        raise StreamFormatError(f"{len(blob) - off} trailing bytes at byte {off}")

    ranges = [(int(classes[0]), int(classes[-1]) + 1) for *_, classes, _ in raw]
    rebase = ranges_overlap(ranges)
    tasks = []
    next_lo = 0
    for (task_id, (train_x, val_x), labels, classes, inverse), (lo, hi) in zip(raw, ranges):
        if rebase:
            lo, hi = next_lo, next_lo + len(classes)
            next_lo = hi
            labels = inverse + lo
            logger.info(
                "task %d: class ranges overlap; re-based %d classes onto [%d, %d)",
                task_id, len(classes), lo, hi,
            )
        labels = labels.astype(np.int64, copy=False)
        n = len(train_x)
        tasks.append(Task(task_id, train_x, labels[:n], val_x, labels[n:], lo, hi))
    return TaskStream(tasks=tuple(tasks))


# ---------------------------------------------------------------------------
# class-incremental evaluation and metrics
# ---------------------------------------------------------------------------


def evaluate_cil(model, tasks_seen: list[Task]) -> dict[int, float]:
    """Per-task validation accuracy with prediction over ALL seen classes.

    The model answers with a global class id; a validation example counts
    as correct only when the argmax over every registered class lands on
    its label. No task mask is ever applied.
    """
    universe = max(t.class_hi for t in tasks_seen)
    if getattr(model, "classes", universe) < universe:
        raise ValueError(
            f"model head covers {model.classes} classes but stream has {universe}"
        )
    accs: dict[int, float] = {}
    for t in tasks_seen:
        pred = model.predict(t.val_x)
        accs[t.task_id] = float((pred == t.val_y).mean())
    return accs


def mean_accuracy(per_task_acc: dict[int, float]) -> float:
    return float(np.mean(list(per_task_acc.values())))


def backward_transfer(history: list[dict[int, float]]) -> float:
    """Average accuracy change since each task was learned (final step excluded).

    ``history[s]`` maps task id to accuracy after step s; a task's learning
    step is the first step it appears in. Tasks first learned at the final
    step are excluded (their drift is definitionally zero).
    """
    if len(history) < 2:
        raise ValueError("backward transfer needs at least two steps")
    final = history[-1]
    learned_at: dict[int, int] = {}
    for s, accs in enumerate(history):
        for tid in accs:
            learned_at.setdefault(tid, s)
    last = len(history) - 1
    drifts = [
        final[tid] - history[s][tid] for tid, s in learned_at.items() if s < last
    ]
    if not drifts:
        raise ValueError("no task was learned before the final step")
    return float(np.mean(drifts))
