"""The consolidation phase: the expert snapshots distilled into a copy of
the base on a step's pool, each pool row toward its own expert.

Where a consolidation is long enough for a fork to pay and a second CPU
can run it, the teachers run in a forked teacher process. It draws every
batch, rows and dropout masks, and sends each as one TGTS frame: the row
indices, the dropout keep-bits, then the teachers' outputs. The student
trains on the batches the frames carry and draws nothing. Otherwise the
teachers are slices 1..k of the student's own stacked pass, the student
draws its batches, and nothing forks. The phase reads the snapshots and
the pool, and nothing of the wire's artifact.
"""

from __future__ import annotations

import os
from functools import partial
from itertools import islice

import numpy as np

from .config import ExperimentConfig
from .engine import loss_and_grads, train_epochs
from .losses import distilled_outputs, l_base
from .model import ModelConfig, ParamVector, ResidualClassifier, TapSet, stack_vectors
from .pipes import Forked, ProtocolViolation, _unframe_as, frame
from .replay import ExemplarSet, draw_batch

TAG_TARGETS = b"TGTS"  # a teacher process's outputs for one batch


def consolidate(
    base: ResidualClassifier,
    snapshots: list[ParamVector],
    pool: ExemplarSet,
    cfg: ExperimentConfig,
    rng: np.random.Generator,
) -> ResidualClassifier:
    """Distill the expert ``snapshots`` into a fresh copy of the base on ``pool``.

    Trains ``cfg.bmc.rehearsal_epochs`` epochs of ``cfg.training.batch_size``
    rows on the ``cfg.bmc`` objective. The learning rate is reset to
    ``cfg.training.lr`` going in (fresh optimizer/scheduler) and the caller
    never reuses this phase's optimizer afterwards. The student is a copy
    of the base, trained with single-model passes and returned; the input
    base is untouched. A pool row's origin tag j names ``snapshots[j]`` as
    its teacher and memory rows (-1) have none (:func:`run_incremental_step`
    guarantees it): the pool's origin column routes the batched term for
    the whole call. Each batch's rows and dropout masks are a
    :func:`~batchcl.replay.draw_batch` from ``rng``, and it gathers only
    the features, labels and origins it reads.

    With the distillation term on, the k experts teach from a process of
    their own (:func:`_teach`), forked before the first batch. It inherits
    the decoded snapshots, the pool and the RNG's state, makes every
    batch's draws with ``draw_batch``, and sends each batch as one TGTS
    frame: its rows, its dropout keep-bits and each row's own expert's
    outputs. The student takes its rows and masks from the frame
    (:func:`_frame_decoder`), so it draws nothing and ``rng`` is left where
    it was; the masks are rebuilt with the float operations that drew
    them, so the student trains on the same bits as if it had drawn. The
    teachers never read the student, so they run ahead of it. The teacher
    process is reaped before this returns or raises: killed first if the
    student fails (a NonFiniteError, an interrupt, a malformed frame); its
    own exception is re-raised here as it is; if it ends early,
    ExpertFailure.

    A consolidation of fewer than ``_FORK_MIN_BATCHES`` batches, or one in
    a process that may run on one CPU only (:func:`_usable_cores`), forks
    nothing: the student trains as slice 0 of one stack with the k experts
    in slices 1..k, whose pass yields every teacher's outputs with the
    student's, and gathers each row's own (:func:`_own_outputs`) for the
    same routed distance. It returns a copy of slice 0.
    """
    if not snapshots:
        raise ValueError("consolidation needs at least one expert snapshot")
    if len(pool) == 0:
        raise ValueError("consolidation pool is empty (no memory, empty buffers)")
    t, b = cfg.training, cfg.bmc
    batch_size, task_coef, consolidation_coef, kind = (
        t.batch_size, b.task_coef, b.consolidation_coef, b.distill_kind
    )
    features, labels, origins = pool.features, pool.labels, pool.origins
    n, k = len(pool), len(snapshots)
    batches_per_epoch = max(1, n // batch_size)
    total = b.rehearsal_epochs * batches_per_epoch
    which = distilled_outputs(kind, base.config.res_blocks + 1)
    stacked = consolidation_coef > 0 and (total < _FORK_MIN_BATCHES or _usable_cores() < 2)
    model = stack_vectors(base.config, [base, *snapshots]) if stacked else base.copy()
    student = model.slice(0) if stacked else model

    def train(batches, targets):
        def step(batch):
            idx, masks = batch[:2]
            taps, record = model.forward_with_taps(features[idx], train=True, masks=masks)
            own = origins[idx]
            loss = l_base(taps, targets(batch, taps, own), labels[idx], task_coef,
                          consolidation_coef, kind, (own, k))
            return loss_and_grads(loss.value, lambda: student.backward(record, loss))

        train_epochs(student.flat_params, student.layout.param_slices, t.lr, b.rehearsal_epochs,
                     batches, step)

    def drawn():
        return (draw_batch(n, batch_size, student, rng) for _ in range(batches_per_epoch))

    if consolidation_coef == 0:
        train(drawn, lambda batch, taps, own: None)
    elif stacked:
        train(drawn, lambda batch, taps, own: _own_outputs(taps.teachers, own, which))
        return student.copy()  # an arena of its own; the stack goes as this returns
    else:
        job = partial(_teach, base.config, snapshots, features, origins, batch_size, rng,
                      which, total)
        taught = _frame_decoder(n, batch_size, student, which)
        with Forked([job]) as teacher:
            received = map(taught, teacher.records(0, total, "teacher process", "batches"))
            train(lambda: islice(received, batches_per_epoch), lambda batch, taps, own: batch[2])
    return student


def _own_outputs(teachers: TapSet, origins: np.ndarray, which: list[int]) -> TapSet:
    """Each row's own teacher's outputs ``which`` names (indices into
    ``outputs``), gathered from a stacked pass ``(k, B, D)``, the others
    None; a memory row (origin -1) carries teacher 0's."""
    own, rows = np.maximum(origins, 0), np.arange(len(origins))
    return TapSet([o[own, rows] if i in which else None for i, o in enumerate(teachers.outputs)])


# batches per teacher pass: at the 32- and the 256-wide shapes of the
# benchmark, 4 cost the least time per batch of 1, 2, 4, 8 and 16
_TEACHER_CHUNK = 4
# a consolidation of fewer batches runs its teachers in the coordinator's
# stacked pass: the fork, the copy-on-write faults of both processes and the
# wait for the first pass cost about 13 ms at the benchmark's 32-wide
# shape, more than a second core saves on so few batches
_FORK_MIN_BATCHES = 64


def _usable_cores() -> int:
    """The CPUs this process may run on. On one CPU the teacher process
    only adds its own work to the student's (pinned16's consolidation took
    7-14% longer than the stacked pass with both pinned to one CPU), so
    consolidation forks it only where there are at least 2."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _teach(config: ModelConfig, snapshots: list[ParamVector], features: np.ndarray,
           origins: np.ndarray, batch_size: int, rng, which: list[int], batches: int):
    """The teacher process's job (:func:`consolidate`): a frame per batch.

    Stacks the k snapshots once. For each of ``batches`` batches it makes
    the batch's draws with :func:`~batchcl.replay.draw_batch` from ``rng``,
    its copy of the student's RNG, runs the stack's teacher pass on the
    batch's rows with its dropout masks, and yields a TGTS frame holding
    the batch: its row indices (int64), its dropout keep-bits
    (``np.packbits`` of ``mask != 0`` over every site in draw order; none
    without dropout), then the outputs ``which`` names (indices into a
    pass's ``outputs``), each ``(B, D)`` block of each row's own expert's
    output, in that order; a memory row carries expert 0's. One pass covers
    ``_TEACHER_CHUNK`` batches
    (:meth:`~batchcl.model.ResidualClassifier.over_batches`), with the
    bits of a pass per batch.
    """
    teachers = stack_vectors(config, snapshots).over_batches()
    for start in range(0, batches, _TEACHER_CHUNK):
        draws = [draw_batch(len(features), batch_size, teachers, rng)
                 for _ in range(min(_TEACHER_CHUNK, batches - start))]
        idx = np.stack([rows for rows, _ in draws])
        masks = [np.stack(site) for site in zip(*(m for _, m in draws))]
        passes = teachers.forward_as_teacher(features[idx], masks)  # (k, n, B, D)
        for b, (rows, batch_masks) in enumerate(draws):
            own = _own_outputs(passes[:, b], origins[rows], which).outputs
            keep = b""
            if batch_masks:
                keep = np.packbits(np.concatenate([m.ravel() for m in batch_masks]) != 0)
            yield frame(TAG_TARGETS, memoryview(rows).cast("B"), keep,
                        *(memoryview(own[i]).cast("B") for i in which))


def _frame_decoder(n: int, batch_size: int, student: ResidualClassifier, which: list[int]):
    """The decoder of :func:`_teach`'s frames for a pool of ``n`` rows and a
    ``student`` of the teachers' shape: it maps a frame to the batch it
    carries, ``(row indices, dropout masks, targets)``. The masks are
    :meth:`~batchcl.model.ResidualClassifier.masks_from_keep` of its
    keep-bits, and the targets a TapSet whose outputs ``which`` names are
    ``(B, D)`` views of its payload, the others None. Anything but a TGTS
    frame of exactly the rows, keep-bits and targets of a batch, or a row
    index outside ``[0, n)``, is a ProtocolViolation, raised before any
    view is taken."""
    config, dtype = student.config, student.arena.dtype
    units = batch_size * sum(config.dropout_widths)
    rows_end = 8 * batch_size
    keep_end = rows_end + (units + 7) // 8
    widths = [(i, config.output_widths[i]) for i in which]
    size = keep_end + dtype.itemsize * batch_size * sum(w for _, w in widths)
    outputs = len(config.output_widths)

    def decode(msg: bytes):
        payload = _unframe_as(TAG_TARGETS, msg)
        if len(payload) != size:
            raise ProtocolViolation(f"teacher frame of {len(payload)} bytes for {size} bytes "
                                    f"of rows, keep-bits and targets")
        idx = np.frombuffer(payload, dtype="<i8", count=batch_size)
        low, high = idx.min(), idx.max()
        if low < 0 or high >= n:
            raise ProtocolViolation(f"teacher frame row {low if low < 0 else high} outside "
                                    f"a pool of {n} rows")
        keep = np.unpackbits(np.frombuffer(payload[rows_end:keep_end], dtype=np.uint8),
                             count=units)
        flat = np.frombuffer(payload[keep_end:], dtype=dtype)
        targets: list = [None] * outputs
        at = 0
        for i, w in widths:
            targets[i] = flat[at : at + batch_size * w].reshape(batch_size, w)
            at += batch_size * w
        return idx, student.masks_from_keep(keep, batch_size), TapSet(targets)

    return decode
