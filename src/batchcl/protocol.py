"""Coordinator/expert orchestration with byte-exact cost accounting.

One incremental step processes a batch of k disjoint tasks:

  1. sync       — the coordinator serializes the base model once and sends
                  each expert one SYNC frame: its index, seed, the run's
                  expert hyper-parameters and the base snapshot;
  2. regularize — experts train in parallel, each decoding its SYNC frame
                  and training on ONLY its own task;
  3. upload     — every expert returns exactly one ARTF frame (its
                  parameter snapshot, buffer, and training stats);
  4. consolidate— the coordinator trains a copy of the base on the pooled
                  memory+buffer data while the expert teachers, rebuilt
                  from their snapshots in a forked teacher process, send
                  it their targets; then it refreshes the memory and
                  discards the buffers.

One set of hyper-parameters drives both phases: the step functions read
the run's ``ExperimentConfig`` (``seed``, ``training`` and ``bmc``).

A step is atomic: an expert failure, a protocol violation or a diverging
consolidation leaves the base model and the memory byte-identical to before
the step.

All randomness is derived from the run's master seed through
:func:`~batchcl.run.child_seed`, whose labels :mod:`batchcl.run` lists, so
any phase can be replayed independently.

Wire format (everything little-endian): a message is a 4-byte tag, a u64
payload length, then the payload. Payload layouts are documented on the
encode functions; sizes are exact and the counting transport records them,
which is what makes the cost ledger auditable by arithmetic. A process
pipe carries nothing but such frames.

The expert boundary carries only those frames: an executor hands each
expert exactly the SYNC frame the transport counted and returns exactly
the ARTF frame the transport counts. Task data lives worker-side: a forked
worker inherits its step's tasks, the model shape and its SYNC frames, and
picks its own task by the index in the SYNC frame.

The coordinator holds each snapshot once: the decoders return views of the
frame they read, so a decoded expert snapshot is a read-only view of its
ARTF frame, and a step lets go of each frame once it has consumed it. The
base snapshot and each ARTF frame are serialized from a view of the arena
with one join.

Every child process, an expert worker or a teacher process, is forked by
:class:`Forked`, which gives it a pipe of its own and reaps it on every way
out. The pipe carries an expert worker's ARTF frames, a teacher process's
TGTS frames, or an EXCP frame holding a child's pickled exception.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import signal
import struct
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import ExperimentConfig, build_model_config
from .engine import NonFiniteError, loss_and_grads, train_epochs
from .losses import DISTILL_KINDS, distill, distilled_outputs, l_base, l_exp
from .model import (
    ModelConfig,
    ParamVector,
    ResidualClassifier,
    TapSet,
    build_model,
    model_from_vector,
    stack_vectors,
)
from .replay import (
    SAMPLING_STRATEGIES,
    Buffer,
    ExemplarSet,
    Memory,
    merge_pool,
    sample_buffer,
    subsample_memory,
)
from .run import RunRecorder, RunReport, StepCost, child_seed, epoch_batches
from .streams import Task, TaskStream, ranges_overlap

TAG_SYNC = b"SYNC"
TAG_ARTIFACT = b"ARTF"
TAG_TARGETS = b"TGTS"  # a teacher process's outputs for one batch
TAG_EXCEPTION = b"EXCP"  # a child's pickled exception
FRAME_OVERHEAD = 12  # 4-byte tag + u64 payload length


class ProtocolViolation(RuntimeError):
    """A constraint of the communication contract was broken."""


class ExpertFailure(RuntimeError):
    """An expert diverged or crashed, or a child process ended before it
    sent all its frames; the step must be rolled back."""


class StepFailure(RuntimeError):
    """Raised by run_incremental_step after a rollback."""


# ---------------------------------------------------------------------------
# hyper-parameters and plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpertHyper:
    """A decoded SYNC header, fields in wire order: everything an expert is
    allowed to know beyond its task and the base. Built by :func:`decode_sync`,
    which turns a failed check into a ProtocolViolation."""

    epochs: int
    buffer_capacity: int
    lr: float
    stability_coef: float
    batch_size: int
    sampling: str
    distill_kind: str

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (normalization needs 2 rows)")
        if self.distill_kind not in DISTILL_KINDS:
            raise ValueError(f"unknown distill kind {self.distill_kind!r}")


@dataclass(frozen=True)
class StepPlan:
    """One incremental step: an ordered batch of disjoint tasks plus seeds."""

    step_id: int
    tasks: tuple[Task, ...]
    expert_seeds: tuple[int, ...]

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("a step needs at least one task")
        if len(self.expert_seeds) != len(self.tasks):
            raise ValueError("one seed per expert required")
        if ranges_overlap((t.class_lo, t.class_hi) for t in self.tasks):
            raise ValueError("tasks within a step must have disjoint classes")

    @property
    def k(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class ExpertStats:
    epochs: int
    final_loss: float
    wall_clock_s: float


@dataclass(frozen=True)
class ExpertArtifact:
    """What one expert uploads: snapshot + buffer + stats. One per step."""

    expert_index: int
    param_vector: ParamVector
    buffer: Buffer
    stats: ExpertStats


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


def frame(tag: bytes, *parts) -> bytes:
    """tag (4 bytes) | payload length (u64) | payload, the payload being
    ``parts`` (bytes or byte views) joined: the frame is the one copy made."""
    if len(tag) != 4:
        raise ValueError("tag must be 4 bytes")
    return b"".join((tag, struct.pack("<Q", sum(map(len, parts))), *parts))


def _take(blob: bytes, off: int, n: int, what: str) -> tuple[memoryview, int]:
    """A view of the ``n`` bytes at ``off`` (no copy) plus the offset after
    them; a short blob raises ProtocolViolation naming ``what`` and the byte
    offset."""
    if off + n > len(blob):
        raise ProtocolViolation(
            f"{what} truncated at byte {off}: needs {n} bytes, {len(blob) - off} present"
        )
    return memoryview(blob)[off : off + n], off + n


def _unpack(fmt: str, blob: bytes, off: int, what: str) -> tuple[tuple, int]:
    """``struct.unpack`` of :func:`_take`'s bytes, plus the offset after them."""
    raw, end = _take(blob, off, struct.calcsize(fmt), what)
    return struct.unpack(fmt, raw), end


def _check_end(blob: bytes, off: int, what: str) -> None:
    if off != len(blob):
        raise ProtocolViolation(f"{what}: {len(blob) - off} trailing bytes at byte {off}")


def unframe(blob: bytes) -> tuple[bytes, memoryview]:
    """(tag, payload) of exactly one frame; the payload is a view of ``blob``."""
    if len(blob) < FRAME_OVERHEAD:
        raise ProtocolViolation(
            f"frame truncated: {len(blob)} bytes, header needs {FRAME_OVERHEAD}"
        )
    (length,) = struct.unpack_from("<Q", blob, 4)
    payload, end = _take(blob, FRAME_OVERHEAD, length, "frame payload")
    _check_end(blob, end, "frame")
    return bytes(blob[:4]), payload


def _unframe_as(tag: bytes, msg: bytes) -> memoryview:
    """The payload of ``msg``, which must be a ``tag`` frame."""
    got, payload = unframe(msg)
    if got != tag:
        raise ProtocolViolation(f"expected a {tag!r} frame, got {got!r} at byte 0")
    return payload


def _exemplar_row(dim: int) -> np.dtype:
    """One encoded exemplar row: dim x f32 | class u32 | task u32 | origin i32"""
    return np.dtype([("x", "<f4", (dim,)), ("y", "<u4"), ("t", "<u4"), ("o", "<i4")])


def encode_exemplars(es: ExemplarSet) -> bytes:
    """count u64 | dim u32 | rows (:func:`_exemplar_row`)"""
    head = struct.pack("<QI", len(es), es.dim)
    rows = np.empty(len(es), dtype=_exemplar_row(es.dim))
    rows["x"] = es.features
    rows["y"] = es.labels
    rows["t"] = es.task_ids
    rows["o"] = es.origins
    return head + rows.tobytes()


def decode_exemplars(blob: bytes) -> ExemplarSet:
    (count, dim), off = _unpack("<QI", blob, 0, "exemplar header")
    end = exemplar_block_nbytes(count, dim)
    if len(blob) != end:
        raise ProtocolViolation(
            f"exemplar header at byte 0 declares {count} rows of dim {dim}, "
            f"{end} bytes, but the block ends at byte {len(blob)}"
        )
    rows = np.frombuffer(blob, dtype=_exemplar_row(dim), count=count, offset=off)
    return ExemplarSet(
        features=rows["x"].copy(),
        labels=rows["y"].astype(np.int64),
        task_ids=rows["t"].astype(np.int64),
        origins=rows["o"].astype(np.int64),
    )


def exemplar_block_nbytes(count: int, dim: int) -> int:
    """Analytic size of an encoded exemplar block."""
    return 12 + count * (4 * dim + 12)


def encode_buffer(buf: Buffer) -> bytes:
    """owner u32 | capacity u64 | exemplar block"""
    return struct.pack("<IQ", buf.owner, buf.capacity) + encode_exemplars(buf.exemplars)


def decode_buffer(blob: bytes) -> Buffer:
    (owner, capacity), off = _unpack("<IQ", blob, 0, "buffer header")
    return Buffer(exemplars=decode_exemplars(memoryview(blob)[off:]), capacity=capacity,
                  owner=owner)


# expert u32 | seed u64 | epochs u32 | buffer capacity u64 | lr f64 |
# stability f64 | batch u32 | sampling u8 | distill u8 | base blob length u64
_SYNC_HEADER = "<IQIQddIBBQ"
SYNC_FIXED_NBYTES = struct.calcsize(_SYNC_HEADER)  # 54

# expert u32 | epochs u32 | final loss f64 | wall clock f64 | snapshot length u64
_ARTIFACT_HEADER = "<IIddQ"
_BUFFER_LENGTH = "<Q"  # between the snapshot and the buffer
ARTIFACT_FIXED_NBYTES = struct.calcsize(_ARTIFACT_HEADER) + struct.calcsize(_BUFFER_LENGTH)  # 40


def encode_sync(expert_index: int, seed: int, cfg: ExperimentConfig,
                base_blob: bytes) -> bytes:
    """The coordinator-to-expert message (task data itself lives worker-side):
    the ``_SYNC_HEADER`` fields, packed from ``cfg.training`` and ``cfg.bmc``,
    then the base snapshot bytes."""
    t, b = cfg.training, cfg.bmc
    return b"".join((struct.pack(
        _SYNC_HEADER, expert_index, seed, t.epochs_per_task, b.buffer_capacity, t.lr,
        b.stability_coef, t.batch_size, SAMPLING_STRATEGIES.index(b.sampling),
        DISTILL_KINDS.index(b.distill_kind), len(base_blob),
    ), base_blob))


def decode_sync(payload: bytes) -> tuple[int, int, ExpertHyper, memoryview]:
    """Inverse of :func:`encode_sync`.

    Returns (expert index, seed, hyper-parameters, base snapshot bytes); the
    snapshot bytes are a view of ``payload``, not a copy.
    """
    (expert_index, seed, epochs, buffer_capacity, lr, stability, batch, sampling_idx,
     distill_idx, blob_len), off = _unpack(_SYNC_HEADER, payload, 0, "sync header")
    blob, end = _take(payload, off, blob_len, "sync base snapshot")
    _check_end(payload, end, "sync payload")
    if sampling_idx >= len(SAMPLING_STRATEGIES) or distill_idx >= len(DISTILL_KINDS):
        raise ProtocolViolation(
            f"sync payload names sampling {sampling_idx} and distill kind {distill_idx}; "
            f"known are {len(SAMPLING_STRATEGIES)} and {len(DISTILL_KINDS)}"
        )
    try:
        hyper = ExpertHyper(epochs, buffer_capacity, lr, stability, batch,
                            SAMPLING_STRATEGIES[sampling_idx], DISTILL_KINDS[distill_idx])
    except ValueError as e:
        raise ProtocolViolation(f"sync header at byte 0: {e}") from e
    return expert_index, seed, hyper, blob


def encode_artifact(a: ExpertArtifact) -> bytes:
    """The ``_ARTIFACT_HEADER`` fields, the snapshot bytes, the buffer length
    (``_BUFFER_LENGTH``) and the buffer bytes."""
    return b"".join(_artifact_parts(a))


def _artifact_parts(a: ExpertArtifact) -> list:
    """The pieces of :func:`encode_artifact`'s payload, the snapshot's
    payload a view of its array, so that one join makes the message."""
    pv = a.param_vector.byte_parts()
    buf = encode_buffer(a.buffer)
    return [
        struct.pack(_ARTIFACT_HEADER, a.expert_index, a.stats.epochs, a.stats.final_loss,
                    a.stats.wall_clock_s, sum(map(len, pv))),
        *pv, struct.pack(_BUFFER_LENGTH, len(buf)), buf,
    ]


def decode_artifact(payload: bytes) -> ExpertArtifact:
    """Inverse of :func:`encode_artifact`. The snapshot is a read-only view
    of ``payload`` (:meth:`~batchcl.model.ParamVector.from_bytes`), so it
    keeps the received frame alive and is its only copy; the buffer's rows
    are copied out."""
    (expert_index, epochs, final_loss, wall, pv_len), off = _unpack(
        _ARTIFACT_HEADER, payload, 0, "artifact header"
    )
    pv_at = off
    pv_blob, off = _take(payload, off, pv_len, "artifact snapshot")
    (buf_len,), off = _unpack(_BUFFER_LENGTH, payload, off, "artifact buffer length")
    buf_blob, off = _take(payload, off, buf_len, "artifact buffer")
    _check_end(payload, off, "artifact payload")
    try:
        pv = ParamVector.from_bytes(pv_blob)
    except ValueError as e:
        raise ProtocolViolation(f"artifact snapshot at byte {pv_at}: {e}") from e
    return ExpertArtifact(
        expert_index=expert_index,
        param_vector=pv,
        buffer=decode_buffer(buf_blob),
        stats=ExpertStats(epochs=epochs, final_loss=final_loss, wall_clock_s=wall),
    )


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


class CountingTransport:
    """In-process channel that records the exact bytes of every message.

    Its messages are the very frames that cross the expert boundary.
    Doubles as the enforcement point for the one-artifact-per-expert rule.
    """

    def __init__(self):
        self.broadcast_bytes = 0
        self.upload_bytes = 0
        self._artifact_senders: set[int] = set()

    @property
    def artifact_count(self) -> int:  # ARTF frames this step, one per sender
        return len(self._artifact_senders)

    def begin_step(self) -> None:
        self._artifact_senders.clear()

    def send_sync(self, payload: bytes) -> bytes:
        """Frame and count one SYNC payload; returns the message for the expert."""
        msg = frame(TAG_SYNC, payload)
        self.broadcast_bytes += len(msg)
        return msg

    def send_artifact(self, msg: bytes) -> bytes:
        """Count one ARTF frame from an expert; returns its payload."""
        payload = _unframe_as(TAG_ARTIFACT, msg)
        (sender,), _ = _unpack("<I", payload, 0, "artifact header")
        if sender in self._artifact_senders:
            raise ProtocolViolation(f"expert {sender} already sent its artifact this step")
        self._artifact_senders.add(sender)
        self.upload_bytes += len(msg)
        return payload


# ---------------------------------------------------------------------------
# expert phase
# ---------------------------------------------------------------------------


def remote_train(sync: bytes, tasks: tuple[Task, ...], model_config: ModelConfig) -> bytes:
    """The entire worker-side computation for one expert.

    Decodes the SYNC frame, reconstructs the base from its snapshot,
    initializes the expert from it, trains on ``tasks[expert index]`` (and
    reads no other entry) with the stability objective, samples its
    buffer, and returns the single ARTF frame. Raises ExpertFailure if the
    loss turns non-finite. With a stability term the expert and its base
    are slices 0 and 1 of one stack, so each batch takes one pass for both.
    """
    expert_index, seed, h, base_blob = decode_sync(_unframe_as(TAG_SYNC, sync))
    if expert_index >= len(tasks):
        raise ProtocolViolation(
            f"sync payload names expert {expert_index} at byte 0, "
            f"but the step has {len(tasks)} tasks"
        )
    task = tasks[expert_index]
    try:
        snapshot = ParamVector.from_bytes(base_blob)
        if h.stability_coef > 0:
            # stacked straight from the snapshot: no base arena of its own
            stack = stack_vectors(model_config, [snapshot, snapshot])
            expert, base = stack.slice(0), stack.slice(1)
        else:
            base = model_from_vector(model_config, snapshot)
            stack = expert = base.copy()
    except ValueError as e:
        raise ProtocolViolation(f"sync base snapshot at byte {SYNC_FIXED_NBYTES}: {e}") from e
    del snapshot  # a view of the SYNC frame; the model arenas hold copies
    train_rng = np.random.default_rng(child_seed(seed, "train"))
    x, y = task.train_x, task.train_y

    def step(idx):
        student, record = stack.forward_with_taps(x[idx], train=True, rng=train_rng)
        loss = l_exp(student, student.teachers, y[idx], h.stability_coef, h.distill_kind)
        return loss_and_grads(loss.value, lambda: expert.backward(record, loss))

    t0 = time.perf_counter()
    try:
        epoch_losses = train_epochs(
            expert.flat_params, expert.layout.param_slices, h.lr, h.epochs,
            lambda: epoch_batches(len(y), h.batch_size, train_rng), step,
        )
    except NonFiniteError as e:
        raise ExpertFailure(f"expert {expert_index}: {e}") from e
    buffer = sample_buffer(
        x, y, task.task_id,
        capacity=h.buffer_capacity,
        strategy=h.sampling,
        seed=child_seed(seed, "buffer"),
        owner=expert_index,
        base_model=base,
        expert_model=expert,
    )
    # the frame is the one copy of the expert's arena
    return frame(TAG_ARTIFACT, *_artifact_parts(ExpertArtifact(
        expert_index=expert_index,
        param_vector=expert.to_param_vector(copy=False),
        buffer=buffer,
        stats=ExpertStats(
            epochs=h.epochs,
            final_loss=epoch_losses[-1] if epoch_losses else float("nan"),
            wall_clock_s=time.perf_counter() - t0,
        ),
    )))


class SerialExecutor:
    """Deterministic single-worker execution, in launch order."""

    def run(self, syncs: list[bytes], tasks: tuple[Task, ...],
            model_config: ModelConfig) -> list[bytes]:
        return [remote_train(sync, tasks, model_config) for sync in syncs]


# what each child's pipe holds if the system allows it (Linux's default
# unprivileged maximum): 12 of wide's 80 KiB teacher frames, where the
# default 64 KiB holds none whole
_PIPE_BYTES = 1 << 20
# the request for it, where the system has one (Linux)
_SETPIPE_SZ = getattr(fcntl, "F_SETPIPE_SZ", None)


def _serve(out_fd: int, read_ends: list, job) -> None:
    """A forked child's whole life; never returns.

    Closes the pipe ends it inherited for reading, so that its writes fail
    rather than block once the parent is gone. Writes each frame that
    ``job()`` yields to the pipe ``out_fd`` as it comes, and exits 0. If the
    job raises, it writes an EXCP frame holding the pickled exception
    instead and exits 1. It leaves through ``os._exit``, so nothing unwinds
    into the parent's stack.
    """
    code = 1
    try:
        for pipe in read_ends:
            pipe.close()
        with open(out_fd, "wb") as out:  # a file object finishes interrupted writes
            try:
                for msg in job():
                    out.write(msg)
                    out.flush()
            except BaseException as e:
                out.write(frame(TAG_EXCEPTION, pickle.dumps(e)))
            else:
                code = 0
    finally:
        os._exit(code)


class Forked:
    """Child processes forked from this one, one per job, each writing the
    frames its job yields (:func:`_serve`) to a pipe of its own.

    A child inherits everything its job reads at the fork, so nothing is
    sent to it. Each pipe is asked to hold ``_PIPE_BYTES`` (where the
    system refuses, it keeps its default size), so that a child streaming
    frames runs that far ahead of its reader and the two processes swap
    the CPU less often when they share one. :meth:`records` reads a
    child's frames. Leaving the ``with`` block reaps every child; if the
    block raised (an exception, a KeyboardInterrupt), the children still
    running are killed first. ``codes`` then holds each child's exit code,
    a negative one being the signal that killed it.
    """

    def __init__(self, jobs):
        self.pids: list[int] = []
        self.pipes: list = []
        self.codes: list[int | None] = []
        try:
            for job in jobs:
                r, out_fd = os.pipe()
                self.pipes.append(open(r, "rb"))
                if _SETPIPE_SZ is not None:
                    try:
                        fcntl.fcntl(r, _SETPIPE_SZ, _PIPE_BYTES)
                    except OSError:
                        pass
                try:
                    pid = os.fork()
                    if pid == 0:
                        _serve(out_fd, self.pipes, job)
                finally:  # in this process only: a child never returns here
                    os.close(out_fd)
                self.pids.append(pid)
                self.codes.append(None)
        except BaseException as e:
            self.__exit__(type(e), e, e.__traceback__)
            raise

    def __enter__(self) -> Forked:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for pid, code in zip(self.pids, self.codes):
                if code is None:
                    os.kill(pid, signal.SIGKILL)
        for pipe in self.pipes:
            pipe.close()
        for w in range(len(self.pids)):
            self.exit_code(w)

    def records(self, w: int, n: int, what: str, unit: str):
        """Child ``w``'s first ``n`` frames as they arrive. An EXCP frame's
        exception is raised here as it is; a pipe that ends before the n-th
        frame raises ExpertFailure naming ``what``, the child's exit code
        and how many of the ``n`` ``unit`` came."""
        pipe = self.pipes[w]
        for got in range(n):
            head = pipe.read(FRAME_OVERHEAD)
            size = struct.unpack_from("<Q", head, 4)[0] if len(head) == FRAME_OVERHEAD else None
            payload = None if size is None else pipe.read(size)
            if payload is None or len(payload) < size:
                # a negative code is the signal that killed the child
                raise ExpertFailure(f"{what} ended with exit code {self.exit_code(w)} "
                                    f"after {got} of {n} {unit}")
            if head[:4] == TAG_EXCEPTION:
                raise pickle.loads(payload)
            yield head + payload

    def exit_code(self, w: int) -> int:
        """Child ``w``'s exit code, reaping it first if need be."""
        if self.codes[w] is None:
            self.codes[w] = os.waitstatus_to_exitcode(os.waitpid(self.pids[w], 0)[1])
        return self.codes[w]


def _train_experts(syncs: list[bytes], tasks: tuple[Task, ...],
                   model_config: ModelConfig) -> list[bytes]:
    """An expert worker's job: the ARTF frames of its experts, trained in
    turn through the module's ``remote_train``. It returns them only when
    all are done, so a full pipe never holds up its next expert while the
    coordinator reads another worker's pipe."""
    return [remote_train(sync, tasks, model_config) for sync in syncs]


class ProcessExecutor:
    """Parallel execution in forked worker processes; ARTF frames in launch
    order.

    Each step forks (:class:`Forked`) W = ``min(workers, experts)``
    workers; worker w trains experts w, w + W, ... in turn
    (:func:`_train_experts`). A worker inherits the step's tasks, the model
    shape and its SYNC frames at the fork, so nothing is sent to it; the
    only bytes it sends back are its ARTF frames. Every worker is reaped
    before ``run`` returns or raises, and a failing or interrupted
    coordinator kills its workers first. An exception a worker raises is
    re-raised here as it is; a worker that ends before it sent all its
    frames fails the step with ExpertFailure (:meth:`Forked.records`).
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers

    def run(self, syncs: list[bytes], tasks: tuple[Task, ...],
            model_config: ModelConfig) -> list[bytes]:
        n = min(self.workers, len(syncs))
        jobs = [partial(_train_experts, syncs[w::n], tasks, model_config) for w in range(n)]
        frames: list[bytes] = [b""] * len(syncs)
        with Forked(jobs) as workers:
            for w in range(n):
                frames[w::n] = workers.records(w, len(frames[w::n]), f"expert worker {w}",
                                               "reports")
        return frames


# ---------------------------------------------------------------------------
# consolidation phase
# ---------------------------------------------------------------------------


def consolidate(
    base: ResidualClassifier,
    artifacts: list[ExpertArtifact],
    memory: Memory,
    cfg: ExperimentConfig,
    rng: np.random.Generator,
) -> ResidualClassifier:
    """Distill all experts into a fresh copy of the base on the pooled data.

    Trains ``cfg.bmc.rehearsal_epochs`` epochs of ``cfg.training.batch_size``
    rows on the ``cfg.bmc`` objective. The learning rate is reset to
    ``cfg.training.lr`` going in (fresh optimizer/scheduler) and the caller
    never reuses this phase's optimizer afterwards. The student is a copy
    of the base, trained with single-model passes and returned; the input
    base is untouched. ``artifacts`` are those of experts 0..k-1, each
    buffer holding its own expert's rows (:func:`check_artifacts`), so a
    pool row's origin tag is the index of its teacher and memory rows (-1)
    have none: the pool's origin column routes the batched term for the
    whole call. Each batch draws its rows as
    :func:`~batchcl.replay.draw_batch` does, with one ``rng.integers``
    call, then its dropout masks, and gathers only the features, labels
    and origins it reads.

    With the distillation term on, the k experts teach from a process of
    their own (:func:`_teach`), forked before the first batch. It inherits
    the decoded snapshots, the pool and the RNG's state, replays every
    batch's draws through the same function as the student, and sends
    each row its own expert's outputs, one TGTS frame per batch, which the
    student's routed distance reads. The teachers never read the student,
    so they run ahead of it. The teacher process is reaped before this
    returns or raises: killed first if the student fails (a NonFiniteError,
    an interrupt, a malformed frame); its own exception is re-raised here
    as it is; if it ends early, ExpertFailure.

    A consolidation of fewer than ``_FORK_MIN_BATCHES`` batches, or one in
    a process that may run on one CPU only (:func:`_usable_cores`), forks
    nothing: the student trains as slice 0 of one stack with the k experts
    in slices 1..k, whose pass yields every teacher's outputs with the
    student's, and gathers each row's own (:func:`_own_outputs`) for the
    same routed distance. It returns a copy of slice 0.
    """
    if not artifacts:
        raise ValueError("consolidation needs at least one expert artifact")
    # canonical expert-index order for the pool AND the teacher sum, so the
    # phase is invariant to artifact arrival order
    ordered = sorted(artifacts, key=lambda a: a.expert_index)
    pool = merge_pool(memory, [a.buffer for a in ordered])
    if len(pool) == 0:
        raise ValueError("consolidation pool is empty (no memory, empty buffers)")
    t, b = cfg.training, cfg.bmc
    batch_size, task_coef, consolidation_coef, kind = (
        t.batch_size, b.task_coef, b.consolidation_coef, b.distill_kind
    )
    features, labels, origins = pool.features, pool.labels, pool.origins
    n, k = len(pool), len(ordered)
    batches_per_epoch = max(1, n // batch_size)
    total = b.rehearsal_epochs * batches_per_epoch
    which = distilled_outputs(kind, base.config.res_blocks + 1)
    snapshots = [a.param_vector for a in ordered]
    stacked = consolidation_coef > 0 and (total < _FORK_MIN_BATCHES or _usable_cores() < 2)
    model = stack_vectors(base.config, [base, *snapshots]) if stacked else base.copy()
    student = model.slice(0) if stacked else model

    def draw(rng):
        # one batch's draws, rows then dropout masks; the teacher process
        # makes them from a copy of this RNG's state, so both see one stream
        idx = rng.integers(0, n, size=batch_size)
        return idx, student.draw_masks(batch_size, rng)

    def train(targets):
        def step(_):
            idx, masks = draw(rng)
            taps, record = model.forward_with_taps(features[idx], train=True, masks=masks)
            own = origins[idx]
            loss = l_base(taps, targets(taps, own), labels[idx], task_coef, consolidation_coef,
                          kind, (own, k))
            return loss_and_grads(loss.value, lambda: student.backward(record, loss))

        train_epochs(student.flat_params, student.layout.param_slices, t.lr,
                     b.rehearsal_epochs, lambda: range(batches_per_epoch), step)

    if consolidation_coef == 0:
        train(lambda taps, own: None)
    elif stacked:
        train(lambda taps, own: _own_outputs(taps.teachers, own, which))
        return student.copy()  # an arena of its own; the stack goes as this returns
    else:
        job = partial(_teach, base.config, snapshots, features, origins, partial(draw, rng),
                      which, total)
        with Forked([job]) as teacher:
            msgs = teacher.records(0, total, "teacher process", "batches")
            train(lambda taps, own: _routed_targets(next(msgs), taps, which))
    return student


def _own_outputs(teachers: TapSet, origins: np.ndarray, which: list[int]) -> TapSet:
    """Each row's own teacher's outputs ``which`` names (indices into
    ``[*taps, logits]``), gathered from a stacked pass ``(k, B, D)``, the
    others None; a memory row (origin -1) carries teacher 0's."""
    own, rows = np.maximum(origins, 0), np.arange(len(origins))
    outputs = [*teachers.taps, teachers.logits]
    got = [outputs[i][own, rows] if i in which else None for i in range(len(outputs))]
    return TapSet(got[:-1], got[-1])


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
           origins: np.ndarray, draw, which: list[int], batches: int):
    """The teacher process's job (:func:`consolidate`): a frame per batch.

    Stacks the k snapshots once. For each of ``batches`` batches it makes
    the batch's draws with ``draw``, runs the stack's teacher pass on the
    batch's rows with its dropout masks, and yields a TGTS frame of the
    outputs ``which`` names (indices into ``[*taps, logits]``), each
    ``(B, D)`` block of each row's own expert's output, in that order; a
    memory row carries expert 0's. One pass covers ``_TEACHER_CHUNK`` batches
    (:meth:`~batchcl.model.ResidualClassifier.over_batches`), with the
    bits of a pass per batch.
    """
    teachers = stack_vectors(config, snapshots).over_batches()
    for start in range(0, batches, _TEACHER_CHUNK):
        draws = [draw() for _ in range(min(_TEACHER_CHUNK, batches - start))]
        idx = np.stack([rows for rows, _ in draws])
        masks = [np.stack(site) for site in zip(*(m for _, m in draws))]
        passes = teachers.forward_as_teacher(features[idx], masks)  # (k, n, B, D)
        for b, rows in enumerate(idx):
            batch = TapSet([t[:, b] for t in passes.taps], passes.logits[:, b])
            own = _own_outputs(batch, origins[rows], which)
            outputs = [*own.taps, own.logits]
            yield frame(TAG_TARGETS, *(memoryview(outputs[i]).cast("B") for i in which))


def _routed_targets(msg: bytes, student: TapSet, which: list[int]) -> TapSet:
    """A :func:`_teach` frame as a TapSet shaped like the ``student`` pass:
    the outputs ``which`` names are views of its payload, the others None.
    Anything but a TGTS frame of exactly their bytes is a ProtocolViolation,
    raised before any view is taken."""
    payload = _unframe_as(TAG_TARGETS, msg)
    outputs = [*student.taps, student.logits]
    want = sum(outputs[i].nbytes for i in which)
    if len(payload) != want:
        raise ProtocolViolation(f"teacher frame of {len(payload)} bytes for {want} bytes "
                                f"of targets")
    flat = np.frombuffer(payload, dtype=student.logits.dtype)
    got: list = [None] * len(outputs)
    at = 0
    for i in which:
        got[i] = flat[at : at + outputs[i].size].reshape(outputs[i].shape)
        at += outputs[i].size
    return TapSet(got[:-1], got[-1])


def check_artifacts(artifacts: list[ExpertArtifact], k: int) -> None:
    """Check that every artifact is one of a k-expert step's and carries
    only its own expert's rows.

    An artifact's expert index must be in 0..k-1, and its buffer's owner
    and every row's origin tag must equal that index; anything else raises
    ProtocolViolation. :func:`consolidate` routes each pool row to the
    teacher its origin names, so a buffer tagged with another expert would
    distill its rows toward that expert.
    """
    for a in artifacts:
        j = a.expert_index
        if not 0 <= j < k:
            raise ProtocolViolation(f"artifact names expert {j}, but the step has {k} experts")
        others = {a.buffer.owner, *np.unique(a.buffer.exemplars.origins).tolist()} - {j}
        if others:
            raise ProtocolViolation(
                f"artifact of expert {j} carries a buffer tagged with expert {min(others)}"
            )


def expert_distances(
    base: ResidualClassifier,
    new_base: ResidualClassifier,
    artifacts: list[ExpertArtifact],
    plan: StepPlan,
) -> list[dict]:
    """Per-expert telemetry of one step: final loss and drift on its buffer rows.

    ``final_loss`` is the expert's mean training loss over its last epoch
    (None when it trained no epoch). ``expert_base_distance`` is how far
    the expert ended from the base it started at, the distance the
    stability coefficient holds down;
    ``consolidated_expert_distance`` is how far the consolidated base ended
    from the expert, the distance the consolidation coefficient pulls in.
    Both are the ``features`` :func:`~batchcl.losses.distill` of one
    dropout-free teacher pass to the next, each a stack of one, computed on
    the coordinator from the received artifacts, so nothing extra crosses
    the wire: one pass of the stack (base, expert, new base) per expert. A
    buffer of fewer than 2 rows (no batch statistics) gives None.
    """
    out = []
    for a in artifacts:
        x = a.buffer.exemplars.features
        row: dict = {
            "expert_index": a.expert_index,
            "task_id": plan.tasks[a.expert_index].task_id,
            "final_loss": a.stats.final_loss if np.isfinite(a.stats.final_loss) else None,
        }
        if len(x) < 2:
            row.update(expert_base_distance=None, consolidated_expert_distance=None)
        else:
            passes = stack_vectors(
                base.config, [base, a.param_vector, new_base]
            ).forward_as_teacher(x)
            row.update(
                expert_base_distance=float(distill("features", passes[0:1], passes[1]).value),
                consolidated_expert_distance=float(
                    distill("features", passes[1:2], passes[2]).value),
            )
            del passes  # before the next expert's stack runs: 3 slices of activations
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# incremental steps and full streams
# ---------------------------------------------------------------------------


@dataclass
class StepResult:
    base: ResidualClassifier
    cost: StepCost
    artifacts: list[ExpertArtifact]
    expert_wall_s: float
    consolidation_wall_s: float
    expert_distances: list[dict]


def run_incremental_step(
    base: ResidualClassifier,
    plan: StepPlan,
    memory: Memory,
    cfg: ExperimentConfig,
    transport: CountingTransport,
    executor,
) -> StepResult:
    """Execute sync -> parallel expert training -> consolidate -> memory refresh.

    Reads ``cfg.seed``, ``cfg.training`` and ``cfg.bmc``; the model shape is
    ``base.config``. On success returns the NEW base model and records the step's cost; the
    memory is refreshed in place as the final action. If an expert fails,
    an expert's message breaks the protocol (a malformed, duplicate or
    missing ARTF frame, or one of an expert outside the step or with rows
    tagged for another expert), the teacher process fails or sends a
    malformed frame, or the consolidation loss or a gradient turns
    non-finite, raises StepFailure with base and memory untouched (the
    consolidation trains a copy, and the memory write only happens after
    success).
    """
    transport.begin_step()
    broadcast_before = transport.broadcast_bytes
    upload_before = transport.upload_bytes
    base_blob = base.to_param_vector(copy=False).to_bytes()  # one copy of the arena
    syncs = [
        transport.send_sync(encode_sync(i, seed, cfg, base_blob))
        for i, seed in enumerate(plan.expert_seeds)
    ]
    # the consolidated base keeps the base's layout, so its serialized size
    model_bytes = len(base_blob)
    del base_blob  # every SYNC frame holds its own copy

    t0 = time.perf_counter()
    try:
        artifact_msgs = executor.run(syncs, plan.tasks, base.config)
        expert_wall = time.perf_counter() - t0
        del syncs  # consumed: the coordinator holds no copy of the base but its arena
        # sorting makes everything downstream arrival-order independent
        received = sorted(
            (decode_artifact(transport.send_artifact(m)) for m in artifact_msgs),
            key=lambda a: a.expert_index,
        )
        # each decoded snapshot is a view of its ARTF frame and now the only
        # reference to it, so every snapshot exists once
        del artifact_msgs
        if len(received) != plan.k:
            raise ProtocolViolation(f"expected {plan.k} artifacts, got {len(received)}")
        check_artifacts(received, plan.k)
    except (ExpertFailure, ProtocolViolation) as e:
        raise StepFailure(f"step {plan.step_id}: {e}") from e

    memory_bytes_at_peak = exemplar_block_nbytes(len(memory), memory.exemplars.dim)
    expert_param_bytes = sum(a.param_vector.nbytes for a in received)

    t1 = time.perf_counter()
    rng = np.random.default_rng(child_seed(cfg.seed, "consolidate", plan.step_id))
    try:
        new_base = consolidate(base, received, memory, cfg, rng)
    except (NonFiniteError, ExpertFailure, ProtocolViolation) as e:
        raise StepFailure(f"step {plan.step_id}: consolidation: {e}") from e
    consolidation_wall = time.perf_counter() - t1
    distances = expert_distances(base, new_base, received, plan)

    pool = merge_pool(memory, [a.buffer for a in received])
    memory.replace(
        subsample_memory(
            pool, memory.capacity, seed=child_seed(cfg.seed, "memory", plan.step_id)
        )
    )
    # buffers are dropped here: nothing retains them past this point

    cost = StepCost(
        step_id=plan.step_id,
        broadcast_bytes=transport.broadcast_bytes - broadcast_before,
        upload_bytes=transport.upload_bytes - upload_before,
        memory_bytes=memory_bytes_at_peak,
        expert_param_bytes=expert_param_bytes,
        model_bytes=model_bytes,
    )
    return StepResult(
        base=new_base,
        cost=cost,
        artifacts=received,
        expert_wall_s=expert_wall,
        consolidation_wall_s=consolidation_wall,
        expert_distances=distances,
    )


def plan_steps(stream: TaskStream, cfg: ExperimentConfig) -> list[StepPlan]:
    """Consecutive batches of ``cfg.bmc.experts_per_step`` tasks; the final
    step may carry fewer. Expert seeds derive from ``cfg.seed``."""
    k = cfg.bmc.experts_per_step
    if k < 1:
        raise ValueError("need at least one expert per step")
    plans = []
    tasks = list(stream.tasks)
    for step_id, start in enumerate(range(0, len(tasks), k)):
        batch = tuple(tasks[start : start + k])
        seeds = tuple(
            child_seed(cfg.seed, "expert", start + j) for j in range(len(batch))
        )
        plans.append(StepPlan(step_id=step_id, tasks=batch, expert_seeds=seeds))
    return plans


def run_full_stream(stream: TaskStream, cfg: ExperimentConfig, executor=None) -> RunReport:
    """Iterate incremental steps over the whole stream, evaluating after each.

    Reads the ``model``, ``training`` and ``bmc`` sections of ``cfg``; the
    master seed is ``cfg.seed``. Evaluation happens after consolidation. A
    failed step stops the run; the report carries the partial history and
    the failed step id.
    """
    b = cfg.bmc
    if executor is None:
        executor = SerialExecutor() if b.workers <= 1 else ProcessExecutor(b.workers)
    recorder = RunRecorder("bmc")
    base = build_model(build_model_config(cfg.model, stream), seed=child_seed(cfg.seed, "init"))
    memory = Memory(b.memory_capacity, stream.dim)
    transport = CountingTransport()
    for plan in plan_steps(stream, cfg):
        step_t0 = time.perf_counter()
        try:
            result = run_incremental_step(base, plan, memory, cfg, transport, executor)
        except StepFailure:
            return recorder.report(base, failed_step=plan.step_id)
        base = result.base
        recorder.record(plan.step_id, base, plan.tasks, step_t0, result)
        del result  # its artifacts hold this step's snapshots; none outlives the step
    return recorder.report(base)
