"""The SYNC and ARTF payloads between the coordinator and its experts,
and the transport that counts their frames.

Payload layouts are documented on the encode functions; sizes are exact
and each step's own :class:`CountingTransport` records them, which is what
makes the cost ledger auditable by arithmetic. The decoders return views
of the frame they read, so a decoded snapshot is a read-only view of its
frame; a snapshot of another layout than the step's is a protocol
violation where it is decoded. The base snapshot and each ARTF frame are
serialized from a view of the arena with one join.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .losses import DISTILL_KINDS
from .model import ModelConfig, ParamVector
from .pipes import ProtocolViolation, _check_end, _take, _unframe_as, _unpack, frame
from .replay import SAMPLING_STRATEGIES, ExemplarSet

if TYPE_CHECKING:  # encode_sync reads only the attributes of its config
    from .config import ExperimentConfig

TAG_SYNC = b"SYNC"
TAG_ARTIFACT = b"ARTF"


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
        # what the config's bounds reject, since a header is read, not parsed
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (normalization needs 2 rows)")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.stability_coef) and self.stability_coef >= 0):
            raise ValueError(f"stability_coef must be finite and >= 0, got {self.stability_coef}")
        if self.buffer_capacity < 1:
            raise ValueError(f"buffer_capacity must be >= 1, got {self.buffer_capacity}")


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
    buffer: ExemplarSet
    stats: ExpertStats


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


def decode_exemplars(blob: bytes, at: int) -> ExemplarSet:
    """Inverse of :func:`encode_exemplars` for the block at byte ``at`` of
    ``blob``, which runs to its end; errors name offsets in ``blob``."""
    (count, dim), off = _unpack("<QI", blob, at, "exemplar header")
    end = at + exemplar_block_nbytes(count, dim)
    if len(blob) != end:
        raise ProtocolViolation(
            f"exemplar header at byte {at} declares {count} rows of dim {dim}, "
            f"ending at byte {end}, but the block ends at byte {len(blob)}"
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


# expert u32 | seed u64 | epochs u32 | buffer capacity u64 | lr f64 |
# stability f64 | batch u32 | sampling u8 | distill u8 | base blob length u64
_SYNC_HEADER = "<IQIQddIBBQ"
SYNC_FIXED_NBYTES = struct.calcsize(_SYNC_HEADER)  # 54

# expert u32 | epochs u32 | final loss f64 | wall clock f64 | snapshot length u64
_ARTIFACT_HEADER = "<IIddQ"
_BUFFER_LENGTH = "<Q"  # between the snapshot and the buffer
_BUFFER_HEADER = "<IQ"  # the buffer's owner and capacity, then its exemplar block
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


def decode_sync(payload: bytes, config: ModelConfig) -> tuple[int, int, ExpertHyper, ParamVector]:
    """Inverse of :func:`encode_sync`.

    Returns (expert index, seed, hyper-parameters, base snapshot); the
    snapshot, of ``config``'s layout, is a read-only view of ``payload``.
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
    try:
        snapshot = ParamVector.from_bytes(blob, config)
    except ValueError as e:
        raise ProtocolViolation(f"sync base snapshot at byte {off}: {e}") from e
    return expert_index, seed, hyper, snapshot


def _artifact_parts(a: ExpertArtifact, capacity: int) -> list:
    """An ARTF payload as the pieces :func:`frame` joins into one message:
    the ``_ARTIFACT_HEADER`` fields, the snapshot's header and a view of its
    array, the buffer length (``_BUFFER_LENGTH``) and the buffer bytes: its
    owner (the expert) and ``capacity`` (``_BUFFER_HEADER``), then its
    exemplar block."""
    pv = a.param_vector.byte_parts()
    buf = struct.pack(_BUFFER_HEADER, a.expert_index, capacity) + encode_exemplars(a.buffer)
    return [
        struct.pack(_ARTIFACT_HEADER, a.expert_index, a.stats.epochs, a.stats.final_loss,
                    a.stats.wall_clock_s, sum(map(len, pv))),
        *pv, struct.pack(_BUFFER_LENGTH, len(buf)), buf,
    ]


def decode_artifact(payload: bytes, config: ModelConfig) -> ExpertArtifact:
    """Inverse of :func:`_artifact_parts`. The snapshot is a read-only view
    of ``payload`` (:meth:`~batchcl.model.ParamVector.from_bytes`), so it
    keeps the received frame alive and is its only copy; the buffer's rows
    are copied out, its owner and capacity checked and dropped. A snapshot
    of another layout than ``config``'s, and a buffer owned by, or with a
    row tagged for, another expert, over its capacity, of two tasks or not
    ``config.input_dim`` wide, raise ProtocolViolation: :func:`consolidate`
    stacks the snapshots with the base and distills each pool row toward
    the teacher its origin names."""
    (expert_index, epochs, final_loss, wall, pv_len), off = _unpack(
        _ARTIFACT_HEADER, payload, 0, "artifact header"
    )
    pv_at = off
    pv_blob, off = _take(payload, off, pv_len, "artifact snapshot")
    (buf_len,), buf_at = _unpack(_BUFFER_LENGTH, payload, off, "artifact buffer length")
    _, off = _take(payload, buf_at, buf_len, "artifact buffer")
    _check_end(payload, off, "artifact payload")
    try:
        pv = ParamVector.from_bytes(pv_blob, config)
    except ValueError as e:
        raise ProtocolViolation(f"artifact snapshot at byte {pv_at}: {e}") from e
    # the buffer runs to the payload's end, so its errors name payload offsets
    (owner, capacity), at = _unpack(_BUFFER_HEADER, payload, buf_at, "buffer header")
    buffer = decode_exemplars(payload, at)
    others = {owner, *np.unique(buffer.origins).tolist()} - {expert_index}
    if others:
        raise ProtocolViolation(f"artifact of expert {expert_index} carries a buffer tagged "
                                f"with expert {min(others)}")
    bad = f"artifact of expert {expert_index} carries a buffer of"
    tasks = np.unique(buffer.task_ids).tolist()
    if len(buffer) > capacity:
        raise ProtocolViolation(f"{bad} {len(buffer)} rows for capacity {capacity}")
    if len(tasks) > 1:
        raise ProtocolViolation(f"{bad} rows of tasks {tasks}")
    if buffer.dim != config.input_dim:
        raise ProtocolViolation(f"{bad} rows {buffer.dim} wide for inputs {config.input_dim} wide")
    return ExpertArtifact(expert_index, pv, buffer, ExpertStats(epochs, final_loss, wall))


class CountingTransport:
    """In-process channel that records the exact bytes of every message.

    Its messages are the very frames that cross the expert boundary; it
    only counts them.
    """

    def __init__(self):
        self.broadcast_bytes = 0
        self.upload_bytes = 0

    def send_sync(self, payload: bytes) -> bytes:
        """Frame and count one SYNC payload; returns the message for the expert."""
        msg = frame(TAG_SYNC, payload)
        self.broadcast_bytes += len(msg)
        return msg

    def send_artifact(self, msg: bytes) -> bytes:
        """Count one ARTF frame from an expert; returns its payload."""
        payload = _unframe_as(TAG_ARTIFACT, msg)
        self.upload_bytes += len(msg)
        return payload
