"""Coordinator/expert orchestration with byte-exact cost accounting.

One incremental step processes a batch of k disjoint tasks:

  1. sync       — the coordinator serializes the base model once and sends
                  one context message per expert;
  2. regularize — experts train in parallel, each seeing ONLY its own task
                  data, the base snapshot, hyper-parameters, and a seed;
  3. upload     — every expert sends exactly one artifact message (its
                  parameter snapshot, buffer, and training stats);
  4. consolidate— the coordinator rebuilds the expert teachers locally,
                  trains the base on the pooled memory+buffer data, then
                  refreshes the memory and discards the buffers.

A step is atomic: any expert failure leaves the base model and the memory
byte-identical to before the step.

All randomness is derived from the run's master seed through
:func:`child_seed` with documented labels, so any phase can be replayed
independently:

  ``("expert", j)``       expert for global task index j; below it,
  ``("train",)``          the expert's batch-order/dropout generator and
  ``("buffer",)``         its buffer-sampling seed;
  ``("consolidate", t)``  step t's pool-draw/dropout generator;
  ``("memory", t)``       step t's memory-subsample seed;
  ``("init",)``           base-model initialization.

Wire format (everything little-endian): a message is a 4-byte tag, a u64
payload length, then the payload. Payload layouts are documented on the
encode functions; sizes are exact and the counting transport records them,
which is what makes the cost ledger auditable by arithmetic.
"""

from __future__ import annotations

import struct
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig, build_model_config
from .engine import SGD, NonFiniteError, PlateauScheduler, loss_and_grads
from .losses import DISTILL_KINDS, LossCoefficients, l_base, l_bd, l_exp
from .model import (
    ModelConfig,
    ParamVector,
    ResidualClassifier,
    build_model,
    model_from_vector,
    stack_vectors,
)
from .replay import (
    SAMPLING_STRATEGIES,
    Buffer,
    ExemplarSet,
    Memory,
    draw_batch,
    merge_pool,
    sample_buffer,
    subsample_memory,
)
from .streams import (
    MetricsRecord,
    Task,
    TaskStream,
    backward_transfer,
    evaluate_cil,
    mean_accuracy,
)

TAG_SYNC = b"SYNC"
TAG_ARTIFACT = b"ARTF"
FRAME_OVERHEAD = 12  # 4-byte tag + u64 payload length


class ProtocolViolation(RuntimeError):
    """A constraint of the communication contract was broken."""


class ExpertFailure(RuntimeError):
    """An expert diverged or crashed; the step must be rolled back."""


class StepFailure(RuntimeError):
    """Raised by run_incremental_step after a rollback."""


def child_seed(master: int, *parts) -> int:
    """Derive a decorrelated child seed from a master seed and label path.

    Labels are hashed (CRC-32 of their string form) into a SeedSequence
    spawn key, so every (master, path) pair maps to a stable independent
    stream. Public because reference implementations in tests replicate
    the framework's exact randomness through it.
    """
    key = tuple(zlib.crc32(str(p).encode()) for p in parts)
    ss = np.random.SeedSequence(master, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# hyper-parameters and plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpertHyper:
    """Everything an expert is allowed to know beyond its task and the base."""

    epochs: int = 2
    lr: float = 0.1
    stability_coef: float = 1.0
    batch_size: int = 32
    buffer_capacity: int = 10_000
    sampling: str = "random"
    distill_kind: str = "features"

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
    hyper: ExpertHyper

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("a step needs at least one task")
        if len(self.expert_seeds) != len(self.tasks):
            raise ValueError("one seed per expert required")
        ranges = [(t.class_lo, t.class_hi) for t in self.tasks]
        for i, (lo_a, hi_a) in enumerate(ranges):
            for lo_b, hi_b in ranges[i + 1 :]:
                if lo_a < hi_b and lo_b < hi_a:
                    raise ValueError("tasks within a step must have disjoint classes")

    @property
    def k(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class ExpertContext:
    """The COMPLETE execution context of one expert.

    By construction this is all a worker can touch: its own task, the
    serialized base model, hyper-parameters, and a seed. There is no field
    through which the central memory, other tasks, or other experts could
    be reached; the communication-constraint tests assert exactly that.
    """

    expert_index: int
    task: Task
    base_blob: bytes
    model_config: ModelConfig
    hyper: ExpertHyper
    seed: int


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


def frame(tag: bytes, payload: bytes) -> bytes:
    """tag (4 bytes) | payload length (u64) | payload"""
    if len(tag) != 4:
        raise ValueError("tag must be 4 bytes")
    return tag + struct.pack("<Q", len(payload)) + payload


def unframe(blob: bytes) -> tuple[bytes, bytes]:
    tag = blob[:4]
    (length,) = struct.unpack_from("<Q", blob, 4)
    payload = blob[12 : 12 + length]
    if len(payload) != length:
        raise ProtocolViolation(f"frame truncated: expected {length} payload bytes")
    return tag, payload


def encode_exemplars(es: ExemplarSet) -> bytes:
    """count u64 | dim u32 | rows, each: dim x f32 | class u32 | task u32 | origin i32"""
    head = struct.pack("<QI", len(es), es.dim)
    dt = np.dtype(
        [("x", "<f4", (es.dim,)), ("y", "<u4"), ("t", "<u4"), ("o", "<i4")]
    )
    rows = np.empty(len(es), dtype=dt)
    rows["x"] = es.features
    rows["y"] = es.labels
    rows["t"] = es.task_ids
    rows["o"] = es.origins
    return head + rows.tobytes()


def decode_exemplars(blob: bytes) -> ExemplarSet:
    count, dim = struct.unpack_from("<QI", blob, 0)
    dt = np.dtype([("x", "<f4", (dim,)), ("y", "<u4"), ("t", "<u4"), ("o", "<i4")])
    rows = np.frombuffer(blob, dtype=dt, count=count, offset=12)
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
    owner, capacity = struct.unpack_from("<IQ", blob, 0)
    return Buffer(exemplars=decode_exemplars(blob[12:]), capacity=capacity, owner=owner)


def encode_sync(ctx: ExpertContext) -> bytes:
    """The coordinator-to-expert message (task data itself lives worker-side).

    expert u32 | seed u64 | epochs u32 | buffer capacity u64 | lr f64 |
    stability f64 | batch u32 | sampling u8 | distill u8 | base blob u64+bytes
    """
    h = ctx.hyper
    fixed = struct.pack(
        "<IQIQddIBB",
        ctx.expert_index,
        ctx.seed,
        h.epochs,
        h.buffer_capacity,
        h.lr,
        h.stability_coef,
        h.batch_size,
        SAMPLING_STRATEGIES.index(h.sampling),
        DISTILL_KINDS.index(h.distill_kind),
    )
    return fixed + struct.pack("<Q", len(ctx.base_blob)) + ctx.base_blob


SYNC_FIXED_NBYTES = 4 + 8 + 4 + 8 + 8 + 8 + 4 + 1 + 1 + 8  # 54


def decode_sync(payload: bytes) -> tuple[int, int, ExpertHyper, bytes]:
    """Inverse of :func:`encode_sync` minus the worker-side-only task data.

    Returns (expert index, seed, hyper-parameters, base snapshot bytes).
    """
    (
        expert_index,
        seed,
        epochs,
        buffer_capacity,
        lr,
        stability,
        batch,
        sampling_idx,
        distill_idx,
    ) = struct.unpack_from("<IQIQddIBB", payload, 0)
    off = struct.calcsize("<IQIQddIBB") + 8
    (blob_len,) = struct.unpack_from("<Q", payload, off - 8)
    blob = payload[off : off + blob_len]
    if len(blob) != blob_len:
        raise ProtocolViolation("sync payload truncated before base snapshot end")
    hyper = ExpertHyper(
        epochs=epochs,
        lr=lr,
        stability_coef=stability,
        batch_size=batch,
        buffer_capacity=buffer_capacity,
        sampling=SAMPLING_STRATEGIES[sampling_idx],
        distill_kind=DISTILL_KINDS[distill_idx],
    )
    return expert_index, seed, hyper, blob


def encode_artifact(a: ExpertArtifact) -> bytes:
    """expert u32 | epochs u32 | final loss f64 | wall clock f64 |
    snapshot u64+bytes | buffer u64+bytes
    """
    pv = a.param_vector.to_bytes()
    buf = encode_buffer(a.buffer)
    return (
        struct.pack("<IIdd", a.expert_index, a.stats.epochs, a.stats.final_loss,
                    a.stats.wall_clock_s)
        + struct.pack("<Q", len(pv)) + pv
        + struct.pack("<Q", len(buf)) + buf
    )


ARTIFACT_FIXED_NBYTES = 4 + 4 + 8 + 8 + 8 + 8  # 40


def decode_artifact(payload: bytes) -> ExpertArtifact:
    expert_index, epochs, final_loss, wall = struct.unpack_from("<IIdd", payload, 0)
    off = 24
    (pv_len,) = struct.unpack_from("<Q", payload, off)
    off += 8
    pv = ParamVector.from_bytes(payload[off : off + pv_len])
    off += pv_len
    (buf_len,) = struct.unpack_from("<Q", payload, off)
    off += 8
    buf = decode_buffer(payload[off : off + buf_len])
    return ExpertArtifact(
        expert_index=expert_index,
        param_vector=pv,
        buffer=buf,
        stats=ExpertStats(epochs=epochs, final_loss=final_loss, wall_clock_s=wall),
    )


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


class CountingTransport:
    """In-process channel that records the exact bytes of every message.

    Doubles as the enforcement point for the one-artifact-per-expert rule.
    """

    def __init__(self):
        self.broadcast_bytes = 0
        self.upload_bytes = 0
        self._artifact_senders: set[int] = set()
        self.artifact_count = 0

    def begin_step(self) -> None:
        self._artifact_senders.clear()
        self.artifact_count = 0

    def send_sync(self, ctx: ExpertContext) -> bytes:
        msg = frame(TAG_SYNC, encode_sync(ctx))
        self.broadcast_bytes += len(msg)
        return msg

    def send_artifact(self, artifact: ExpertArtifact) -> bytes:
        if artifact.expert_index in self._artifact_senders:
            raise ProtocolViolation(
                f"expert {artifact.expert_index} already sent its artifact this step"
            )
        self._artifact_senders.add(artifact.expert_index)
        msg = frame(TAG_ARTIFACT, encode_artifact(artifact))
        self.upload_bytes += len(msg)
        self.artifact_count += 1
        return msg


# ---------------------------------------------------------------------------
# cost ledger
# ---------------------------------------------------------------------------

MEGABYTE = 1e6  # SI, matching "megabytes" in the cost definition


@dataclass(frozen=True)
class StepCost:
    step_id: int
    broadcast_bytes: int
    upload_bytes: int
    memory_bytes: int
    expert_param_bytes: int
    model_bytes: int

    @property
    def communication_bytes(self) -> int:
        return self.broadcast_bytes + self.upload_bytes

    @property
    def central_memory_bytes(self) -> int:
        return self.memory_bytes + self.expert_param_bytes

    def to_dict(self) -> dict:
        return {
            "step_id": self.step_id,
            "broadcast_bytes": self.broadcast_bytes,
            "upload_bytes": self.upload_bytes,
            "memory_bytes": self.memory_bytes,
            "expert_param_bytes": self.expert_param_bytes,
            "model_bytes": self.model_bytes,
        }


@dataclass
class CostLedger:
    steps: list[StepCost] = field(default_factory=list)

    def add(self, entry: StepCost) -> None:
        for name in ("broadcast_bytes", "upload_bytes", "memory_bytes",
                     "expert_param_bytes", "model_bytes"):
            if getattr(entry, name) < 0:
                raise ValueError(f"negative {name}")
        self.steps.append(entry)


def total_cost(ledger: CostLedger) -> float:
    """Mean over steps of (central memory + communication) in MB, plus model MB."""
    if not ledger.steps:
        raise ValueError("empty cost ledger")
    per_step = [
        (e.central_memory_bytes + e.communication_bytes) / MEGABYTE
        for e in ledger.steps
    ]
    model_mb = ledger.steps[-1].model_bytes / MEGABYTE
    return float(np.mean(per_step) + model_mb)


def cost_accuracy(mean_acc: float, t_c: float) -> float:
    """Accuracy points bought per megabyte of total cost."""
    if t_c <= 0:
        raise ValueError("total cost must be positive")
    return mean_acc / t_c


# ---------------------------------------------------------------------------
# expert phase
# ---------------------------------------------------------------------------


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Shuffled index slices; a trailing singleton is dropped (normalization
    needs at least 2 rows in train mode)."""
    order = rng.permutation(n)
    for i in range(0, n, batch_size):
        idx = order[i : i + batch_size]
        if len(idx) >= 2:
            yield idx


def remote_train(ctx: ExpertContext) -> ExpertArtifact:
    """The entire worker-side computation for one expert.

    Reconstructs the base from the received snapshot, initializes the
    expert from it, trains with the stability objective, samples its
    buffer, and returns the single artifact. Raises ExpertFailure if the
    loss turns non-finite.
    """
    base = model_from_vector(ctx.model_config, ParamVector.from_bytes(ctx.base_blob))
    expert = base.copy()
    h = ctx.hyper
    opt = SGD(lr=h.lr)
    sched = PlateauScheduler(opt)
    train_rng = np.random.default_rng(child_seed(ctx.seed, "train"))
    x, y = ctx.task.train_x, ctx.task.train_y
    t0 = time.perf_counter()
    last_epoch_loss = float("nan")
    for _ in range(h.epochs):
        losses = []
        for idx in epoch_batches(len(y), h.batch_size, train_rng):
            student, leaves = expert.forward_with_taps(x[idx], train=True, rng=train_rng)
            teacher = (
                base.forward_as_teacher(x[idx], student.masks)
                if h.stability_coef > 0
                else None
            )
            loss = l_exp(student, teacher, y[idx], h.stability_coef, h.distill_kind)
            try:
                value, grads = loss_and_grads(loss, leaves)
                opt.step(expert.params, grads)
            except NonFiniteError as e:
                raise ExpertFailure(f"expert {ctx.expert_index}: {e}") from e
            losses.append(value)
        if losses:
            last_epoch_loss = float(np.mean(losses))
            sched.step(last_epoch_loss)
    buffer = sample_buffer(
        x, y, ctx.task.task_id,
        capacity=h.buffer_capacity,
        strategy=h.sampling,
        seed=child_seed(ctx.seed, "buffer"),
        owner=ctx.expert_index,
        base_model=base,
        expert_model=expert,
    )
    return ExpertArtifact(
        expert_index=ctx.expert_index,
        param_vector=expert.to_param_vector(),
        buffer=buffer,
        stats=ExpertStats(
            epochs=h.epochs,
            final_loss=last_epoch_loss,
            wall_clock_s=time.perf_counter() - t0,
        ),
    )


class SerialExecutor:
    """Deterministic single-worker execution, in launch order."""

    def run(self, contexts: list[ExpertContext]) -> list[ExpertArtifact]:
        return [remote_train(ctx) for ctx in contexts]


class ProcessExecutor:
    """Parallel execution in worker processes; results re-ordered by expert."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers

    def run(self, contexts: list[ExpertContext]) -> list[ExpertArtifact]:
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            results = list(pool.map(remote_train, contexts))
        return sorted(results, key=lambda a: a.expert_index)


# ---------------------------------------------------------------------------
# consolidation phase
# ---------------------------------------------------------------------------


def consolidate(
    base: ResidualClassifier,
    artifacts: list[ExpertArtifact],
    memory: Memory,
    coefficients: LossCoefficients,
    rehearsal_epochs: int,
    batch_size: int,
    rng: np.random.Generator,
    lr: float = 0.1,
    distill_kind: str = "features",
) -> ResidualClassifier:
    """Distill all experts into a fresh copy of the base on the pooled data.

    The learning rate is reset going in (fresh optimizer/scheduler) and the
    caller never reuses this phase's optimizer afterwards. The expert
    teachers are rebuilt from their transmitted snapshots as one stack, in
    expert-index order so the summation is deterministic: each batch takes
    one teacher pass for all k experts and one batched distillation node.
    Returns the updated copy; the input base is untouched.
    """
    if not artifacts:
        raise ValueError("consolidation needs at least one expert artifact")
    # canonical expert-index order for the pool AND the teacher sum, so the
    # phase is invariant to artifact arrival order
    ordered = sorted(artifacts, key=lambda a: a.expert_index)
    pool = merge_pool(memory, [a.buffer for a in ordered])
    if len(pool) == 0:
        raise ValueError("consolidation pool is empty (no memory, empty buffers)")
    student = base.copy()
    teachers = stack_vectors(base.config, [a.param_vector for a in ordered])
    teacher_origins = [a.expert_index for a in ordered]
    opt = SGD(lr=lr)
    sched = PlateauScheduler(opt)
    batches_per_epoch = max(1, len(pool) // batch_size)
    use_distill = coefficients.consolidation > 0
    for _ in range(rehearsal_epochs):
        losses = []
        for _ in range(batches_per_epoch):
            batch = draw_batch(pool, batch_size, rng)
            student_taps, leaves = student.forward_with_taps(
                batch.features, train=True, rng=rng
            )
            teacher_taps = (
                teachers.forward_as_teacher(batch.features, student_taps.masks)
                if use_distill
                else None
            )
            loss = l_base(
                student_taps,
                teacher_taps,
                batch.labels,
                task_coef=coefficients.task,
                consolidation_coef=coefficients.consolidation,
                kind=distill_kind,
                teacher_origins=teacher_origins,
                batch_origins=batch.origins,
            )
            value, grads = loss_and_grads(loss, leaves)
            opt.step(student.params, grads)
            losses.append(value)
        sched.step(float(np.mean(losses)))
    return student


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
    Both are :func:`l_bd` between dropout-free teacher passes, computed on
    the coordinator from the received artifacts, so nothing extra crosses
    the wire. A buffer of fewer than 2 rows (no batch statistics) gives None.
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
            expert = model_from_vector(base.config, a.param_vector).forward_as_teacher(x)
            row.update(
                expert_base_distance=l_bd(base.forward_as_teacher(x), expert).item(),
                consolidated_expert_distance=l_bd(
                    expert, new_base.forward_as_teacher(x)
                ).item(),
            )
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
    master_seed: int,
    coefficients: LossCoefficients,
    rehearsal_epochs: int,
    transport: CountingTransport,
    executor,
    lr: float = 0.1,
    batch_size: int = 32,
) -> StepResult:
    """Execute sync -> parallel expert training -> consolidate -> memory refresh.

    On success returns the NEW base model and records the step's cost; the
    memory is refreshed in place as the final action. On expert failure
    raises StepFailure with base and memory untouched (the consolidation
    trains a copy, and the memory write only happens after success).
    """
    transport.begin_step()
    broadcast_before = transport.broadcast_bytes
    upload_before = transport.upload_bytes
    base_blob = base.to_param_vector().to_bytes()
    contexts = [
        ExpertContext(
            expert_index=i,
            task=task,
            base_blob=base_blob,
            model_config=base.config,
            hyper=plan.hyper,
            seed=seed,
        )
        for i, (task, seed) in enumerate(zip(plan.tasks, plan.expert_seeds))
    ]
    for ctx in contexts:
        transport.send_sync(ctx)

    t0 = time.perf_counter()
    try:
        artifacts = executor.run(contexts)
    except ExpertFailure as e:
        raise StepFailure(f"step {plan.step_id}: {e}") from e
    expert_wall = time.perf_counter() - t0

    artifact_msgs = [transport.send_artifact(a) for a in artifacts]
    # coordinator works from the decoded messages, not the worker objects;
    # sorting makes everything downstream arrival-order independent
    received = sorted(
        (decode_artifact(unframe(m)[1]) for m in artifact_msgs),
        key=lambda a: a.expert_index,
    )
    if len(received) != plan.k:
        raise ProtocolViolation(
            f"step {plan.step_id}: expected {plan.k} artifacts, got {len(received)}"
        )

    memory_bytes_at_peak = exemplar_block_nbytes(len(memory), memory.exemplars.dim)
    expert_param_bytes = sum(a.param_vector.nbytes for a in received)

    t1 = time.perf_counter()
    rng = np.random.default_rng(child_seed(master_seed, "consolidate", plan.step_id))
    new_base = consolidate(
        base,
        received,
        memory,
        coefficients,
        rehearsal_epochs=rehearsal_epochs,
        batch_size=batch_size,
        rng=rng,
        lr=lr,
        distill_kind=plan.hyper.distill_kind,
    )
    consolidation_wall = time.perf_counter() - t1
    distances = expert_distances(base, new_base, received, plan)

    pool = merge_pool(memory, [a.buffer for a in received])
    memory.replace(
        subsample_memory(
            pool, memory.capacity, seed=child_seed(master_seed, "memory", plan.step_id)
        )
    )
    # buffers are dropped here: nothing retains them past this point

    cost = StepCost(
        step_id=plan.step_id,
        broadcast_bytes=transport.broadcast_bytes - broadcast_before,
        upload_bytes=transport.upload_bytes - upload_before,
        memory_bytes=memory_bytes_at_peak,
        expert_param_bytes=expert_param_bytes,
        model_bytes=new_base.to_param_vector().nbytes,
    )
    return StepResult(
        base=new_base,
        cost=cost,
        artifacts=received,
        expert_wall_s=expert_wall,
        consolidation_wall_s=consolidation_wall,
        expert_distances=distances,
    )


@dataclass
class RunReport:
    method: str
    records: list[MetricsRecord]
    ledger: CostLedger | None
    wall_clock_s: float
    final_mean_acc: float
    final_backward_transfer: float | None
    failed_step: int | None = None
    # final parameters; in-memory only, deliberately absent from to_dict
    final_params: ParamVector | None = None
    # per-step phase wall times; timings stay out of to_dict, like the above
    phase_walls: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "records": [r.to_dict() for r in self.records],
            "cost_steps": [e.to_dict() for e in self.ledger.steps] if self.ledger else None,
            "wall_clock_s": self.wall_clock_s,
            "final_mean_acc": self.final_mean_acc,
            "final_backward_transfer": self.final_backward_transfer,
            "failed_step": self.failed_step,
        }


class RunRecorder:
    """The evaluation bookkeeping every runner shares.

    After each step it scores every task seen so far, strictly
    class-incremental, keeps the accuracy history that backward transfer
    reads, and finally assembles the :class:`RunReport`.
    """

    def __init__(self, method: str, ledger: CostLedger | None = None):
        self.method = method
        self.ledger = ledger
        self.t_start = time.perf_counter()
        self.records: list[MetricsRecord] = []
        self.history: list[dict[int, float]] = []
        self.seen: list[Task] = []
        self.phase_walls: list[dict] = []

    def record(self, step_id: int, model: ResidualClassifier, tasks, step_t0: float,
               experts: list[dict] | None = None) -> None:
        """Evaluate ``model`` after the step that learned ``tasks``."""
        self.seen.extend(tasks)
        accs = evaluate_cil(model, self.seen)
        self.history.append(accs)
        self.records.append(
            MetricsRecord(
                step_id=step_id,
                per_task_acc=accs,
                mean_acc=mean_accuracy(accs),
                first_task_acc=accs[min(self.history[0])],
                backward_transfer=(
                    backward_transfer(self.history) if len(self.history) >= 2 else None
                ),
                wall_clock_s=time.perf_counter() - step_t0,
                experts=experts,
            )
        )

    def report(self, model: ResidualClassifier, failed_step: int | None = None) -> RunReport:
        last = self.records[-1] if self.records else None
        return RunReport(
            method=self.method,
            records=self.records,
            ledger=self.ledger,
            wall_clock_s=time.perf_counter() - self.t_start,
            final_mean_acc=last.mean_acc if last else 0.0,
            final_backward_transfer=last.backward_transfer if last else None,
            failed_step=failed_step,
            final_params=model.to_param_vector(),
            phase_walls=self.phase_walls,
        )


def plan_steps(stream: TaskStream, k: int, master_seed: int, hyper: ExpertHyper) -> list[StepPlan]:
    """Consecutive k-task batches; the final step may carry fewer tasks."""
    if k < 1:
        raise ValueError("need at least one expert per step")
    plans = []
    tasks = list(stream.tasks)
    for step_id, start in enumerate(range(0, len(tasks), k)):
        batch = tuple(tasks[start : start + k])
        seeds = tuple(
            child_seed(master_seed, "expert", start + j) for j in range(len(batch))
        )
        plans.append(
            StepPlan(step_id=step_id, tasks=batch, expert_seeds=seeds, hyper=hyper)
        )
    return plans


def run_full_stream(stream: TaskStream, cfg: ExperimentConfig, executor=None) -> RunReport:
    """Iterate incremental steps over the whole stream, evaluating after each.

    Reads the ``model``, ``training`` and ``bmc`` sections of ``cfg``; the
    master seed is ``cfg.seed``. Evaluation happens after consolidation. A
    failed step stops the run; the report carries the partial history and
    the failed step id.
    """
    b, t = cfg.bmc, cfg.training
    if executor is None:
        executor = SerialExecutor() if b.workers <= 1 else ProcessExecutor(b.workers)
    ledger = CostLedger()
    recorder = RunRecorder("bmc", ledger)
    base = build_model(build_model_config(cfg.model, stream), seed=child_seed(cfg.seed, "init"))
    memory = Memory(b.memory_capacity, stream.dim)
    transport = CountingTransport()
    hyper = ExpertHyper(
        epochs=t.epochs_per_task,
        lr=t.lr,
        stability_coef=b.stability_coef,
        batch_size=t.batch_size,
        buffer_capacity=b.buffer_capacity,
        sampling=b.sampling,
        distill_kind=b.distill_kind,
    )
    coefficients = LossCoefficients(
        stability=b.stability_coef, task=b.task_coef, consolidation=b.consolidation_coef
    )
    for plan in plan_steps(stream, b.experts_per_step, cfg.seed, hyper):
        step_t0 = time.perf_counter()
        try:
            result = run_incremental_step(
                base,
                plan,
                memory,
                master_seed=cfg.seed,
                coefficients=coefficients,
                rehearsal_epochs=b.rehearsal_epochs,
                transport=transport,
                executor=executor,
                lr=t.lr,
                batch_size=t.batch_size,
            )
        except StepFailure:
            return recorder.report(base, failed_step=plan.step_id)
        base = result.base
        ledger.add(result.cost)
        recorder.phase_walls.append({
            "step_id": plan.step_id,
            "expert_wall_s": result.expert_wall_s,
            "consolidation_wall_s": result.consolidation_wall_s,
        })
        recorder.record(plan.step_id, base, plan.tasks, step_t0, result.expert_distances)
    return recorder.report(base)
