"""Coordinator/expert orchestration: the expert phase and the step loop.

One incremental step processes a batch of k disjoint tasks:

  1. sync       — the coordinator serializes the base model once and sends
                  each expert one SYNC frame: its index, seed, the run's
                  expert hyper-parameters and the base snapshot;
  2. regularize — experts train in parallel, each decoding its SYNC frame
                  and training on ONLY its own task;
  3. upload     — every expert returns exactly one ARTF frame (its
                  parameter snapshot, buffer, and training stats); the
                  coordinator rejects a frame whose snapshot or buffer it
                  cannot hold, and a buffer of another task's rows;
  4. consolidate— the coordinator pools the memory and the buffers once,
                  distills the experts into a copy of the base on the pool
                  (:mod:`batchcl.consolidation`), then returns the memory
                  refreshed from the same pool and discards the buffers.

One set of hyper-parameters drives both phases: the step functions read
the run's ``ExperimentConfig`` (``seed``, ``training`` and ``bmc``).

A step is atomic by construction: it writes neither the base model nor the
memory, whose :class:`~batchcl.replay.ExemplarSet` it takes and returns
refreshed, so an expert failure, a protocol violation or a diverging
consolidation leaves both byte-identical to before the step.

All randomness is derived from the run's master seed through
:func:`~batchcl.run.child_seed`, whose labels :mod:`batchcl.run` lists, so
any phase can be replayed independently; every train batch's rows and
dropout masks are drawn by :mod:`batchcl.replay`.

The expert boundary carries only the frames of :mod:`batchcl.wire`: an
executor hands each expert exactly the SYNC frame the step's transport
counted and returns exactly the ARTF frame it counts. Task data lives
worker-side: a forked worker inherits its step's tasks, the model shape
and its SYNC frames, and picks its own task by the index in the SYNC
frame. A step lets go of each frame once it has consumed it, so the
coordinator holds each snapshot once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import ExperimentConfig, build_model_config
from .consolidation import consolidate
from .engine import NonFiniteError, loss_and_grads, train_epochs
from .losses import distill, l_exp
from .model import ModelConfig, ResidualClassifier, build_model, model_from_vector, stack_vectors
from .pipes import ExpertFailure, Forked, ProtocolViolation, _unframe_as, frame
from .replay import ExemplarSet, epoch_batches, merge_pool, sample_buffer, subsample_memory
from .run import RunRecorder, RunReport, StepCost, child_seed
from .streams import Task, TaskStream, ranges_overlap
from .wire import (
    TAG_ARTIFACT,
    TAG_SYNC,
    CountingTransport,
    ExpertArtifact,
    ExpertStats,
    _artifact_parts,
    decode_artifact,
    decode_sync,
    encode_sync,
    exemplar_block_nbytes,
)

# not used here: benchmarks/run.py's ledger check imports these from this module
from .pipes import FRAME_OVERHEAD
from .wire import ARTIFACT_FIXED_NBYTES, SYNC_FIXED_NBYTES


class StepFailure(RuntimeError):
    """Raised by run_incremental_step after a rollback."""


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


def remote_train(sync: bytes, tasks: tuple[Task, ...], model_config: ModelConfig) -> bytes:
    """The entire worker-side computation for one expert.

    Decodes the SYNC frame, reconstructs the base from its snapshot,
    initializes the expert from it, trains on ``tasks[expert index]`` (and
    reads no other entry) with the stability objective, samples its
    buffer, and returns the single ARTF frame. Raises ExpertFailure if the
    loss turns non-finite. With a stability term the expert and its base
    are slices 0 and 1 of one stack, so each batch takes one pass for both.
    """
    expert_index, seed, h, snapshot = decode_sync(_unframe_as(TAG_SYNC, sync), model_config)
    if expert_index >= len(tasks):
        raise ProtocolViolation(
            f"sync payload names expert {expert_index} at byte 0, "
            f"but the step has {len(tasks)} tasks"
        )
    task = tasks[expert_index]
    if h.stability_coef > 0:
        # stacked straight from the snapshot: no base arena of its own
        stack = stack_vectors(model_config, [snapshot, snapshot])
        expert, base = stack.slice(0), stack.slice(1)
    else:
        base = model_from_vector(model_config, snapshot)
        stack = expert = base.copy()
    del snapshot  # a view of the SYNC frame; the model arenas hold copies
    train_rng = np.random.default_rng(child_seed(seed, "train"))
    x, y = task.train_x, task.train_y

    def step(batch):
        idx, masks = batch
        student, record = stack.forward_with_taps(x[idx], True, masks)
        base_pass = student.teachers[0] if h.stability_coef > 0 else None
        loss = l_exp(student, base_pass, y[idx], h.stability_coef, h.distill_kind)
        return loss_and_grads(loss.value, lambda: expert.backward(record, loss))

    t0 = time.perf_counter()
    try:
        epoch_losses = train_epochs(
            expert.flat_params, expert.layout.param_slices, h.lr, h.epochs,
            lambda: epoch_batches(len(y), h.batch_size, stack, train_rng), step,
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
    ), h.buffer_capacity))


def _train_experts(syncs: list[bytes], tasks: tuple[Task, ...],
                   model_config: ModelConfig) -> list[bytes]:
    """The ARTF frames of ``syncs``' experts, trained in turn through the
    module's ``remote_train``: the serial run, and an expert worker's job.
    It returns them only when all are done, so in a worker a full pipe
    never holds up its next expert while the coordinator reads another
    worker's pipe."""
    return [remote_train(sync, tasks, model_config) for sync in syncs]


class SerialExecutor:
    """Deterministic single-worker execution, in launch order."""

    def run(self, syncs: list[bytes], tasks: tuple[Task, ...],
            model_config: ModelConfig) -> list[bytes]:
        return _train_experts(syncs, tasks, model_config)


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
    dropout-free teacher pass to the next, one teacher each, computed on
    the coordinator from the received artifacts, so nothing extra crosses
    the wire: one pass of the stack (base, expert, new base) per expert. A
    buffer of fewer than 2 rows (no batch statistics) gives None.
    """
    out = []
    for a in artifacts:
        x = a.buffer.features
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
                expert_base_distance=float(distill("features", passes[0], passes[1]).value),
                consolidated_expert_distance=float(
                    distill("features", passes[1], passes[2]).value),
            )
            del passes  # before the next expert's stack runs: 3 slices of activations
        out.append(row)
    return out


@dataclass
class StepResult:
    base: ResidualClassifier
    memory: ExemplarSet
    cost: StepCost
    artifacts: list[ExpertArtifact]
    expert_wall_s: float
    consolidation_wall_s: float
    expert_distances: list[dict]


def run_incremental_step(
    base: ResidualClassifier,
    plan: StepPlan,
    memory: ExemplarSet,
    cfg: ExperimentConfig,
    executor,
) -> StepResult:
    """Execute sync -> parallel expert training -> consolidate -> memory refresh.

    Reads ``cfg.seed``, ``cfg.training`` and ``cfg.bmc``; the model shape is
    ``base.config``. On success returns the NEW base model, the refreshed
    memory and the step's cost; the step's own transport counts its
    broadcast and upload bytes. Once the decoded artifacts are experts
    0..k-1 in order, each buffer holding only its task's id and classes, it
    merges ``memory`` and their buffers into one pool, trains
    :func:`consolidate` on it with their snapshots (origin j is
    ``snapshots[j]``), and subsamples the same pool to at most
    ``cfg.bmc.memory_capacity`` rows as the refreshed memory. If an expert
    fails, an expert's message breaks the protocol (an ARTF frame
    :func:`decode_artifact` rejects, frames that are not one from each of
    experts 0..k-1, or a buffer of another task's rows), the teacher process
    fails or sends a malformed frame, or the consolidation loss or a
    gradient turns non-finite, raises StepFailure. It never writes ``base``
    or ``memory``: consolidation trains a copy, and the refresh is a new set.
    """
    transport = CountingTransport()
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
            (decode_artifact(transport.send_artifact(m), base.config) for m in artifact_msgs),
            key=lambda a: a.expert_index,
        )
        # each decoded snapshot is a view of its ARTF frame and now the only
        # reference to it, so every snapshot exists once
        del artifact_msgs
        experts = [a.expert_index for a in received]
        if experts != list(range(plan.k)):
            raise ProtocolViolation(f"artifacts came from experts {experts}, but the step "
                                    f"has {plan.k} experts")
        for a, task in zip(received, plan.tasks):
            y, t = a.buffer.labels, a.buffer.task_ids
            if (t != task.task_id).any() or ((y < task.class_lo) | (y >= task.class_hi)).any():
                raise ProtocolViolation(
                    f"buffer of expert {a.expert_index} has rows outside task {task.task_id} "
                    f"and its classes [{task.class_lo}, {task.class_hi})")
    except (ExpertFailure, ProtocolViolation) as e:
        raise StepFailure(f"step {plan.step_id}: {e}") from e

    memory_bytes_at_peak = exemplar_block_nbytes(len(memory), memory.dim)
    expert_param_bytes = sum(a.param_vector.nbytes for a in received)

    t1 = time.perf_counter()
    # in expert order, so a pool row of origin j is distilled toward snapshot j
    pool = merge_pool(memory, [a.buffer for a in received])
    rng = np.random.default_rng(child_seed(cfg.seed, "consolidate", plan.step_id))
    try:
        new_base = consolidate(base, [a.param_vector for a in received], pool, cfg, rng)
    except (NonFiniteError, ExpertFailure, ProtocolViolation) as e:
        raise StepFailure(f"step {plan.step_id}: consolidation: {e}") from e
    consolidation_wall = time.perf_counter() - t1
    distances = expert_distances(base, new_base, received, plan)

    cost = StepCost(
        step_id=plan.step_id,
        broadcast_bytes=transport.broadcast_bytes,
        upload_bytes=transport.upload_bytes,
        memory_bytes=memory_bytes_at_peak,
        expert_param_bytes=expert_param_bytes,
        model_bytes=model_bytes,
    )
    return StepResult(
        base=new_base,
        memory=subsample_memory(pool, cfg.bmc.memory_capacity,
                                child_seed(cfg.seed, "memory", plan.step_id)),
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
    memory = ExemplarSet.empty(stream.dim)
    for plan in plan_steps(stream, cfg):
        step_t0 = time.perf_counter()
        try:
            result = run_incremental_step(base, plan, memory, cfg, executor)
        except StepFailure:
            return recorder.report(base, failed_step=plan.step_id)
        base, memory = result.base, result.memory
        recorder.record(plan.step_id, base, plan.tasks, step_t0, result)
        del result  # its artifacts hold this step's snapshots; none outlives the step
    return recorder.report(base)
