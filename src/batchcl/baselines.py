"""Single-device comparison methods on the shared model/stream/metrics stack.

Three sequential trainers — plain fine-tuning, experience replay, and an
online weight-consolidation penalty — plus the isolated-per-task upper
bound. They all use the same model builder, batch iterator, epoch loop
(``train_epochs``: SGD under the plateau schedule), and class-incremental
evaluation as the distributed path, so differences in the reports come
from the methods alone.
"""

from __future__ import annotations

import time

import numpy as np

from .config import BASELINE_METHODS, ExperimentConfig, build_model_config
from .engine import NonFiniteError, loss_and_grads, train_epochs
from .losses import FisherState, decay_and_anchor, ewc_penalty, task_loss, update_fisher
from .model import ResidualClassifier, build_model
from .replay import ExemplarSet, draw_batch, epoch_batches, subsample_memory
from .run import RunRecorder, RunReport, child_seed
from .streams import TaskStream, evaluate_cil


def _train_task_plain(
    model: ResidualClassifier,
    x: np.ndarray,
    y: np.ndarray,
    cfg: ExperimentConfig,
    rng: np.random.Generator,
    fisher: FisherState | None = None,
) -> None:
    """Fine-tune on one task; optionally add the consolidation penalty.

    With a zero penalty coefficient the step is plain fine-tuning, batch
    for batch, which is what makes the degenerate penalty setting
    reproduce it bit-exactly.
    """
    t, penalty_coef = cfg.training, cfg.baseline.penalty_coef
    use_penalty = fisher is not None and penalty_coef > 0

    def step(batch):
        idx, masks = batch
        tapset, record = model.forward_with_taps(x[idx], True, masks)
        loss = task_loss(tapset, y[idx])
        if not use_penalty:
            return loss_and_grads(loss.value, lambda: model.backward(record, loss))
        penalty, penalty_grads = ewc_penalty(
            model.flat_params, model.layout.param_slices, fisher, penalty_coef)
        return loss_and_grads(loss.value + penalty,
                              lambda: model.backward(record, loss) + penalty_grads)

    train_epochs(
        model.flat_params, model.layout.param_slices, t.lr, t.epochs_per_task,
        lambda: epoch_batches(len(y), t.batch_size, model, rng), step,
    )


def _train_task_replay(
    model: ResidualClassifier,
    x: np.ndarray,
    y: np.ndarray,
    cfg: ExperimentConfig,
    rng: np.random.Generator,
    memory: ExemplarSet,
) -> None:
    """One task of experience replay: half fresh rows, half memory rows.

    The two halves are forwarded separately (each half normalizes over its
    own rows); the step's gradient is the sum of the two passes'. Before
    anything is stored the loop degenerates to plain fine-tuning.
    """
    t = cfg.training
    half = max(2, t.batch_size // 2)

    def step(batch):
        idx, masks = batch
        tapset, record = model.forward_with_taps(x[idx], True, masks)
        loss = task_loss(tapset, y[idx])
        if len(memory) == 0:
            return loss_and_grads(loss.value, lambda: model.backward(record, loss))
        mem_idx, mem_masks = draw_batch(len(memory), half, model, rng)
        mem_taps, mem_record = model.forward_with_taps(memory.features[mem_idx], True, mem_masks)
        mem_loss = task_loss(mem_taps, memory.labels[mem_idx])

        return loss_and_grads(
            loss.value + mem_loss.value,
            lambda: model.backward(record, loss) + model.backward(mem_record, mem_loss),
        )

    train_epochs(
        model.flat_params, model.layout.param_slices, t.lr, t.epochs_per_task,
        lambda: epoch_batches(len(y), t.batch_size, model, rng), step,
    )


def run_baseline(stream: TaskStream, cfg: ExperimentConfig) -> RunReport:
    """Train the chosen sequential method over the stream, task by task.

    Reads the ``model``, ``training`` and ``baseline`` sections of ``cfg``;
    the seed is ``cfg.seed``. Evaluation after each task covers every task
    seen so far with no task identity at test time, through the same
    bookkeeping the distributed method reports with. A task whose training
    turns non-finite fails its step as a BMC step does: the report keeps the
    records of the tasks before it and names the task as ``failed_step``.
    """
    method, seed = cfg.method, cfg.seed
    if method not in BASELINE_METHODS:
        raise ValueError(f"unknown baseline {method!r}; expected one of {BASELINE_METHODS}")
    recorder = RunRecorder(method)
    model = build_model(build_model_config(cfg.model, stream), seed=child_seed(seed, "init"))
    memory = ExemplarSet.empty(stream.dim) if method == "er" else None
    fisher = (
        FisherState.zeros_like(model.flat_params, gamma=cfg.baseline.gamma)
        if method == "oewc"
        else None
    )
    for t, task in enumerate(stream.tasks):
        step_t0 = time.perf_counter()
        rng = np.random.default_rng(child_seed(seed, "task", t))
        try:
            if method == "er":
                _train_task_replay(model, task.train_x, task.train_y, cfg, rng, memory)
            else:
                _train_task_plain(model, task.train_x, task.train_y, cfg, rng, fisher)
        except NonFiniteError:
            return recorder.report(model, failed_step=t)
        if method == "er":
            fresh = ExemplarSet.from_task_data(
                task.train_x, task.train_y, task_id=task.task_id, origin=0
            )
            memory = subsample_memory(ExemplarSet.concat([memory, fresh]),
                                      cfg.baseline.memory_capacity, child_seed(seed, "memory", t))
        elif method == "oewc" and cfg.baseline.penalty_coef > 0:
            update_fisher(model, task.train_x, task.train_y, fisher)
            decay_and_anchor(fisher, model.flat_params)
        recorder.record(t, model, [task], step_t0)
    return recorder.report(model)


def isolated_task_accuracies(stream: TaskStream, cfg: ExperimentConfig) -> dict[int, float]:
    """Train a fresh model per task and score it on that task alone."""
    out: dict[int, float] = {}
    for t, task in enumerate(stream.tasks):
        model = build_model(
            build_model_config(cfg.model, stream), seed=child_seed(cfg.seed, "bound", t)
        )
        rng = np.random.default_rng(child_seed(cfg.seed, "task", t))
        _train_task_plain(model, task.train_x, task.train_y, cfg, rng)
        out[task.task_id] = evaluate_cil(model, [task])[task.task_id]
    return out


def multitask_bound(stream: TaskStream, cfg: ExperimentConfig) -> float:
    """Ceiling for the sequential methods: mean isolated per-task accuracy."""
    accs = isolated_task_accuracies(stream, cfg)
    return float(np.mean(list(accs.values())))
