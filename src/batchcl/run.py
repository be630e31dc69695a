"""What a run records: its seeds, its step records and their costs, and its files.

Every runner, the BMC stream of :mod:`batchcl.protocol` and the sequential
baselines of :mod:`batchcl.baselines`, derives all of its randomness from the
run's master seed through :func:`child_seed` with documented labels, so any
phase can be replayed independently:

  ``("expert", j)``       expert for global task index j; below it,
  ``("train",)``          the expert's batch-order/dropout generator and
  ``("buffer",)``         its buffer-sampling seed;
  ``("consolidate", t)``  step t's pool-draw/dropout generator;
  ``("memory", t)``       step t's memory-subsample seed;
  ``("init",)``           base-model initialization;
  ``("task", t)``         a baseline's generator for task t;
  ``("bound", t)``        the multitask bound's model for task t.

A :class:`RunRecorder` scores the model after every step and keeps one
:class:`MetricsRecord` per step, with a consolidation step's
:class:`StepCost`: the run's cost ledger is those records' costs.
:func:`write_run` writes the finished :class:`RunReport` as the run's
``records.jsonl`` and ``summary.json``.
"""

from __future__ import annotations

import json
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .model import ParamVector, ResidualClassifier
from .streams import Task, backward_transfer, evaluate_cil, mean_accuracy

MEGABYTE = 1e6  # SI, matching "megabytes" in the cost definition


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


def epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Shuffled index slices; a trailing singleton is dropped (normalization
    needs at least 2 rows in train mode)."""
    order = rng.permutation(n)
    for i in range(0, n, batch_size):
        idx = order[i : i + batch_size]
        if len(idx) >= 2:
            yield idx


# ---------------------------------------------------------------------------
# cost ledger
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepCost:
    step_id: int
    broadcast_bytes: int
    upload_bytes: int
    memory_bytes: int
    expert_param_bytes: int
    model_bytes: int

    def __post_init__(self):
        for name in ("broadcast_bytes", "upload_bytes", "memory_bytes",
                     "expert_param_bytes", "model_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative {name}")

    @property
    def communication_bytes(self) -> int:
        return self.broadcast_bytes + self.upload_bytes

    @property
    def central_memory_bytes(self) -> int:
        return self.memory_bytes + self.expert_param_bytes


def total_cost(steps: list[StepCost]) -> float:
    """Mean over steps of (central memory + communication) in MB, plus the
    last step's model MB."""
    if not steps:
        raise ValueError("empty cost ledger")
    per_step = [(e.central_memory_bytes + e.communication_bytes) / MEGABYTE for e in steps]
    model_mb = steps[-1].model_bytes / MEGABYTE
    return float(np.mean(per_step) + model_mb)


def cost_accuracy(mean_acc: float, t_c: float) -> float:
    """Accuracy points bought per megabyte of total cost."""
    if t_c <= 0:
        raise ValueError("total cost must be positive")
    return mean_acc / t_c


# ---------------------------------------------------------------------------
# step records and the run report
# ---------------------------------------------------------------------------


@dataclass
class MetricsRecord:
    """Evaluation snapshot taken after one incremental step, with the
    per-expert telemetry and the byte cost of a consolidation step (None
    for a baseline's)."""

    step_id: int
    per_task_acc: dict[int, float]
    mean_acc: float
    first_task_acc: float
    backward_transfer: float | None
    wall_clock_s: float
    experts: list[dict] | None
    cost: StepCost | None

    def row(self) -> dict:
        """The step's line of ``records.jsonl``."""
        out = {
            "type": "step",
            "step_id": self.step_id,
            "per_task_acc": {str(k): v for k, v in self.per_task_acc.items()},
            "mean_acc": self.mean_acc,
            "first_task_acc": self.first_task_acc,
            "backward_transfer": self.backward_transfer,
            "wall_clock_s": self.wall_clock_s,
        }
        if self.experts is not None:
            out["experts"] = self.experts
        if self.cost is not None:
            out["cost"] = asdict(self.cost)
        return out


@dataclass
class RunReport:
    method: str
    records: list[MetricsRecord]
    wall_clock_s: float
    final_mean_acc: float
    final_backward_transfer: float | None
    failed_step: int | None = None
    # final parameters; in memory only, never written
    final_params: ParamVector | None = None
    # per-step phase wall times; timings stay out of the summary
    phase_walls: list[dict] = field(default_factory=list)


class RunRecorder:
    """The evaluation bookkeeping every runner shares.

    After each step it scores every task seen so far, strictly
    class-incremental, keeps the step's record, and finally assembles the
    :class:`RunReport`.
    """

    def __init__(self, method: str):
        self.method = method
        self.t_start = time.perf_counter()
        self.records: list[MetricsRecord] = []
        self.seen: list[Task] = []
        self.phase_walls: list[dict] = []

    def record(self, step_id: int, model: ResidualClassifier, tasks, step_t0: float,
               step=None) -> None:
        """Evaluate ``model`` after the step that learned ``tasks``.

        ``step`` is a consolidation step's
        :class:`~batchcl.protocol.StepResult`: its cost and per-expert
        telemetry go to the record, and its phase wall times to the report's
        ``phase_walls``.
        """
        self.seen.extend(tasks)
        accs = evaluate_cil(model, self.seen)
        history = [r.per_task_acc for r in self.records] + [accs]
        if step is not None:
            self.phase_walls.append({
                "step_id": step_id,
                "expert_wall_s": step.expert_wall_s,
                "consolidation_wall_s": step.consolidation_wall_s,
            })
        self.records.append(
            MetricsRecord(
                step_id=step_id,
                per_task_acc=accs,
                mean_acc=mean_accuracy(accs),
                first_task_acc=accs[min(history[0])],
                backward_transfer=backward_transfer(history) if len(history) >= 2 else None,
                wall_clock_s=time.perf_counter() - step_t0,
                experts=None if step is None else step.expert_distances,
                cost=None if step is None else step.cost,
            )
        )

    def report(self, model: ResidualClassifier, failed_step: int | None = None) -> RunReport:
        last = self.records[-1] if self.records else None
        return RunReport(
            method=self.method,
            records=self.records,
            wall_clock_s=time.perf_counter() - self.t_start,
            final_mean_acc=last.mean_acc if last else 0.0,
            final_backward_transfer=last.backward_transfer if last else None,
            failed_step=failed_step,
            final_params=model.to_param_vector(),
            phase_walls=self.phase_walls,
        )


# ---------------------------------------------------------------------------
# the run's files
# ---------------------------------------------------------------------------


def write_run(out_dir: str | Path, seed: int, report: RunReport,
              reference: tuple[float, int | None] | None) -> dict:
    """Write ``report`` into ``out_dir`` (made if missing); returns the summary.

    ``records.jsonl`` gets one JSON object per line: each step's row, the
    timing line, then the summary line, which ``summary.json`` repeats. Wall
    times stay on the timing line (the run's, each step's phase walls, and
    the run's relative to ``reference``, the wall time and failed step of a
    sequential fine-tuning run), so a serial rerun reproduces the summary
    byte for byte. A reference run that failed a step is reported as
    ``sgd_failed_step``, and no ``relative_time`` is divided by its wall.
    """
    summary = {
        "type": "summary",
        "method": report.method,
        "seed": seed,
        "n_steps": len(report.records),
        "final_mean_acc": report.final_mean_acc,
        "final_backward_transfer": report.final_backward_transfer,
        "failed_step": report.failed_step,
    }
    if report.records:
        summary["per_task_acc"] = {str(k): v for k, v in report.records[-1].per_task_acc.items()}
    costs = [r.cost for r in report.records if r.cost is not None]
    if costs:
        t_c = total_cost(costs)
        summary["total_cost"] = t_c
        summary["cost_accuracy"] = cost_accuracy(report.final_mean_acc, t_c)
    timing: dict = {"type": "timing", "wall_clock_s": report.wall_clock_s}
    if report.phase_walls:
        timing["steps"] = report.phase_walls
    if reference is not None:
        reference_wall, reference_failed = reference
        timing["sgd_wall_clock_s"] = reference_wall
        if reference_failed is None:
            timing["relative_time"] = report.wall_clock_s / reference_wall
        else:
            timing["sgd_failed_step"] = reference_failed
    lines = [json.dumps(obj, sort_keys=True) + "\n"
             for obj in (*(r.row() for r in report.records), timing, summary)]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "records.jsonl").write_text("".join(lines))
    (out / "summary.json").write_text(lines[-1])
    return summary
