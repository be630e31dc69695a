"""Per-layer spans and counts, recorded from outside the program.

The tracer replaces public functions and methods of the ``batchcl``
modules with timing wrappers. A function is patched at its definition and
under every name another ``batchcl`` module imported it as, so a caller
that looks the name up in its own module globals still goes through the
wrapper. A target that no longer exists raises :class:`TraceError`: a
renamed layer must break the traced run, not leave its metric at zero.

Times are inclusive: a metric sums the wall time of its outermost calls, so
``model.student_forward_s`` also counts the forwards made inside
``predict``. The self time of a span is its duration minus the time of the
wrapped calls it made.

Pool workers are forked from the traced coordinator and inherit the
wrappers. Each worker writes what one ``remote_train`` call added to its
accumulators to a file in the trace directory; :meth:`Tracer.report`
merges those files, so worker-side model, engine and replay time is
counted on the process path too.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import sys
import time
from collections import defaultdict
from pathlib import Path

# (accumulator, "module:qualified name") for every wrapped callable
SPANS = (
    ("protocol.step", "batchcl.protocol:run_incremental_step"),
    ("protocol.run_full_stream", "batchcl.protocol:run_full_stream"),
    ("protocol.consolidate", "batchcl.protocol:consolidate"),
    ("protocol.expert_phase", "batchcl.protocol:SerialExecutor.run"),
    ("protocol.expert_phase", "batchcl.protocol:ProcessExecutor.run"),
    ("protocol.remote_train", "batchcl.protocol:remote_train"),
    ("protocol.codec", "batchcl.protocol:CountingTransport.send_sync"),
    ("protocol.codec", "batchcl.protocol:CountingTransport.send_artifact"),
    ("protocol.codec", "batchcl.protocol:decode_artifact"),
    ("model.teacher_forward", "batchcl.model:ResidualClassifier.forward_as_teacher"),
    ("model.student_forward", "batchcl.model:ResidualClassifier.forward_with_taps"),
    ("model.predict", "batchcl.model:ResidualClassifier.predict"),
    ("model.snapshot", "batchcl.model:ResidualClassifier.to_param_vector"),
    ("model.snapshot", "batchcl.model:model_from_vector"),
    ("model.snapshot", "batchcl.model:ParamVector.to_bytes"),
    ("model.snapshot", "batchcl.model:ParamVector.from_bytes"),
    ("engine.backward", "batchcl.engine.autodiff:loss_and_grads"),
    ("engine.sgd", "batchcl.engine.optim:SGD.step"),
    ("losses.objective", "batchcl.losses:l_base"),
    ("losses.objective", "batchcl.losses:l_exp"),
    ("replay.buffer_sample", "batchcl.replay:sample_buffer"),
    ("replay.pool", "batchcl.replay:merge_pool"),
    ("replay.pool", "batchcl.replay:subsample_memory"),
    ("replay.pool", "batchcl.replay:draw_batch"),
    ("streams.generate", "batchcl.streams:generate_stream"),
    ("streams.eval", "batchcl.streams:evaluate_cil"),
    ("config.parse", "batchcl.config:parse_config"),
    ("cli.run_experiment", "batchcl.cli:run_experiment"),
)

TENSOR_INIT = "batchcl.engine.autodiff:Tensor.__init__"

# every per-layer metric of a traced run, with its unit, in report order;
# run.py fills in the last two from the run's summary and an untraced run
PER_LAYER_UNITS = {
    "protocol.step_s": "s",
    "protocol.consolidate_s": "s",
    "protocol.consolidate_self_s": "s",
    "protocol.expert_phase_s": "s",
    "protocol.expert_busy_s": "s",
    "protocol.pool_idle_share": "fraction",
    "protocol.codec_s": "s",
    "protocol.wire_bytes": "bytes",
    "protocol.ipc_bytes": "bytes",
    "protocol.wire_useful_ratio": "ratio",
    "model.teacher_forward_s": "s",
    "model.teacher_forward_calls": "count",
    "model.student_forward_s": "s",
    "model.predict_s": "s",
    "model.snapshot_s": "s",
    "engine.backward_s": "s",
    "engine.backward_calls": "count",
    "engine.sgd_s": "s",
    "engine.tape_nodes": "count",
    "losses.objective_s": "s",
    "replay.buffer_sample_s": "s",
    "replay.pool_s": "s",
    "streams.generate_s": "s",
    "streams.eval_s": "s",
    "config.parse_s": "s",
    "cli.io_s": "s",
    "streams.final_mean_acc": "fraction",
    "trace.overhead_s": "s",
}


class TraceError(RuntimeError):
    """A traced name is missing or a layer reported nothing it should have."""


def _resolve(target: str):
    """Return (owner, attribute, raw value) for "module:name" or "module:Class.name"."""
    modname, qual = target.split(":")
    module = importlib.import_module(modname)
    owner, _, attr = qual.rpartition(".")
    try:
        holder = getattr(module, owner) if owner else module
        raw = holder.__dict__[attr] if owner else getattr(module, attr)
    except (AttributeError, KeyError):
        raise TraceError(f"traced name {target} no longer exists") from None
    return holder, attr, raw


class Tracer:
    """In-memory span accumulators for one process tree."""

    def __init__(self, trace_dir: str | Path):
        self.trace_dir = Path(trace_dir)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.sums: dict[str, float] = defaultdict(float)  # counts, bytes, hook times
        self._active: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # wrapped-children time of each open span
        self._owner_pid = os.getpid()

    # -- wrapping ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        total, self_time, calls, active, open_spans = (
            self.total, self.self_time, self.calls, self._active, self._open
        )
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            active[name] += 1
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                active[name] -= 1
                if not active[name]:
                    total[name] += dt
                    calls[name] += 1
                self_time[name] += dt - children
            if after is not None:
                after(args, result, dt)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in SPANS; raises TraceError for a missing one."""
        hooks = {
            "batchcl.protocol:run_incremental_step": self._after_step,
            "batchcl.protocol:SerialExecutor.run": self._after_expert_phase,
            "batchcl.protocol:ProcessExecutor.run": self._after_process_phase,
        }
        for name, target in SPANS:
            holder, attr, raw = _resolve(target)
            after = hooks.get(target)
            if isinstance(raw, classmethod):
                setattr(holder, attr, classmethod(self._span(name, raw.__func__, after)))
            elif isinstance(holder, type):
                setattr(holder, attr, self._span(name, raw, after))
            else:
                wrapped = self._span(name, raw, after)
                if name == "protocol.remote_train":
                    wrapped = self._flushing(wrapped)
                self._patch_everywhere(raw, wrapped)

        cls, attr, init = _resolve(TENSOR_INIT)
        sums = self.sums

        @functools.wraps(init)
        def counting_init(tensor, *args, **kwargs):
            sums["engine.tape_nodes"] += 1
            init(tensor, *args, **kwargs)

        setattr(cls, attr, counting_init)

    @staticmethod
    def _patch_everywhere(original, wrapped) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("batchcl"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)

    # -- result hooks -----------------------------------------------------

    def _after_step(self, args, result, dt) -> None:
        self.sums["protocol.wire_bytes"] += (
            result.cost.broadcast_bytes + result.cost.upload_bytes
        )
        self.sums["protocol.expert_busy_s"] += sum(
            a.stats.wall_clock_s for a in result.artifacts
        )

    def _after_expert_phase(self, args, result, dt) -> None:
        executor, contexts = args[0], args[1]
        workers = min(getattr(executor, "workers", 1), len(contexts))
        self.sums["protocol.pool_capacity_s"] += workers * dt

    def _after_process_phase(self, args, result, dt) -> None:
        self._after_expert_phase(args, result, dt)
        self.sums["protocol.ipc_bytes"] += sum(
            len(pickle.dumps(obj)) for obj in (*args[1], *result)
        )

    # -- worker side ------------------------------------------------------

    def _snapshot(self) -> dict:
        return {
            "total": dict(self.total),
            "self_time": dict(self.self_time),
            "calls": dict(self.calls),
            "sums": dict(self.sums),
        }

    def _flushing(self, fn):
        """In a pool worker, write what each call added to the accumulators."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self._owner_pid:
                return fn(*args, **kwargs)
            before = self._snapshot()
            try:
                return fn(*args, **kwargs)
            finally:
                after = self._snapshot()
                delta = {
                    part: {k: v - before[part].get(k, 0) for k, v in values.items()}
                    for part, values in after.items()
                }
                path = self.trace_dir / f"worker-{os.getpid()}-{time.perf_counter_ns()}.json"
                path.write_text(json.dumps(delta))

        return wrapper

    def _merge_workers(self) -> int:
        files = sorted(self.trace_dir.glob("worker-*.json"))
        for path in files:
            delta = json.loads(path.read_text())
            for part in ("total", "self_time", "calls", "sums"):
                acc = getattr(self, part)
                for k, v in delta[part].items():
                    acc[k] += v
        return len(files)

    # -- report -----------------------------------------------------------

    def report(self) -> dict[str, float]:
        """Per-layer metrics of the traced run, worker-side spans included."""
        worker_files = self._merge_workers()
        total, c = self.total, self.sums
        if c["protocol.ipc_bytes"] and not worker_files:
            raise TraceError("the process pool ran but no worker reported its spans")
        busy, capacity = c["protocol.expert_busy_s"], c["protocol.pool_capacity_s"]
        ipc = c["protocol.ipc_bytes"]
        return {
            "protocol.step_s": total["protocol.step"],
            "protocol.consolidate_s": total["protocol.consolidate"],
            "protocol.consolidate_self_s": self.self_time["protocol.consolidate"],
            "protocol.expert_phase_s": total["protocol.expert_phase"],
            "protocol.expert_busy_s": busy,
            "protocol.pool_idle_share": 1.0 - busy / capacity if capacity else 0.0,
            "protocol.codec_s": total["protocol.codec"],
            "protocol.wire_bytes": int(c["protocol.wire_bytes"]),
            "protocol.ipc_bytes": int(ipc),
            "protocol.wire_useful_ratio": c["protocol.wire_bytes"] / ipc if ipc else 0.0,
            "model.teacher_forward_s": total["model.teacher_forward"],
            "model.teacher_forward_calls": self.calls["model.teacher_forward"],
            "model.student_forward_s": total["model.student_forward"],
            "model.predict_s": total["model.predict"],
            "model.snapshot_s": total["model.snapshot"],
            "engine.backward_s": total["engine.backward"],
            "engine.backward_calls": self.calls["engine.backward"],
            "engine.sgd_s": total["engine.sgd"],
            "engine.tape_nodes": int(c["engine.tape_nodes"]),
            "losses.objective_s": total["losses.objective"],
            "replay.buffer_sample_s": total["replay.buffer_sample"],
            "replay.pool_s": total["replay.pool"],
            "streams.generate_s": total["streams.generate"],
            "streams.eval_s": total["streams.eval"],
            "config.parse_s": total["config.parse"],
            # run_experiment minus run_full_stream and stream generation:
            # directory, record and summary writing
            "cli.io_s": self.self_time["cli.run_experiment"],
        }
