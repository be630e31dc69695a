"""One bit-identity contract across process layouts.

A config runs its experts serially or in forked workers, and its
consolidation's teachers in the student's stacked pass or in a forked
teacher process. Every layout must give the same run: the same final
parameters, the same ``summary.json`` bytes and the same step rows, wall
times aside. Each layout is forced through the module constants that
choose it, as ``helpers.fork_teachers`` does.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from helpers import experiment, fork_teachers
from hypothesis import given, settings
from hypothesis import strategies as st

import batchcl.protocol as protocol_mod
from batchcl.losses import DISTILL_KINDS
from batchcl.protocol import ProcessExecutor, SerialExecutor, run_full_stream
from batchcl.replay import SAMPLING_STRATEGIES
from batchcl.run import write_run
from batchcl.streams import generate_stream

BUFFER = 6  # each expert's buffer, in rows


@st.composite
def configs(draw):
    """A two-step run config of the toy shape over every layout knob."""
    k = draw(st.integers(1, 4))
    memory = draw(st.sampled_from([k * BUFFER // 2, 3 * k * BUFFER]))  # vs a step's buffers
    return experiment(
        "bmc", draw(st.integers(0, 2 ** 16)),
        model=dict(res_blocks=1, res_layers_per_block=1, res_dim=8, hidden_dim=6,
                   dropout_p=draw(st.sampled_from([0.0, 0.1]))),
        training=dict(epochs_per_task=1, lr=0.1, batch_size=8),
        bmc=dict(experts_per_step=k, rehearsal_epochs=2, buffer_capacity=BUFFER,
                 memory_capacity=memory,
                 workers=draw(st.integers(1, 3)),
                 distill_kind=draw(st.sampled_from(DISTILL_KINDS)),
                 sampling=draw(st.sampled_from(SAMPLING_STRATEGIES)),
                 consolidation_coef=draw(st.sampled_from([0.0, 1.0])),
                 stability_coef=draw(st.sampled_from([0.0, 1.0]))),
    )


def run_in_layout(cfg, experts: str, teachers: str) -> tuple:
    """(final parameter bytes, ``summary.json`` bytes, step rows without
    wall times) of ``cfg`` with the experts and teachers in those layouts."""
    stream = generate_stream("permuted", n_tasks=2 * cfg.bmc.experts_per_step,
                             classes_per_task=2, dim=6, train_per_task=24, val_per_task=8,
                             seed=cfg.seed)
    executor = SerialExecutor() if experts == "serial" else ProcessExecutor(cfg.bmc.workers)
    with pytest.MonkeyPatch.context() as mp:
        if teachers == "forked":
            fork_teachers(mp)
        else:  # no consolidation is long enough to fork
            mp.setattr(protocol_mod, "_FORK_MIN_BATCHES", 10 ** 9)
        report = run_full_stream(stream, cfg, executor=executor)
    assert report.failed_step is None
    with tempfile.TemporaryDirectory() as out:
        write_run(out, cfg.seed, report, None)
        summary = (Path(out) / "summary.json").read_bytes()
        rows = [json.loads(line) for line in (Path(out) / "records.jsonl").read_text().splitlines()]
    steps = [r for r in rows if r["type"] == "step"]
    for r in steps:
        r.pop("wall_clock_s")
    return report.final_params.payload.tobytes(), summary, steps


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(cfg=configs())
def test_every_layout_gives_the_same_run(cfg):
    serial = run_in_layout(cfg, "serial", "stacked")
    for experts, teachers in (("serial", "forked"), ("forked", "stacked"), ("forked", "forked")):
        assert run_in_layout(cfg, experts, teachers) == serial, (experts, teachers)
