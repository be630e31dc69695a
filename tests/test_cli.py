"""Config schema, runner verbs, sweep sampling, Pareto filtering."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    MALFORMED_TARGETS,
    rewrite_last_artifact,
    send_malformed_targets,
    write_stream_file,
)

import batchcl
import batchcl.protocol as protocol_mod
from batchcl.cli import _build_parser, export_pareto, main, run_experiment, run_sweep, sample_trial
from batchcl.config import (
    ConfigError,
    build_stream,
    config_to_dict,
    parse_config,
    parse_sweep,
)
from batchcl.protocol import FRAME_OVERHEAD, SYNC_FIXED_NBYTES, decode_sync, unframe
from batchcl.replay import Buffer
from batchcl.run import child_seed
from batchcl.streams import TaskStream, load_feature_stream, save_stream


def toy_raw(method="sgd", **extra):
    raw = {
        "method": method,
        "seed": 3,
        "stream": {"kind": "permuted", "n_tasks": 2, "classes_per_task": 2, "dim": 6,
                   "train_per_task": 30, "val_per_task": 12, "seed": 11},
        "model": {"res_blocks": 1, "res_layers_per_block": 1, "res_dim": 8,
                  "hidden_dim": 6, "dropout_p": 0.0},
        "training": {"epochs_per_task": 1, "lr": 0.1, "batch_size": 8},
        "bmc": {"experts_per_step": 2, "rehearsal_epochs": 2,
                "buffer_capacity": 10, "memory_capacity": 30},
    }
    raw.update(extra)
    return raw


class TestConfig:
    def test_round_trip_is_identity(self):
        cfg = parse_config(toy_raw())
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_missing_required_key_named(self):
        raw = toy_raw()
        del raw["method"]
        with pytest.raises(ConfigError, match="method"):
            parse_config(raw)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="momentum"):
            parse_config(toy_raw(momentum=0.9))

    def test_unknown_nested_key_rejected(self):
        raw = toy_raw()
        raw["training"]["warmup"] = 5
        with pytest.raises(ConfigError, match="warmup"):
            parse_config(raw)

    def test_defaults_applied(self):
        raw = {"method": "bmc", "seed": 0, "stream": toy_raw()["stream"]}
        cfg = parse_config(raw)
        assert cfg.bmc.experts_per_step == 10
        assert cfg.bmc.buffer_capacity == 10_000
        assert cfg.bmc.stability_coef == 1.0
        assert cfg.bmc.sampling == "random"
        assert cfg.training.lr == 0.1

    @pytest.mark.parametrize(
        "method, section, key, value",
        [
            ("sgd", "training", "batch_size", 1),
            ("bmc", "training", "batch_size", 1),
            ("er", "baseline", "memory_capacity", 0),
            ("bmc", "bmc", "memory_capacity", 0),
            ("bmc", "bmc", "buffer_capacity", 0),
            ("bmc", "bmc", "experts_per_step", 0),
            ("bmc", "bmc", "workers", -3),
            ("bmc", "bmc", "rehearsal_epochs", -1),
            ("bmc", "bmc", "task_coef", -1.0),
            ("bmc", "bmc", "consolidation_coef", -1.0),
            ("bmc", "bmc", "stability_coef", -1.0),
            ("sgd", "training", "lr", -1.0),
            ("sgd", "model", "dropout_p", 1.5),
            ("sgd", "stream", "n_tasks", 0),
            ("bmc", "stream", "classes_per_task", 0),
            ("sgd", "stream", "dim", 0),
            ("er", "stream", "train_per_task", 0),
            ("bmc", "stream", "val_per_task", 0),
            ("bmc", "stream", "seed", -5),
            ("sgd", "stream", "separation", -1.0),
            ("bmc", "model", "res_dim", 8.0),
            ("sgd", "training", "epochs_per_task", 1.0),
            ("bmc", "bmc", "buffer_capacity", 10.0),
            ("sgd", "stream", "n_tasks", 4.0),
            ("bmc", "training", "lr", float("nan")),
            ("bmc", "bmc", "stability_coef", float("inf")),
        ],
    )
    def test_bad_value_rejected_at_parse_time(self, tmp_path, capsys, method, section,
                                              key, value):
        raw = toy_raw(method=method, out_dir=str(tmp_path / "out"))
        raw.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=f"{section}/{key}"):
            parse_config(raw)
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps(raw))
        assert main(["run", str(cfg_file)]) == 2
        assert f"{section}/{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_both_consolidation_coefficients_zero_rejected_before_anything_runs(
            self, tmp_path, capsys):
        raw = toy_raw(method="bmc", out_dir=str(tmp_path / "out"))
        raw["bmc"].update(task_coef=0, consolidation_coef=0)
        with pytest.raises(ConfigError, match="bmc/task_coef and bmc/consolidation_coef"):
            parse_config(raw)
        cfg_file = tmp_path / "zero.json"
        cfg_file.write_text(json.dumps(raw))
        assert main(["run", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert "bmc/task_coef" in err and "bmc/consolidation_coef" in err
        assert not (tmp_path / "out").exists()
        # either coefficient alone may be 0, and only bmc reads them
        for key in ("task_coef", "consolidation_coef"):
            one = toy_raw(method="bmc")
            one["bmc"][key] = 0
            assert getattr(parse_config(one).bmc, key) == 0
        assert parse_config({**raw, "method": "sgd"}).bmc.task_coef == 0
        # a sweep trial that samples both to 0 is an error row, not a crash
        spec = parse_sweep({"trials": 1, "seed": 5, "base": toy_raw(method="bmc"), "ranges": {
            "bmc.task_coef": {"choices": [0]}, "bmc.consolidation_coef": {"choices": [0]}}})
        (row,) = run_sweep(spec, tmp_path / "sweep")
        assert row["status"] == "error" and "bmc/consolidation_coef" in row["error"]
        assert not (tmp_path / "sweep" / "trial-0000").exists()

    @pytest.mark.parametrize("split", ["train_per_task", "val_per_task"])
    def test_stream_size_the_generator_refuses_exits_2(self, tmp_path, capsys, split):
        # each size passes the schema alone; 5 classes do not fit 3 rows of a split
        raw = toy_raw(method="bmc", out_dir=str(tmp_path / "out"))
        raw["stream"].update({"classes_per_task": 5, split: 3})
        cfg = parse_config(raw)
        with pytest.raises(ConfigError, match="stream/classes_per_task"):
            build_stream(cfg.stream)
        cfg_file = tmp_path / "sizes.json"
        cfg_file.write_text(json.dumps(raw))
        assert main(["run", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert "stream/classes_per_task" in err and "one example per class" in err
        assert not (tmp_path / "out").exists()

    def test_section_bounds_bind_only_the_methods_that_read_them(self):
        raw = toy_raw(method="sgd", baseline={"memory_capacity": 0})
        raw["bmc"]["memory_capacity"] = 0
        cfg = parse_config(raw)
        assert (cfg.baseline.memory_capacity, cfg.bmc.memory_capacity) == (0, 0)

    def test_stream_sizes_bind_generated_streams_only(self):
        raw = toy_raw()
        raw["stream"].update(kind="file", path="stream.bin", n_tasks=0, dim=0, seed=-4)
        assert parse_config(raw).stream.n_tasks == 0
        del raw["stream"]["kind"]  # the default kind is generated
        with pytest.raises(ConfigError, match="stream/"):
            parse_config(raw)

    def test_negative_seed_rejected_at_parse_time(self, tmp_path, capsys):
        raw = toy_raw(out_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError, match="seed"):
            parse_config({**raw, "seed": -1})
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(raw))
        assert main(["run", str(cfg_file), "--seed", "-2"]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_sweep_seed_rejected_at_parse_time(self, tmp_path, capsys):
        raw = {"trials": 2, "seed": -3, "base": toy_raw(out_dir=str(tmp_path / "out")),
               "ranges": {"training.lr": {"low": 0.05, "high": 0.2}}}
        with pytest.raises(ConfigError, match="seed"):
            parse_sweep(raw)
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(json.dumps(raw))
        assert main(["sweep", str(spec_file)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integer_key_range_rejected_at_parse_time(self, tmp_path, capsys):
        # a low/high range would draw a float epoch count for every trial
        raw = {"trials": 2, "seed": 3, "base": toy_raw(out_dir=str(tmp_path / "out")),
               "ranges": {"training.epochs_per_task": {"low": 1, "high": 3}}}
        with pytest.raises(ConfigError, match="ranges/training.epochs_per_task"):
            parse_sweep(raw)
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(json.dumps(raw))
        assert main(["sweep", str(spec_file)]) == 2
        assert "ranges/training.epochs_per_task" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # choices still sweep it
        raw["ranges"]["training.epochs_per_task"] = {"choices": [1, 3]}
        parse_sweep(raw)

    def test_sweep_range_must_target_real_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_sweep({"trials": 1, "seed": 0, "base": toy_raw(),
                         "ranges": {"bmc.nope": {"low": 0, "high": 1}}})

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"{not json", b"[1, 2]"],
                             ids=["undecodable", "invalid", "not_an_object"])
    def test_file_that_is_no_json_object_exits_2(self, tmp_path, capsys, verb, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main([verb, str(path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_sweep_range_needs_bounds_or_choices(self):
        with pytest.raises(ConfigError, match="low"):
            parse_sweep({"trials": 1, "seed": 0, "base": toy_raw(),
                         "ranges": {"training.lr": {"low": 0.5}}})


class TestRunVerb:
    def test_sgd_writes_step_records_and_summary(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(toy_raw(out_dir=str(tmp_path / "out"))))
        assert main(["run", str(cfg_file), "--workers", "1"]) == 0
        lines = [json.loads(s) for s in
                 (tmp_path / "out" / "records.jsonl").read_text().splitlines()]
        kinds = [row["type"] for row in lines]
        assert kinds == ["step", "step", "timing", "summary"]
        assert lines[-1]["method"] == "sgd"
        assert lines[-1]["n_steps"] == 2

    def test_bmc_step_rows_carry_expert_distances(self, tmp_path):
        run_experiment(parse_config(toy_raw(method="bmc")), tmp_path)
        rows = [json.loads(s) for s in (tmp_path / "records.jsonl").read_text().splitlines()]
        steps = [r for r in rows if r["type"] == "step"]
        assert steps and all(len(r["experts"]) == 2 for r in steps)
        for e in steps[0]["experts"]:
            assert {"expert_base_distance", "consolidated_expert_distance"} <= set(e)
        assert "experts" not in json.loads((tmp_path / "summary.json").read_text())

    def test_records_carry_phase_walls_and_expert_losses(self, tmp_path):
        run_experiment(parse_config(toy_raw(method="bmc")), tmp_path)
        rows = [json.loads(s) for s in (tmp_path / "records.jsonl").read_text().splitlines()]
        steps = [r for r in rows if r["type"] == "step"]
        timing = [r for r in rows if r["type"] == "timing"][0]
        assert [w["step_id"] for w in timing["steps"]] == [r["step_id"] for r in steps]
        for w in timing["steps"]:
            assert w["expert_wall_s"] > 0.0 and w["consolidation_wall_s"] > 0.0
        for e in steps[0]["experts"]:
            assert 0.0 < e["final_loss"] < float("inf")
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert not {"steps", "experts", "final_loss"} & set(summary)

    def test_diverging_consolidation_fails_the_step_not_the_run(self, tmp_path):
        # experts train no epoch, so the first loss to blow up is consolidation's
        raw = toy_raw(method="bmc", out_dir=str(tmp_path / "out"))
        raw["training"].update(epochs_per_task=0, lr=1e30)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(raw))
        with np.errstate(all="ignore"):
            assert main(["run", str(cfg_file), "--workers", "1"]) == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["failed_step"] == 0
        assert summary["n_steps"] == 0

    @pytest.mark.parametrize("method", ["er", "sgd", "oewc"])
    @pytest.mark.parametrize("diverging", ["lr", "second_task_rows"])
    def test_diverging_baseline_fails_the_step_not_the_run(self, tmp_path, method, diverging):
        # at lr 1e30 the first task's training blows up; with the second
        # task's train rows scaled by 1e30, the first task trains and the
        # second one's batch statistics overflow
        raw = toy_raw(method=method, out_dir=str(tmp_path / "out"))
        if diverging == "lr":
            raw["training"]["lr"] = 1e30
            failed = 0
        else:
            tasks = build_stream(parse_config(raw).stream).tasks
            scaled = dataclasses.replace(tasks[1], train_x=tasks[1].train_x * np.float32(1e30))
            save_stream(TaskStream((tasks[0], scaled)), str(tmp_path / "stream.bin"))
            raw["stream"] = {"kind": "file", "path": str(tmp_path / "stream.bin")}
            failed = 1
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(raw))
        with np.errstate(all="ignore"):
            assert main(["run", str(cfg_file)]) == 3
        rows = [json.loads(s) for s in (tmp_path / "out" / "records.jsonl").read_text().splitlines()]
        steps = [r for r in rows if r["type"] == "step"]
        assert (rows[-1]["failed_step"], rows[-1]["n_steps"]) == (failed, failed)
        assert json.loads((tmp_path / "out" / "summary.json").read_text()) == rows[-1]
        # the finished tasks' rows are those of the run that does not diverge
        run_experiment(parse_config(toy_raw(method=method)), tmp_path / "clean")
        clean = [json.loads(s) for s in (tmp_path / "clean" / "records.jsonl").read_text()
                 .splitlines()][:failed]
        for row in steps + clean:
            assert row.pop("wall_clock_s") >= 0.0
        assert steps == clean

    def test_overflowed_batch_statistics_fail_the_step(self, tmp_path, monkeypatch):
        # pinned16's shape with 8 tasks and logit distillation at coefficients
        # of 32, the run's logit count, so each distance is the sum over
        # logits: step 1's consolidation drives the student's stem weights to
        # about 5e17, the float32 batch variance overflows to inf and zeroes
        # inv_std, so the loss and gradients stay finite while the student
        # outputs its betas
        failures = []
        real_step = protocol_mod.run_incremental_step

        def step(*args):
            try:
                return real_step(*args)
            except protocol_mod.StepFailure as e:
                failures.append(str(e))
                raise

        monkeypatch.setattr(protocol_mod, "run_incremental_step", step)
        raw = {
            "method": "bmc", "seed": 0, "out_dir": str(tmp_path / "out"),
            "stream": {"kind": "permuted", "n_tasks": 8, "classes_per_task": 4, "dim": 16,
                       "train_per_task": 500, "val_per_task": 100, "seed": 100},
            "model": {"res_blocks": 1, "res_layers_per_block": 2, "res_dim": 32,
                      "hidden_dim": 16, "dropout_p": 0.1},
            "training": {"epochs_per_task": 2, "lr": 0.1, "batch_size": 32},
            "bmc": {"experts_per_step": 4, "rehearsal_epochs": 40, "buffer_capacity": 200,
                    "memory_capacity": 1000, "distill_kind": "kd_logits", "workers": 1,
                    "stability_coef": 32.0, "consolidation_coef": 32.0},
        }
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(raw))
        with np.errstate(over="ignore"):
            assert main(["run", str(cfg_file)]) == 3
        assert len(failures) == 1 and "non-finite batch statistic" in failures[0], failures
        rows = [json.loads(s) for s in (tmp_path / "out" / "records.jsonl").read_text().splitlines()]
        assert [r["step_id"] for r in rows if r["type"] == "step"] == [0]
        assert rows[-1]["failed_step"] == 1
        assert json.loads((tmp_path / "out" / "summary.json").read_text()) == rows[-1]

    def test_protocol_violation_fails_the_step_not_the_run(self, tmp_path, monkeypatch):
        # every expert's ARTF frame arrives 3 bytes short
        serial_run = protocol_mod.SerialExecutor.run
        monkeypatch.setattr(
            protocol_mod.SerialExecutor, "run",
            lambda self, *args: [m[:-3] for m in serial_run(self, *args)],
        )
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(toy_raw(method="bmc", out_dir=str(tmp_path / "out"))))
        assert main(["run", str(cfg_file)]) == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["failed_step"] == 0
        assert (tmp_path / "out" / "records.jsonl").exists()

    @pytest.mark.parametrize("how", MALFORMED_TARGETS)
    def test_malformed_teacher_frame_fails_the_step_not_the_run(self, tmp_path, monkeypatch,
                                                                 how):
        # every TGTS frame of the teacher process forked for step 0's
        # consolidation breaks the protocol
        send_malformed_targets(monkeypatch, how)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(toy_raw(method="bmc", out_dir=str(tmp_path / "out"))))
        assert main(["run", str(cfg_file)]) == 3
        rows = [json.loads(s) for s in (tmp_path / "out" / "records.jsonl").read_text().splitlines()]
        assert [r["type"] for r in rows] == ["timing", "summary"]
        assert rows[-1]["failed_step"] == 0

    def test_dead_pool_worker_fails_the_step_not_the_run(self, tmp_path, monkeypatch):
        # step 1's expert 1 exits in its forked worker, as a killed
        # worker would; the worker inherits the patched remote_train
        raw = toy_raw(method="bmc", out_dir=str(tmp_path / "out"))
        raw["stream"]["n_tasks"] = 4
        raw["bmc"]["workers"] = 2
        doomed = child_seed(raw["seed"], "expert", 3)  # task 3: step 1, expert 1
        real, coordinator = protocol_mod.remote_train, os.getpid()

        def dying(sync, tasks, model_config):
            if decode_sync(unframe(sync)[1])[1] == doomed and os.getpid() != coordinator:
                os._exit(1)
            return real(sync, tasks, model_config)

        monkeypatch.setattr(protocol_mod, "remote_train", dying)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(raw))
        assert main(["run", str(cfg_file)]) == 3
        rows = [json.loads(s) for s in (tmp_path / "out" / "records.jsonl").read_text().splitlines()]
        assert (rows[-1]["failed_step"], rows[-1]["n_steps"]) == (1, 1)
        assert json.loads((tmp_path / "out" / "summary.json").read_text()) == rows[-1]
        # step 0's row is that of a run without the dying worker
        raw["bmc"]["workers"] = 1
        run_experiment(parse_config(raw), tmp_path / "clean")
        clean = json.loads((tmp_path / "clean" / "records.jsonl").read_text().splitlines()[0])
        for row in (rows[0], clean):
            assert row.pop("wall_clock_s") >= 0.0
        assert rows[0] == clean

    @pytest.mark.parametrize("field", ["expert_index", "buffer_owner"])
    def test_misrouted_artifact_fails_the_step_not_the_run(self, tmp_path, monkeypatch, field):
        # the last expert's ARTF frame names expert 7 of a 2-expert step, or
        # carries a buffer owned by and tagged for expert 0
        def edit(a):
            if field == "expert_index":
                return dataclasses.replace(a, expert_index=7)
            return dataclasses.replace(a, buffer=Buffer(
                a.buffer.exemplars.with_origin(0), a.buffer.capacity, owner=0))

        serial_run = protocol_mod.SerialExecutor.run
        monkeypatch.setattr(
            protocol_mod.SerialExecutor, "run",
            lambda self, *args: rewrite_last_artifact(serial_run(self, *args), edit),
        )
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(toy_raw(method="bmc", out_dir=str(tmp_path / "out"))))
        assert main(["run", str(cfg_file)]) == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["failed_step"] == 0
        assert (tmp_path / "out" / "records.jsonl").exists()

    @pytest.mark.parametrize("field", ["batch_size", "base_snapshot"])
    def test_malformed_sync_fails_the_step_not_the_run(self, tmp_path, monkeypatch, field):
        # every expert's SYNC frame carries a batch size of 1, or a base
        # snapshot with a bad magic
        at = FRAME_OVERHEAD + (
            struct.calcsize("<IQIQdd") if field == "batch_size" else SYNC_FIXED_NBYTES
        )
        patch = struct.pack("<I", 1) if field == "batch_size" else b"XXXX"
        serial_run = protocol_mod.SerialExecutor.run
        monkeypatch.setattr(
            protocol_mod.SerialExecutor, "run",
            lambda self, syncs, *args: serial_run(
                self, [m[:at] + patch + m[at + 4:] for m in syncs], *args
            ),
        )
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(toy_raw(method="bmc", out_dir=str(tmp_path / "out"))))
        assert main(["run", str(cfg_file)]) == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["failed_step"] == 0
        assert (tmp_path / "out" / "records.jsonl").exists()

    def test_workers_flag_is_range_checked(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(toy_raw(method="bmc", out_dir=str(tmp_path / "out"))))
        assert main(["run", str(cfg_file), "--workers", "-3"]) == 2
        assert "bmc/workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_interleaved_file_stream_runs(self, tmp_path):
        # task 0 carries ids {0, 2} and task 1 ids {1, 3}: the loader
        # re-bases them onto [0, 2) and [2, 4), so the run sees 4 classes
        path = tmp_path / "interleaved.bin"
        write_stream_file(path, 6, [(0, 2, [0, 2] * 8, [2, 0] * 3),
                                    (1, 2, [1, 3] * 8, [3, 1] * 3)])
        raw = toy_raw(method="bmc", stream={"kind": "file", "path": str(path)})
        code, summary = run_experiment(parse_config(raw), tmp_path / "out")
        assert code == 0
        assert (summary["n_steps"], sorted(summary["per_task_acc"])) == (1, ["0", "1"])

    def test_summary_byte_identical_across_reruns(self, tmp_path):
        cfg = parse_config(toy_raw(method="bmc"))
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
               (tmp_path / "b" / "summary.json").read_bytes()

    def test_missing_key_is_nonzero_exit_naming_key(self, tmp_path, capsys):
        raw = toy_raw()
        del raw["seed"]
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps(raw))
        assert main(["run", str(cfg_file)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(toy_raw(out_dir=str(tmp_path / "out"))))
        assert main(["run", str(cfg_file), "--seed", "99"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 99

    def test_multitask_emits_bound_summary(self, tmp_path):
        cfg = parse_config(toy_raw(method="multitask"))
        code, summary = run_experiment(cfg, tmp_path)
        assert code == 0
        assert summary["n_steps"] == 0
        assert 0.0 <= summary["final_mean_acc"] <= 1.0

    def test_time_reference_records_relative_time(self, tmp_path):
        cfg = parse_config(toy_raw(method="er"))
        run_experiment(cfg, tmp_path, time_reference=True)
        rows = [json.loads(s) for s in (tmp_path / "records.jsonl").read_text().splitlines()]
        timing = [r for r in rows if r["type"] == "timing"][0]
        assert timing["relative_time"] > 0
        assert "sgd_failed_step" not in timing

    def test_failed_time_reference_is_reported_not_divided_by(self, tmp_path):
        # at lr 1e30 the reference sgd run fails its first task
        raw = toy_raw(method="er")
        raw["training"]["lr"] = 1e30
        with np.errstate(all="ignore"):
            code, _ = run_experiment(parse_config(raw), tmp_path, time_reference=True)
        assert code == 3
        rows = [json.loads(s) for s in (tmp_path / "records.jsonl").read_text().splitlines()]
        timing = [r for r in rows if r["type"] == "timing"][0]
        assert timing["sgd_failed_step"] == 0
        assert "relative_time" not in timing


# summary.json of every method on toy_raw(), as the runners wrote it before
# the run config was collapsed into ExperimentConfig; any change to a method's
# arithmetic or randomness moves at least one of these bytes
PINNED_SUMMARIES = {
    "bmc": '{"cost_accuracy": 26.321330806485573, "failed_step": null, '
           '"final_backward_transfer": null, "final_mean_acc": 0.3333333333333333, '
           '"method": "bmc", "n_steps": 1, "per_task_acc": {"0": 0.5, "1": 0.16666666666666666}, '
           '"seed": 3, "total_cost": 0.012664, "type": "summary"}\n',
    "sgd": '{"failed_step": null, "final_backward_transfer": -0.25, "final_mean_acc": 0.25, '
           '"method": "sgd", "n_steps": 2, "per_task_acc": {"0": 0.08333333333333333, '
           '"1": 0.4166666666666667}, "seed": 3, "type": "summary"}\n',
    "er": '{"failed_step": null, "final_backward_transfer": 0.3333333333333333, '
          '"final_mean_acc": 0.3333333333333333, "method": "er", "n_steps": 2, '
          '"per_task_acc": {"0": 0.6666666666666666, "1": 0.0}, "seed": 3, "type": "summary"}\n',
    "oewc": '{"failed_step": null, "final_backward_transfer": -0.25, "final_mean_acc": 0.25, '
            '"method": "oewc", "n_steps": 2, "per_task_acc": {"0": 0.08333333333333333, '
            '"1": 0.4166666666666667}, "seed": 3, "type": "summary"}\n',
    "multitask": '{"failed_step": null, "final_backward_transfer": null, '
                 '"final_mean_acc": 0.5416666666666667, "method": "multitask", "n_steps": 0, '
                 '"seed": 3, "type": "summary"}\n',
}


@pytest.mark.parametrize("method", sorted(PINNED_SUMMARIES))
def test_summary_bytes_pinned(tmp_path, method):
    run_experiment(parse_config(toy_raw(method=method)), tmp_path)
    assert (tmp_path / "summary.json").read_text() == PINNED_SUMMARIES[method]


# the records.jsonl step rows of a two-step toy bmc run (one expert per step)
# and a toy er run, each without its wall_clock_s, and the keys of the
# timing line: the row format every reader of records.jsonl relies on
PINNED_STEP_ROWS = {
    "bmc": [
        {"type": "step", "step_id": 0, "per_task_acc": {"0": 0.5}, "mean_acc": 0.5,
         "first_task_acc": 0.5, "backward_transfer": None,
         "experts": [{"expert_index": 0, "task_id": 0, "final_loss": 1.6669955551624298,
                      "expert_base_distance": 0.10009482502937317,
                      "consolidated_expert_distance": 0.13455191254615784}],
         "cost": {"step_id": 0, "broadcast_bytes": 1730, "upload_bytes": 2100,
                  "memory_bytes": 12, "expert_param_bytes": 1664, "model_bytes": 1664}},
        {"type": "step", "step_id": 1, "per_task_acc": {"0": 0.5833333333333334, "1": 0.0},
         "mean_acc": 0.2916666666666667, "first_task_acc": 0.5833333333333334,
         "backward_transfer": 0.08333333333333337,
         "experts": [{"expert_index": 0, "task_id": 1, "final_loss": 1.8272793889045715,
                      "expert_base_distance": 0.09666061401367188,
                      "consolidated_expert_distance": 0.17570383846759796}],
         "cost": {"step_id": 1, "broadcast_bytes": 1730, "upload_bytes": 2100,
                  "memory_bytes": 372, "expert_param_bytes": 1664, "model_bytes": 1664}},
    ],
    "er": [
        {"type": "step", "step_id": 0, "per_task_acc": {"0": 0.3333333333333333},
         "mean_acc": 0.3333333333333333, "first_task_acc": 0.3333333333333333,
         "backward_transfer": None},
        {"type": "step", "step_id": 1, "per_task_acc": {"0": 0.6666666666666666, "1": 0.0},
         "mean_acc": 0.3333333333333333, "first_task_acc": 0.6666666666666666,
         "backward_transfer": 0.3333333333333333},
    ],
}
PINNED_TIMING_KEYS = {"bmc": ["steps", "type", "wall_clock_s"], "er": ["type", "wall_clock_s"]}


@pytest.mark.parametrize("method", sorted(PINNED_STEP_ROWS))
def test_step_rows_pinned(tmp_path, method):
    raw = toy_raw(method=method)
    raw["bmc"]["experts_per_step"] = 1
    run_experiment(parse_config(raw), tmp_path)
    rows = [json.loads(s) for s in (tmp_path / "records.jsonl").read_text().splitlines()]
    assert [r["type"] for r in rows] == ["step", "step", "timing", "summary"]
    for row in rows[:2]:
        assert row.pop("wall_clock_s") >= 0.0
    assert rows[:2] == PINNED_STEP_ROWS[method]
    assert sorted(rows[2]) == PINNED_TIMING_KEYS[method]


class TestReadmeCli:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def commands(self) -> list[list[str]]:
        text = self.README.read_text()
        section = text[text.index("## CLI"):]
        block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
        lines = block.replace("\\\n", " ").splitlines()
        return [shlex.split(line) for line in lines if line.strip()]

    def test_module_entry_point_runs(self):
        src = str(Path(batchcl.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "batchcl", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "gen-stream" in done.stdout

    def test_every_documented_command_parses(self):
        commands = self.commands()
        assert len(commands) >= 5
        for argv in commands:
            assert argv[:3] == ["python", "-m", "batchcl"], argv
            try:
                _build_parser().parse_args(argv[3:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {shlex.join(argv)}")

    def json_block(self, after: str) -> str:
        text = self.README.read_text()
        return re.search(r"```json\n(.*?)```", text[text.index(after):], re.S).group(1)

    def test_run_config_example_parses(self):
        cfg = parse_config(json.loads(self.json_block("A run config:")))
        assert cfg.method == "bmc" and cfg.bmc.experts_per_step == 4

    def test_sweep_example_ranges_name_keys_of_the_run_config(self):
        run_block = self.json_block("A run config:")
        sweep_block = self.json_block("A sweep config")
        placeholder = "{ ... a full run config ... }"
        assert placeholder in sweep_block
        spec = parse_sweep(json.loads(sweep_block.replace(placeholder, run_block)))
        assert spec.ranges
        for path in spec.ranges:
            node = config_to_dict(spec.base)
            for part in path.split("."):
                assert part in node, path
                node = node[part]


class TestSweep:
    def spec(self, trials, ranges, method="sgd"):
        return parse_sweep({"trials": trials, "seed": 5,
                            "base": toy_raw(method=method), "ranges": ranges})

    def test_trial_seeds_pure_function_of_master_and_index(self):
        spec = self.spec(3, {"training.lr": {"low": 0.05, "high": 0.2}})
        raw1, sampled1 = sample_trial(spec, 2)
        raw2, sampled2 = sample_trial(spec, 2)
        assert raw1 == raw2 and sampled1 == sampled2
        assert parse_config(raw1).seed == child_seed(5, "trial", 2)

    def test_degenerate_single_choice_equals_direct_run(self, tmp_path):
        spec = self.spec(1, {"training.epochs_per_task": {"choices": [2]}})
        rows = run_sweep(spec, tmp_path / "sweep")
        raw, _ = sample_trial(spec, 0)
        _, direct = run_experiment(parse_config(raw), tmp_path / "direct")
        assert rows[0]["status"] == "ok"
        assert rows[0]["final_mean_acc"] == direct["final_mean_acc"]

    def test_distinct_sampled_values_per_trial(self, tmp_path):
        spec = self.spec(10, {"bmc.stability_coef": {"low": 0.0, "high": 2.0}},
                         method="bmc")
        values = [sample_trial(spec, i)[1]["bmc.stability_coef"] for i in range(10)]
        assert len(set(values)) == 10
        assert all(0.0 <= v <= 2.0 for v in values)

    def test_workers_flag_wins_over_a_sampled_worker_count(self, tmp_path):
        # a sampled count of 0 fails the trial's parse unless --workers replaces it
        spec = self.spec(1, {"bmc.workers": {"choices": [0]}}, method="bmc")
        assert run_sweep(spec, tmp_path / "bad")[0]["status"] == "error"
        assert run_sweep(spec, tmp_path / "ok", workers=1)[0]["status"] == "ok"

    def test_workers_flag_is_range_checked_before_any_trial(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "trials": 1, "seed": 5, "base": toy_raw(method="bmc"),
            "ranges": {"training.lr": {"low": 0.05, "high": 0.2}}}))
        out = tmp_path / "sweep"
        assert main(["sweep", str(spec_file), "--out-dir", str(out), "--workers", "0"]) == 2
        assert "bmc/workers" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_trial_recorded_not_fatal(self, tmp_path):
        spec = self.spec(2, {"training.lr": {"choices": [-1.0]}})
        rows = run_sweep(spec, tmp_path / "sweep")
        assert [r["status"] for r in rows] == ["error", "error"]
        assert "training/lr" in rows[0]["error"]
        assert rows[0]["sampled"] == {"training.lr": -1.0}
        csv_text = (tmp_path / "sweep" / "sweep.csv").read_text()
        assert csv_text.count("\n") == 3  # header + 2 trial rows


class TestPareto:
    def test_hand_worked_frontier(self):
        pts = [(1, 0.5), (2, 0.6), (3, 0.55)]
        assert export_pareto(pts) == [(1.0, 0.5), (2.0, 0.6)]

    def test_identical_points_collapse(self):
        assert export_pareto([(2, 0.4)] * 5) == [(2.0, 0.4)]

    def test_equal_cost_points_all_survive(self):
        # neither has strictly lower cost, so neither dominates the other
        assert export_pareto([(1, 0.3), (1, 0.7)]) == [(1.0, 0.3), (1.0, 0.7)]

    def test_ties_with_cheaper_groups(self):
        # equal accuracy at a higher cost is not strictly worse, so it survives;
        # the best of an equal-cost group dominates every dearer, worse point
        assert export_pareto([(1, 0.5), (2, 0.5)]) == [(1.0, 0.5), (2.0, 0.5)]
        assert export_pareto([(1, 0.7), (1, 0.3), (2, 0.5)]) == [(1.0, 0.3), (1.0, 0.7)]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            export_pareto([])

    def test_matches_brute_force_on_random_points(self):
        rng = np.random.default_rng(42)
        pts = [(float(c), float(a))
               for c, a in zip(rng.uniform(0, 10, 100), rng.uniform(0, 1, 100))]
        uniq = sorted(set(pts))
        brute = [
            p for p in uniq
            if not any(q[0] < p[0] and q[1] > p[1] for q in uniq)
        ]
        assert export_pareto(pts) == brute

    def test_cli_verb_reads_summaries(self, tmp_path, capsys):
        for i, (cost, acc) in enumerate([(1, 0.5), (2, 0.6), (3, 0.55)]):
            (tmp_path / f"s{i}.json").write_text(
                json.dumps({"type": "summary", "total_cost": cost, "final_mean_acc": acc})
            )
        assert main(["pareto", str(tmp_path / "*.json")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["total_cost,mean_acc", "1.0,0.5", "2.0,0.6"]

    def test_cli_verb_skips_undecodable_file(self, tmp_path, capsys):
        (tmp_path / "a.json").write_text(
            json.dumps({"type": "summary", "total_cost": 1, "final_mean_acc": 0.5}))
        (tmp_path / "b.json").write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        assert main(["pareto", str(tmp_path / "*.json")]) == 0
        assert capsys.readouterr().out.splitlines() == ["total_cost,mean_acc", "1.0,0.5"]

    def test_cli_verb_skips_matched_directory(self, tmp_path, capsys):
        (tmp_path / "s0.json").write_text(
            json.dumps({"type": "summary", "total_cost": 1, "final_mean_acc": 0.5}))
        (tmp_path / "trial-0000").mkdir()
        assert main(["pareto", str(tmp_path / "*")]) == 0
        assert capsys.readouterr().out.splitlines() == ["total_cost,mean_acc", "1.0,0.5"]

    def test_cli_verb_empty_glob_fails(self, tmp_path, capsys):
        assert main(["pareto", str(tmp_path / "none-*.json")]) == 2

    def test_cli_verb_unwritable_out_is_an_error_not_a_traceback(self, tmp_path, capsys):
        (tmp_path / "s0.json").write_text(
            json.dumps({"type": "summary", "total_cost": 1, "final_mean_acc": 0.5}))
        out = tmp_path / "missing" / "frontier.csv"
        assert main(["pareto", str(tmp_path / "*.json"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ") and str(out) in err
        assert "Traceback" not in err


class TestGenStream:
    def test_generates_loadable_file(self, tmp_path, capsys):
        out = tmp_path / "toy.stream"
        code = main(["gen-stream", "split_synthetic", str(out),
                     "--n-tasks", "2", "--classes-per-task", "3", "--dim", "5",
                     "--train-per-task", "30", "--val-per-task", "9", "--seed", "2"])
        assert code == 0
        stream = load_feature_stream(str(out))
        assert len(stream.tasks) == 2
        assert stream.dim == 5

    def test_bad_params_exit_nonzero(self, tmp_path, capsys):
        code = main(["gen-stream", "permuted", str(tmp_path / "x"),
                     "--n-tasks", "0", "--classes-per-task", "3", "--dim", "5",
                     "--train-per-task", "30", "--val-per-task", "9"])
        assert code == 2

    def test_unwritable_out_is_an_error_not_a_traceback(self, tmp_path, capsys):
        out = tmp_path / "missing" / "toy.stream"
        code = main(["gen-stream", "permuted", str(out),
                     "--n-tasks", "2", "--classes-per-task", "3", "--dim", "5",
                     "--train-per-task", "30", "--val-per-task", "9"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError: ") and str(out) in err
        assert "Traceback" not in err
