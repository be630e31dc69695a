"""Config schema, runner verbs, sweep sampling, Pareto filtering."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import batchcl
from batchcl.cli import _build_parser, export_pareto, main, run_experiment, run_sweep, sample_trial
from batchcl.config import (
    ConfigError,
    config_to_dict,
    parse_config,
    parse_sweep,
)
from batchcl.protocol import child_seed
from batchcl.streams import load_feature_stream


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
            ("sgd", "training", "lr", -1.0),
            ("sgd", "model", "dropout_p", 1.5),
            ("sgd", "stream", "n_tasks", 0),
            ("bmc", "stream", "classes_per_task", 0),
            ("sgd", "stream", "dim", 0),
            ("er", "stream", "train_per_task", 0),
            ("bmc", "stream", "val_per_task", 0),
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

    def test_section_bounds_bind_only_the_methods_that_read_them(self):
        raw = toy_raw(method="sgd", baseline={"memory_capacity": 0})
        raw["bmc"]["memory_capacity"] = 0
        cfg = parse_config(raw)
        assert (cfg.baseline.memory_capacity, cfg.bmc.memory_capacity) == (0, 0)

    def test_stream_sizes_bind_generated_streams_only(self):
        raw = toy_raw()
        raw["stream"].update(kind="file", path="stream.bin", n_tasks=0, dim=0)
        assert parse_config(raw).stream.n_tasks == 0
        del raw["stream"]["kind"]  # the default kind is generated
        with pytest.raises(ConfigError, match="stream/"):
            parse_config(raw)

    def test_sweep_range_must_target_real_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_sweep({"trials": 1, "seed": 0, "base": toy_raw(),
                         "ranges": {"bmc.nope": {"low": 0, "high": 1}}})

    def test_sweep_range_needs_bounds_or_choices(self):
        with pytest.raises(ConfigError, match="low"):
            parse_sweep({"trials": 1, "seed": 0, "base": toy_raw(),
                         "ranges": {"training.lr": {"low": 0.5}}})


class TestRunVerb:
    def test_sgd_writes_step_records_and_summary(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(toy_raw(out_dir=str(tmp_path / "out"))))
        assert main(["run", str(cfg_file), "--serial"]) == 0
        lines = [json.loads(s) for s in
                 (tmp_path / "out" / "records.jsonl").read_text().splitlines()]
        kinds = [row["type"] for row in lines]
        assert kinds == ["step", "step", "timing", "summary"]
        assert lines[-1]["method"] == "sgd"
        assert lines[-1]["n_steps"] == 2

    def test_bmc_step_rows_carry_expert_distances(self, tmp_path):
        run_experiment(parse_config(toy_raw(method="bmc")), tmp_path, workers=1)
        rows = [json.loads(s) for s in (tmp_path / "records.jsonl").read_text().splitlines()]
        steps = [r for r in rows if r["type"] == "step"]
        assert steps and all(len(r["experts"]) == 2 for r in steps)
        for e in steps[0]["experts"]:
            assert {"expert_base_distance", "consolidated_expert_distance"} <= set(e)
        assert "experts" not in json.loads((tmp_path / "summary.json").read_text())

    def test_records_carry_phase_walls_and_expert_losses(self, tmp_path):
        run_experiment(parse_config(toy_raw(method="bmc")), tmp_path, workers=1)
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

    def test_summary_byte_identical_across_reruns(self, tmp_path):
        cfg = parse_config(toy_raw(method="bmc"))
        run_experiment(cfg, tmp_path / "a", workers=1)
        run_experiment(cfg, tmp_path / "b", workers=1)
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


class TestSweep:
    def spec(self, trials, ranges, method="sgd"):
        return parse_sweep({"trials": trials, "seed": 5,
                            "base": toy_raw(method=method), "ranges": ranges})

    def test_trial_seeds_pure_function_of_master_and_index(self):
        spec = self.spec(3, {"training.lr": {"low": 0.05, "high": 0.2}})
        cfg1, sampled1 = sample_trial(spec, 2)
        cfg2, sampled2 = sample_trial(spec, 2)
        assert cfg1 == cfg2 and sampled1 == sampled2
        assert cfg1.seed == child_seed(5, "trial", 2)

    def test_degenerate_single_choice_equals_direct_run(self, tmp_path):
        spec = self.spec(1, {"training.epochs_per_task": {"choices": [2]}})
        rows = run_sweep(spec, tmp_path / "sweep")
        cfg, _ = sample_trial(spec, 0)
        _, direct = run_experiment(cfg, tmp_path / "direct")
        assert rows[0]["status"] == "ok"
        assert rows[0]["final_mean_acc"] == direct["final_mean_acc"]

    def test_distinct_sampled_values_per_trial(self, tmp_path):
        spec = self.spec(10, {"bmc.stability_coef": {"low": 0.0, "high": 2.0}},
                         method="bmc")
        values = [sample_trial(spec, i)[1]["bmc.stability_coef"] for i in range(10)]
        assert len(set(values)) == 10
        assert all(0.0 <= v <= 2.0 for v in values)

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

    def test_cli_verb_empty_glob_fails(self, tmp_path, capsys):
        assert main(["pareto", str(tmp_path / "none-*.json")]) == 2


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
