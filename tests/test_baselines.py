"""Sequential methods: forgetting, replay retention, penalty degeneracy, bound."""

from __future__ import annotations

import numpy as np
import pytest
from helpers import count_tensors, experiment

import batchcl.baselines as baselines_mod
from batchcl.baselines import (
    _train_task_plain,
    _train_task_replay,
    isolated_task_accuracies,
    multitask_bound,
    run_baseline,
)
from batchcl.config import ConfigError, build_model_config, parse_config
from batchcl.losses import FisherState, update_fisher
from batchcl.model import build_model
from batchcl.replay import ORIGIN_MEMORY, ExemplarSet
from batchcl.streams import Task, TaskStream, generate_stream

MODEL = dict(res_blocks=1, res_layers_per_block=1, res_dim=10, hidden_dim=8, dropout_p=0.0)
TRAINING = dict(batch_size=16, epochs_per_task=5, lr=0.1)


def cfg(method="sgd", seed=0, **baseline):
    return experiment(method, seed, model=MODEL, training=TRAINING, baseline=baseline)


@pytest.fixture(scope="module")
def two_task_stream():
    return generate_stream(
        "permuted", n_tasks=2, classes_per_task=4, dim=8,
        train_per_task=80, val_per_task=40, seed=4,
    )


def parse(method="sgd", **sections):
    return parse_config({"method": method, "seed": 0, "stream": {}, **sections})


class TestConfigValidation:
    """The baseline checks run at parse time and name the offending key."""

    def test_unknown_method(self, two_task_stream):
        with pytest.raises(ConfigError, match="method"):
            parse("icarl")
        # a config the schema accepts for another runner is still refused,
        # rather than silently trained as sgd
        with pytest.raises(ValueError, match="unknown baseline"):
            run_baseline(two_task_stream, cfg("bmc"))

    def test_negative_epochs(self):
        with pytest.raises(ConfigError, match="training/epochs_per_task"):
            parse(training={"epochs_per_task": -1})

    def test_er_needs_memory(self):
        with pytest.raises(ConfigError, match="baseline/memory_capacity"):
            parse("er", baseline={"memory_capacity": 0})
        # replay weighs memory rows like fresh ones: there is no coefficient
        with pytest.raises(ConfigError, match="'replay_coef' was unexpected"):
            parse("er", baseline={"replay_coef": 1.0})
        # the check binds er only: sgd never reads the memory
        assert parse("sgd", baseline={"memory_capacity": 0}).baseline.memory_capacity == 0

    def test_oewc_rejects_negative_penalty(self):
        with pytest.raises(ConfigError, match="baseline/penalty_coef"):
            parse("oewc", baseline={"penalty_coef": -0.1})
        with pytest.raises(ConfigError, match="baseline/gamma"):
            parse("oewc", baseline={"gamma": -0.1})

    def test_tiny_batch_rejected(self):
        with pytest.raises(ConfigError, match="training/batch_size"):
            parse(training={"batch_size": 1})


class TestSgd:
    def test_sequential_finetuning_forgets(self, two_task_stream):
        # after task 2, task-1 accuracy collapses toward chance (1/8 here)
        chance = 1.0 / 8
        for seed in (0, 1, 2):
            report = run_baseline(two_task_stream, cfg("sgd", seed))
            assert report.records[-1].first_task_acc < 2 * chance

    def test_one_record_per_task(self, two_task_stream):
        report = run_baseline(two_task_stream, cfg("sgd", 0))
        assert [r.step_id for r in report.records] == [0, 1]
        assert report.method == "sgd"
        assert all(r.cost is None for r in report.records)

    def test_deterministic(self, two_task_stream):
        r1 = run_baseline(two_task_stream, cfg("sgd", 3))
        r2 = run_baseline(two_task_stream, cfg("sgd", 3))
        assert [r.per_task_acc for r in r1.records] == [r.per_task_acc for r in r2.records]


class TestEr:
    def test_unlimited_memory_beats_sgd(self, two_task_stream):
        # memory big enough to hold every training row ever seen
        for seed in (0, 1, 2):
            sgd = run_baseline(two_task_stream, cfg("sgd", seed))
            er = run_baseline(two_task_stream, cfg("er", seed, memory_capacity=160))
            assert er.final_mean_acc >= sgd.final_mean_acc

    def test_replay_preserves_first_task(self, two_task_stream):
        er = run_baseline(two_task_stream, cfg("er", 1, memory_capacity=160))
        assert er.records[-1].first_task_acc > 0.5

    def test_capacity_constrained_run_completes(self, two_task_stream, monkeypatch):
        # a memory far smaller than the data exercises the subsampling path;
        # every refreshed memory holds at most the configured rows
        refreshed = []

        def spied(*args, **kwargs):
            refreshed.append(real(*args, **kwargs))
            return refreshed[-1]

        real = baselines_mod.subsample_memory
        monkeypatch.setattr(baselines_mod, "subsample_memory", spied)
        report = run_baseline(two_task_stream, cfg("er", 0, memory_capacity=12))
        assert len(report.records) == 2
        assert [len(m) for m in refreshed] == [12, 12]
        assert all((m.origins == ORIGIN_MEMORY).all() for m in refreshed)


class TestOewc:
    def test_zero_penalty_reproduces_sgd_exactly(self, two_task_stream):
        sgd = run_baseline(two_task_stream, cfg("sgd", 7))
        oewc = run_baseline(two_task_stream, cfg("oewc", 7, penalty_coef=0.0))
        for a, b in zip(sgd.records, oewc.records):
            assert a.per_task_acc == b.per_task_acc
            assert a.mean_acc == b.mean_acc

    def test_penalty_changes_trajectory(self, two_task_stream):
        sgd = run_baseline(two_task_stream, cfg("sgd", 7))
        oewc = run_baseline(two_task_stream, cfg("oewc", 7, penalty_coef=50.0))
        assert [r.per_task_acc for r in oewc.records] != [r.per_task_acc for r in sgd.records]


class TestNoTensorBuilt:
    """One batch of each baseline step, and a curvature update, build no tape."""

    def setup_method(self):
        self.stream = generate_stream(
            "permuted", n_tasks=2, classes_per_task=4, dim=8,
            train_per_task=16, val_per_task=8, seed=4,
        )
        self.cfg = experiment(
            "er", 0, model=dict(MODEL, dropout_p=0.2),
            training=dict(TRAINING, epochs_per_task=1, batch_size=16),
            baseline=dict(memory_capacity=20, penalty_coef=0.7),
        )
        self.model = build_model(build_model_config(self.cfg.model, self.stream), seed=0)
        self.before = {k: v.copy() for k, v in self.model.params.items()}
        self.task = self.stream.tasks[1]

    def _trained(self) -> bool:
        return any((self.model.params[k] != v).any() for k, v in self.before.items())

    def test_er_batch_with_memory(self, monkeypatch):
        first = self.stream.tasks[0]
        memory = ExemplarSet.from_task_data(first.train_x, first.train_y, task_id=0,
                                            origin=ORIGIN_MEMORY)
        built = count_tensors(monkeypatch)
        _train_task_replay(self.model, self.task.train_x, self.task.train_y, self.cfg,
                           np.random.default_rng(1), memory)
        assert built == [] and self._trained()

    def test_oewc_batch_with_penalty(self, monkeypatch):
        fisher = FisherState.zeros_like(self.model.flat_params)
        fisher.importance[:] = 1.0
        built = count_tensors(monkeypatch)
        _train_task_plain(self.model, self.task.train_x, self.task.train_y, self.cfg,
                          np.random.default_rng(1), fisher)
        assert built == [] and self._trained()

    def test_update_fisher(self, monkeypatch):
        fisher = FisherState.zeros_like(self.model.flat_params)
        built = count_tensors(monkeypatch)
        update_fisher(self.model, self.task.train_x, self.task.train_y, fisher)
        assert built == []
        assert all(v.any() for v in self.model.layout.param_views(fisher.importance).values())


class TestMultitaskBound:
    def test_dominates_sequential_methods(self, two_task_stream):
        for seed in (0, 1, 2):
            bound = multitask_bound(two_task_stream, cfg("multitask", seed))
            for method, extra in (("sgd", {}), ("er", {"memory_capacity": 160})):
                report = run_baseline(two_task_stream, cfg(method, seed, **extra))
                assert bound >= report.final_mean_acc

    def test_single_task_equals_isolated_accuracy(self):
        stream = generate_stream("permuted", n_tasks=1, classes_per_task=4, dim=8,
                                 train_per_task=80, val_per_task=40, seed=4)
        accs = isolated_task_accuracies(stream, cfg("multitask", 2))
        assert multitask_bound(stream, cfg("multitask", 2)) == pytest.approx(accs[0])

    def test_identical_data_tasks_score_alike(self, two_task_stream):
        # same features under both class ranges: isolated accuracies may
        # differ only by initialization noise
        src = two_task_stream.tasks[0]
        twin = Task(
            task_id=1,
            train_x=src.train_x, train_y=src.train_y + 4,
            val_x=src.val_x, val_y=src.val_y + 4,
            class_lo=4, class_hi=8,
        )
        stream = TaskStream(tasks=(src, twin))
        accs = isolated_task_accuracies(stream, cfg("multitask", 0))
        assert abs(accs[0] - accs[1]) < 0.15

    def test_indistinguishable_clusters_score_at_chance(self):
        flat = generate_stream(
            "split_synthetic", n_tasks=2, classes_per_task=4, dim=8,
            train_per_task=200, val_per_task=250, seed=7, separation=0.0,
        )
        bound = multitask_bound(flat, cfg("multitask", 3))
        assert abs(bound - 0.25) < 0.05
