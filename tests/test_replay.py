"""Buffer/Memory stores, sampling strategies, batched gradient norms, quota
subsampling, batch draws."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import count_tensors, float64_twin, grad_norms_reference, jitter_params

from batchcl.engine import GraphError
from batchcl.model import ModelConfig, build_model, model_from_vector
from batchcl.replay import (
    ORIGIN_MEMORY,
    Buffer,
    ExemplarSet,
    Memory,
    draw_batch,
    merge_pool,
    sample_buffer,
    subsample_memory,
)

TOY = ModelConfig(
    input_dim=4, total_classes=3, res_blocks=1, res_layers_per_block=1,
    res_dim=5, hidden_dim=4, dropout_p=0.0,
)


def make_set(n, dim=4, task_id=0, origin=0, label_base=0, seed=0):
    rng = np.random.default_rng(seed)
    return ExemplarSet.from_task_data(
        rng.standard_normal((n, dim)).astype(np.float32),
        label_base + rng.integers(0, 3, size=n),
        task_id=task_id,
        origin=origin,
    )


class TestContainers:
    def test_columnar_consistency_enforced(self):
        with pytest.raises(ValueError, match="disagree"):
            ExemplarSet(
                features=np.zeros((3, 4), dtype=np.float32),
                labels=np.zeros(2, dtype=np.int64),
                task_ids=np.zeros(3, dtype=np.int64),
                origins=np.zeros(3, dtype=np.int64),
            )

    def test_float32_enforced(self):
        with pytest.raises(ValueError, match="float32"):
            ExemplarSet(
                features=np.zeros((2, 4)),
                labels=np.zeros(2, dtype=np.int64),
                task_ids=np.zeros(2, dtype=np.int64),
                origins=np.zeros(2, dtype=np.int64),
            )

    def test_buffer_rejects_over_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            Buffer(exemplars=make_set(5), capacity=3, owner=0)

    def test_buffer_rejects_mixed_tasks(self):
        mixed = ExemplarSet.concat([make_set(2, task_id=0), make_set(2, task_id=1)])
        with pytest.raises(ValueError, match="mixes"):
            Buffer(exemplars=mixed, capacity=10, owner=0)

    def test_memory_capacity_enforced(self):
        mem = Memory(capacity=3, dim=4)
        with pytest.raises(ValueError, match="capacity"):
            mem.replace(make_set(5))

    def test_memory_retags_origin(self):
        mem = Memory(capacity=10, dim=4)
        mem.replace(make_set(4, origin=2))
        assert (mem.exemplars.origins == ORIGIN_MEMORY).all()


class TestSampleBuffer:
    def test_saturation_takes_everything(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=6)
        buf = sample_buffer(x, y, task_id=0, capacity=10, strategy="random", seed=1, owner=0)
        assert len(buf) == 6
        np.testing.assert_array_equal(buf.exemplars.features, x)

    def test_random_deterministic(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=20)
        a = sample_buffer(x, y, 0, capacity=8, strategy="random", seed=5, owner=0)
        b = sample_buffer(x, y, 0, capacity=8, strategy="random", seed=5, owner=0)
        np.testing.assert_array_equal(a.exemplars.features, b.exemplars.features)

    def test_random_is_subset_without_replacement(self):
        rng = np.random.default_rng(0)
        x = np.arange(20, dtype=np.float32).reshape(20, 1).repeat(4, axis=1)
        y = rng.integers(0, 3, size=20)
        buf = sample_buffer(x, y, 0, capacity=8, strategy="random", seed=5, owner=0)
        picked = buf.exemplars.features[:, 0]
        assert len(np.unique(picked)) == 8

    def test_grad_max_base_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=10)
        base = build_model(TOY, seed=3)
        buf = sample_buffer(
            x, y, 0, capacity=4, strategy="grad_max_base", seed=0, owner=0,
            base_model=base,
        )
        norms = grad_norms_reference(base, x, y)
        expected = set(np.argsort(-norms, kind="stable")[:4].tolist())
        got = {int(np.flatnonzero((x == f).all(axis=1))[0]) for f in buf.exemplars.features}
        assert got == expected

    def test_grad_min_expert_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=10)
        expert = build_model(TOY, seed=4)
        buf = sample_buffer(
            x, y, 0, capacity=4, strategy="grad_min_expert", seed=0, owner=0,
            expert_model=expert,
        )
        norms = grad_norms_reference(expert, x, y)
        expected = set(np.argsort(norms, kind="stable")[:4].tolist())
        got = {int(np.flatnonzero((x == f).all(axis=1))[0]) for f in buf.exemplars.features}
        assert got == expected

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown sampling"):
            sample_buffer(
                np.zeros((5, 4), dtype=np.float32), np.zeros(5, dtype=np.int64),
                0, capacity=2, strategy="herding", seed=0, owner=0,
            )

    def test_grad_strategies_need_models(self):
        x = np.zeros((5, 4), dtype=np.float32)
        y = np.zeros(5, dtype=np.int64)
        with pytest.raises(ValueError, match="grad_max_base needs the base model"):
            sample_buffer(x, y, 0, capacity=2, strategy="grad_max_base", seed=0, owner=0)
        with pytest.raises(ValueError, match="grad_min_expert needs the expert model"):
            sample_buffer(x, y, 0, capacity=2, strategy="grad_min_expert", seed=0, owner=0)


def scoring_model(config: ModelConfig, seed: int):
    """A model whose batch norms are not the identity: jittered weights,
    gamma and beta, and running statistics moved off (0, 1)."""
    model = build_model(config, seed)
    jitter_params(model, seed + 1)
    rng = np.random.default_rng(seed + 2)
    for name, v in model.stats.items():
        if name.endswith("running_mean"):
            v += rng.uniform(-0.5, 0.5, v.shape).astype(v.dtype)
        else:
            v *= rng.uniform(0.5, 2.0, v.shape).astype(v.dtype)
    return model


DEEP = ModelConfig(
    input_dim=6, total_classes=5, res_blocks=2, res_layers_per_block=2,
    res_dim=8, hidden_dim=7, dropout_p=0.3,
)


def task_rows(n, config, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, config.input_dim)).astype(np.float32)
    return x, rng.integers(0, config.total_classes, size=n)


class TestBatchedGradNorms:
    @pytest.mark.parametrize("blocks,layers,rows", [(2, 2, 40), (3, 2, 40), (2, 3, 40), (2, 2, 1)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_per_row_oracle(self, blocks, layers, rows, seed):
        config = ModelConfig(input_dim=6, total_classes=5, res_blocks=blocks,
                             res_layers_per_block=layers, res_dim=8, hidden_dim=7,
                             dropout_p=0.3)
        model = scoring_model(config, seed)
        x, y = task_rows(rows, config, seed)
        np.testing.assert_allclose(
            model.per_example_grad_norms(x, y), grad_norms_reference(model, x, y), rtol=1e-5
        )

    def test_float64_twin_matches_per_row_oracle(self):
        model = float64_twin(scoring_model(DEEP, 3))
        x, y = task_rows(30, DEEP, 3)
        np.testing.assert_allclose(
            model.per_example_grad_norms(x, y), grad_norms_reference(model, x, y), rtol=1e-12
        )

    def test_dropout_rate_does_not_change_the_norms(self):
        model = scoring_model(DEEP, 4)
        undropped = model_from_vector(replace(DEEP, dropout_p=0.0), model.to_param_vector())
        x, y = task_rows(25, DEEP, 4)
        np.testing.assert_array_equal(
            model.per_example_grad_norms(x, y), undropped.per_example_grad_norms(x, y)
        )

    @pytest.mark.parametrize("strategy", ["grad_max_base", "grad_min_expert"])
    def test_strategies_select_the_oracle_sets(self, strategy):
        model = scoring_model(DEEP, 6)
        x, y = task_rows(60, DEEP, 6)
        buf = sample_buffer(x, y, 0, capacity=20, strategy=strategy, seed=0, owner=0,
                            base_model=model, expert_model=model)
        norms = grad_norms_reference(model, x, y)
        order = np.argsort(-norms if strategy == "grad_max_base" else norms, kind="stable")
        np.testing.assert_array_equal(buf.exemplars.features, x[np.sort(order[:20])])

    def test_pass_is_pure(self):
        model = scoring_model(DEEP, 7)
        params = {k: v.copy() for k, v in model.params.items()}
        stats = {k: v.copy() for k, v in model.stats.items()}
        rng = np.random.default_rng(11)
        rng_state, global_state = rng.bit_generator.state, np.random.get_state()
        x, y = task_rows(30, DEEP, 7)
        x_before = x.copy()
        model.per_example_grad_norms(x, y)
        sample_buffer(x, y, 0, capacity=10, strategy="grad_min_expert", seed=0, owner=0,
                      expert_model=model)
        for name in params:
            np.testing.assert_array_equal(model.params[name], params[name])
        for name in stats:
            np.testing.assert_array_equal(model.stats[name], stats[name])
        np.testing.assert_array_equal(x, x_before)
        assert rng.bit_generator.state == rng_state
        after = np.random.get_state()
        assert after[1].tobytes() == global_state[1].tobytes() and after[2:] == global_state[2:]

    def test_out_of_range_label_rejected(self):
        model = scoring_model(DEEP, 8)
        x, y = task_rows(4, DEEP, 8)
        y[2] = DEEP.total_classes
        with pytest.raises(GraphError, match="labels"):
            model.per_example_grad_norms(x, y)

    @pytest.mark.parametrize("strategy", ["grad_max_base", "grad_min_expert"])
    def test_grad_sampling_builds_no_tensor(self, strategy, monkeypatch):
        # a tape graph per row built 32 Tensors per row at this shape
        model = scoring_model(DEEP, 9)
        x, y = task_rows(200, DEEP, 9)
        built = count_tensors(monkeypatch)
        buf = sample_buffer(x, y, 0, capacity=50, strategy=strategy, seed=0, owner=0,
                            base_model=model, expert_model=model)
        assert len(buf) == 50
        assert built == []


class TestMergePool:
    def test_empty_memory_one_buffer(self):
        mem = Memory(capacity=10, dim=4)
        buf = Buffer(exemplars=make_set(5, origin=0), capacity=5, owner=0)
        pool = merge_pool(mem, [buf])
        assert len(pool) == 5

    def test_counts_and_origin_tags(self):
        mem = Memory(capacity=100, dim=4)
        mem.replace(make_set(10, task_id=9))
        buffers = [
            Buffer(exemplars=make_set(5, task_id=i, origin=i, seed=i), capacity=5, owner=i)
            for i in range(3)
        ]
        pool = merge_pool(mem, buffers)
        assert len(pool) == 25
        assert set(np.unique(pool.origins)) == {ORIGIN_MEMORY, 0, 1, 2}

    def test_duplicates_retained(self):
        mem = Memory(capacity=10, dim=4)
        s = make_set(3, origin=0)
        b1 = Buffer(exemplars=s, capacity=3, owner=0)
        b2 = Buffer(exemplars=s.with_origin(1), capacity=3, owner=1)
        pool = merge_pool(mem, [b1, b2])
        assert len(pool) == 6

    def test_inputs_not_mutated(self):
        mem = Memory(capacity=10, dim=4)
        mem.replace(make_set(4))
        before = mem.exemplars.features.copy()
        buf = Buffer(exemplars=make_set(2, origin=0, seed=9), capacity=2, owner=0)
        merge_pool(mem, [buf])
        np.testing.assert_array_equal(mem.exemplars.features, before)


class TestSubsampleMemory:
    def test_identity_when_under_capacity(self):
        pool = make_set(5)
        out = subsample_memory(pool, capacity=10, seed=0)
        np.testing.assert_array_equal(out.features, pool.features)

    def test_exact_division_quota(self):
        pool = ExemplarSet.concat(
            [make_set(100, task_id=t, seed=t) for t in range(4)]
        )
        out = subsample_memory(pool, capacity=200, seed=1)
        assert len(out) == 200
        for t in range(4):
            assert (out.task_ids == t).sum() == 50

    def test_quota_fill_oracle(self):
        # 3 tasks of sizes (10, 200, 200), capacity 300: scripted quota fill
        sizes = {0: 10, 1: 200, 2: 200}
        pool = ExemplarSet.concat(
            [make_set(n, task_id=t, seed=t) for t, n in sizes.items()]
        )
        capacity, seed = 300, 7
        out = subsample_memory(pool, capacity, seed)

        # independent reimplementation of the documented policy
        rng = np.random.default_rng(seed)
        quota = capacity // 3
        chosen, leftovers = [], []
        for t in (0, 1, 2):
            idx = np.flatnonzero(pool.task_ids == t)
            if len(idx) <= quota:
                chosen.append(idx)
            else:
                pick = rng.choice(len(idx), size=quota, replace=False)
                mask = np.zeros(len(idx), dtype=bool)
                mask[pick] = True
                chosen.append(idx[mask])
                leftovers.append(idx[~mask])
        rest = np.concatenate(leftovers)
        remainder = capacity - sum(len(c) for c in chosen)
        pick = rng.choice(len(rest), size=remainder, replace=False)
        chosen.append(rest[np.sort(pick)])
        expected = np.sort(np.concatenate(chosen))

        np.testing.assert_array_equal(out.features, pool.take(expected).features)
        assert (out.task_ids == 0).sum() == 10
        assert (out.task_ids == 1).sum() >= quota
        assert (out.task_ids == 2).sum() >= quota
        assert len(out) == 300

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6),
        capacity=st.integers(min_value=1, max_value=150),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_quota_guarantee_property(self, sizes, capacity, seed):
        pool = ExemplarSet.concat(
            [make_set(n, task_id=t, seed=t) for t, n in enumerate(sizes)]
        )
        out = subsample_memory(pool, capacity, seed)
        assert len(out) == min(capacity, len(pool))
        quota = capacity // len(sizes)
        for t, n in enumerate(sizes):
            kept = (out.task_ids == t).sum()
            if n >= quota:
                assert kept >= quota
            else:
                assert kept == n

    def test_deterministic(self):
        pool = ExemplarSet.concat([make_set(50, task_id=t, seed=t) for t in range(3)])
        a = subsample_memory(pool, 60, seed=3)
        b = subsample_memory(pool, 60, seed=3)
        np.testing.assert_array_equal(a.features, b.features)


class TestDrawBatch:
    def test_singleton_pool(self):
        pool = make_set(1)
        batch = draw_batch(pool, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(batch.features, pool.features)

    def test_reproducible_sequence(self):
        pool = make_set(30)
        a = [draw_batch(pool, 4, np.random.default_rng(5)).labels for _ in range(1)]
        b = [draw_batch(pool, 4, np.random.default_rng(5)).labels for _ in range(1)]
        np.testing.assert_array_equal(a, b)

    def test_multinomial_frequency(self):
        pool = ExemplarSet.concat(
            [make_set(100, task_id=1, seed=1), make_set(300, task_id=2, seed=2)]
        )
        rng = np.random.default_rng(11)
        draws = draw_batch(pool, 10_000, rng)
        freq = (draws.task_ids == 2).mean()
        assert abs(freq - 0.75) <= 0.03

    def test_origin_tags_retained(self):
        pool = make_set(10, origin=3)
        batch = draw_batch(pool, 5, np.random.default_rng(0))
        assert (batch.origins == 3).all()

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            draw_batch(ExemplarSet.empty(4), 2, np.random.default_rng(0))
