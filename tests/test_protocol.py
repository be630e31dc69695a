"""Orchestration contract: codecs, counting transport, step atomicity, costs.

The pipeline tests run on a deliberately tiny stream/model so the whole
module stays fast; correctness claims here are about bytes, determinism,
and isolation rather than accuracy.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from helpers import experiment

from batchcl.losses import LossCoefficients
from batchcl.model import ModelConfig, ParamVector, build_model
from batchcl.protocol import (
    ARTIFACT_FIXED_NBYTES,
    FRAME_OVERHEAD,
    SYNC_FIXED_NBYTES,
    TAG_ARTIFACT,
    TAG_SYNC,
    CostLedger,
    CountingTransport,
    ExpertArtifact,
    ExpertContext,
    ExpertFailure,
    ExpertHyper,
    ExpertStats,
    ProcessExecutor,
    ProtocolViolation,
    SerialExecutor,
    StepCost,
    StepFailure,
    StepPlan,
    child_seed,
    consolidate,
    cost_accuracy,
    decode_artifact,
    decode_buffer,
    decode_exemplars,
    decode_sync,
    encode_artifact,
    encode_buffer,
    encode_exemplars,
    encode_sync,
    exemplar_block_nbytes,
    frame,
    plan_steps,
    remote_train,
    run_full_stream,
    run_incremental_step,
    total_cost,
    unframe,
)
from batchcl.replay import Buffer, ExemplarSet, Memory
from batchcl.streams import generate_stream

TOY = ModelConfig(
    input_dim=6, total_classes=8, res_blocks=1, res_layers_per_block=1,
    res_dim=8, hidden_dim=6, dropout_p=0.0,
)


@pytest.fixture(scope="module")
def stream():
    return generate_stream(
        "permuted", n_tasks=4, classes_per_task=2, dim=6,
        train_per_task=40, val_per_task=16, seed=11,
    )


def tiny_config(seed=13, epochs=1, **bmc):
    """A bmc run on the module stream with the TOY model shape."""
    return experiment(
        "bmc", seed,
        model=dict(res_blocks=1, res_layers_per_block=1, res_dim=8, hidden_dim=6,
                   dropout_p=0.0),
        training=dict(epochs_per_task=epochs, lr=0.1, batch_size=8),
        bmc={"experts_per_step": 2, "rehearsal_epochs": 4, "buffer_capacity": 12,
             "memory_capacity": 40, **bmc},
    )


# the expert settings tiny_config() runs with, for tests that drive single steps
TINY_HYPER = ExpertHyper(epochs=1, lr=0.1, batch_size=8, buffer_capacity=12)


def make_exemplars(n, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return ExemplarSet.from_task_data(
        rng.standard_normal((n, dim)).astype(np.float32),
        rng.integers(0, 4, size=n),
        task_id=2,
        origin=1,
    )


def make_context(task, seed=5, hyper=None, model_seed=1, config=TOY):
    base = build_model(config, seed=model_seed)
    return ExpertContext(
        expert_index=0,
        task=task,
        base_blob=base.to_param_vector().to_bytes(),
        model_config=config,
        hyper=hyper or ExpertHyper(epochs=1, batch_size=8, buffer_capacity=10),
        seed=seed,
    )


def params_bytes(model) -> bytes:
    """Learnable parameters only, excluding normalization running buffers."""
    return b"".join(model.params[k].tobytes() for k in sorted(model.params))


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(7, "expert", 3) == child_seed(7, "expert", 3)

    def test_distinct_paths(self):
        seeds = {
            child_seed(7, "expert", 0),
            child_seed(7, "expert", 1),
            child_seed(7, "train"),
            child_seed(7, "buffer"),
            child_seed(7, "consolidate", 0),
            child_seed(7, "memory", 0),
            child_seed(7, "init"),
        }
        assert len(seeds) == 7

    def test_distinct_masters(self):
        assert child_seed(1, "init") != child_seed(2, "init")

    def test_uint64_range(self):
        s = child_seed(123, "expert", 42)
        assert 0 <= s < 2**64


class TestFraming:
    def test_round_trip(self):
        msg = frame(TAG_SYNC, b"hello")
        assert unframe(msg) == (TAG_SYNC, b"hello")

    def test_overhead_constant(self):
        assert len(frame(TAG_ARTIFACT, b"")) == FRAME_OVERHEAD

    def test_truncated_frame_rejected(self):
        msg = frame(TAG_SYNC, b"hello")
        with pytest.raises(ProtocolViolation, match="truncated"):
            unframe(msg[:-2])

    def test_bad_tag_length(self):
        with pytest.raises(ValueError):
            frame(b"TOOLONG", b"")


class TestExemplarCodec:
    def test_round_trip_bit_exact(self):
        es = make_exemplars(9)
        back = decode_exemplars(encode_exemplars(es))
        assert back.features.tobytes() == es.features.tobytes()
        assert np.array_equal(back.labels, es.labels)
        assert np.array_equal(back.task_ids, es.task_ids)
        assert np.array_equal(back.origins, es.origins)

    def test_empty_set(self):
        es = ExemplarSet.empty(6)
        blob = encode_exemplars(es)
        assert len(blob) == 12
        assert len(decode_exemplars(blob)) == 0

    def test_analytic_size(self):
        for n, dim in [(0, 6), (5, 6), (17, 3)]:
            es = make_exemplars(n, dim=dim) if n else ExemplarSet.empty(dim)
            assert len(encode_exemplars(es)) == exemplar_block_nbytes(n, dim)

    def test_buffer_round_trip(self):
        buf = Buffer(exemplars=make_exemplars(7), capacity=12, owner=3)
        back = decode_buffer(encode_buffer(buf))
        assert back.owner == 3
        assert back.capacity == 12
        assert back.exemplars.features.tobytes() == buf.exemplars.features.tobytes()

    def test_buffer_size_is_block_plus_header(self):
        buf = Buffer(exemplars=make_exemplars(7), capacity=12, owner=3)
        assert len(encode_buffer(buf)) == 12 + exemplar_block_nbytes(7, 6)


class TestSyncCodec:
    def test_round_trip(self, stream):
        hyper = ExpertHyper(epochs=3, lr=0.05, stability_coef=0.4, batch_size=16,
                            buffer_capacity=99, sampling="grad_max_base",
                            distill_kind="kd_logits")
        ctx = make_context(stream.tasks[0], seed=77, hyper=hyper)
        idx, seed, h, blob = decode_sync(encode_sync(ctx))
        assert (idx, seed) == (0, 77)
        assert h == hyper
        assert blob == ctx.base_blob

    def test_fixed_size_arithmetic(self, stream):
        ctx = make_context(stream.tasks[0])
        assert len(encode_sync(ctx)) == SYNC_FIXED_NBYTES + len(ctx.base_blob)

    def test_truncation_rejected(self, stream):
        ctx = make_context(stream.tasks[0])
        with pytest.raises(ProtocolViolation, match="truncated"):
            decode_sync(encode_sync(ctx)[:-1])


class TestArtifactCodec:
    def make_artifact(self):
        pv = build_model(TOY, seed=2).to_param_vector()
        buf = Buffer(exemplars=make_exemplars(5), capacity=10, owner=1)
        return ExpertArtifact(
            expert_index=1, param_vector=pv, buffer=buf,
            stats=ExpertStats(epochs=4, final_loss=0.25, wall_clock_s=1.5),
        )

    def test_round_trip(self):
        a = self.make_artifact()
        back = decode_artifact(encode_artifact(a))
        assert back.expert_index == 1
        assert back.param_vector.same_bytes(a.param_vector)
        assert back.buffer.exemplars.features.tobytes() == a.buffer.exemplars.features.tobytes()
        assert back.stats == a.stats

    def test_fixed_size_arithmetic(self):
        a = self.make_artifact()
        expected = (
            ARTIFACT_FIXED_NBYTES
            + a.param_vector.nbytes
            + 12 + exemplar_block_nbytes(5, 6)
        )
        assert len(encode_artifact(a)) == expected


class TestTransport:
    def test_counts_exact_message_lengths(self, stream):
        t = CountingTransport()
        t.begin_step()
        ctx = make_context(stream.tasks[0])
        msg1 = t.send_sync(ctx)
        a = TestArtifactCodec().make_artifact()
        msg2 = t.send_artifact(a)
        assert t.broadcast_bytes == len(msg1)
        assert t.upload_bytes == len(msg2)
        assert t.artifact_count == 1

    def test_duplicate_artifact_rejected(self):
        t = CountingTransport()
        t.begin_step()
        a = TestArtifactCodec().make_artifact()
        t.send_artifact(a)
        with pytest.raises(ProtocolViolation, match="already sent"):
            t.send_artifact(a)

    def test_next_step_clears_senders(self):
        t = CountingTransport()
        a = TestArtifactCodec().make_artifact()
        t.begin_step()
        t.send_artifact(a)
        t.begin_step()
        t.send_artifact(a)  # fine: new step
        assert t.artifact_count == 1


class TestPlans:
    def test_disjoint_classes_enforced(self, stream):
        hyper = ExpertHyper()
        with pytest.raises(ValueError, match="disjoint"):
            StepPlan(step_id=0, tasks=(stream.tasks[0], stream.tasks[0]),
                     expert_seeds=(1, 2), hyper=hyper)

    def test_seed_count_must_match(self, stream):
        with pytest.raises(ValueError, match="seed"):
            StepPlan(step_id=0, tasks=(stream.tasks[0],), expert_seeds=(1, 2),
                     hyper=ExpertHyper())

    def test_eight_tasks_k4_gives_two_full_steps(self):
        s = generate_stream("permuted", n_tasks=8, classes_per_task=2, dim=4,
                            train_per_task=12, val_per_task=4, seed=0)
        plans = plan_steps(s, k=4, master_seed=3, hyper=ExpertHyper())
        assert [p.k for p in plans] == [4, 4]
        assert [p.step_id for p in plans] == [0, 1]

    def test_seven_tasks_k4_gives_partial_final_step(self):
        s = generate_stream("permuted", n_tasks=7, classes_per_task=2, dim=4,
                            train_per_task=12, val_per_task=4, seed=0)
        plans = plan_steps(s, k=4, master_seed=3, hyper=ExpertHyper())
        assert [p.k for p in plans] == [4, 3]

    def test_k_equals_stream_length_single_step(self, stream):
        plans = plan_steps(stream, k=4, master_seed=3, hyper=ExpertHyper())
        assert len(plans) == 1 and plans[0].k == 4

    def test_seeds_follow_global_task_index(self, stream):
        plans = plan_steps(stream, k=3, master_seed=9, hyper=ExpertHyper())
        flat = [s for p in plans for s in p.expert_seeds]
        assert flat == [child_seed(9, "expert", j) for j in range(4)]

    def test_k_below_one_rejected(self, stream):
        with pytest.raises(ValueError):
            plan_steps(stream, k=0, master_seed=3, hyper=ExpertHyper())


class TestExpertIsolation:
    def test_context_carries_exactly_the_allowed_fields(self):
        names = {f.name for f in dataclasses.fields(ExpertContext)}
        assert names == {
            "expert_index", "task", "base_blob", "model_config", "hyper", "seed"
        }

    def test_context_is_immutable(self, stream):
        ctx = make_context(stream.tasks[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx.seed = 1

    def test_no_field_can_reach_a_memory(self, stream):
        # the context is built purely from value types: bytes, a single task,
        # a frozen config, frozen hyper-params, an int -- no channel back to
        # the coordinator's Memory or to other experts exists
        ctx = make_context(stream.tasks[0])
        for f in dataclasses.fields(ExpertContext):
            assert not isinstance(getattr(ctx, f.name), Memory)


class TestRemoteTrain:
    def test_zero_epochs_returns_base_bit_exact(self, stream):
        hyper = ExpertHyper(epochs=0, batch_size=8, buffer_capacity=10)
        ctx = make_context(stream.tasks[0], hyper=hyper)
        artifact = remote_train(ctx)
        assert artifact.param_vector.to_bytes() == ctx.base_blob

    def test_deterministic_given_context(self, stream):
        ctx = make_context(stream.tasks[1], seed=21)
        a1, a2 = remote_train(ctx), remote_train(ctx)
        assert a1.param_vector.same_bytes(a2.param_vector)
        assert a1.buffer.exemplars.features.tobytes() == a2.buffer.exemplars.features.tobytes()

    def test_buffer_tagged_with_owner_and_task(self, stream):
        ctx = make_context(stream.tasks[1])
        artifact = remote_train(ctx)
        assert artifact.buffer.owner == 0
        assert set(artifact.buffer.exemplars.task_ids) == {stream.tasks[1].task_id}
        assert len(artifact.buffer.exemplars) <= ctx.hyper.buffer_capacity

    def test_stability_pull_reduces_feature_drift(self, stream):
        # same data and seeds, only the stability coefficient differs; the
        # penalized quantity is the mode-matched tap distance to the base.
        # Every step up in the coefficient must pull the expert closer, with
        # and without dropout: a pull that overshoots the base at a large
        # coefficient, or a teacher that does not see the student's dropped
        # units, breaks the ordering.
        from batchcl.losses import l_bd
        from batchcl.model import model_from_vector

        x = stream.tasks[0].train_x
        for dropout_p in (0.0, 0.1):
            config = dataclasses.replace(TOY, dropout_p=dropout_p)
            base = build_model(config, seed=1)
            mean_dist = {}
            for coef in (0.0, 0.5, 2.0):
                dists = []
                for seed in (5, 6, 7):
                    hyper = ExpertHyper(epochs=2, batch_size=8, buffer_capacity=10,
                                        stability_coef=coef, lr=0.02)
                    artifact = remote_train(make_context(
                        stream.tasks[0], seed=seed, hyper=hyper, config=config))
                    expert = model_from_vector(config, artifact.param_vector)
                    dists.append(float(l_bd(expert.forward_as_teacher(x),
                                            base.forward_as_teacher(x)).data))
                mean_dist[coef] = float(np.mean(dists))
            assert mean_dist[0.0] > mean_dist[0.5] > mean_dist[2.0], (dropout_p, mean_dist)
            assert mean_dist[2.0] > 0

    def test_divergence_reported_as_expert_failure(self, stream):
        hyper = ExpertHyper(epochs=3, batch_size=8, buffer_capacity=10, lr=1e30)
        ctx = make_context(stream.tasks[0], hyper=hyper)
        with np.errstate(all="ignore"):
            with pytest.raises(ExpertFailure):
                remote_train(ctx)


class TestConsolidate:
    def setup_artifacts(self, base, stream, n=2):
        arts = []
        for i in range(n):
            buf = Buffer(
                exemplars=ExemplarSet.from_task_data(
                    stream.tasks[i].train_x[:10], stream.tasks[i].train_y[:10],
                    task_id=stream.tasks[i].task_id, origin=i,
                ),
                capacity=10,
                owner=i,
            )
            arts.append(ExpertArtifact(
                expert_index=i, param_vector=base.to_param_vector(), buffer=buf,
                stats=ExpertStats(epochs=1, final_loss=0.5, wall_clock_s=0.0),
            ))
        return arts

    def test_identical_experts_pure_distillation_is_a_no_op(self, stream):
        # every teacher equals the student start point and the replay term is
        # off, so the distillation distance and its gradient are exactly zero
        base = build_model(TOY, seed=1)
        arts = self.setup_artifacts(base, stream)
        out = consolidate(
            base, arts, Memory(40, 6),
            LossCoefficients(stability=1.0, task=0.0, consolidation=1.0),
            rehearsal_epochs=2, batch_size=8, rng=np.random.default_rng(0),
        )
        assert params_bytes(out) == params_bytes(base)

    def test_input_base_never_mutated(self, stream):
        base = build_model(TOY, seed=1)
        before_params = params_bytes(base)
        before_stats = b"".join(base.stats[k].tobytes() for k in sorted(base.stats))
        arts = self.setup_artifacts(base, stream)
        consolidate(
            base, arts, Memory(40, 6), LossCoefficients(),
            rehearsal_epochs=2, batch_size=8, rng=np.random.default_rng(0),
        )
        assert params_bytes(base) == before_params
        assert b"".join(base.stats[k].tobytes() for k in sorted(base.stats)) == before_stats

    def test_artifact_order_does_not_matter(self, stream):
        base = build_model(TOY, seed=1)
        arts = self.setup_artifacts(base, stream, n=3)
        # make the teachers genuinely different so ordering could bite
        for i, a in enumerate(arts):
            m = build_model(TOY, seed=10 + i)
            arts[i] = dataclasses.replace(a, param_vector=m.to_param_vector())
        out1 = consolidate(base, arts, Memory(40, 6), LossCoefficients(),
                           rehearsal_epochs=1, batch_size=8,
                           rng=np.random.default_rng(3))
        out2 = consolidate(base, list(reversed(arts)), Memory(40, 6),
                           LossCoefficients(), rehearsal_epochs=1, batch_size=8,
                           rng=np.random.default_rng(3))
        assert params_bytes(out1) == params_bytes(out2)

    def test_zero_consolidation_coef_ignores_teacher_weights(self, stream):
        # with the distillation term off the expert snapshots must not leak
        # into the update; swapping them for unrelated weights changes nothing
        base = build_model(TOY, seed=1)
        coeffs = LossCoefficients(stability=1.0, task=1.0, consolidation=0.0)
        arts = self.setup_artifacts(base, stream)
        out1 = consolidate(base, arts, Memory(40, 6), coeffs,
                           rehearsal_epochs=2, batch_size=8,
                           rng=np.random.default_rng(5))
        swapped = [
            dataclasses.replace(a, param_vector=build_model(TOY, seed=99 + i).to_param_vector())
            for i, a in enumerate(arts)
        ]
        out2 = consolidate(base, swapped, Memory(40, 6), coeffs,
                           rehearsal_epochs=2, batch_size=8,
                           rng=np.random.default_rng(5))
        assert params_bytes(out1) == params_bytes(out2)

    def test_empty_pool_rejected(self, stream):
        base = build_model(TOY, seed=1)
        empty = [dataclasses.replace(
            a, buffer=Buffer(ExemplarSet.empty(6), capacity=10, owner=a.expert_index)
        ) for a in self.setup_artifacts(base, stream)]
        with pytest.raises(ValueError, match="empty"):
            consolidate(base, empty, Memory(40, 6), LossCoefficients(),
                        rehearsal_epochs=1, batch_size=8,
                        rng=np.random.default_rng(0))

    def test_no_artifacts_rejected(self):
        base = build_model(TOY, seed=1)
        with pytest.raises(ValueError, match="artifact"):
            consolidate(base, [], Memory(40, 6), LossCoefficients(),
                        rehearsal_epochs=1, batch_size=8,
                        rng=np.random.default_rng(0))


class TestIncrementalStep:
    def run_one(self, stream, plan_idx=0, memory=None, master_seed=5):
        base = build_model(TOY, seed=child_seed(master_seed, "init"))
        plans = plan_steps(stream, 2, master_seed, TINY_HYPER)
        memory = memory if memory is not None else Memory(40, stream.dim)
        transport = CountingTransport()
        result = run_incremental_step(
            base, plans[plan_idx], memory, master_seed,
            coefficients=LossCoefficients(),
            rehearsal_epochs=4,
            transport=transport, executor=SerialExecutor(),
            lr=0.1, batch_size=8,
        )
        return base, memory, transport, result

    def test_step_produces_k_artifacts_and_fills_memory(self, stream):
        _, memory, transport, result = self.run_one(stream)
        assert transport.artifact_count == 2
        assert len(result.artifacts) == 2
        assert 0 < len(memory) <= memory.capacity

    def test_cost_entry_matches_analytic_byte_arithmetic(self, stream):
        base, memory, transport, result = self.run_one(stream)
        blob_len = len(base.to_param_vector().to_bytes())
        sync_msg = FRAME_OVERHEAD + SYNC_FIXED_NBYTES + blob_len
        assert result.cost.broadcast_bytes == 2 * sync_msg
        expected_upload = sum(
            FRAME_OVERHEAD + ARTIFACT_FIXED_NBYTES + a.param_vector.nbytes
            + 12 + exemplar_block_nbytes(len(a.buffer.exemplars), stream.dim)
            for a in result.artifacts
        )
        assert result.cost.upload_bytes == expected_upload
        # the pre-step memory was empty: its block is just the 12-byte header
        assert result.cost.memory_bytes == exemplar_block_nbytes(0, stream.dim)
        assert result.cost.expert_param_bytes == sum(
            a.param_vector.nbytes for a in result.artifacts
        )
        assert result.cost.model_bytes == result.base.to_param_vector().nbytes

    def test_second_step_costs_are_deltas_not_cumulative(self, stream):
        master_seed = 5
        base = build_model(TOY, seed=child_seed(master_seed, "init"))
        plans = plan_steps(stream, 2, master_seed, TINY_HYPER)
        memory = Memory(40, stream.dim)
        transport = CountingTransport()
        costs = []
        for plan in plans:
            result = run_incremental_step(
                base, plan, memory, master_seed,
                coefficients=LossCoefficients(),
                rehearsal_epochs=4,
                transport=transport, executor=SerialExecutor(),
                lr=0.1, batch_size=8,
            )
            base = result.base
            costs.append(result.cost)
        blob0 = costs[0].broadcast_bytes
        # both steps broadcast the same-shape snapshot to the same k experts
        assert costs[1].broadcast_bytes == blob0
        # step 1 started with a populated memory, so its peak is larger
        assert costs[1].memory_bytes > costs[0].memory_bytes
        assert transport.broadcast_bytes == costs[0].broadcast_bytes + costs[1].broadcast_bytes

    def test_failed_expert_rolls_back_base_and_memory(self, stream, monkeypatch):
        import batchcl.protocol as protocol_mod

        master_seed = 5
        base = build_model(TOY, seed=child_seed(master_seed, "init"))
        plans = plan_steps(stream, 2, master_seed, TINY_HYPER)
        memory = Memory(40, stream.dim)
        memory.replace(make_exemplars(10))
        base_before = base.to_param_vector().to_bytes()
        memory_before = memory.exemplars.features.tobytes()

        real = protocol_mod.remote_train

        def flaky(ctx):
            if ctx.expert_index == 1:
                raise ExpertFailure("simulated crash")
            return real(ctx)

        monkeypatch.setattr(protocol_mod, "remote_train", flaky)
        with pytest.raises(StepFailure, match="simulated crash"):
            run_incremental_step(
                base, plans[0], memory, master_seed,
                coefficients=LossCoefficients(),
                rehearsal_epochs=2,
                transport=CountingTransport(), executor=SerialExecutor(),
                lr=0.1, batch_size=8,
            )
        assert base.to_param_vector().to_bytes() == base_before
        assert memory.exemplars.features.tobytes() == memory_before
        assert len(memory) == 10


class TestFullStream:
    def strip_times(self, report):
        d = report.to_dict()
        d.pop("wall_clock_s")
        for r in d["records"]:
            r.pop("wall_clock_s", None)
        return d

    def test_serial_run_is_bit_reproducible(self, stream):
        r1 = run_full_stream(stream, tiny_config())
        r2 = run_full_stream(stream, tiny_config())
        assert self.strip_times(r1) == self.strip_times(r2)
        assert r1.failed_step is None
        assert len(r1.records) == 2

    def test_process_pool_matches_serial(self, stream):
        serial = run_full_stream(stream, tiny_config(), executor=SerialExecutor())
        parallel = run_full_stream(stream, tiny_config(), executor=ProcessExecutor(2))
        assert self.strip_times(serial) == self.strip_times(parallel)

    def test_reversed_launch_order_changes_nothing(self, stream):
        class ReversedExecutor:
            def run(self, contexts):
                arts = [remote_train(c) for c in reversed(contexts)]
                return sorted(arts, key=lambda a: a.expert_index)

        forward = run_full_stream(stream, tiny_config(), executor=SerialExecutor())
        backward = run_full_stream(stream, tiny_config(), executor=ReversedExecutor())
        assert self.strip_times(forward) == self.strip_times(backward)

    def test_step_records_carry_expert_distances(self, stream):
        report = run_full_stream(stream, tiny_config())
        for rec, tasks in zip(report.records, ((0, 1), (2, 3))):
            assert [e["expert_index"] for e in rec.experts] == [0, 1]
            assert tuple(e["task_id"] for e in rec.experts) == tasks
            for e in rec.experts:
                assert 0.0 < e["expert_base_distance"] < float("inf")
                assert 0.0 < e["consolidated_expert_distance"] < float("inf")
        assert "experts" in report.to_dict()["records"][0]

    def test_untrained_experts_sit_on_the_base(self, stream):
        report = run_full_stream(stream, tiny_config(epochs=0))
        for rec in report.records:
            assert all(e["expert_base_distance"] == 0.0 for e in rec.experts)

    def test_expert_final_losses_and_phase_walls_recorded(self, stream):
        report = run_full_stream(stream, tiny_config())
        for rec in report.records:
            assert all(0.0 < e["final_loss"] < float("inf") for e in rec.experts)
        assert [w["step_id"] for w in report.phase_walls] == [0, 1]
        assert "phase_walls" not in report.to_dict()
        untrained = run_full_stream(stream, tiny_config(epochs=0))
        assert all(e["final_loss"] is None for r in untrained.records for e in r.experts)

    def test_mid_stream_failure_reports_partial_history(self, stream, monkeypatch):
        import batchcl.protocol as protocol_mod

        real = protocol_mod.remote_train

        def flaky(ctx):
            if ctx.task.task_id >= 2:
                raise ExpertFailure("boom")
            return real(ctx)

        monkeypatch.setattr(protocol_mod, "remote_train", flaky)
        report = run_full_stream(stream, tiny_config())
        assert report.failed_step == 1
        assert len(report.records) == 1


class TestCostLedger:
    def entry(self, step_id=0, **overrides):
        values = dict(broadcast_bytes=1_000_000, upload_bytes=2_000_000,
                      memory_bytes=500_000, expert_param_bytes=500_000,
                      model_bytes=3_000_000)
        values.update(overrides)
        return StepCost(step_id=step_id, **values)

    def test_total_is_mean_step_cost_plus_model(self):
        ledger = CostLedger()
        ledger.add(self.entry(0))
        ledger.add(self.entry(1, upload_bytes=4_000_000))
        # steps: (0.5+0.5+1+2)=4 MB and (0.5+0.5+1+4)=6 MB; model 3 MB
        assert total_cost(ledger) == pytest.approx(5.0 + 3.0)

    def test_empty_ledger_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            total_cost(CostLedger())

    def test_negative_bytes_rejected(self):
        ledger = CostLedger()
        with pytest.raises(ValueError, match="negative"):
            ledger.add(self.entry(0, upload_bytes=-1))

    def test_cost_accuracy_scales_inversely_with_cost(self):
        assert cost_accuracy(0.8, 4.0) == pytest.approx(0.2)
        assert cost_accuracy(0.8, 8.0) == pytest.approx(0.1)

    def test_cost_accuracy_rejects_nonpositive_cost(self):
        with pytest.raises(ValueError, match="positive"):
            cost_accuracy(0.8, 0.0)

    def test_bigger_buffers_cost_more(self, stream):
        small = run_full_stream(stream, tiny_config(seed=3, buffer_capacity=6))
        big = run_full_stream(stream, tiny_config(seed=3, buffer_capacity=24))
        assert total_cost(big.ledger) > total_cost(small.ledger)
