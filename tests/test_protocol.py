"""Orchestration contract: codecs, counting transport, step atomicity, costs.

The pipeline tests run on a deliberately tiny stream/model so the whole
module stays fast; correctness claims here are about bytes, determinism,
and isolation rather than accuracy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import dis
import inspect
import os
import pickle
import re
import signal
import struct
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from helpers import (
    MALFORMED_TARGETS,
    assert_views_of_own_arena,
    consolidate_reference,
    count_tensors,
    experiment,
    fork_teachers,
    jitter_params,
    rewrite_last_artifact,
    send_malformed_targets,
    stack_passes,
)

import batchcl.protocol as protocol_mod
from batchcl.engine import NonFiniteError
from batchcl.losses import DISTILL_KINDS, distilled_outputs
from batchcl.model import ModelConfig, ParamVector, ResidualClassifier, build_model, stack_vectors
from batchcl.protocol import (
    ARTIFACT_FIXED_NBYTES,
    FRAME_OVERHEAD,
    SYNC_FIXED_NBYTES,
    TAG_ARTIFACT,
    TAG_SYNC,
    CountingTransport,
    ExpertArtifact,
    ExpertFailure,
    ExpertHyper,
    ExpertStats,
    ProcessExecutor,
    ProtocolViolation,
    SerialExecutor,
    StepFailure,
    StepPlan,
    consolidate,
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
    unframe,
)
from batchcl.replay import Buffer, ExemplarSet, Memory, merge_pool
from batchcl.run import StepCost, child_seed, cost_accuracy, total_cost
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


def tiny_config(seed=13, epochs=1, lr=0.1, **bmc):
    """A bmc run on the module stream with the TOY model shape."""
    return experiment(
        "bmc", seed,
        model=dict(res_blocks=1, res_layers_per_block=1, res_dim=8, hidden_dim=6,
                   dropout_p=0.0),
        training=dict(epochs_per_task=epochs, lr=lr, batch_size=8),
        bmc={"experts_per_step": 2, "rehearsal_epochs": 4, "buffer_capacity": 12,
             "memory_capacity": 40, **bmc},
    )


def expert_config(epochs=1, lr=0.1, batch_size=8, **bmc):
    """A run config whose SYNC header carries these expert settings, with a
    buffer of 10 unless ``bmc`` names another, for tests of one expert."""
    return experiment(training=dict(epochs_per_task=epochs, lr=lr, batch_size=batch_size),
                      bmc={"buffer_capacity": 10, **bmc})


def make_exemplars(n, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return ExemplarSet.from_task_data(
        rng.standard_normal((n, dim)).astype(np.float32),
        rng.integers(0, 4, size=n),
        task_id=2,
        origin=1,
    )


def make_sync(seed=5, cfg=None, model_seed=1, config=TOY, expert_index=0):
    """A framed SYNC message carrying a fresh base and ``cfg``'s expert
    settings (:func:`expert_config` by default); returns (message, base blob)."""
    blob = build_model(config, seed=model_seed).to_param_vector().to_bytes()
    payload = encode_sync(expert_index, seed, cfg or expert_config(), blob)
    return frame(TAG_SYNC, payload), blob


def train_one(task, config=TOY, **sync_kw) -> ExpertArtifact:
    """Expert 0 of a one-task step, decoded from the ARTF frame it returns."""
    sync, _ = make_sync(config=config, **sync_kw)
    return decode_artifact(unframe(remote_train(sync, (task,), config))[1])


def expert_of(sync: bytes) -> int:
    """The expert index a SYNC message names."""
    return decode_sync(unframe(sync)[1])[0]


def count_passes(monkeypatch) -> list:
    """Patch the layer arithmetic every pass runs to append to the returned list."""
    calls: list = []
    values = ResidualClassifier._values

    def counting(self, *args, **kwargs):
        calls.append(1)
        return values(self, *args, **kwargs)

    monkeypatch.setattr(ResidualClassifier, "_values", counting)
    return calls


@pytest.fixture
def forking(monkeypatch):
    fork_teachers(monkeypatch)


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

    def test_short_header_rejected(self):
        with pytest.raises(ProtocolViolation, match="header needs 12"):
            unframe(frame(TAG_SYNC, b"hello")[:7])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ProtocolViolation, match="1 trailing bytes at byte 17"):
            unframe(frame(TAG_SYNC, b"hello") + b"x")

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

    def test_short_block_rejected(self):
        with pytest.raises(ProtocolViolation, match="exemplar header truncated at byte 0"):
            decode_exemplars(b"\0" * 3)

    @pytest.mark.parametrize("declared", [6, 4])
    def test_misstated_row_count_rejected(self, declared):
        # 5 rows encoded; a header that over- or understates the count
        # must not load, neither past the end nor silently short
        blob = bytearray(encode_exemplars(make_exemplars(5)))
        struct.pack_into("<Q", blob, 0, declared)
        with pytest.raises(ProtocolViolation, match=f"declares {declared} rows of dim 6.*"
                                                    f"ends at byte {len(blob)}"):
            decode_exemplars(bytes(blob))

    def test_short_buffer_header_rejected(self):
        with pytest.raises(ProtocolViolation, match="buffer header truncated at byte 0"):
            decode_buffer(b"\0" * 5)

    def test_buffer_size_is_block_plus_header(self):
        buf = Buffer(exemplars=make_exemplars(7), capacity=12, owner=3)
        assert len(encode_buffer(buf)) == 12 + exemplar_block_nbytes(7, 6)


def test_fixed_header_sizes_pinned():
    """The ledger's layout arithmetic (criterion 7, the benchmark's check)
    reads these two numbers; a header change must show up here first."""
    assert (SYNC_FIXED_NBYTES, ARTIFACT_FIXED_NBYTES) == (54, 40)


class TestSyncCodec:
    def test_round_trip(self, stream):
        cfg = expert_config(epochs=3, lr=0.05, batch_size=16, stability_coef=0.4,
                            buffer_capacity=99, sampling="grad_max_base",
                            distill_kind="kd_logits")
        sync, blob = make_sync(seed=77, cfg=cfg)
        idx, seed, h, back = decode_sync(unframe(sync)[1])
        assert (idx, seed) == (0, 77)
        assert h == ExpertHyper(epochs=3, buffer_capacity=99, lr=0.05, stability_coef=0.4,
                                batch_size=16, sampling="grad_max_base",
                                distill_kind="kd_logits")
        assert back == blob

    def test_fixed_size_arithmetic(self, stream):
        sync, blob = make_sync()
        assert len(unframe(sync)[1]) == SYNC_FIXED_NBYTES + len(blob)

    def test_snapshot_is_a_read_only_view_of_the_frame(self, stream):
        sync, blob = make_sync()
        payload = ParamVector.from_bytes(decode_sync(unframe(sync)[1])[3]).payload
        assert np.shares_memory(payload, np.frombuffer(sync, np.uint8))
        assert not payload.flags.writeable
        assert payload.tobytes() == ParamVector.from_bytes(blob).payload.tobytes()

    def test_truncation_rejected(self, stream):
        payload = unframe(make_sync()[0])[1]
        with pytest.raises(ProtocolViolation, match="truncated"):
            decode_sync(payload[:-1])

    def test_short_fixed_part_rejected(self, stream):
        payload = unframe(make_sync()[0])[1]
        with pytest.raises(ProtocolViolation, match="truncated"):
            decode_sync(payload[: SYNC_FIXED_NBYTES - 9])

    def test_unknown_sampling_index_rejected(self, stream):
        payload = bytearray(unframe(make_sync()[0])[1])
        sampling_at = struct.calcsize("<IQIQddI")
        assert payload[sampling_at] == 0  # "random"
        payload[sampling_at] = 9
        with pytest.raises(ProtocolViolation, match="sampling 9"):
            decode_sync(bytes(payload))

    def test_batch_size_below_two_rejected(self, stream):
        payload = bytearray(unframe(make_sync()[0])[1])
        struct.pack_into("<I", payload, struct.calcsize("<IQIQdd"), 1)
        with pytest.raises(ProtocolViolation, match="sync header at byte 0: batch_size"):
            decode_sync(bytes(payload))


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
        assert back.param_vector.to_bytes() == a.param_vector.to_bytes()
        assert back.buffer.exemplars.features.tobytes() == a.buffer.exemplars.features.tobytes()
        assert back.stats == a.stats

    def test_snapshot_is_a_read_only_view_of_the_frame(self):
        msg = artifact_frame()
        a = decode_artifact(unframe(msg)[1])
        assert np.shares_memory(a.param_vector.payload, np.frombuffer(msg, np.uint8))
        assert not a.param_vector.payload.flags.writeable
        # the buffer's rows are copied out: they do not pin the frame
        assert not np.shares_memory(a.buffer.exemplars.features, np.frombuffer(msg, np.uint8))

    def test_frames_and_snapshots_are_one_copy_of_the_arena(self):
        # a snapshot of about 1 MB, taken as a view of the arena: the SYNC
        # base blob and the ARTF frame are each the one block of their size
        # that building them allocates, with the bytes of the copying path
        config = dataclasses.replace(TOY, res_layers_per_block=4, res_dim=256)
        model = build_model(config, seed=1)
        view = model.to_param_vector(copy=False)
        assert view.payload is model.arena
        a = ExpertArtifact(expert_index=0, param_vector=view,
                           buffer=Buffer(make_exemplars(5), capacity=5, owner=0),
                           stats=ExpertStats(epochs=1, final_loss=0.5, wall_clock_s=0.1))
        tracemalloc.start()
        try:
            blob = view.to_bytes()
            blob_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            msg = frame(TAG_ARTIFACT, *protocol_mod._artifact_parts(a))
            frame_peak = tracemalloc.get_traced_memory()[1] - len(blob)
        finally:
            tracemalloc.stop()
        assert len(blob) > 1_000_000
        assert blob_peak < len(blob) + 65536 and frame_peak < len(msg) + 65536
        copied = dataclasses.replace(a, param_vector=model.to_param_vector())
        assert blob == copied.param_vector.to_bytes()
        assert msg == frame(TAG_ARTIFACT, encode_artifact(copied))

    def test_fixed_size_arithmetic(self):
        a = self.make_artifact()
        expected = (
            ARTIFACT_FIXED_NBYTES
            + a.param_vector.nbytes
            + 12 + exemplar_block_nbytes(5, 6)
        )
        assert len(encode_artifact(a)) == expected

    def test_short_payload_rejected(self):
        with pytest.raises(ProtocolViolation, match="artifact header truncated at byte 0"):
            decode_artifact(b"x" * 10)

    def test_every_strict_prefix_rejected(self):
        payload = encode_artifact(self.make_artifact())
        for n in range(len(payload)):
            with pytest.raises(ProtocolViolation, match="at byte"):
                decode_artifact(payload[:n])

    def test_malformed_snapshot_rejected(self):
        payload = bytearray(encode_artifact(self.make_artifact()))
        payload[ARTIFACT_FIXED_NBYTES - 8] ^= 0xFF  # first byte of the snapshot magic
        with pytest.raises(ProtocolViolation, match="artifact snapshot at byte 32: bad magic"):
            decode_artifact(bytes(payload))

    def test_trailing_bytes_rejected(self):
        payload = encode_artifact(self.make_artifact())
        with pytest.raises(ProtocolViolation, match=f"2 trailing bytes at byte {len(payload)}"):
            decode_artifact(payload + b"\0\0")


def artifact_frame() -> bytes:
    return frame(TAG_ARTIFACT, encode_artifact(TestArtifactCodec().make_artifact()))


class TestTransport:
    def test_counts_exact_message_lengths(self, stream):
        t = CountingTransport()
        t.begin_step()
        sync, blob = make_sync()
        payload = unframe(sync)[1]
        msg1 = t.send_sync(payload)
        assert msg1 == sync
        msg2 = artifact_frame()
        assert t.send_artifact(msg2) == unframe(msg2)[1]
        assert t.broadcast_bytes == len(msg1)
        assert t.upload_bytes == len(msg2)
        assert t.artifact_count == 1

    def test_duplicate_artifact_rejected(self):
        t = CountingTransport()
        t.begin_step()
        msg = artifact_frame()
        t.send_artifact(msg)
        with pytest.raises(ProtocolViolation, match="expert 1 already sent"):
            t.send_artifact(msg)

    def test_next_step_clears_senders(self):
        t = CountingTransport()
        msg = artifact_frame()
        t.begin_step()
        t.send_artifact(msg)
        t.begin_step()
        t.send_artifact(msg)  # fine: new step
        assert t.artifact_count == 1

    def test_sync_frame_is_not_an_upload(self):
        t = CountingTransport()
        t.begin_step()
        with pytest.raises(ProtocolViolation, match="expected a b'ARTF' frame"):
            t.send_artifact(make_sync()[0])
        assert t.upload_bytes == 0 and t.artifact_count == 0


class TestPlans:
    @staticmethod
    def plans(stream, k, master_seed):
        return plan_steps(stream, experiment("bmc", master_seed, bmc={"experts_per_step": k}))

    def test_disjoint_classes_enforced(self, stream):
        with pytest.raises(ValueError, match="disjoint"):
            StepPlan(step_id=0, tasks=(stream.tasks[0], stream.tasks[0]), expert_seeds=(1, 2))

    def test_seed_count_must_match(self, stream):
        with pytest.raises(ValueError, match="seed"):
            StepPlan(step_id=0, tasks=(stream.tasks[0],), expert_seeds=(1, 2))

    def test_eight_tasks_k4_gives_two_full_steps(self):
        s = generate_stream("permuted", n_tasks=8, classes_per_task=2, dim=4,
                            train_per_task=12, val_per_task=4, seed=0)
        plans = self.plans(s, k=4, master_seed=3)
        assert [p.k for p in plans] == [4, 4]
        assert [p.step_id for p in plans] == [0, 1]

    def test_seven_tasks_k4_gives_partial_final_step(self):
        s = generate_stream("permuted", n_tasks=7, classes_per_task=2, dim=4,
                            train_per_task=12, val_per_task=4, seed=0)
        plans = self.plans(s, k=4, master_seed=3)
        assert [p.k for p in plans] == [4, 3]

    def test_k_equals_stream_length_single_step(self, stream):
        plans = self.plans(stream, k=4, master_seed=3)
        assert len(plans) == 1 and plans[0].k == 4

    def test_seeds_follow_global_task_index(self, stream):
        plans = self.plans(stream, k=3, master_seed=9)
        flat = [s for p in plans for s in p.expert_seeds]
        assert flat == [child_seed(9, "expert", j) for j in range(4)]

    def test_k_below_one_rejected(self, stream):
        with pytest.raises(ValueError):
            self.plans(stream, k=0, master_seed=3)


class _PoisonedTask:
    """A stand-in for another expert's task: touching it fails the test."""

    def __getattribute__(self, name):
        raise AssertionError(f"expert read {name!r} of a task that is not its own")


class _CapturingExecutor(SerialExecutor):
    def run(self, syncs, tasks, model_config):
        self.args = (syncs, tasks, model_config)
        return super().run(syncs, tasks, model_config)


class TestExpertIsolation:
    def test_context_carries_exactly_the_allowed_fields(self, stream):
        # an expert receives one SYNC frame plus the step's tasks and model
        # shape; the frame decodes to its index, seed, hyper-params and base
        assert list(inspect.signature(remote_train).parameters) == [
            "sync", "tasks", "model_config"
        ]
        sync, blob = make_sync(seed=9)
        hyper = ExpertHyper(epochs=1, buffer_capacity=10, lr=0.1, stability_coef=1.0,
                            batch_size=8, sampling="random", distill_kind="features")
        assert decode_sync(unframe(sync)[1]) == (0, 9, hyper, blob)

    def test_context_is_immutable(self, stream):
        sync, _ = make_sync()
        assert isinstance(sync, bytes)
        assert isinstance(stream.tasks, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stream.tasks[0].task_id = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            TOY.res_dim = 1

    def test_no_field_can_reach_a_memory(self, stream):
        # what an executor is handed is built purely from value types: bytes,
        # frozen tasks, a frozen config -- no channel back to the
        # coordinator's Memory or to other experts exists
        capturing = _CapturingExecutor()
        cfg = tiny_config(seed=5, rehearsal_epochs=1)
        plan = plan_steps(stream, cfg)[0]
        run_incremental_step(
            build_model(TOY, seed=1), plan, Memory(40, stream.dim), cfg,
            CountingTransport(), capturing,
        )
        syncs, tasks, model_config = capturing.args
        assert all(type(s) is bytes for s in syncs)
        assert tasks == plan.tasks and model_config == TOY
        for value in (*syncs, *tasks, model_config):
            assert not isinstance(value, Memory)

    def test_expert_reads_only_its_own_task(self, stream):
        sync, _ = make_sync(expert_index=2, seed=21)
        tasks = (_PoisonedTask(), _PoisonedTask(), stream.tasks[1], _PoisonedTask())
        artifact = decode_artifact(unframe(remote_train(sync, tasks, TOY))[1])
        assert set(artifact.buffer.exemplars.task_ids) == {stream.tasks[1].task_id}
        alone = train_one(stream.tasks[1], seed=21)
        assert artifact.param_vector.to_bytes() == alone.param_vector.to_bytes()


class TestRemoteTrain:
    def test_zero_epochs_returns_base_bit_exact(self, stream):
        sync, blob = make_sync(cfg=expert_config(epochs=0))
        artifact = decode_artifact(unframe(remote_train(sync, (stream.tasks[0],), TOY))[1])
        assert artifact.param_vector.to_bytes() == blob

    def test_deterministic_given_context(self, stream):
        a1, a2 = train_one(stream.tasks[1], seed=21), train_one(stream.tasks[1], seed=21)
        assert a1.param_vector.to_bytes() == a2.param_vector.to_bytes()
        assert a1.buffer.exemplars.features.tobytes() == a2.buffer.exemplars.features.tobytes()

    def test_buffer_tagged_with_owner_and_task(self, stream):
        artifact = train_one(stream.tasks[1])
        assert artifact.buffer.owner == 0
        assert set(artifact.buffer.exemplars.task_ids) == {stream.tasks[1].task_id}
        assert len(artifact.buffer.exemplars) <= expert_config().bmc.buffer_capacity

    def test_stability_pull_reduces_feature_drift(self, stream):
        # same data and seeds, only the stability coefficient differs; the
        # penalized quantity is the mode-matched tap distance to the base.
        # Every step up in the coefficient must pull the expert closer, with
        # and without dropout: a pull that overshoots the base at a large
        # coefficient, or a teacher that does not see the student's dropped
        # units, breaks the ordering.
        from batchcl.losses import distill
        from batchcl.model import model_from_vector

        x = stream.tasks[0].train_x
        for dropout_p in (0.0, 0.1):
            config = dataclasses.replace(TOY, dropout_p=dropout_p)
            base = build_model(config, seed=1)
            mean_dist = {}
            for coef in (0.0, 0.5, 2.0):
                dists = []
                for seed in (5, 6, 7):
                    cfg = expert_config(epochs=2, lr=0.02, stability_coef=coef)
                    artifact = train_one(stream.tasks[0], config=config, seed=seed, cfg=cfg)
                    expert = model_from_vector(config, artifact.param_vector)
                    drift = distill("features", stack_passes([expert.forward_as_teacher(x)]),
                                    base.forward_as_teacher(x))
                    dists.append(float(drift.value))
                mean_dist[coef] = float(np.mean(dists))
            assert mean_dist[0.0] > mean_dist[0.5] > mean_dist[2.0], (dropout_p, mean_dist)
            assert mean_dist[2.0] > 0

    def test_divergence_reported_as_expert_failure(self, stream):
        with np.errstate(all="ignore"):
            with pytest.raises(ExpertFailure, match="expert 0"):
                train_one(stream.tasks[0], cfg=expert_config(epochs=3, lr=1e30))

    def test_non_sync_tag_rejected(self, stream):
        sync, _ = make_sync()
        with pytest.raises(ProtocolViolation, match="expected a b'SYNC' frame"):
            remote_train(frame(TAG_ARTIFACT, unframe(sync)[1]), (stream.tasks[0],), TOY)

    def test_unreadable_base_snapshot_rejected(self, stream):
        payload = bytearray(unframe(make_sync()[0])[1])
        payload[SYNC_FIXED_NBYTES : SYNC_FIXED_NBYTES + 4] = b"XXXX"
        with pytest.raises(ProtocolViolation,
                           match=f"sync base snapshot at byte {SYNC_FIXED_NBYTES}: bad magic"):
            remote_train(frame(TAG_SYNC, bytes(payload)), (stream.tasks[0],), TOY)

    def test_base_snapshot_of_another_shape_rejected(self, stream):
        wider = dataclasses.replace(TOY, total_classes=TOY.total_classes + 1)
        sync, _ = make_sync(config=wider)
        with pytest.raises(ProtocolViolation,
                           match=f"sync base snapshot at byte {SYNC_FIXED_NBYTES}: layout"):
            remote_train(sync, (stream.tasks[0],), TOY)
        # without a stability term the base is no stack, and is checked the same
        sync, _ = make_sync(config=wider, cfg=expert_config(stability_coef=0.0))
        with pytest.raises(ProtocolViolation,
                           match=f"sync base snapshot at byte {SYNC_FIXED_NBYTES}: layout"):
            remote_train(sync, (stream.tasks[0],), TOY)

    def test_one_expert_batch_builds_no_tensor(self, stream, monkeypatch):
        task = stream.tasks[0]
        cfg = expert_config(batch_size=len(task.train_y), stability_coef=1.0)
        base = build_model(TOY, seed=1).to_param_vector().to_bytes()
        built = count_tensors(monkeypatch)
        artifact = train_one(task, cfg=cfg)
        assert built == []
        assert artifact.param_vector.to_bytes() != base

    @pytest.mark.parametrize("stability_coef", [0.0, 1.0])
    def test_one_pass_per_batch(self, stream, monkeypatch, stability_coef):
        # with a stability term the expert and its base teacher share a pass
        task = stream.tasks[0]
        cfg = expert_config(epochs=2, stability_coef=stability_coef)
        calls = count_passes(monkeypatch)
        train_one(task, cfg=cfg)
        assert len(calls) == 2 * (len(task.train_y) // 8)

    def test_expert_index_beyond_tasks_rejected(self, stream):
        sync, _ = make_sync(expert_index=2)
        with pytest.raises(ProtocolViolation, match="expert 2 at byte 0.*2 tasks"):
            remote_train(sync, stream.tasks[:2], TOY)


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
        out = consolidate(base, arts, Memory(40, 6),
                          tiny_config(rehearsal_epochs=2, task_coef=0.0, consolidation_coef=1.0),
                          rng=np.random.default_rng(0))
        assert params_bytes(out) == params_bytes(base)

    def test_input_base_never_mutated(self, stream):
        base = build_model(TOY, seed=1)
        before_params = params_bytes(base)
        before_stats = b"".join(base.stats[k].tobytes() for k in sorted(base.stats))
        arts = self.setup_artifacts(base, stream)
        consolidate(base, arts, Memory(40, 6), tiny_config(rehearsal_epochs=2),
                    rng=np.random.default_rng(0))
        assert params_bytes(base) == before_params
        assert b"".join(base.stats[k].tobytes() for k in sorted(base.stats)) == before_stats

    def test_artifact_order_does_not_matter(self, stream):
        base = build_model(TOY, seed=1)
        arts = self.setup_artifacts(base, stream, n=3)
        # make the teachers genuinely different so ordering could bite
        for i, a in enumerate(arts):
            m = build_model(TOY, seed=10 + i)
            arts[i] = dataclasses.replace(a, param_vector=m.to_param_vector())
        cfg = tiny_config(rehearsal_epochs=1)
        out1 = consolidate(base, arts, Memory(40, 6), cfg, rng=np.random.default_rng(3))
        out2 = consolidate(base, list(reversed(arts)), Memory(40, 6), cfg,
                           rng=np.random.default_rng(3))
        assert params_bytes(out1) == params_bytes(out2)

    def test_zero_consolidation_coef_ignores_teacher_weights(self, stream):
        # with the distillation term off the expert snapshots must not leak
        # into the update; swapping them for unrelated weights changes nothing
        base = build_model(TOY, seed=1)
        cfg = tiny_config(rehearsal_epochs=2, task_coef=1.0, consolidation_coef=0.0)
        arts = self.setup_artifacts(base, stream)
        out1 = consolidate(base, arts, Memory(40, 6), cfg, rng=np.random.default_rng(5))
        swapped = [
            dataclasses.replace(a, param_vector=build_model(TOY, seed=99 + i).to_param_vector())
            for i, a in enumerate(arts)
        ]
        out2 = consolidate(base, swapped, Memory(40, 6), cfg, rng=np.random.default_rng(5))
        assert params_bytes(out1) == params_bytes(out2)

    def test_empty_pool_rejected(self, stream):
        base = build_model(TOY, seed=1)
        empty = [dataclasses.replace(
            a, buffer=Buffer(ExemplarSet.empty(6), capacity=10, owner=a.expert_index)
        ) for a in self.setup_artifacts(base, stream)]
        with pytest.raises(ValueError, match="empty"):
            consolidate(base, empty, Memory(40, 6), tiny_config(rehearsal_epochs=1),
                        rng=np.random.default_rng(0))

    @pytest.mark.parametrize("consolidation, forked", [
        pytest.param(0.0, False, id="0.0"), pytest.param(1.0, False, id="1.0"),
        pytest.param(1.0, True, id="1.0-forked")])
    def test_one_pass_per_batch(self, stream, monkeypatch, consolidation, forked):
        # stacked (a short consolidation), the student and its k teachers
        # share one pass; forked, the coordinator runs the student's pass
        # alone and its k teachers run in the teacher process
        if forked:
            fork_teachers(monkeypatch)
        base = build_model(TOY, seed=1)
        arts = self.setup_artifacts(base, stream, n=3)
        calls = count_passes(monkeypatch)
        cfg = tiny_config(rehearsal_epochs=2, task_coef=1.0, consolidation_coef=consolidation)
        consolidate(base, arts, Memory(40, 6), cfg, rng=np.random.default_rng(0))
        assert len(calls) == 2 * (30 // 8)

    def test_returned_model_owns_its_arrays(self, stream):
        # the student leaves with an arena of its own, and its arrays are
        # views of that arena
        base = build_model(TOY, seed=1)
        out = consolidate(base, self.setup_artifacts(base, stream), Memory(40, 6),
                          tiny_config(rehearsal_epochs=1), rng=np.random.default_rng(0))
        assert out.arena.shape == base.arena.shape
        assert_views_of_own_arena(out)

    def test_frees_its_stack_and_returns_an_arena_of_its_own(self, stream, monkeypatch):
        # a short consolidation trains the student as slice 0 of a stack; it
        # leaves as a copy of that slice, and the stacked arena is freed as
        # consolidate returns
        real = protocol_mod.stack_vectors
        stacks = []

        def kept(*args):
            stack = real(*args)
            stacks.append((weakref.ref(stack.arena), stack.arena[0].copy()))
            return stack

        monkeypatch.setattr(protocol_mod, "stack_vectors", kept)
        base = build_model(TOY, seed=1)
        out = consolidate(base, self.setup_artifacts(base, stream), Memory(40, 6),
                          tiny_config(rehearsal_epochs=1), rng=np.random.default_rng(0))
        [(arena, start)] = stacks
        assert arena() is None
        assert_views_of_own_arena(out)
        assert out.arena.tobytes() != start.tobytes()

    def test_builds_no_stack_and_returns_an_arena_of_its_own(self, stream, monkeypatch, forking):
        # the student trains alone in the coordinator and leaves as the model
        # it trained, with an arena of its own; only the teacher process
        # stacks (the experts alone), so the coordinator builds no stack
        coordinator, real = os.getpid(), protocol_mod.stack_vectors
        stacks = []

        def kept(*args):
            stack = real(*args)
            if os.getpid() == coordinator:
                stacks.append(stack.arena.shape)
            return stack

        monkeypatch.setattr(protocol_mod, "stack_vectors", kept)
        base = build_model(TOY, seed=1)
        out = consolidate(base, self.setup_artifacts(base, stream), Memory(40, 6),
                          tiny_config(rehearsal_epochs=1), rng=np.random.default_rng(0))
        assert stacks == []
        assert out.arena.shape == base.arena.shape
        assert_views_of_own_arena(out)
        assert out.arena.tobytes() != base.arena.tobytes()

    @pytest.mark.parametrize("kind", ["features", "kd_logits", "phi_penultimate"])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.1])
    def test_equals_the_per_teacher_reference_loop(self, kind, dropout_p):
        # memory rows, three distinct teachers, and an expert of 2 rows that
        # most batches of 8 drawn from the 28-row pool miss; the returned
        # arena, running statistics included, must be the reference's
        config = dataclasses.replace(TOY, res_blocks=2, dropout_p=dropout_p)
        base = build_model(config, seed=1)
        data = np.random.default_rng(40)
        arts = []
        for i, rows in enumerate([8, 6, 2]):
            expert = build_model(config, seed=41 + i)
            jitter_params(expert, seed=50 + i)
            buf = ExemplarSet.from_task_data(
                data.standard_normal((rows, 6)).astype(np.float32),
                data.integers(2 * i, 2 * i + 2, size=rows), task_id=i, origin=i,
            )
            arts.append(ExpertArtifact(
                expert_index=i, param_vector=expert.to_param_vector(),
                buffer=Buffer(buf, capacity=8, owner=i),
                stats=ExpertStats(epochs=1, final_loss=0.5, wall_clock_s=0.0),
            ))
        memory = Memory(40, 6)
        memory.replace(make_exemplars(12, seed=42))
        cfg = tiny_config(rehearsal_epochs=3, task_coef=0.7, consolidation_coef=1.3,
                          distill_kind=kind)
        out = consolidate(base, arts, memory, cfg, rng=np.random.default_rng(43))
        want = consolidate_reference(base, arts, memory, cfg, rng=np.random.default_rng(43))
        assert out.arena.tobytes() == want.arena.tobytes()
        assert out.arena.tobytes() != base.arena.tobytes()

    def test_no_artifacts_rejected(self):
        base = build_model(TOY, seed=1)
        with pytest.raises(ValueError, match="artifact"):
            consolidate(base, [], Memory(40, 6), tiny_config(rehearsal_epochs=1),
                        rng=np.random.default_rng(0))


    def test_one_batch_builds_no_tensor(self, monkeypatch):
        # pinned16's shape (1 block of 2 layers, k = 4) and exactly one
        # consolidation batch: the per-op student graph took about 50 nodes
        config = ModelConfig(input_dim=16, total_classes=64, res_blocks=1,
                             res_layers_per_block=2, res_dim=32, hidden_dim=16,
                             dropout_p=0.1)
        base = build_model(config, seed=1)
        rng = np.random.default_rng(2)
        arts = [
            ExpertArtifact(
                expert_index=i, param_vector=build_model(config, seed=10 + i).to_param_vector(),
                buffer=Buffer(
                    exemplars=ExemplarSet.from_task_data(
                        rng.standard_normal((8, 16)).astype(np.float32),
                        rng.integers(4 * i, 4 * i + 4, size=8), task_id=i, origin=i,
                    ),
                    capacity=8, owner=i,
                ),
                stats=ExpertStats(epochs=1, final_loss=0.5, wall_clock_s=0.0),
            )
            for i in range(4)
        ]
        built = count_tensors(monkeypatch)
        cfg = experiment(training=dict(batch_size=32), bmc=dict(rehearsal_epochs=1))
        out = consolidate(base, arts, Memory(40, 16), cfg, rng=np.random.default_rng(3))
        assert built == []
        assert params_bytes(out) != params_bytes(base)


class _TeacherBoom(Exception):
    """An exception a teacher process raises."""


def in_teacher(monkeypatch, act, after=0):
    """Make the teacher pass call ``act()`` from its call ``after + 1`` on
    when it runs in a forked child, and run as usual everywhere else. The
    teacher process takes one pass per 4 batches."""
    real, coordinator = ResidualClassifier.forward_as_teacher, os.getpid()
    calls = []

    def patched(self, *args, **kwargs):
        if os.getpid() != coordinator:
            calls.append(1)
            if len(calls) > after:
                act()
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ResidualClassifier, "forward_as_teacher", patched)


@pytest.mark.usefixtures("forking")
class TestTeacherProcess:
    """Consolidation's k teachers run in one forked process that replays the
    coordinator's draws and sends each batch row its own expert's outputs;
    a short consolidation runs them in the student's stacked pass instead."""

    def setup(self, config, rows, memory_rows):
        base = build_model(config, seed=1)
        data = np.random.default_rng(40)
        arts = []
        for i, n in enumerate(rows):
            expert = build_model(config, seed=41 + i)
            jitter_params(expert, seed=50 + i)
            buf = ExemplarSet.from_task_data(
                data.standard_normal((n, 6)).astype(np.float32),
                data.integers(2 * i, 2 * i + 2, size=n), task_id=i, origin=i,
            )
            arts.append(ExpertArtifact(
                expert_index=i, param_vector=expert.to_param_vector(),
                buffer=Buffer(buf, capacity=8, owner=i),
                stats=ExpertStats(epochs=1, final_loss=0.5, wall_clock_s=0.0),
            ))
        memory = Memory(40, 6)
        memory.replace(make_exemplars(memory_rows, seed=42))
        return base, arts, memory

    @pytest.mark.parametrize("kind", DISTILL_KINDS)
    @pytest.mark.parametrize("dropout_p", [0.0, 0.1])
    @pytest.mark.parametrize("rows, memory_rows", [((8, 6, 2), 12), ((1,), 30)],
                             ids=["k3", "k1_memory_batches"])
    @pytest.mark.parametrize("forked", [True, False], ids=["forked", "stacked"])
    def test_targets_are_the_old_stacked_pass_slices(self, monkeypatch, kind, dropout_p, rows,
                                                      memory_rows, forked):
        # what the coordinator receives per batch against the teacher slices
        # of one (k+1)-stack train pass (student and teachers) on the same
        # draws, gathered row by row: a memory row reads teacher 0's
        if not forked:
            monkeypatch.setattr(protocol_mod, "_FORK_MIN_BATCHES", 10 ** 9)
        config = dataclasses.replace(TOY, res_blocks=2, dropout_p=dropout_p)
        base, arts, memory = self.setup(config, rows, memory_rows)
        cfg = tiny_config(rehearsal_epochs=3, task_coef=0.7, consolidation_coef=1.3,
                          distill_kind=kind)
        received = []
        real = protocol_mod.l_base

        def recording(student, targets, labels, *args):
            received.append((args[-1], [None if t is None else t.copy()
                                        for t in (*targets.taps, targets.logits)]))
            return real(student, targets, labels, *args)

        monkeypatch.setattr(protocol_mod, "l_base", recording)
        consolidate(base, arts, memory, cfg, rng=np.random.default_rng(43))

        pool = merge_pool(memory, [a.buffer for a in arts])
        stack = stack_vectors(config, [base, *(a.param_vector for a in arts)])
        rng, every_row = np.random.default_rng(43), np.arange(8)
        which = distilled_outputs(kind, 3)
        assert len(received) == 3 * (len(pool) // 8)
        for (origins, k), targets in received:
            idx = rng.integers(0, len(pool), size=8)
            taps, _ = stack.forward_with_taps(pool.features[idx], train=True, rng=rng)
            assert k == len(arts) and origins.tobytes() == pool.origins[idx].tobytes()
            teachers = [*taps.teachers.taps, taps.teachers.logits]
            own = np.maximum(origins, 0)
            for i, got in enumerate(targets):
                if i in which:
                    assert got.tobytes() == teachers[i][own, every_row].tobytes(), i
                else:
                    assert got is None
        if memory_rows == 30:
            assert any((origins == -1).all() for (origins, _), _ in received)

    def test_killed_teacher_process_fails_the_step(self, stream, monkeypatch):
        # killed in its second pass, after the records of its first 4 batches
        in_teacher(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL), after=1)
        base = build_model(TOY, seed=child_seed(5, "init"))
        cfg = tiny_config(seed=5, rehearsal_epochs=2)
        memory = Memory(40, stream.dim)
        memory.replace(make_exemplars(10))
        base_before = base.to_param_vector().to_bytes()
        memory_before = encode_exemplars(memory.exemplars)
        with pytest.raises(StepFailure, match="step 1: consolidation: teacher process ended "
                                              "with exit code -9 after 4 of 8 batches"):
            run_incremental_step(base, plan_steps(stream, cfg)[1], memory, cfg,
                                 CountingTransport(), SerialExecutor())
        assert base.to_param_vector().to_bytes() == base_before
        assert encode_exemplars(memory.exemplars) == memory_before

    @pytest.mark.parametrize("how", MALFORMED_TARGETS)
    def test_malformed_teacher_frame_fails_the_step(self, stream, monkeypatch, how):
        # every batch's TGTS frame arrives with another tag, or a payload
        # that is not the student's targets' bytes: the step fails before
        # any view of it is taken, and base and memory stay as they were
        send_malformed_targets(monkeypatch, how)
        base = build_model(TOY, seed=child_seed(5, "init"))
        cfg = tiny_config(seed=5, rehearsal_epochs=2)
        memory = Memory(40, stream.dim)
        memory.replace(make_exemplars(10))
        base_before = base.to_param_vector().to_bytes()
        memory_before = encode_exemplars(memory.exemplars)
        with pytest.raises(StepFailure, match="^step 1: consolidation: ") as raised:
            run_incremental_step(base, plan_steps(stream, cfg)[1], memory, cfg,
                                 CountingTransport(), SerialExecutor())
        assert type(raised.value.__cause__) is ProtocolViolation
        if how == "wrong_tag":
            assert "expected a b'TGTS' frame, got b'ARTF'" in str(raised.value)
        else:
            sizes = re.search(r"teacher frame of (\d+) bytes for (\d+) bytes of targets$",
                              str(raised.value))
            got, want = map(int, sizes.groups())
            assert got - want == {"short": -4, "long": 4, "odd_length": -1}[how]
        assert base.to_param_vector().to_bytes() == base_before
        assert encode_exemplars(memory.exemplars) == memory_before

    def test_teacher_exception_is_reraised_as_it_is(self, stream, monkeypatch):
        def boom():
            raise _TeacherBoom("no teacher today")

        in_teacher(monkeypatch, boom, after=1)
        base = build_model(TOY, seed=1)
        arts = TestConsolidate().setup_artifacts(base, stream)
        with pytest.raises(_TeacherBoom, match="^no teacher today$"):
            consolidate(base, arts, Memory(40, 6), tiny_config(rehearsal_epochs=4),
                        rng=np.random.default_rng(0))

    def test_diverging_student_leaves_no_child_behind(self, stream, monkeypatch):
        # 8 batches of a 20-row pool: the student fails at its second batch
        # while the teacher process sleeps in its second pass (batches 5 to
        # 8); it is killed, then reaped
        teachers = spy_forks(monkeypatch, runs=protocol_mod._teach)
        in_teacher(monkeypatch, lambda: time.sleep(60), after=1)
        base = build_model(TOY, seed=1)
        arts = TestConsolidate().setup_artifacts(base, stream)
        t0 = time.perf_counter()
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
            consolidate(base, arts, Memory(40, 6), tiny_config(lr=1e30, rehearsal_epochs=4),
                        rng=np.random.default_rng(0))
        assert time.perf_counter() - t0 < 30
        assert len(teachers) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(teachers[0], os.WNOHANG)

    def test_interrupted_coordinator_kills_and_reaps_the_teacher_process(self, stream,
                                                                          monkeypatch):
        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        teachers = spy_forks(monkeypatch, runs=protocol_mod._teach)
        in_teacher(monkeypatch, lambda: time.sleep(60), after=1)
        base = build_model(TOY, seed=1)
        arts = TestConsolidate().setup_artifacts(base, stream)
        previous = signal.signal(signal.SIGALRM, interrupt)
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(Interrupted):
                consolidate(base, arts, Memory(40, 6), tiny_config(rehearsal_epochs=4),
                            rng=np.random.default_rng(0))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - t0 < 30
        assert len(teachers) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(teachers[0], os.WNOHANG)

    @pytest.mark.parametrize("consolidation, shortest, cores, forked", [
        (0.0, 0, 2, 0), (1.0, 0, 2, 1), (1.0, 8, 2, 1), (1.0, 9, 2, 0), (1.0, 0, 1, 0)])
    def test_forks_a_teacher_process_only_for_a_long_enough_distillation(
            self, stream, monkeypatch, consolidation, shortest, cores, forked):
        # 4 epochs of 2 batches on a 20-row pool: 8 batches fork if at least
        # 8 must, and not if 9 must, nor on one CPU; either way the student
        # ends the same
        monkeypatch.setattr(protocol_mod, "_FORK_MIN_BATCHES", shortest)
        monkeypatch.setattr(protocol_mod, "_usable_cores", lambda: cores)
        forks = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        base = build_model(TOY, seed=1)
        arts = TestConsolidate().setup_artifacts(base, stream)
        for i, a in enumerate(arts):
            jitter_params(base, seed=70 + i)
            arts[i] = dataclasses.replace(a, param_vector=base.to_param_vector())
        base = build_model(TOY, seed=1)
        cfg = tiny_config(rehearsal_epochs=4, task_coef=1.0, consolidation_coef=consolidation)
        out = consolidate(base, arts, Memory(40, 6), cfg, rng=np.random.default_rng(0))
        assert len(forks) == forked
        fork_teachers(monkeypatch)
        assert out.arena.tobytes() == consolidate(base, arts, Memory(40, 6), cfg,
                                                  rng=np.random.default_rng(0)).arena.tobytes()


    def test_pipes_keep_their_default_size_where_the_system_cannot_resize(self, stream,
                                                                           monkeypatch):
        # a system without F_SETPIPE_SZ forks the teacher process all the
        # same, and the student ends as it does with resized pipes
        base = build_model(TOY, seed=1)
        arts = TestConsolidate().setup_artifacts(base, stream)
        cfg = tiny_config(rehearsal_epochs=4)
        resized = consolidate(base, arts, Memory(40, 6), cfg, rng=np.random.default_rng(0))
        teachers = spy_forks(monkeypatch, runs=protocol_mod._teach)
        monkeypatch.setattr(protocol_mod, "_SETPIPE_SZ", None)
        out = consolidate(base, arts, Memory(40, 6), cfg, rng=np.random.default_rng(0))
        assert len(teachers) == 1
        assert out.arena.tobytes() == resized.arena.tobytes()


class TestIncrementalStep:
    def run_one(self, stream, plan_idx=0, memory=None, master_seed=5):
        base = build_model(TOY, seed=child_seed(master_seed, "init"))
        cfg = tiny_config(seed=master_seed)
        plans = plan_steps(stream, cfg)
        memory = memory if memory is not None else Memory(40, stream.dim)
        transport = CountingTransport()
        result = run_incremental_step(
            base, plans[plan_idx], memory, cfg, transport, SerialExecutor()
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
        cfg = tiny_config(seed=master_seed)
        memory = Memory(40, stream.dim)
        transport = CountingTransport()
        costs = []
        for plan in plan_steps(stream, cfg):
            result = run_incremental_step(base, plan, memory, cfg, transport, SerialExecutor())
            base = result.base
            costs.append(result.cost)
        blob0 = costs[0].broadcast_bytes
        # both steps broadcast the same-shape snapshot to the same k experts
        assert costs[1].broadcast_bytes == blob0
        # step 1 started with a populated memory, so its peak is larger
        assert costs[1].memory_bytes > costs[0].memory_bytes
        assert transport.broadcast_bytes == costs[0].broadcast_bytes + costs[1].broadcast_bytes

    def test_failed_expert_rolls_back_base_and_memory(self, stream, monkeypatch):
        master_seed = 5
        base = build_model(TOY, seed=child_seed(master_seed, "init"))
        cfg = tiny_config(seed=master_seed, rehearsal_epochs=2)
        plans = plan_steps(stream, cfg)
        memory = Memory(40, stream.dim)
        memory.replace(make_exemplars(10))
        base_before = base.to_param_vector().to_bytes()
        memory_before = memory.exemplars.features.tobytes()

        real = protocol_mod.remote_train

        def flaky(sync, tasks, model_config):
            if expert_of(sync) == 1:
                raise ExpertFailure("simulated crash")
            return real(sync, tasks, model_config)

        monkeypatch.setattr(protocol_mod, "remote_train", flaky)
        with pytest.raises(StepFailure, match="simulated crash"):
            run_incremental_step(
                base, plans[0], memory, cfg, CountingTransport(), SerialExecutor()
            )
        assert base.to_param_vector().to_bytes() == base_before
        assert memory.exemplars.features.tobytes() == memory_before
        assert len(memory) == 10


    def test_diverging_consolidation_rolls_back_base_and_memory(self, stream):
        master_seed = 5
        base = build_model(TOY, seed=child_seed(master_seed, "init"))
        # experts train no epoch, so only the consolidation sees the step size
        cfg = tiny_config(seed=master_seed, epochs=0, lr=1e30, rehearsal_epochs=2)
        plans = plan_steps(stream, cfg)
        memory = Memory(40, stream.dim)
        memory.replace(make_exemplars(10))
        base_before = base.to_param_vector().to_bytes()
        memory_before = memory.exemplars.features.tobytes()
        with np.errstate(all="ignore"), pytest.raises(
            StepFailure, match="step 1: consolidation: non-finite"
        ):
            run_incremental_step(
                base, plans[1], memory, cfg, CountingTransport(), SerialExecutor()
            )
        assert base.to_param_vector().to_bytes() == base_before
        assert memory.exemplars.features.tobytes() == memory_before
        assert len(memory) == 10


    def test_truncated_artifact_frame_fails_the_step(self, stream):
        master_seed = 5
        base = build_model(TOY, seed=child_seed(master_seed, "init"))
        cfg = tiny_config(seed=master_seed, rehearsal_epochs=2)
        plans = plan_steps(stream, cfg)
        memory = Memory(40, stream.dim)
        memory.replace(make_exemplars(10))
        base_before = base.to_param_vector().to_bytes()
        memory_before = memory.exemplars.features.tobytes()
        with pytest.raises(StepFailure, match="step 1: frame payload truncated"):
            run_incremental_step(
                base, plans[1], memory, cfg, CountingTransport(), _TruncatingExecutor()
            )
        assert base.to_param_vector().to_bytes() == base_before
        assert memory.exemplars.features.tobytes() == memory_before


    @pytest.mark.parametrize("edit, message", [
        # an expert index the step does not have
        (lambda a: dataclasses.replace(a, expert_index=7),
         "step 1: artifact names expert 7, but the step has 2 experts"),
        # expert 1's buffer owned by and tagged for expert 0
        (lambda a: dataclasses.replace(a, buffer=Buffer(
            a.buffer.exemplars.with_origin(0), a.buffer.capacity, owner=0)),
         "step 1: artifact of expert 1 carries a buffer tagged with expert 0"),
        # expert 1's buffer owned by it, but its rows tagged for expert 0
        (lambda a: dataclasses.replace(a, buffer=Buffer(
            a.buffer.exemplars.with_origin(0), a.buffer.capacity, owner=1)),
         "step 1: artifact of expert 1 carries a buffer tagged with expert 0"),
    ], ids=["index", "owner_and_origins", "origins"])
    def test_misrouted_artifact_fails_the_step(self, stream, edit, message):
        master_seed = 5
        base = build_model(TOY, seed=child_seed(master_seed, "init"))
        cfg = tiny_config(seed=master_seed, rehearsal_epochs=2)
        plans = plan_steps(stream, cfg)
        memory = Memory(40, stream.dim)
        memory.replace(make_exemplars(10))
        base_before = base.to_param_vector().to_bytes()
        memory_before = memory.exemplars.features.tobytes()
        with pytest.raises(StepFailure, match=message):
            run_incremental_step(
                base, plans[1], memory, cfg, CountingTransport(), _RewritingExecutor(edit)
            )
        assert base.to_param_vector().to_bytes() == base_before
        assert memory.exemplars.features.tobytes() == memory_before


class _RewritingExecutor(SerialExecutor):
    """Experts whose last ARTF frame carries ``edit`` of its artifact."""

    def __init__(self, edit):
        self.edit = edit

    def run(self, syncs, tasks, model_config):
        return rewrite_last_artifact(super().run(syncs, tasks, model_config), self.edit)


class _TruncatingExecutor(SerialExecutor):
    """Experts whose ARTF frames lose their last 3 bytes on the way."""

    def run(self, syncs, tasks, model_config):
        return [m[:-3] for m in super().run(syncs, tasks, model_config)]


def spy_forks(monkeypatch, runs=None) -> list[int]:
    """Record the children ``protocol.Forked`` forks: returns the list that
    each fork of a child running ``runs`` (a job's function; any, if None)
    appends the child's pid to, in fork order."""
    forks: list[int] = []
    real_init = protocol_mod.Forked.__init__

    def init(self, jobs):
        jobs = list(jobs)
        try:
            real_init(self, jobs)
        finally:
            forks.extend(pid for pid, job in zip(getattr(self, "pids", ()), jobs)
                          if runs is None or job.func is runs)

    monkeypatch.setattr(protocol_mod.Forked, "__init__", init)
    return forks


def spy_workers(monkeypatch, tmp_path) -> list[int]:
    """Record every expert worker ``ProcessExecutor`` forks and what it trains.

    Returns the pids of the expert workers forked so far, in fork order: the
    children forked to run an expert worker's job, not every ``os.fork``. A
    worker inherits the patched ``remote_train``, which writes, per call,
    the SYNC frame it trained from, the ARTF frame it returned, its pid, its
    parent's pid and what it inherited to ``tmp_path/<expert>.pkl``.
    """
    forks = spy_forks(monkeypatch, runs=protocol_mod._train_experts)
    real_train = protocol_mod.remote_train

    def train(sync, tasks, model_config):
        msg = real_train(sync, tasks, model_config)
        (tmp_path / f"{expert_of(sync)}.pkl").write_bytes(pickle.dumps({
            "sync": sync, "artf": msg, "pid": os.getpid(), "ppid": os.getppid(),
            "task_ids": [t.task_id for t in tasks], "model_config": model_config,
        }))
        return msg

    monkeypatch.setattr(protocol_mod, "remote_train", train)
    return forks


def in_workers(monkeypatch, act, expert=1):
    """Make ``remote_train`` call ``act()`` for ``expert`` when it runs in a
    forked worker, and train as usual everywhere else."""
    real, coordinator = protocol_mod.remote_train, os.getpid()

    def patched(sync, tasks, model_config):
        if expert_of(sync) == expert and os.getpid() != coordinator:
            act()
        return real(sync, tasks, model_config)

    monkeypatch.setattr(protocol_mod, "remote_train", patched)


def step_syncs(cfg, k=2):
    """The SYNC frames and tasks of a fresh base's k-expert first step."""
    plan = plan_steps(generate_stream("permuted", n_tasks=k, classes_per_task=2, dim=6,
                                      train_per_task=40, val_per_task=16, seed=11), cfg)[0]
    base = build_model(TOY, seed=child_seed(cfg.seed, "init"))
    blob = base.to_param_vector().to_bytes()
    transport = CountingTransport()
    return [transport.send_sync(encode_sync(i, seed, cfg, blob))
            for i, seed in enumerate(plan.expert_seeds)], plan.tasks


def without_wall_clock(msg: bytes) -> bytes:
    """An ARTF frame with its stats' wall-clock field zeroed."""
    out = bytearray(msg)
    at = FRAME_OVERHEAD + struct.calcsize("<IId")
    out[at : at + 8] = bytes(8)
    return bytes(out)


class _RecordingExecutor(ProcessExecutor):
    """A ProcessExecutor that keeps each step's SYNC and ARTF frames."""

    def __init__(self, workers):
        super().__init__(workers)
        self.calls = []

    def run(self, syncs, tasks, model_config):
        frames = super().run(syncs, tasks, model_config)
        self.calls.append((syncs, frames))
        return frames


class _ChildBoom(Exception):
    """An exception a forked child's job raises."""


def frames_then(msgs, act=None):
    """A job that yields ``msgs`` in order, then calls ``act()``."""
    def job():
        yield from msgs
        if act is not None:
            act()
    return job


def reaped(pids) -> bool:
    """Whether no process of ``pids`` is still a child of this one, not even
    a zombie."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True


class TestForked:
    """The one fork/pipe/reap helper on its own: a child's frames arrive
    whole and in order, its exception is raised as it is, a child that ends
    early fails with its exit code and count, and every child is reaped."""

    # the second frame is larger than a pipe holds, so it crosses in pieces
    MSGS = [frame(TAG_SYNC, b""),
            frame(TAG_ARTIFACT, np.random.default_rng(0).bytes(3 << 20)),
            frame(b"TGTS", b"\x01\x02\x03")]

    def test_frames_come_back_byte_identical_in_order(self):
        # two children, the second one read first: each pipe is its own
        jobs = [frames_then(self.MSGS), frames_then(self.MSGS[::-1])]
        with protocol_mod.Forked(jobs) as children:
            second = list(children.records(1, 3, "child 1", "frames"))
            first = list(children.records(0, 3, "child 0", "frames"))
        assert first == self.MSGS and second == self.MSGS[::-1]
        assert all(type(m) is bytes for m in first + second)
        assert children.codes == [0, 0] and reaped(children.pids)

    def test_exception_after_one_frame_is_reraised_as_it_is(self):
        def boom():
            raise _ChildBoom("after one frame")

        with protocol_mod.Forked([frames_then(self.MSGS[:1], boom)]) as children:
            msgs = children.records(0, 2, "child 0", "frames")
            assert next(msgs) == self.MSGS[0]
            with pytest.raises(_ChildBoom, match="^after one frame$"):
                next(msgs)
        assert children.codes == [1] and reaped(children.pids)

    @pytest.mark.parametrize("cut", [0, 5, 20], ids=["between", "mid_header", "mid_payload"])
    @pytest.mark.parametrize("end, code", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -9), (lambda: os._exit(0), 0)],
        ids=["killed", "exits"])
    def test_child_that_ends_early_fails_with_its_exit_code_and_count(self, cut, end, code):
        job = frames_then([self.MSGS[0], self.MSGS[1][:cut]], end)
        with protocol_mod.Forked([job]) as children:
            with pytest.raises(ExpertFailure,
                               match=f"^child 0 ended with exit code {code} after 1 of 3 frames$"):
                list(children.records(0, 3, "child 0", "frames"))
        assert children.codes == [code] and reaped(children.pids)

    @pytest.mark.parametrize("outcome, codes", [
        ("read", [0, 0]), ("unread", [1, 1]), ("raised", [-9, -9])])
    def test_every_child_is_reaped(self, outcome, codes):
        # unread: each child blocks on its full pipe until the block's end
        # closes it, and its write fails; raised: the block fails while the
        # children sleep, and they are killed first
        class Failed(Exception):
            pass

        job = (frames_then([], lambda: time.sleep(60)) if outcome == "raised"
               else frames_then(self.MSGS))
        t0 = time.perf_counter()
        with contextlib.suppress(Failed):
            with protocol_mod.Forked([job, job]) as children:
                if outcome == "read":
                    for w in range(2):
                        assert list(children.records(w, 3, f"child {w}", "frames")) == self.MSGS
                if outcome == "raised":
                    raise Failed
        assert time.perf_counter() - t0 < 30
        assert children.codes == codes and reaped(children.pids)


class TestProcessBoundary:
    def test_pool_carries_exactly_the_counted_frames(self, stream, monkeypatch, tmp_path,
                                                     forking):
        children = spy_forks(monkeypatch)
        forks = spy_workers(monkeypatch, tmp_path)
        master_seed = 5
        base = build_model(TOY, seed=child_seed(master_seed, "init"))
        memory = Memory(40, stream.dim)
        transport = CountingTransport()
        cfg = tiny_config(seed=master_seed, rehearsal_epochs=1)
        executor = _RecordingExecutor(2)
        for step, plan in enumerate(plan_steps(stream, cfg)):
            for old in tmp_path.glob("*.pkl"):
                old.unlink()
            result = run_incremental_step(base, plan, memory, cfg, transport, executor)
            base = result.base
            syncs, frames = executor.calls[-1]
            step_forks = forks[2 * step :]
            assert len(step_forks) == 2
            workers = [pickle.loads((tmp_path / f"{i}.pkl").read_bytes())
                       for i in range(plan.k)]
            assert len(list(tmp_path.glob("*.pkl"))) == plan.k
            for i, seen in enumerate(workers):
                # each expert ran in a worker forked by this coordinator, one
                # per expert here, which inherited the step's tasks and shape
                assert seen["pid"] == step_forks[i] and seen["ppid"] == os.getpid()
                assert seen["task_ids"] == [t.task_id for t in plan.tasks]
                assert seen["model_config"] == TOY
                # it trained from the counted SYNC frame and nothing else ...
                assert type(seen["sync"]) is bytes and unframe(seen["sync"])[0] == TAG_SYNC
                assert seen["sync"] == syncs[i]
                # ... and what came back through its pipe is exactly its ARTF frame
                assert type(frames[i]) is bytes and unframe(frames[i])[0] == TAG_ARTIFACT
                assert frames[i] == seen["artf"]
            # launch order, both ways
            assert [expert_of(s) for s in syncs] == list(range(plan.k))
            assert [decode_artifact(unframe(m)[1]).expert_index for m in frames] == [0, 1]
            assert sum(len(s) for s in syncs) == result.cost.broadcast_bytes
            assert sum(len(m) for m in frames) == result.cost.upload_bytes
        assert len(executor.calls) == 2 and len(forks) == 4
        # each step also forked one teacher process for its consolidation
        assert len(children) == 6 and set(forks) < set(children)

    def test_pool_starts_no_more_workers_than_experts(self, stream, monkeypatch, tmp_path):
        forks = spy_workers(monkeypatch, tmp_path)
        master_seed = 5
        cfg = tiny_config(seed=master_seed, rehearsal_epochs=1)
        plan = plan_steps(stream, cfg)[0]
        run_incremental_step(
            build_model(TOY, seed=child_seed(master_seed, "init")), plan, Memory(40, stream.dim),
            cfg, CountingTransport(), ProcessExecutor(8),
        )
        assert len(forks) == plan.k == 2

    def test_round_robin_workers_match_serial_bit_for_bit(self, monkeypatch, tmp_path):
        # 2 workers, 4 experts: worker 0 trains experts 0 and 2, worker 1 trains 1 and 3
        forks = spy_workers(monkeypatch, tmp_path)
        syncs, tasks = step_syncs(tiny_config(experts_per_step=4), k=4)
        parallel = ProcessExecutor(2).run(syncs, tasks, TOY)
        assert len(forks) == 2
        ran_in = [pickle.loads((tmp_path / f"{i}.pkl").read_bytes())["pid"] for i in range(4)]
        assert ran_in == [forks[0], forks[1], forks[0], forks[1]]
        serial = SerialExecutor().run(syncs, tasks, TOY)
        assert [without_wall_clock(m) for m in parallel] == [
            without_wall_clock(m) for m in serial]

    def test_expert_failure_in_a_worker_reaches_the_coordinator(self, stream, monkeypatch):
        def diverge():
            raise ExpertFailure("expert 1 diverged in its worker")

        in_workers(monkeypatch, diverge)
        syncs, tasks = step_syncs(tiny_config())
        with pytest.raises(ExpertFailure) as raised:
            ProcessExecutor(2).run(syncs, tasks, TOY)
        assert type(raised.value) is ExpertFailure
        assert str(raised.value) == "expert 1 diverged in its worker"
        cfg = tiny_config(seed=5)
        with pytest.raises(StepFailure, match="step 0: expert 1 diverged in its worker"):
            run_incremental_step(build_model(TOY, seed=child_seed(5, "init")),
                                 plan_steps(stream, cfg)[0], Memory(40, stream.dim), cfg,
                                 CountingTransport(), ProcessExecutor(2))

    def test_protocol_violation_in_a_worker_is_reraised_as_it_is(self, monkeypatch):
        def violate():
            raise ProtocolViolation("sync payload names expert 9")

        in_workers(monkeypatch, violate, expert=0)
        syncs, tasks = step_syncs(tiny_config())
        with pytest.raises(ProtocolViolation, match="^sync payload names expert 9$"):
            ProcessExecutor(2).run(syncs, tasks, TOY)

    def test_killed_worker_fails_the_step(self, stream, monkeypatch):
        in_workers(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        syncs, tasks = step_syncs(tiny_config())
        with pytest.raises(ExpertFailure, match="worker 1 ended with exit code -9 after 0 of 1"):
            ProcessExecutor(2).run(syncs, tasks, TOY)
        cfg = tiny_config(seed=5)
        with pytest.raises(StepFailure, match="step 0: expert worker 1"):
            run_incremental_step(build_model(TOY, seed=child_seed(5, "init")),
                                 plan_steps(stream, cfg)[0], Memory(40, stream.dim), cfg,
                                 CountingTransport(), ProcessExecutor(2))

    @pytest.mark.parametrize("outcome", ["returns", "raises", "dies", "exits_early"])
    def test_no_worker_outlives_run(self, monkeypatch, tmp_path, outcome):
        def boom():
            raise ExpertFailure("boom")

        forks = spy_workers(monkeypatch, tmp_path)
        act = {
            "raises": boom,
            "dies": lambda: os.kill(os.getpid(), signal.SIGKILL),
            "exits_early": lambda: os._exit(0),
        }.get(outcome)
        if act is not None:
            in_workers(monkeypatch, act)
        syncs, tasks = step_syncs(tiny_config())
        if act is None:
            assert len(ProcessExecutor(2).run(syncs, tasks, TOY)) == 2
        else:
            with pytest.raises(ExpertFailure):
                ProcessExecutor(2).run(syncs, tasks, TOY)
        assert len(forks) == 2
        for pid in forks:  # reaped: no longer a child of this process, not even a zombie
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_interrupted_coordinator_kills_and_reaps_its_workers(self, monkeypatch, tmp_path):
        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        forks = spy_workers(monkeypatch, tmp_path)
        in_workers(monkeypatch, lambda: time.sleep(60), expert=0)
        syncs, tasks = step_syncs(tiny_config())
        previous = signal.signal(signal.SIGALRM, interrupt)
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(Interrupted):
                ProcessExecutor(2).run(syncs, tasks, TOY)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - t0 < 30  # the sleeping worker was killed
        assert len(forks) == 2
        for pid in forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


class TestFullStream:
    def strip_times(self, report):
        rows = [r.row() for r in report.records]
        for r in rows:
            r.pop("wall_clock_s")
        return (report.method, rows, report.final_mean_acc, report.final_backward_transfer,
                report.failed_step)

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
            def run(self, syncs, tasks, model_config):
                return [remote_train(s, tasks, model_config) for s in reversed(syncs)]

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
        assert "experts" in report.records[0].row()

    def test_untrained_experts_sit_on_the_base(self, stream):
        report = run_full_stream(stream, tiny_config(epochs=0))
        for rec in report.records:
            assert all(e["expert_base_distance"] == 0.0 for e in rec.experts)

    def test_expert_final_losses_and_phase_walls_recorded(self, stream):
        report = run_full_stream(stream, tiny_config())
        for rec in report.records:
            assert all(0.0 < e["final_loss"] < float("inf") for e in rec.experts)
        assert [w["step_id"] for w in report.phase_walls] == [0, 1]
        assert "expert_wall_s" not in report.records[0].row()
        untrained = run_full_stream(stream, tiny_config(epochs=0))
        assert all(e["final_loss"] is None for r in untrained.records for e in r.experts)

    def test_steps_go_through_the_module_global(self, stream, monkeypatch):
        # a probe that replaces protocol.run_incremental_step sees every step
        real = protocol_mod.run_incremental_step
        steps = []

        def probed(*args, **kwargs):
            steps.append(args[1].step_id)
            return real(*args, **kwargs)

        monkeypatch.setattr(protocol_mod, "run_incremental_step", probed)
        report = run_full_stream(stream, tiny_config())
        assert steps == [0, 1]
        assert report.failed_step is None

    def test_mid_stream_failure_reports_partial_history(self, stream, monkeypatch):
        real = protocol_mod.remote_train

        def flaky(sync, tasks, model_config):
            if tasks[expert_of(sync)].task_id >= 2:
                raise ExpertFailure("boom")
            return real(sync, tasks, model_config)

        monkeypatch.setattr(protocol_mod, "remote_train", flaky)
        report = run_full_stream(stream, tiny_config())
        assert report.failed_step == 1
        assert len(report.records) == 1


def _lines(fn) -> set[tuple[str, int]]:
    """The (file, line) pairs of ``fn``'s body, as a traceback frame names them."""
    code = fn.__code__
    return {(code.co_filename, line) for _, line in dis.findlinestarts(code) if line}


class TestSnapshotLifetimes:
    """The coordinator holds each snapshot once: consolidation starts with
    the base arena and the k ARTF frames, whose decoded snapshots are views
    of them, and nothing of a step outlives it but the base it made."""

    def test_consolidation_starts_with_the_base_and_k_frames(self, stream, monkeypatch):
        # 2 blocks of 2 layers 256 wide: a snapshot of about 1.09 MB
        cfg = experiment(
            "bmc", 13,
            model=dict(res_blocks=2, res_layers_per_block=2, res_dim=256, hidden_dim=8,
                       dropout_p=0.0),
            training=dict(epochs_per_task=1, lr=0.1, batch_size=8),
            bmc={"experts_per_step": 2, "rehearsal_epochs": 1, "buffer_capacity": 12,
                 "memory_capacity": 40},
        )
        real_step, real_consolidate = protocol_mod.run_incremental_step, protocol_mod.consolidate

        # one caller per step, so a block's traceback names the step that made it
        def step_0(*args):
            return real_step(*args)

        def step_1(*args):
            return real_step(*args)

        def step(*args):
            return (step_0, step_1)[args[1].step_id](*args)

        entries = []  # per step: (snapshot size, k, blocks of at least that size)

        def probed(base, artifacts, *rest):
            size = base.arena.nbytes
            big = [t for t in tracemalloc.take_snapshot().traces if t.size >= size]
            entries.append((size, len(artifacts), big))
            return real_consolidate(base, artifacts, *rest)

        monkeypatch.setattr(protocol_mod, "run_incremental_step", step)
        monkeypatch.setattr(protocol_mod, "consolidate", probed)
        tracemalloc.start(64)
        try:
            report = run_full_stream(stream, cfg, executor=SerialExecutor())
        finally:
            tracemalloc.stop()
        assert report.failed_step is None and len(entries) == 2
        for size, k, big in entries:
            assert size >= 1_000_000
            assert len(big) <= k + 1, [t.size for t in big]
        # at step 1 only the base step 0 consolidated is left of step 0
        size, _, big = entries[1]
        step_0_lines = _lines(step_0)
        left = [t.size for t in big
                if step_0_lines & {(f.filename, f.lineno) for f in t.traceback}]
        assert left == [size]


class TestCostLedger:
    def entry(self, step_id=0, **overrides):
        values = dict(broadcast_bytes=1_000_000, upload_bytes=2_000_000,
                      memory_bytes=500_000, expert_param_bytes=500_000,
                      model_bytes=3_000_000)
        values.update(overrides)
        return StepCost(step_id=step_id, **values)

    def test_total_is_mean_step_cost_plus_model(self):
        steps = [self.entry(0), self.entry(1, upload_bytes=4_000_000)]
        # steps: (0.5+0.5+1+2)=4 MB and (0.5+0.5+1+4)=6 MB; model 3 MB
        assert total_cost(steps) == pytest.approx(5.0 + 3.0)

    def test_empty_ledger_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            total_cost([])

    def test_negative_bytes_rejected(self):
        for field in ("broadcast_bytes", "upload_bytes", "memory_bytes",
                      "expert_param_bytes", "model_bytes"):
            with pytest.raises(ValueError, match=f"negative {field}"):
                self.entry(0, **{field: -1})

    def test_cost_accuracy_scales_inversely_with_cost(self):
        assert cost_accuracy(0.8, 4.0) == pytest.approx(0.2)
        assert cost_accuracy(0.8, 8.0) == pytest.approx(0.1)

    def test_cost_accuracy_rejects_nonpositive_cost(self):
        with pytest.raises(ValueError, match="positive"):
            cost_accuracy(0.8, 0.0)

    def test_bigger_buffers_cost_more(self, stream):
        small = run_full_stream(stream, tiny_config(seed=3, buffer_capacity=6))
        big = run_full_stream(stream, tiny_config(seed=3, buffer_capacity=24))
        assert total_cost([r.cost for r in big.records]) > total_cost(
            [r.cost for r in small.records])
