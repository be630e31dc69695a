"""Objective definitions: pinned scalar cases, composition identities, gradients."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from helpers import (
    assert_matches_fd,
    finite_diff_params,
    float64_twin,
    gather_passes,
    jitter_params,
    per_teacher_l_base,
    per_teacher_distill,
    routed_distill,
    routed_l_base,
    stack_passes,
    step_grads,
    train_pass,
)

from batchcl.engine import GraphError
from batchcl.losses import (
    DISTILL_KINDS,
    FisherState,
    decay_and_anchor,
    distill,
    ewc_penalty,
    l_base,
    l_exp,
    task_loss,
    update_fisher,
)
from batchcl.model import ModelConfig, TapSet, build_model, stack_vectors

TOY = ModelConfig(
    input_dim=4, total_classes=3, res_blocks=1, res_layers_per_block=2,
    res_dim=5, hidden_dim=4, dropout_p=0.0,
)


def tapset_from(arrays: list[np.ndarray], logits: np.ndarray | None = None) -> TapSet:
    return TapSet([*arrays, logits if logits is not None else np.zeros((arrays[0].shape[0], 2))])


def logits_only(z: np.ndarray) -> TapSet:
    return TapSet([z])


class TestTaskLoss:
    def test_uniform_logits(self):
        loss = task_loss(logits_only(np.zeros((1, 2))), np.array([0]))
        assert float(loss.value) == pytest.approx(np.log(2), abs=1e-12)

    def test_confident_correct(self):
        loss = task_loss(logits_only(np.array([[10.0, -10.0]])), np.array([0]))
        assert float(loss.value) == pytest.approx(0.0, abs=1e-8)

    def test_against_log_sum_exp_reference(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((16, 7))
        y = rng.integers(0, 7, size=16)
        loss = task_loss(logits_only(z), y)
        # independent reference built on scipy's logsumexp
        from scipy.special import logsumexp

        ref = float(np.mean(logsumexp(z, axis=1) - z[np.arange(16), y]))
        assert abs(float(loss.value) - ref) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(GraphError, match="label"):
            task_loss(logits_only(np.zeros((2, 3))), np.array([0, 3]))


class TestFeatureDistillation:
    def test_identical_models_zero(self):
        m = build_model(TOY, seed=0)
        x = np.random.default_rng(1).standard_normal((6, 4)).astype(np.float32)
        t, _ = m.forward_with_taps(x)
        s, _ = m.forward_with_taps(x)
        assert float(distill("features", t, s).value) == 0.0

    def test_unit_distance_single_tap(self):
        # one row, two features: (1^2 + 0^2) / 2
        teacher = tapset_from([np.array([[1.0, 0.0]])])
        student = tapset_from([np.array([[0.0, 0.0]])])
        loss = distill("features", teacher, student)
        assert float(loss.value) == pytest.approx(0.5)

    def test_teacher_gradients_exactly_zero(self):
        rng = np.random.default_rng(2)
        teacher = tapset_from([rng.standard_normal((3, 4)), rng.standard_normal((3, 5))])
        student = tapset_from([rng.standard_normal((3, 4)), rng.standard_normal((3, 5))])
        before = [t.copy() for t in teacher.taps]
        loss = distill("features", teacher, student)
        # the teacher's taps are inputs with no gradient: every gradient the
        # objective returns is the student's, and the teacher is untouched
        assert loss.grads[-1] is None
        for i in range(2):
            assert loss.grads[i].shape == student.taps[i].shape
            assert np.abs(loss.grads[i]).max() > 0
            np.testing.assert_array_equal(teacher.taps[i], before[i])

    def test_strictly_positive_when_any_tap_differs(self):
        rng = np.random.default_rng(3)
        a = [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))]
        b = [a[0].copy(), a[1] + 0.5]
        assert float(distill("features", tapset_from(a), tapset_from(b)).value) > 0

    def test_tap_mismatch_rejected(self):
        t = tapset_from([np.zeros((2, 3))])
        s = tapset_from([np.zeros((2, 3)), np.zeros((2, 3))])
        with pytest.raises(GraphError, match="tap count"):
            distill("features", t, s)

    def test_batch_mean_convention(self):
        # two rows of two features, squares 9, 0, 0, 16 -> mean 25 / 4
        teacher = tapset_from([np.array([[3.0, 0.0], [0.0, 4.0]])])
        student = tapset_from([np.zeros((2, 2))])
        loss = distill("features", teacher, student)
        assert float(loss.value) == pytest.approx(6.25)


class TestExpertObjective:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.x = rng.standard_normal((8, 4)).astype(np.float32)
        self.y = rng.integers(0, 3, size=8)
        self.base = build_model(TOY, seed=0)
        self.expert = build_model(TOY, seed=9)

    def test_zero_coefficient_is_task_loss(self):
        s, _ = self.expert.forward_with_taps(self.x)
        t, _ = self.base.forward_with_taps(self.x)
        loss = l_exp(s, t, self.y, 0.0)
        assert float(loss.value) == float(task_loss(s, self.y).value)

    def test_expert_at_base_reduces_to_task_loss(self):
        clone = build_model(TOY, seed=0)
        s, _ = clone.forward_with_taps(self.x)
        t, _ = self.base.forward_with_taps(self.x)
        total = l_exp(s, t, self.y, 1.0)
        assert float(total.value) == pytest.approx(float(task_loss(s, self.y).value), abs=1e-7)

    def test_default_coefficient_additivity(self):
        s, _ = self.expert.forward_with_taps(self.x)
        t, _ = self.base.forward_with_taps(self.x)
        combined = float(l_exp(s, t, self.y, 1.0).value)
        parts = float(task_loss(s, self.y).value) + float(
            distill("features", t, s).value
        )
        assert abs(combined - parts) < 1e-6

    def test_linear_in_stability_coefficient(self):
        s, _ = self.expert.forward_with_taps(self.x)
        t, _ = self.base.forward_with_taps(self.x)
        ce = float(task_loss(s, self.y).value)
        one = float(l_exp(s, t, self.y, 1.0).value) - ce
        two = float(l_exp(s, t, self.y, 2.0).value) - ce
        assert two == pytest.approx(2 * one, rel=1e-6)


class TestBatchedDistillation:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x = rng.standard_normal((6, 4)).astype(np.float32)
        # two rows per expert, mirroring a pooled consolidation batch
        self.origins = np.array([0, 0, 1, 1, 2, 2])
        self.base = build_model(TOY, seed=0)
        self.experts = [build_model(TOY, seed=s) for s in (11, 12, 13)]

    def _taps(self, model):
        ts, _ = model.forward_with_taps(self.x)
        return ts

    def _masked_oracle(self, student, teacher, rows):
        """Numpy recomputation: per-tap mean square over selected rows and all features."""
        total = 0.0
        for t, s in zip(teacher.taps, student.taps):
            diff = t[rows] - s[rows]
            total += float((diff * diff).mean())
        return total

    def test_expert_identical_to_base_zero(self):
        s = self._taps(self.base)
        t = self._taps(build_model(TOY, seed=0))
        assert float(routed_distill("features", stack_passes([t]), s, np.zeros(6, dtype=int)).value) == 0.0

    def test_each_expert_scored_on_own_rows_only(self):
        s = self._taps(self.base)
        teachers = [self._taps(e) for e in self.experts]
        want = sum(
            self._masked_oracle(s, t, self.origins == j)
            for j, t in enumerate(teachers)
        )
        got = float(routed_distill("features", stack_passes(teachers), s, self.origins).value)
        assert got == pytest.approx(want, rel=1e-6)

    def test_absent_expert_contributes_zero(self):
        s = self._taps(self.base)
        t0, t1 = self._taps(self.experts[0]), self._taps(self.experts[1])
        all_mine = np.zeros(6, dtype=int)
        with_ghost = float(routed_distill("features", stack_passes([t0, t1]), s, all_mine).value)
        alone = float(routed_distill("features", stack_passes([t0]), s, all_mine).value)
        assert with_ghost == alone
        assert float(routed_distill("features", stack_passes([t1]), s, np.full(6, -1)).value) == 0.0

    def test_memory_rows_excluded(self):
        s = self._taps(self.base)
        t = self._taps(self.experts[0])
        origins = np.array([-1, -1, -1, 0, 0, 0])
        got = float(routed_distill("features", stack_passes([t]), s, origins).value)
        assert got == pytest.approx(self._masked_oracle(s, t, origins == 0), rel=1e-6)
        assert got != pytest.approx(self._masked_oracle(s, t, origins != 9), rel=1e-3)

    def test_additive_over_expert_partition(self):
        s = self._taps(self.base)
        teachers = [self._taps(e) for e in self.experts]
        whole = float(routed_distill("features", stack_passes(teachers), s, self.origins).value)
        # the second stack's slices are experts 1 and 2
        parts = (
            float(routed_distill("features", stack_passes(teachers[:1]), s,
                                 np.where(self.origins == 0, 0, -1)).value)
            + float(routed_distill("features", stack_passes(teachers[1:]), s,
                                   self.origins - 1).value)
        )
        assert whole == pytest.approx(parts, rel=1e-7)

    def test_mismatched_origin_tags_rejected(self):
        # origin 2 names no expert of a stack of two
        s = self._taps(self.base)
        teachers = [self._taps(e) for e in self.experts[:2]]
        with pytest.raises(GraphError, match="row 4 routed to teacher 2 of 2"):
            routed_distill("features", stack_passes(teachers), s, self.origins)

    def test_empty_expert_list_rejected(self):
        # rows routed among no teacher at all; unrouted, a stack of teachers
        # (of none or of one) has an axis the one teacher's pass has not
        s = self._taps(self.base)
        with pytest.raises(GraphError, match="at least one"):
            distill("features", s, s, (self.origins, 0))
        for k in (0, 1):
            stack = TapSet([np.zeros((k, *o.shape), np.float32) for o in s.outputs])
            with pytest.raises(GraphError, match=rf"targets of shape \({k}, 6, "):
                distill("features", stack, s)


class TestStackedDistillation:
    """One call over a teacher stack equals the per-teacher composition bitwise."""

    CONFIG = dataclasses.replace(TOY, res_blocks=2, dropout_p=0.1)
    K = 4

    def setup_method(self):
        rng = np.random.default_rng(15)
        self.x = rng.standard_normal((10, 4)).astype(np.float32)
        self.y = rng.integers(0, 3, size=10)
        # expert 3 has no rows in this batch; -1 marks memory rows
        self.origins = np.array([0, 1, -1, 2, 0, 1, -1, 2, 2, 0])
        self.base = build_model(self.CONFIG, seed=0)
        self.experts = [build_model(self.CONFIG, seed=70 + j) for j in range(self.K)]
        self.stack = stack_vectors(self.CONFIG, [e.to_param_vector() for e in self.experts])

    def _grads(self, build):
        """Loss value and parameter gradients of one train-mode student pass;
        ``build(pass, masks)`` builds the objective."""
        student = self.base.copy()
        taps, record, masks = train_pass(student, self.x, np.random.default_rng(16))
        return step_grads(student, record, build(taps, masks))

    def _assert_bitwise(self, got, want):
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].keys() == want[1].keys()
        for name in want[1]:
            assert got[1][name].tobytes() == want[1][name].tobytes(), name

    @pytest.mark.parametrize("kind", DISTILL_KINDS)
    def test_value_and_gradients_match_per_teacher_graphs(self, kind):
        def batched(s, masks):
            return routed_distill(kind, self.stack.forward_as_teacher(self.x, masks), s,
                                  self.origins)

        def reference(s, masks):
            teachers = [e.forward_as_teacher(self.x, masks) for e in self.experts]
            return per_teacher_distill(s, teachers, self.origins, kind)

        self._assert_bitwise(self._grads(batched), self._grads(reference))

    @pytest.mark.parametrize("kind", DISTILL_KINDS)
    def test_consolidation_objective_matches_per_teacher_graphs(self, kind):
        """With the replay cross-entropy also reaching the taps and logits."""

        def batched(s, masks):
            return routed_l_base(s, self.stack.forward_as_teacher(self.x, masks), self.y,
                                 0.7, 1.3, kind, self.origins)

        def reference(s, masks):
            teachers = [e.forward_as_teacher(self.x, masks) for e in self.experts]
            return per_teacher_l_base(s, teachers, self.y, self.origins, 0.7, 1.3, kind)

        self._assert_bitwise(self._grads(batched), self._grads(reference))

    def test_kd_logits_is_each_experts_mean_over_its_rows_and_logits(self):
        """Each expert's term is the mean of the squared logit difference
        over the rows it owns and over every logit, whatever the logit
        count; memory rows count for no expert."""
        rng = np.random.default_rng(21)
        k, rows, classes = 3, 12, 40
        origins = np.array([0, -1, 2, 0, 1, -1, 2, 2, 0, 1, -1, 0])
        teacher_logits = rng.standard_normal((k, rows, classes)).astype(np.float32)
        student_logits = rng.standard_normal((rows, classes)).astype(np.float32)
        teachers = TapSet([np.zeros((k, rows, 2), np.float32), teacher_logits])
        student = tapset_from([np.zeros((rows, 2), np.float32)], logits=student_logits)
        got = float(routed_distill("kd_logits", teachers, student, origins).value)
        want = sum(
            np.mean((teacher_logits[j] - student_logits)[origins == j].astype(np.float64) ** 2)
            for j in range(k)
        )
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("kind", DISTILL_KINDS)
    def test_absent_expert_contributes_exact_zero(self, kind):
        # expert 3 as a stack of one: it owns no row of the batch
        absent = stack_vectors(self.CONFIG, [self.experts[3].to_param_vector()])
        value, grads = self._grads(
            lambda s, masks: routed_distill(kind, absent.forward_as_teacher(self.x, masks), s,
                                     np.where(self.origins == 3, 0, -1))
        )
        assert value == 0.0
        assert all(not g.any() for g in grads.values())

    def test_checks_still_raise(self):
        s, _ = self.base.forward_with_taps(self.x)
        stacked = self.stack.forward_as_teacher(self.x)
        with pytest.raises(GraphError, match="routed to teacher 4 of 4"):
            routed_distill("features", stacked, s, np.where(self.origins == 2, 4, self.origins))
        fewer = TapSet([*stacked.taps[:-1], stacked.logits])
        with pytest.raises(GraphError, match="tap count mismatch"):
            routed_distill("features", fewer, s, self.origins)
        # gathered targets of 6 rows for a student pass of 10
        other_rows = gather_passes(self.stack.forward_as_teacher(self.x[:6]), self.origins[:6])
        for kind in DISTILL_KINDS:
            with pytest.raises(GraphError, match="do not fit"):
                distill(kind, other_rows, s, (self.origins, self.K))
        with pytest.raises(GraphError, match="do not fit"):
            routed_distill("features", stacked, s, self.origins[:6])
        narrow = TapSet([o[..., :2] for o in stacked.outputs])
        for kind in DISTILL_KINDS:
            with pytest.raises(GraphError, match="do not fit"):
                routed_distill(kind, narrow, s, self.origins)
        with pytest.raises(ValueError, match="unknown"):
            routed_distill("temperature_kl", stacked, s, self.origins)


class TestBaseObjective:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.x = rng.standard_normal((6, 4)).astype(np.float32)
        self.y = rng.integers(0, 3, size=6)
        self.origins = np.array([0, 0, 1, -1, -1, 1])
        self.base = build_model(TOY, seed=0)
        self.teachers = stack_passes(
            [build_model(TOY, seed=s).forward_with_taps(self.x)[0] for s in (21, 22)]
        )

    def _distill(self, s):
        return routed_distill("features", self.teachers, s, self.origins)

    def test_pure_replay_needs_no_origins(self):
        s, _ = self.base.forward_with_taps(self.x)
        got = l_base(s, self.teachers, self.y, task_coef=1.0, consolidation_coef=0.0)
        assert float(got.value) == float(task_loss(s, self.y).value)

    def test_pure_distillation(self):
        s, _ = self.base.forward_with_taps(self.x)
        got = routed_l_base(s, self.teachers, self.y, 0.0, 1.0, "features", self.origins)
        assert float(got.value) == float(self._distill(s).value)

    def test_default_coefficients_sum(self):
        s, _ = self.base.forward_with_taps(self.x)
        whole = float(routed_l_base(s, self.teachers, self.y, 1.0, 1.0, "features",
                                    self.origins).value)
        parts = float(task_loss(s, self.y).value) + float(self._distill(s).value)
        assert abs(whole - parts) < 1e-6

    def test_linear_in_consolidation_coefficient(self):
        s, _ = self.base.forward_with_taps(self.x)
        ce = float(task_loss(s, self.y).value)
        args = ("features", self.origins)
        one = float(routed_l_base(s, self.teachers, self.y, 1.0, 1.0, *args).value) - ce
        two = float(routed_l_base(s, self.teachers, self.y, 1.0, 2.0, *args).value) - ce
        assert two == pytest.approx(2 * one, rel=1e-6)

    def test_active_distillation_requires_origins(self):
        s, _ = self.base.forward_with_taps(self.x)
        with pytest.raises(GraphError, match="origin tags"):
            l_base(s, self.teachers, self.y, 1.0, 1.0)


class TestDistillationAlternatives:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.x = rng.standard_normal((5, 4)).astype(np.float32)

    def test_identical_models_zero_for_all_kinds(self):
        m = build_model(TOY, seed=0)
        t, _ = m.forward_with_taps(self.x)
        s, _ = m.forward_with_taps(self.x)
        for kind in ("features", "kd_logits", "phi_penultimate"):
            assert float(distill(kind, t, s).value) == 0.0

    def test_penultimate_equals_last_tap_distance(self):
        t, _ = build_model(TOY, seed=1).forward_with_taps(self.x)
        s, _ = build_model(TOY, seed=2).forward_with_taps(self.x)
        only_last_t = TapSet([t.taps[-1], t.logits])
        only_last_s = TapSet([s.taps[-1], s.logits])
        assert float(distill("phi_penultimate", t, s).value) == pytest.approx(
            float(distill("features", only_last_t, only_last_s).value)
        )

    def test_kd_logits_squared_convention(self):
        """The squared logit difference, averaged over rows and logits."""
        teacher = tapset_from([np.zeros((1, 2))], logits=np.array([[1.0, 0.0]]))
        student = tapset_from([np.zeros((1, 2))], logits=np.array([[0.0, 0.0]]))
        loss = distill("kd_logits", teacher, student)
        assert float(loss.value) == pytest.approx(0.5)

    def test_kd_logits_is_the_numpy_mean_bitwise(self):
        """One teacher's pass, in which every row counts, takes numpy's mean
        over rows and logits, as every other kind does over features."""
        rng = np.random.default_rng(9)
        t, s = (rng.standard_normal((7, 32)).astype(np.float32) for _ in range(2))
        teacher = tapset_from([np.zeros((7, 2), np.float32)], logits=t)
        student = tapset_from([np.zeros((7, 2), np.float32)], logits=s)
        got = distill("kd_logits", teacher, student).value
        assert np.float32(got).tobytes() == np.mean((t - s) ** 2).tobytes()

    def test_teacher_shielded_for_all_kinds(self):
        rng = np.random.default_rng(8)
        for kind in ("features", "kd_logits", "phi_penultimate"):
            teacher = tapset_from(
                [rng.standard_normal((3, 4))], logits=rng.standard_normal((3, 2))
            )
            student = tapset_from(
                [rng.standard_normal((3, 4))], logits=rng.standard_normal((3, 2))
            )
            before = (teacher.taps[0].copy(), teacher.logits.copy())
            loss = distill(kind, teacher, student)
            # gradients come only in the student's shapes; the teacher is untouched
            for got, out in zip(loss.grads, student.outputs):
                assert got is None or got.shape == out.shape
            assert sum(g is not None for g in loss.grads) == 1
            np.testing.assert_array_equal(teacher.taps[0], before[0])
            np.testing.assert_array_equal(teacher.logits, before[1])

    def test_unknown_kind_rejected(self):
        t = tapset_from([np.zeros((1, 2))])
        with pytest.raises(ValueError, match="unknown"):
            distill("temperature_kl", t, t)


@pytest.mark.parametrize("dropout_p", [0.1, 0.3])
class TestMaskReplay:
    """A teacher given a student pass's dropout masks sees exactly that pass.

    The zero-distance tests above run at dropout 0, where there is nothing
    to replay; these run the same identities with units dropped.
    """

    def setup_method(self):
        rng = np.random.default_rng(13)
        self.x = rng.standard_normal((7, 4)).astype(np.float32)
        self.y = rng.integers(0, 3, size=7)

    def _pair(self, dropout_p):
        base = build_model(dataclasses.replace(TOY, dropout_p=dropout_p), seed=0)
        student, _, masks = train_pass(base.copy(), self.x, np.random.default_rng(14))
        return base, student, masks

    def test_teacher_reproduces_taps_and_logits(self, dropout_p):
        base, student, masks = self._pair(dropout_p)
        assert len(masks) == len(base.config.dropout_widths) > 0
        teacher = base.forward_as_teacher(self.x, masks)
        for t, s in zip(teacher.taps, student.taps):
            np.testing.assert_array_equal(t, s)
        np.testing.assert_array_equal(teacher.logits, student.logits)

    def test_all_kinds_exactly_zero(self, dropout_p):
        base, student, masks = self._pair(dropout_p)
        teacher = base.forward_as_teacher(self.x, masks)
        for kind in DISTILL_KINDS:
            assert float(distill(kind, teacher, student).value) == 0.0

    def test_expert_at_base_reduces_to_task_loss(self, dropout_p):
        base, student, masks = self._pair(dropout_p)
        teacher = base.forward_as_teacher(self.x, masks)
        assert float(l_exp(student, teacher, self.y, 1.0).value) == \
            float(task_loss(student, self.y).value)

    def test_unreplayed_teacher_is_not_at_zero(self, dropout_p):
        base, student, _ = self._pair(dropout_p)
        unreplayed = base.forward_as_teacher(self.x)
        assert float(distill("features", unreplayed, student).value) > 0.0

    def test_teacher_pass_is_pure(self, dropout_p):
        base, _, masks = self._pair(dropout_p)
        before = base.to_param_vector().to_bytes()
        teacher = base.forward_as_teacher(self.x, masks)
        assert base.to_param_vector().to_bytes() == before

    def test_wrong_mask_count_rejected(self, dropout_p):
        base, _, masks = self._pair(dropout_p)
        with pytest.raises(GraphError, match="dropout masks"):
            base.forward_as_teacher(self.x, masks[:-1])


class TestEwc:
    def test_penalty_zero_at_anchor(self):
        m = build_model(TOY, seed=0)
        fisher = FisherState.zeros_like(m.flat_params)
        fisher.importance[:] = 1.0
        value, grads = ewc_penalty(m.flat_params, m.layout.param_slices, fisher)
        assert value == 0.0
        assert not grads.any()

    def test_penalty_zero_with_zero_importance(self):
        m = build_model(TOY, seed=0)
        fisher = FisherState.zeros_like(m.flat_params)
        m.params["head.b"] += 100.0
        assert ewc_penalty(m.flat_params, m.layout.param_slices, fisher)[0] == 0.0

    def test_hand_computed_two_parameter_case(self):
        params = np.array([1.0, 2.0], dtype=np.float32)
        fisher = FisherState(
            importance=np.array([1.0, 2.0], dtype=np.float32),
            anchor=np.array([0.9, 1.9], dtype=np.float32),
        )
        # 1*(0.1)^2 + 2*(0.1)^2 = 0.03
        p = {"p": slice(0, 2)}
        assert ewc_penalty(params, p, fisher)[0] == pytest.approx(0.03, rel=1e-4)
        assert ewc_penalty(params, p, fisher, 0.5)[0] == pytest.approx(0.015, rel=1e-4)

    def test_value_adds_one_float_per_parameter(self):
        # the per-parameter float accumulation of the value, in slice order
        rng = np.random.default_rng(16)
        m = build_model(TOY, seed=0)
        fisher = FisherState(importance=rng.random(m.flat_params.shape).astype(np.float32),
                             anchor=m.flat_params + np.float32(0.1))
        want = 0.0
        for name, p in m.params.items():
            imp = m.layout.param_views(fisher.importance)[name]
            drift = p - m.layout.param_views(fisher.anchor)[name]
            want += float((imp * drift * drift).sum())
        value, _ = ewc_penalty(m.flat_params, m.layout.param_slices, fisher)
        assert value.tobytes() == np.float32(want).tobytes()

    def test_layout_mismatch_rejected(self):
        m = build_model(TOY, seed=0)
        fisher = FisherState.zeros_like(np.zeros(3, dtype=np.float32))
        with pytest.raises(ValueError, match="layout"):
            ewc_penalty(m.flat_params, m.layout.param_slices, fisher)

    def test_update_accumulates_squared_gradients(self):
        rng = np.random.default_rng(9)
        m = build_model(TOY, seed=0)
        x = rng.standard_normal((6, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=6)
        fisher = FisherState.zeros_like(m.flat_params)
        update_fisher(m, x, y, fisher)
        ts, record = m.forward_with_taps(x)
        _, grads = step_grads(m, record, task_loss(ts, y))
        importance = m.layout.param_views(fisher.importance)
        for k in m.params:
            np.testing.assert_allclose(importance[k], grads[k] ** 2, rtol=1e-6)

    def test_decay_and_anchor(self):
        m = build_model(TOY, seed=0)
        fisher = FisherState.zeros_like(m.flat_params, gamma=0.5)
        m.layout.param_views(fisher.importance)["head.b"][:] = 4.0
        m.params["head.b"][:] = 7.0
        decay_and_anchor(fisher, m.flat_params)
        np.testing.assert_array_equal(m.layout.param_views(fisher.importance)["head.b"], 2.0)
        np.testing.assert_array_equal(m.layout.param_views(fisher.anchor)["head.b"], 7.0)
        m.params["head.b"][:] = 8.0  # the anchor is a copy
        np.testing.assert_array_equal(m.layout.param_views(fisher.anchor)["head.b"], 7.0)

    def test_gradient_matches_analytic_form(self):
        rng = np.random.default_rng(10)
        p = rng.standard_normal(5).astype(np.float32)
        anchor = rng.standard_normal(5).astype(np.float32)
        imp = rng.random(5).astype(np.float32)
        fisher = FisherState(importance=imp, anchor=anchor)
        _, grads = ewc_penalty(p, {"p": slice(0, 5)}, fisher, 0.7)
        np.testing.assert_allclose(grads, 0.7 * 2 * imp * (p - anchor), rtol=1e-6)


class TestGradientOracles:
    """Finite differences through the full model for every composite objective."""

    def setup_method(self):
        rng = np.random.default_rng(11)
        self.x = rng.standard_normal((4, 4))
        self.y = rng.integers(0, 3, size=4)
        self.student = float64_twin(build_model(TOY, seed=0))
        jitter_params(self.student, seed=100)
        self.teachers = [float64_twin(build_model(TOY, seed=s)) for s in (31, 32)]
        for i, t in enumerate(self.teachers):
            jitter_params(t, seed=200 + i)

    def _check(self, build_loss):
        ts, record = self.student.forward_with_taps(self.x)
        _, analytic = step_grads(self.student, record, build_loss(ts))
        numeric = finite_diff_params(
            lambda: float(build_loss(self.student.forward_with_taps(self.x)[0]).value),
            self.student.params,
        )
        assert_matches_fd(analytic, numeric)

    def test_task_loss_grad(self):
        self._check(lambda ts: task_loss(ts, self.y))

    def test_feature_distillation_grad(self):
        t, _ = self.teachers[0].forward_with_taps(self.x)
        self._check(lambda ts: distill("features", t, ts))

    def test_expert_objective_grad(self):
        t, _ = self.teachers[0].forward_with_taps(self.x)
        self._check(lambda ts: l_exp(ts, t, self.y, 0.7))

    def test_batched_distillation_grad(self):
        taps = stack_passes([m.forward_with_taps(self.x)[0] for m in self.teachers])
        origins = np.array([0, 1, 0, -1])
        self._check(lambda ts: routed_distill("features", taps, ts, origins))

    def test_base_objective_grad(self):
        taps = stack_passes([m.forward_with_taps(self.x)[0] for m in self.teachers])
        origins = np.array([0, 1, 0, -1])
        self._check(lambda ts: routed_l_base(ts, taps, self.y, 0.9, 1.3, "features", origins))

    def test_train_mode_with_dropout_grad(self):
        # batch statistics and dropout through two residual blocks; every
        # call draws the same masks from a fresh fixed-seed RNG
        config = dataclasses.replace(TOY, dropout_p=0.2)
        student = float64_twin(build_model(config, seed=0))
        jitter_params(student, seed=102)
        teacher = float64_twin(build_model(config, seed=33))
        jitter_params(teacher, seed=203)
        rng = np.random.default_rng(14)
        x, y = rng.standard_normal((6, 4)), rng.integers(0, 3, size=6)

        def forward():
            return train_pass(student, x, np.random.default_rng(15))

        ts, record, masks = forward()
        assert masks and not all(m.all() for m in masks)
        target = teacher.forward_as_teacher(x, masks)
        _, analytic = step_grads(student, record, l_exp(ts, target, y, 0.7))
        numeric = finite_diff_params(
            lambda: float(l_exp(forward()[0], target, y, 0.7).value), student.params
        )
        assert_matches_fd(analytic, numeric)

    def test_ewc_penalty_grad(self):
        rng = np.random.default_rng(12)
        flat, slices = self.student.flat_params, self.student.layout.param_slices
        fisher = FisherState(importance=rng.random(flat.shape),
                             anchor=flat + rng.standard_normal(flat.shape) * 0.1)

        def value():
            ts, _ = self.student.forward_with_taps(self.x)
            return float(task_loss(ts, self.y).value + ewc_penalty(flat, slices, fisher, 0.7)[0])

        ts, record = self.student.forward_with_taps(self.x)
        _, analytic = step_grads(self.student, record, task_loss(ts, self.y))
        penalty_grads = self.student.layout.param_views(ewc_penalty(flat, slices, fisher, 0.7)[1])
        analytic = {k: g + penalty_grads[k] for k, g in analytic.items()}
        numeric = finite_diff_params(value, self.student.params)
        assert_matches_fd(analytic, numeric)
