"""Objective definitions: pinned scalar cases, composition identities, gradients."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from helpers import assert_matches_fd, finite_diff_params, float64_twin, jitter_params

from batchcl.engine import GraphError, Tensor, add, loss_and_grads, scale
from batchcl.losses import (
    DISTILL_KINDS,
    FisherState,
    LossCoefficients,
    alt_distill,
    decay_and_anchor,
    ewc_penalty,
    l_base,
    l_bd,
    l_bmc,
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
    taps = [Tensor(a, requires_grad=True, name=f"tap{i}") for i, a in enumerate(arrays)]
    lg = Tensor(
        logits if logits is not None else np.zeros((arrays[0].shape[0], 2)),
        requires_grad=True,
        name="logits",
    )
    return TapSet(taps=taps, logits=lg)


class TestTaskLoss:
    def test_uniform_logits(self):
        loss = task_loss(Tensor(np.zeros((1, 2)), requires_grad=True), np.array([0]))
        assert loss.item() == pytest.approx(np.log(2), abs=1e-12)

    def test_confident_correct(self):
        loss = task_loss(
            Tensor(np.array([[10.0, -10.0]]), requires_grad=True), np.array([0])
        )
        assert loss.item() == pytest.approx(0.0, abs=1e-8)

    def test_against_log_sum_exp_reference(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((16, 7))
        y = rng.integers(0, 7, size=16)
        loss = task_loss(Tensor(z, requires_grad=True), y)
        # independent reference built on scipy's logsumexp
        from scipy.special import logsumexp

        ref = float(np.mean(logsumexp(z, axis=1) - z[np.arange(16), y]))
        assert abs(loss.item() - ref) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(GraphError, match="label"):
            task_loss(Tensor(np.zeros((2, 3)), requires_grad=True), np.array([0, 3]))


class TestFeatureDistillation:
    def test_identical_models_zero(self):
        m = build_model(TOY, seed=0)
        x = np.random.default_rng(1).standard_normal((6, 4)).astype(np.float32)
        t, _ = m.forward_with_taps(x)
        s, _ = m.forward_with_taps(x)
        assert l_bd(t, s).item() == 0.0

    def test_unit_distance_single_tap(self):
        # one row, two features: (1^2 + 0^2) / 2
        teacher = tapset_from([np.array([[1.0, 0.0]])])
        student = tapset_from([np.array([[0.0, 0.0]])])
        assert l_bd(teacher, student).item() == pytest.approx(0.5)

    def test_teacher_gradients_exactly_zero(self):
        rng = np.random.default_rng(2)
        teacher = tapset_from([rng.standard_normal((3, 4)), rng.standard_normal((3, 5))])
        student = tapset_from([rng.standard_normal((3, 4)), rng.standard_normal((3, 5))])
        loss = l_bd(teacher, student)
        t_leaves = {f"t{i}": tap for i, tap in enumerate(teacher.taps)}
        s_leaves = {f"s{i}": tap for i, tap in enumerate(student.taps)}
        _, grads = loss_and_grads(loss, {**t_leaves, **s_leaves})
        for i in range(2):
            np.testing.assert_array_equal(grads[f"t{i}"], 0.0)
            assert np.abs(grads[f"s{i}"]).max() > 0

    def test_strictly_positive_when_any_tap_differs(self):
        rng = np.random.default_rng(3)
        a = [rng.standard_normal((2, 3)), rng.standard_normal((2, 3))]
        b = [a[0].copy(), a[1] + 0.5]
        assert l_bd(tapset_from(a), tapset_from(b)).item() > 0

    def test_tap_mismatch_rejected(self):
        t = tapset_from([np.zeros((2, 3))])
        s = tapset_from([np.zeros((2, 3)), np.zeros((2, 3))])
        with pytest.raises(GraphError, match="tap count"):
            l_bd(t, s)

    def test_batch_mean_convention(self):
        # two rows of two features, squares 9, 0, 0, 16 -> mean 25 / 4
        teacher = tapset_from([np.array([[3.0, 0.0], [0.0, 4.0]])])
        student = tapset_from([np.zeros((2, 2))])
        assert l_bd(teacher, student).item() == pytest.approx(6.25)


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
        assert l_exp(s, t, self.y, 0.0).item() == task_loss(s.logits, self.y).item()

    def test_expert_at_base_reduces_to_task_loss(self):
        clone = build_model(TOY, seed=0)
        s, _ = clone.forward_with_taps(self.x)
        t, _ = self.base.forward_with_taps(self.x)
        total = l_exp(s, t, self.y, 1.0)
        assert total.item() == pytest.approx(task_loss(s.logits, self.y).item(), abs=1e-7)

    def test_default_coefficient_additivity(self):
        s, _ = self.expert.forward_with_taps(self.x)
        t, _ = self.base.forward_with_taps(self.x)
        combined = l_exp(s, t, self.y, 1.0).item()
        parts = task_loss(s.logits, self.y).item() + l_bd(t, s).item()
        assert abs(combined - parts) < 1e-6

    def test_linear_in_stability_coefficient(self):
        s, _ = self.expert.forward_with_taps(self.x)
        t, _ = self.base.forward_with_taps(self.x)
        ce = task_loss(s.logits, self.y).item()
        one = l_exp(s, t, self.y, 1.0).item() - ce
        two = l_exp(s, t, self.y, 2.0).item() - ce
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
            diff = t.data[rows] - s.data[rows]
            total += float((diff * diff).mean())
        return total

    def test_expert_identical_to_base_zero(self):
        s = self._taps(self.base)
        t = self._taps(build_model(TOY, seed=0))
        assert l_bmc(s, [t], [0], np.zeros(6, dtype=int)).item() == 0.0

    def test_each_expert_scored_on_own_rows_only(self):
        s = self._taps(self.base)
        teachers = [self._taps(e) for e in self.experts]
        want = sum(
            self._masked_oracle(s, t, self.origins == j)
            for j, t in enumerate(teachers)
        )
        got = l_bmc(s, teachers, [0, 1, 2], self.origins).item()
        assert got == pytest.approx(want, rel=1e-6)

    def test_absent_expert_contributes_zero(self):
        s = self._taps(self.base)
        t0, t1 = self._taps(self.experts[0]), self._taps(self.experts[1])
        all_mine = np.zeros(6, dtype=int)
        with_ghost = l_bmc(s, [t0, t1], [0, 7], all_mine).item()
        alone = l_bmc(s, [t0], [0], all_mine).item()
        assert with_ghost == alone
        assert l_bmc(s, [t1], [7], all_mine).item() == 0.0

    def test_memory_rows_excluded(self):
        s = self._taps(self.base)
        t = self._taps(self.experts[0])
        origins = np.array([-1, -1, -1, 0, 0, 0])
        got = l_bmc(s, [t], [0], origins).item()
        assert got == pytest.approx(self._masked_oracle(s, t, origins == 0), rel=1e-6)
        assert got != pytest.approx(self._masked_oracle(s, t, origins != 9), rel=1e-3)

    def test_additive_over_expert_partition(self):
        s = self._taps(self.base)
        teachers = [self._taps(e) for e in self.experts]
        whole = l_bmc(s, teachers, [0, 1, 2], self.origins).item()
        parts = (
            l_bmc(s, teachers[:1], [0], self.origins).item()
            + l_bmc(s, teachers[1:], [1, 2], self.origins).item()
        )
        assert whole == pytest.approx(parts, rel=1e-7)

    def test_mismatched_origin_tags_rejected(self):
        s = self._taps(self.base)
        teachers = [self._taps(e) for e in self.experts]
        with pytest.raises(GraphError, match="origin tags"):
            l_bmc(s, teachers, [0, 1], self.origins)

    def test_empty_expert_list_rejected(self):
        s = self._taps(self.base)
        with pytest.raises(GraphError, match="at least one"):
            l_bmc(s, [], [], self.origins)


def per_teacher_l_bmc(student, teachers, owners, origins, kind):
    """The batched term as a sum of per-teacher graphs, in teacher order: the
    reference the single batched node must reproduce bit for bit."""
    total = None
    for teacher, owner in zip(teachers, owners):
        term = alt_distill(kind, teacher, student, row_mask=(origins == owner).astype(np.float64))
        total = term if total is None else add(total, term, name="expert_sum")
    return total


class TestStackedDistillation:
    """One node over a teacher stack equals the per-teacher composition bitwise."""

    CONFIG = dataclasses.replace(TOY, res_blocks=2, dropout_p=0.1)
    OWNERS = [0, 1, 2, 3]

    def setup_method(self):
        rng = np.random.default_rng(15)
        self.x = rng.standard_normal((10, 4)).astype(np.float32)
        self.y = rng.integers(0, 3, size=10)
        # expert 3 has no rows in this batch; -1 marks memory rows
        self.origins = np.array([0, 1, -1, 2, 0, 1, -1, 2, 2, 0])
        self.base = build_model(self.CONFIG, seed=0)
        self.experts = [build_model(self.CONFIG, seed=70 + j) for j in self.OWNERS]
        self.stack = stack_vectors(self.CONFIG, [e.to_param_vector() for e in self.experts])

    def _grads(self, build):
        """Loss value and parameter gradients of one train-mode student pass."""
        student = self.base.copy()
        taps, leaves = student.forward_with_taps(
            self.x, train=True, rng=np.random.default_rng(16)
        )
        return loss_and_grads(build(taps), leaves)

    def _assert_bitwise(self, got, want):
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].keys() == want[1].keys()
        for name in want[1]:
            assert got[1][name].tobytes() == want[1][name].tobytes(), name

    @pytest.mark.parametrize("kind", DISTILL_KINDS)
    def test_value_and_gradients_match_per_teacher_graphs(self, kind):
        def batched(s):
            return l_bmc(s, self.stack.forward_as_teacher(self.x, s.masks),
                         self.OWNERS, self.origins, kind)

        def reference(s):
            teachers = [e.forward_as_teacher(self.x, s.masks) for e in self.experts]
            return per_teacher_l_bmc(s, teachers, self.OWNERS, self.origins, kind)

        self._assert_bitwise(self._grads(batched), self._grads(reference))

    @pytest.mark.parametrize("kind", DISTILL_KINDS)
    def test_consolidation_objective_matches_per_teacher_graphs(self, kind):
        """With the replay cross-entropy also reaching the taps and logits."""

        def batched(s):
            return l_base(s, self.stack.forward_as_teacher(self.x, s.masks), self.y,
                          0.7, 1.3, kind, self.OWNERS, self.origins)

        def reference(s):
            teachers = [e.forward_as_teacher(self.x, s.masks) for e in self.experts]
            return add(
                scale(task_loss(s.logits, self.y), 0.7),
                scale(per_teacher_l_bmc(s, teachers, self.OWNERS, self.origins, kind), 1.3),
            )

        self._assert_bitwise(self._grads(batched), self._grads(reference))

    def test_list_of_teachers_equals_stack(self):
        s, _ = self.base.forward_with_taps(self.x)
        teachers = [e.forward_as_teacher(self.x) for e in self.experts]
        stacked = self.stack.forward_as_teacher(self.x)
        for kind in DISTILL_KINDS:
            assert l_bmc(s, teachers, self.OWNERS, self.origins, kind).item() == \
                l_bmc(s, stacked, self.OWNERS, self.origins, kind).item()

    @pytest.mark.parametrize("kind", DISTILL_KINDS)
    def test_absent_expert_contributes_exact_zero(self, kind):
        absent = stack_vectors(self.CONFIG, [self.experts[3].to_param_vector()])
        value, grads = self._grads(
            lambda s: l_bmc(s, absent.forward_as_teacher(self.x, s.masks), [3],
                            self.origins, kind)
        )
        assert value == 0.0
        assert all(not g.any() for g in grads.values())

    def test_checks_still_raise(self):
        s, _ = self.base.forward_with_taps(self.x)
        stacked = self.stack.forward_as_teacher(self.x)
        with pytest.raises(GraphError, match="origin tags"):
            l_bmc(s, stacked, self.OWNERS[:-1], self.origins)
        fewer = TapSet(taps=stacked.taps[:-1], logits=stacked.logits)
        with pytest.raises(GraphError, match="tap count mismatch"):
            l_bmc(s, fewer, self.OWNERS, self.origins)
        other_rows = self.stack.forward_as_teacher(self.x[:6])
        for kind in DISTILL_KINDS:
            with pytest.raises(GraphError, match="do not fit"):
                l_bmc(s, other_rows, self.OWNERS, self.origins, kind)
        with pytest.raises(GraphError, match="do not fit"):
            l_bmc(s, stacked, self.OWNERS, self.origins[:6])
        with pytest.raises(GraphError, match="tap 0 shape mismatch"):
            l_bmc(s, [self.experts[0].forward_as_teacher(self.x[:6])], [0], self.origins)
        with pytest.raises(ValueError, match="unknown"):
            l_bmc(s, stacked, self.OWNERS, self.origins, "temperature_kl")


class TestBaseObjective:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.x = rng.standard_normal((6, 4)).astype(np.float32)
        self.y = rng.integers(0, 3, size=6)
        self.origins = np.array([0, 0, 1, -1, -1, 1])
        self.owners = [0, 1]
        self.base = build_model(TOY, seed=0)
        self.teachers = []
        for s in (21, 22):
            ts, _ = build_model(TOY, seed=s).forward_with_taps(self.x)
            self.teachers.append(ts)

    def _distill(self, s):
        return l_bmc(s, self.teachers, self.owners, self.origins)

    def test_pure_replay_needs_no_origins(self):
        s, _ = self.base.forward_with_taps(self.x)
        got = l_base(s, self.teachers, self.y, task_coef=1.0, consolidation_coef=0.0)
        assert got.item() == task_loss(s.logits, self.y).item()

    def test_pure_distillation(self):
        s, _ = self.base.forward_with_taps(self.x)
        got = l_base(
            s, self.teachers, self.y, task_coef=0.0, consolidation_coef=1.0,
            teacher_origins=self.owners, batch_origins=self.origins,
        )
        assert got.item() == self._distill(s).item()

    def test_default_coefficients_sum(self):
        s, _ = self.base.forward_with_taps(self.x)
        whole = l_base(
            s, self.teachers, self.y, 1.0, 1.0,
            teacher_origins=self.owners, batch_origins=self.origins,
        ).item()
        parts = task_loss(s.logits, self.y).item() + self._distill(s).item()
        assert abs(whole - parts) < 1e-6

    def test_linear_in_consolidation_coefficient(self):
        s, _ = self.base.forward_with_taps(self.x)
        ce = task_loss(s.logits, self.y).item()
        kw = dict(teacher_origins=self.owners, batch_origins=self.origins)
        one = l_base(s, self.teachers, self.y, 1.0, 1.0, **kw).item() - ce
        two = l_base(s, self.teachers, self.y, 1.0, 2.0, **kw).item() - ce
        assert two == pytest.approx(2 * one, rel=1e-6)

    def test_active_distillation_requires_origins(self):
        s, _ = self.base.forward_with_taps(self.x)
        with pytest.raises(GraphError, match="origin tags"):
            l_base(s, self.teachers, self.y, 1.0, 1.0)

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            LossCoefficients(stability=-1.0)


class TestDistillationAlternatives:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.x = rng.standard_normal((5, 4)).astype(np.float32)

    def test_identical_models_zero_for_all_kinds(self):
        m = build_model(TOY, seed=0)
        t, _ = m.forward_with_taps(self.x)
        s, _ = m.forward_with_taps(self.x)
        for kind in ("features", "kd_logits", "phi_penultimate"):
            assert alt_distill(kind, t, s).item() == 0.0

    def test_penultimate_equals_last_tap_distance(self):
        t, _ = build_model(TOY, seed=1).forward_with_taps(self.x)
        s, _ = build_model(TOY, seed=2).forward_with_taps(self.x)
        only_last_t = TapSet(taps=[t.taps[-1]], logits=t.logits)
        only_last_s = TapSet(taps=[s.taps[-1]], logits=s.logits)
        assert alt_distill("phi_penultimate", t, s).item() == pytest.approx(
            l_bd(only_last_t, only_last_s).item()
        )

    def test_kd_logits_squared_convention(self):
        teacher = tapset_from([np.zeros((1, 2))], logits=np.array([[1.0, 0.0]]))
        student = tapset_from([np.zeros((1, 2))], logits=np.array([[0.0, 0.0]]))
        assert alt_distill("kd_logits", teacher, student).item() == pytest.approx(1.0)

    def test_teacher_shielded_for_all_kinds(self):
        rng = np.random.default_rng(8)
        for kind in ("features", "kd_logits", "phi_penultimate"):
            teacher = tapset_from(
                [rng.standard_normal((3, 4))], logits=rng.standard_normal((3, 2))
            )
            student = tapset_from(
                [rng.standard_normal((3, 4))], logits=rng.standard_normal((3, 2))
            )
            loss = alt_distill(kind, teacher, student)
            leaves = {"t_tap": teacher.taps[0], "t_logits": teacher.logits}
            _, grads = loss_and_grads(loss, leaves)
            np.testing.assert_array_equal(grads["t_tap"], 0.0)
            np.testing.assert_array_equal(grads["t_logits"], 0.0)

    def test_unknown_kind_rejected(self):
        t = tapset_from([np.zeros((1, 2))])
        with pytest.raises(ValueError, match="unknown"):
            alt_distill("temperature_kl", t, t)


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
        student, _ = base.copy().forward_with_taps(
            self.x, train=True, rng=np.random.default_rng(14)
        )
        return base, student

    def test_teacher_reproduces_taps_and_logits(self, dropout_p):
        base, student = self._pair(dropout_p)
        assert len(student.masks) == base.dropout_sites > 0
        teacher = base.forward_as_teacher(self.x, student.masks)
        for t, s in zip(teacher.taps, student.taps):
            np.testing.assert_array_equal(t.data, s.data)
        np.testing.assert_array_equal(teacher.logits.data, student.logits.data)

    def test_all_kinds_exactly_zero(self, dropout_p):
        base, student = self._pair(dropout_p)
        teacher = base.forward_as_teacher(self.x, student.masks)
        for kind in DISTILL_KINDS:
            assert alt_distill(kind, teacher, student).item() == 0.0

    def test_expert_at_base_reduces_to_task_loss(self, dropout_p):
        base, student = self._pair(dropout_p)
        teacher = base.forward_as_teacher(self.x, student.masks)
        assert l_exp(student, teacher, self.y, 1.0).item() == \
            task_loss(student.logits, self.y).item()

    def test_unreplayed_teacher_is_not_at_zero(self, dropout_p):
        base, student = self._pair(dropout_p)
        assert l_bd(base.forward_as_teacher(self.x), student).item() > 0.0

    def test_teacher_pass_is_pure(self, dropout_p):
        base, student = self._pair(dropout_p)
        before = base.to_param_vector().to_bytes()
        teacher = base.forward_as_teacher(self.x, student.masks)
        assert base.to_param_vector().to_bytes() == before
        assert not any(t.requires_grad for t in teacher.taps)

    def test_wrong_mask_count_rejected(self, dropout_p):
        base, student = self._pair(dropout_p)
        with pytest.raises(GraphError, match="dropout masks"):
            base.forward_as_teacher(self.x, student.masks[:-1])


class TestEwc:
    def test_penalty_zero_at_anchor(self):
        m = build_model(TOY, seed=0)
        fisher = FisherState.zeros_like(m.params)
        fisher.importance = {k: np.ones_like(v) for k, v in m.params.items()}
        _, leaves = m.forward_with_taps(np.zeros((2, 4), dtype=np.float32))
        assert ewc_penalty(leaves, fisher).item() == 0.0

    def test_penalty_zero_with_zero_importance(self):
        m = build_model(TOY, seed=0)
        fisher = FisherState.zeros_like(m.params)
        m.params["head.b"] += 100.0
        _, leaves = m.forward_with_taps(np.zeros((2, 4), dtype=np.float32))
        assert ewc_penalty(leaves, fisher).item() == 0.0

    def test_hand_computed_two_parameter_case(self):
        params = {"p": np.array([1.0, 2.0], dtype=np.float32)}
        fisher = FisherState(
            importance={"p": np.array([1.0, 2.0], dtype=np.float32)},
            anchor={"p": np.array([0.9, 1.9], dtype=np.float32)},
        )
        leaf = Tensor(params["p"], requires_grad=True, name="p")
        # 1*(0.1)^2 + 2*(0.1)^2 = 0.03
        assert ewc_penalty({"p": leaf}, fisher).item() == pytest.approx(0.03, rel=1e-4)

    def test_layout_mismatch_rejected(self):
        m = build_model(TOY, seed=0)
        fisher = FisherState.zeros_like({"only": np.zeros(3, dtype=np.float32)})
        _, leaves = m.forward_with_taps(np.zeros((2, 4), dtype=np.float32))
        with pytest.raises(ValueError, match="layout"):
            ewc_penalty(leaves, fisher)

    def test_update_accumulates_squared_gradients(self):
        rng = np.random.default_rng(9)
        m = build_model(TOY, seed=0)
        x = rng.standard_normal((6, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=6)
        fisher = FisherState.zeros_like(m.params)
        update_fisher(m, x, y, fisher)
        ts, leaves = m.forward_with_taps(x)
        _, grads = loss_and_grads(task_loss(ts.logits, y), leaves)
        for k in m.params:
            np.testing.assert_allclose(fisher.importance[k], grads[k] ** 2, rtol=1e-6)

    def test_decay_and_anchor(self):
        m = build_model(TOY, seed=0)
        fisher = FisherState.zeros_like(m.params, gamma=0.5)
        fisher.importance["head.b"][:] = 4.0
        m.params["head.b"][:] = 7.0
        decay_and_anchor(fisher, m.params)
        np.testing.assert_array_equal(fisher.importance["head.b"], 2.0)
        np.testing.assert_array_equal(fisher.anchor["head.b"], 7.0)

    def test_gradient_matches_analytic_form(self):
        rng = np.random.default_rng(10)
        p = rng.standard_normal(5).astype(np.float32)
        anchor = rng.standard_normal(5).astype(np.float32)
        imp = rng.random(5).astype(np.float32)
        fisher = FisherState(importance={"p": imp}, anchor={"p": anchor})
        leaf = Tensor(p, requires_grad=True, name="p")
        _, grads = loss_and_grads(ewc_penalty({"p": leaf}, fisher), {"p": leaf})
        np.testing.assert_allclose(grads["p"], 2 * imp * (p - anchor), rtol=1e-6)


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
        ts, leaves = self.student.forward_with_taps(self.x)
        _, analytic = loss_and_grads(build_loss(ts), leaves)
        numeric = finite_diff_params(
            lambda: build_loss(self.student.forward_with_taps(self.x)[0]).item(),
            self.student.params,
        )
        assert_matches_fd(analytic, numeric)

    def test_task_loss_grad(self):
        self._check(lambda ts: task_loss(ts.logits, self.y))

    def test_feature_distillation_grad(self):
        t, _ = self.teachers[0].forward_with_taps(self.x)
        self._check(lambda ts: l_bd(t, ts))

    def test_expert_objective_grad(self):
        t, _ = self.teachers[0].forward_with_taps(self.x)
        self._check(lambda ts: l_exp(ts, t, self.y, 0.7))

    def test_batched_distillation_grad(self):
        taps = [m.forward_with_taps(self.x)[0] for m in self.teachers]
        origins = np.array([0, 1, 0, -1])
        self._check(lambda ts: l_bmc(ts, taps, [0, 1], origins))

    def test_base_objective_grad(self):
        taps = [m.forward_with_taps(self.x)[0] for m in self.teachers]
        origins = np.array([0, 1, 0, -1])
        self._check(lambda ts: l_base(ts, taps, self.y, 0.9, 1.3,
                                      teacher_origins=[0, 1], batch_origins=origins))

    def test_ewc_penalty_grad(self):
        rng = np.random.default_rng(12)
        fisher = FisherState(
            importance={k: rng.random(v.shape) for k, v in self.student.params.items()},
            anchor={k: v + rng.standard_normal(v.shape) * 0.1
                    for k, v in self.student.params.items()},
        )

        def build():
            ts, leaves = self.student.forward_with_taps(self.x)
            from batchcl.engine import add, scale

            return add(task_loss(ts.logits, self.y),
                       scale(ewc_penalty(leaves, fisher), 0.7)), leaves

        loss, leaves = build()
        _, analytic = loss_and_grads(loss, leaves)
        numeric = finite_diff_params(lambda: build()[0].item(), self.student.params)
        assert_matches_fd(analytic, numeric)
