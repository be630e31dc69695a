"""Classifier construction, forward oracle, fused student pass, snapshot round-trips."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest
from helpers import (
    assert_views_of_arena,
    assert_views_of_own_arena,
    cross_entropy,
    float64_twin,
    jitter_params,
    per_op_forward,
    per_site_masks,
    reference_accepts,
    reference_header,
    reference_parse,
    reference_snapshot,
    routed_l_base,
    snapshot_entries,
    stack_passes,
    step_grads,
    tape_grads,
    tape_objective,
    train_pass,
)

from batchcl.engine import SGD, GraphError, NonFiniteError
from batchcl.losses import DISTILL_KINDS, distill, l_exp, task_loss
from batchcl.model import (
    ModelConfig,
    ParamVector,
    ResidualClassifier,
    TapSet,
    arena_layout,
    build_model,
    model_from_vector,
    model_over_vector,
    stack_vectors,
)
from hypothesis import given, settings
from hypothesis import strategies as st

TOY = ModelConfig(
    input_dim=4,
    total_classes=3,
    res_blocks=2,
    res_layers_per_block=2,
    res_dim=6,
    hidden_dim=5,
    dropout_p=0.0,
)
# the wide benchmark workload's model: 256-wide residual layers, the defaults
WIDE = ModelConfig(input_dim=32, total_classes=64)
# the pinned16 benchmark workload's model
PINNED16 = ModelConfig(input_dim=16, total_classes=64, res_blocks=1, res_layers_per_block=2,
                       res_dim=32, hidden_dim=16, dropout_p=0.1)


class TestConfig:
    def test_defaults_match_reference_setup(self):
        cfg = ModelConfig(input_dim=32, total_classes=10)
        assert (cfg.res_blocks, cfg.res_layers_per_block) == (2, 3)
        assert (cfg.res_dim, cfg.hidden_dim) == (256, 128)
        assert cfg.dropout_p == 0.3

    @pytest.mark.parametrize(
        "bad",
        [
            dict(input_dim=0),
            dict(res_blocks=0),
            dict(res_layers_per_block=0),
            dict(res_dim=0),
            dict(hidden_dim=0),
            dict(total_classes=0),
            dict(dropout_p=1.0),
            dict(dropout_p=-0.1),
        ],
    )
    def test_invalid_configs_rejected(self, bad):
        kwargs = dict(input_dim=8, total_classes=4)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)


def affine_bn_count(d_in, d_out):
    # W + b + gamma + beta
    return d_in * d_out + d_out + 2 * d_out


class TestBuild:
    def test_param_count_closed_form_default_config(self):
        d, c = 64, 10
        cfg = ModelConfig(input_dim=d, total_classes=c)
        m = build_model(cfg, seed=0)
        expected = (
            affine_bn_count(d, 256)
            + 2 * 3 * affine_bn_count(256, 256)
            + affine_bn_count(256, 128)
            + 128 * c
            + c
        )
        assert sum(a.size for a in m.params.values()) == expected

    def test_param_count_closed_form_toy(self):
        m = build_model(TOY, seed=1)
        expected = (
            affine_bn_count(4, 6)
            + 2 * 2 * affine_bn_count(6, 6)
            + affine_bn_count(6, 5)
            + 5 * 3
            + 3
        )
        assert sum(a.size for a in m.params.values()) == expected

    def test_same_seed_byte_identical(self):
        a = build_model(TOY, seed=7).to_param_vector()
        b = build_model(TOY, seed=7).to_param_vector()
        assert a.to_bytes() == b.to_bytes()

    def test_different_seed_differs(self):
        a = build_model(TOY, seed=7).to_param_vector()
        b = build_model(TOY, seed=8).to_param_vector()
        assert a.to_bytes() != b.to_bytes()

    def test_xavier_bounds(self):
        m = build_model(ModelConfig(input_dim=10, total_classes=4), seed=3)
        w = m.params["stem.W"]
        limit = np.sqrt(6.0 / (10 + 256))
        assert np.abs(w).max() <= limit
        assert np.abs(w).max() > 0.5 * limit  # actually exercises the range


def reference_forward(m: ResidualClassifier, x: np.ndarray) -> tuple[list, np.ndarray]:
    """Independent eval-mode forward in plain numpy (no engine)."""
    p, s = m.params, m.stats
    eps = 1e-5

    def layer(h, pre):
        h = h @ p[f"{pre}.W"] + p[f"{pre}.b"]
        h = (h - s[f"{pre}.bn.running_mean"]) / np.sqrt(
            s[f"{pre}.bn.running_var"] + eps
        )
        h = p[f"{pre}.bn.gamma"] * h + p[f"{pre}.bn.beta"]
        return np.maximum(h, 0)

    taps = []
    h = layer(x, "stem")
    for b in range(m.config.res_blocks):
        r = h
        for l in range(m.config.res_layers_per_block):
            r = layer(r, f"block{b}.layer{l}")
        h = h + r
        taps.append(h)
    pen = layer(h, "penult")
    taps.append(pen)
    logits = pen @ p["head.W"] + p["head.b"]
    return taps, logits


class TestForward:
    def test_tap_count(self):
        m = build_model(TOY, seed=0)
        tapset, _ = m.forward_with_taps(np.zeros((2, 4), dtype=np.float32))
        assert len(tapset.taps) == TOY.res_blocks + 1 == 3
        assert tapset.logits.shape == (2, 3)

    def test_eval_deterministic(self):
        m = build_model(TOY, seed=0)
        # give running stats some structure first
        rng = np.random.default_rng(1)
        train_pass(m, rng.standard_normal((8, 4)).astype(np.float32), rng)
        x = rng.standard_normal((5, 4)).astype(np.float32)
        a, _ = m.forward_with_taps(x)
        b, _ = m.forward_with_taps(x)
        np.testing.assert_array_equal(a.logits, b.logits)
        for ta, tb in zip(a.taps, b.taps):
            np.testing.assert_array_equal(ta, tb)

    def test_matches_hand_rolled_reference(self):
        rng = np.random.default_rng(2)
        m = build_model(TOY, seed=5)
        # non-trivial running stats so eval mode is not the identity-normalizer
        for _ in range(3):
            train_pass(m, rng.standard_normal((16, 4)).astype(np.float32), rng)
        x = rng.standard_normal((7, 4)).astype(np.float32)
        tapset, _ = m.forward_with_taps(x)
        ref_taps, ref_logits = reference_forward(m, x)
        assert np.abs(tapset.logits - ref_logits).max() < 1e-5
        for got, want in zip(tapset.taps, ref_taps):
            assert np.abs(got - want).max() < 1e-5

    def test_dimension_mismatch_rejected(self):
        m = build_model(TOY, seed=0)
        with pytest.raises(GraphError, match="input_dim"):
            m.forward_with_taps(np.zeros((2, 9), dtype=np.float32))

    def test_tap_dims_constant_across_inputs(self):
        m = build_model(TOY, seed=0)
        for n in (2, 5, 11):
            tapset, _ = m.forward_with_taps(np.ones((n, 4), dtype=np.float32))
            assert [t.shape for t in tapset.taps] == [(n, 6), (n, 6), (n, 5)]

    def test_predict_tie_break_lowest_class(self):
        m = build_model(TOY, seed=0)
        m.params["head.W"][:] = 0.0
        m.params["head.b"][:] = 0.0
        pred = m.predict(np.ones((4, 4), dtype=np.float32))
        np.testing.assert_array_equal(pred, np.zeros(4, dtype=np.intp))


class TestFusedPass:
    """The hand-differentiated train step against the per-op graph it replaces.

    ``per_op_forward`` and ``tape_objective`` (tests/helpers.py) build the
    pass and the objective one tape node per op. The production step (the
    pass, an objective's tap and logit gradients, and
    ``ResidualClassifier.backward``) must agree with that graph bit for bit
    on every output of a pass and on every gradient, so float32 sums have to
    be added in the tape's order. With two residual blocks a block tap takes
    three gradient contributions (its distance terms, the next block's skip
    and the next layer), and the penultimate tap takes the head's before
    the distance terms.
    """

    def _model(self, res_blocks, dropout_p, dtype=np.float32):
        config = ModelConfig(input_dim=6, total_classes=5, res_blocks=res_blocks,
                             res_layers_per_block=2, res_dim=8, hidden_dim=7,
                             dropout_p=dropout_p)
        m = build_model(config, seed=21)
        jitter_params(m, seed=22)
        rng = np.random.default_rng(23)  # running buffers away from their start
        train_pass(m, rng.standard_normal((12, 6)).astype(np.float32), rng)
        return m if dtype == np.float32 else float64_twin(m)

    def _run(self, model, x, train, loss_of, per_op):
        """One step's outputs as bytes; ``loss_of(tapset, masks, per_op)``
        builds the objective (a tape node for the per-op pass). The per-op
        pass draws a mask per site (:func:`per_site_masks`), the fused one
        all at once (``draw_masks``): the same stream."""
        rng = np.random.default_rng(24)
        if per_op:
            masks = per_site_masks(model, len(x), rng) if train else []
            tapset, leaves = per_op_forward(model, x, train, masks)
            value, grads = tape_grads(loss_of(tapset, masks, True), leaves)
            taps, logits = [t.data for t in tapset.taps], tapset.logits.data
        else:
            tapset, record, masks = (train_pass(model, x, rng) if train
                                     else (*model.forward_with_taps(x), []))
            value, grads = step_grads(model, record, loss_of(tapset, masks, False))
            taps, logits = tapset.taps, tapset.logits
        return {
            "loss": np.float64(value).tobytes(),
            "rng": rng.bit_generator.state,
            "grads": {k: g.tobytes() for k, g in grads.items()},
            "taps": [t.tobytes() for t in taps],
            "logits": logits.tobytes(),
            "masks": [mk.tobytes() for mk in masks],
            "stats": {k: v.tobytes() for k, v in model.stats.items()},
        }

    def _assert_same(self, model, x, train, loss_of):
        fused = self._run(model.copy(), x, train, loss_of, per_op=False)
        per_op = self._run(model.copy(), x, train, loss_of, per_op=True)
        assert fused.keys() == per_op.keys()
        for key in fused:
            assert fused[key] == per_op[key], key

    def _data(self, model, k):
        data = np.random.default_rng(25)
        x = data.standard_normal((9, 6)).astype(np.float32)
        y = data.integers(0, 5, size=9)
        teachers = stack_vectors(model.config, [
            build_model(model.config, seed=30 + j).to_param_vector() for j in range(k)
        ])
        return x, y, teachers

    @pytest.mark.parametrize("kind", DISTILL_KINDS)
    @pytest.mark.parametrize("train", [True, False])
    @pytest.mark.parametrize("res_blocks", [1, 2])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.1])
    def test_bitwise_equal_to_per_op_graph(self, kind, train, res_blocks, dropout_p):
        self._assert_l_base_same(kind, train, res_blocks, dropout_p)

    def _assert_l_base_same(self, kind, train, res_blocks, dropout_p):
        model = self._model(res_blocks, dropout_p)
        x, y, teachers = self._data(model, 3)
        origins = np.array([0, 1, 2, 0, -1, 1, 2, 2, -1])

        def loss_of(tapset, masks, per_op):
            stack = teachers.forward_as_teacher(x, masks)
            if per_op:
                return tape_objective(tapset, y, 0.9, stack, 1.3, kind, origins)
            return routed_l_base(tapset, stack, y, 0.9, 1.3, kind, origins)

        self._assert_same(model, x, train, loss_of)

    @pytest.mark.parametrize("kind", DISTILL_KINDS)
    @pytest.mark.parametrize("dropout_p", [0.0, 0.1])
    def test_expert_step_bitwise_equal_to_per_op_graph(self, kind, dropout_p):
        model = self._model(2, dropout_p)
        x, y, teacher = self._data(model, 1)

        def loss_of(tapset, masks, per_op):
            base = teacher.forward_as_teacher(x, masks)[0]
            if per_op:
                return tape_objective(tapset, y, 1.0, base, 0.7, kind)
            return l_exp(tapset, base, y, 0.7, kind)

        self._assert_same(model, x, True, loss_of)

    def test_eval_batch_of_one(self):
        # the gradient-norm buffer sampling differentiates one row at a time
        model = self._model(2, 0.1)
        x = np.random.default_rng(26).standard_normal((1, 6)).astype(np.float32)

        def loss_of(tapset, masks, per_op):
            label = np.array([3])
            return cross_entropy(tapset.logits, label) if per_op else task_loss(tapset, label)

        self._assert_same(model, x, False, loss_of)

    def test_float64_twin(self):
        model = self._model(2, 0.1, np.float64)
        x = np.random.default_rng(27).standard_normal((9, 6))
        teacher = model.copy()
        jitter_params(teacher, seed=28)
        y = np.arange(9) % 5

        def loss_of(tapset, masks, per_op):
            stack = stack_passes([teacher.forward_as_teacher(x, masks)])
            if per_op:
                return tape_objective(tapset, y, 1.0, stack, 1.0, "features", np.zeros(9, int))
            return routed_l_base(tapset, stack, y, 1.0, 1.0, "features", np.zeros(9, int))

        self._assert_same(model, x, True, loss_of)

    def test_wide_stack_bitwise_equal_to_per_op_graph(self):
        # the wide workload's consolidation batch: a base and 4 teachers in
        # one stack, 32 rows, 256-wide layers computed in place
        data = np.random.default_rng(80)
        models = []
        for j in range(5):
            m = build_model(WIDE, seed=81 + j)
            jitter_params(m, seed=90 + j)
            train_pass(m, data.standard_normal((32, 32)).astype(np.float32), data)
            models.append(m)
        x = data.standard_normal((32, 32)).astype(np.float32)
        y = data.integers(0, 64, size=32)
        origins = data.choice([-1, 0, 1, 2, 3], size=32)

        stack = stack_vectors(WIDE, models)
        rng = np.random.default_rng(95)
        got, record, got_masks = train_pass(stack, x, rng)
        got_value, got_grads = step_grads(
            stack.slice(0), record, routed_l_base(got, got.teachers, y, 0.9, 1.3, "features", origins))

        plain = models[0].copy()
        want_rng = np.random.default_rng(95)
        want_masks = per_site_masks(plain, len(x), want_rng)
        want, leaves = per_op_forward(plain, x, True, want_masks)
        teachers = stack_vectors(WIDE, models[1:]).forward_as_teacher(x, want_masks)
        want_value, want_grads = tape_grads(
            tape_objective(want, y, 0.9, teachers, 1.3, "features", origins), leaves)

        assert rng.bit_generator.state == want_rng.bit_generator.state
        assert [t.tobytes() for t in got.taps] == [t.data.tobytes() for t in want.taps]
        assert got.logits.tobytes() == want.logits.data.tobytes()
        assert [m.tobytes() for m in got_masks] == [m.tobytes() for m in want_masks]
        assert [t.tobytes() for t in got.teachers.taps] == [t.tobytes() for t in teachers.taps]
        for name, buf in plain.stats.items():
            assert stack.slice(0).stats[name].tobytes() == buf.tobytes(), name
        assert np.float64(got_value).tobytes() == np.float64(want_value).tobytes()
        assert list(got_grads) == list(want_grads)
        for name in want_grads:
            assert got_grads[name].tobytes() == want_grads[name].tobytes(), name

    def test_record_keeps_no_pre_activation_copy(self):
        # a wide train pass keeps, per layer, its input, its output (the
        # next layer's input), xhat and mask; a pre-ReLU copy of each layer
        # would add about 0.25 MB
        model = build_model(WIDE, seed=34)
        x = np.random.default_rng(35).standard_normal((32, 32)).astype(np.float32)
        train_pass(model, x, np.random.default_rng(36))  # fills the layout's caches
        tracemalloc.start()
        try:
            tapset, record, _ = train_pass(model, x, np.random.default_rng(37))
            alive, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert alive <= 900_000, alive

    def test_stack_record_shares_each_layer_output_with_the_next_input(self):
        # inside a block a layer's input is the previous layer's output: a
        # stack's record keeps one slice-0 copy of it, as a single pass
        # keeps one array
        config = ModelConfig(input_dim=6, total_classes=5, res_blocks=2,
                             res_layers_per_block=3, res_dim=8, hidden_dim=7, dropout_p=0.1)
        stack = stack_vectors(config, [build_model(config, seed=40 + j).to_param_vector()
                                       for j in range(3)])
        x = np.random.default_rng(43).standard_normal((9, 6)).astype(np.float32)
        _, record, _ = train_pass(stack, x, np.random.default_rng(44))
        layers = record.layers
        assert len(layers) == 1 + 2 * 3 + 1
        for block in range(2):
            first = 1 + 3 * block
            if block == 0:  # the first block starts from the stem's output
                assert layers[first][1] is layers[0][2]
            for i in range(first + 1, first + 3):
                assert layers[i][1] is layers[i - 1][2], (block, i)
        # a block's sum is not a layer's output: that input is its own copy
        assert all(layers[i][1] is not layers[i - 1][2] for i in (4, 7))

    def test_predict_is_the_eval_pass_argmax(self):
        model = self._model(2, 0.1)
        x = np.random.default_rng(29).standard_normal((11, 6)).astype(np.float32)
        tapset, _ = per_op_forward(model, x)
        np.testing.assert_array_equal(model.predict(x), np.argmax(tapset.logits.data, axis=1))

    def test_dropped_pass_is_freed_without_the_cycle_collector(self):
        # a reference cycle through the pass's record would keep every
        # pass's arrays alive until a collection, and raise peak memory
        model = self._model(2, 0.1)
        x = np.random.default_rng(32).standard_normal((5, 6)).astype(np.float32)
        gc.disable()
        try:
            tapset, record, _ = train_pass(model, x, np.random.default_rng(33))
            loss = task_loss(tapset, np.arange(5))
            step_grads(model, record, loss)
            head_in = weakref.ref(record.head_in)
            del tapset, record, loss
            assert head_in() is None
        finally:
            gc.enable()

    def test_train_mode_checks(self):
        model = self._model(1, 0.1)
        with pytest.raises(GraphError, match="size 1"):
            train_pass(model, np.zeros((1, 6), np.float32), np.random.default_rng(0))
        with pytest.raises(GraphError, match="dropout masks"):
            model.forward_with_taps(np.zeros((4, 6), np.float32), train=True)


class TestPassesWriteOnlyTheirOwnArrays:
    """Each layer computes in place in the buffer of its own matmul: no pass
    writes into an array it was given or has handed out, and a backward
    writes into none of the arrays of the pass it differentiates."""

    CONFIG = ModelConfig(input_dim=6, total_classes=5, res_blocks=2, res_layers_per_block=2,
                         res_dim=8, hidden_dim=7, dropout_p=0.1)

    def _models(self, n):
        rng = np.random.default_rng(110)
        models = [build_model(self.CONFIG, seed=111 + j) for j in range(n)]
        for m in models:
            jitter_params(m, seed=int(rng.integers(1000)))
            train_pass(m, rng.standard_normal((12, 6)).astype(np.float32), rng)
        return models

    @pytest.mark.parametrize("k, train", [(0, True), (0, False), (3, True)])
    def test_backward_leaves_the_pass_alone(self, k, train):
        models = self._models(max(k, 1) + 1)
        x = np.random.default_rng(112).standard_normal((9, 6)).astype(np.float32)
        y = np.arange(9) % 5
        if k:  # a student with k teachers riding its stack
            model = stack_vectors(self.CONFIG, models[: k + 1])
            student = model.slice(0)
        else:
            model = student = models[0]
        tapset, record, masks = (train_pass(model, x, np.random.default_rng(113)) if train
                                 else (*model.forward_with_taps(x), []))
        teachers = tapset.teachers or stack_vectors(self.CONFIG, models[-1:]).forward_as_teacher(
            x, masks)
        handed = [x, *tapset.outputs, *masks, *teachers.outputs, record.head_in, record.head_mask,
                  *(a for state in record.layers for a in state[1:])]
        before = TestStackedStudent._bytes(handed)
        origins = np.arange(9) % (max(k, 1) + 1) - 1
        objective = routed_l_base(tapset, teachers, y, 0.9, 1.3, "features", origins)
        student.backward(record, objective)
        assert TestStackedStudent._bytes(handed) == before

    @pytest.mark.parametrize("k", [1, 3])
    def test_teacher_and_norm_passes_leave_their_inputs_alone(self, k):
        models = self._models(k)
        model = stack_vectors(self.CONFIG, models) if k > 1 else models[0]
        x = np.random.default_rng(114).standard_normal((9, 6)).astype(np.float32)
        masks = models[0].draw_masks(len(x), np.random.default_rng(115))
        handed = [x, model.arena, *masks]
        before = TestStackedStudent._bytes(handed)
        model.forward_as_teacher(x, masks)
        assert TestStackedStudent._bytes(handed) == before
        if k == 1:
            model.per_example_grad_norms(x, np.arange(9) % 5)
            assert TestStackedStudent._bytes(handed) == before


class NoLookup:
    """A mapping whose every lookup, by name, method or iteration, fails."""

    def __getitem__(self, name):
        raise AssertionError(f"looked up {name!r}")

    def __getattr__(self, attr):
        raise AssertionError(f"looked up .{attr}")


class TestPassesReadTheBoundTable:
    """Every pass, backward and norm walk reaches a layer through the table
    the model's binding built: none looks a parameter or its gradient's
    slice up by name."""

    CONFIG = ModelConfig(input_dim=6, total_classes=5, res_blocks=2, res_layers_per_block=2,
                         res_dim=8, hidden_dim=7, dropout_p=0.1)

    def test_no_pass_looks_a_name_up(self, monkeypatch):
        model = build_model(self.CONFIG, seed=120)
        jitter_params(model, seed=121)
        stack = stack_vectors(self.CONFIG, [build_model(self.CONFIG, seed=122 + j)
                                            for j in range(2)])
        data = np.random.default_rng(124)
        x = data.standard_normal((9, 6)).astype(np.float32)
        xs = data.standard_normal((3, 9, 6)).astype(np.float32)
        y = np.arange(9) % 5
        masks = [model.draw_masks(9, data) for _ in range(len(xs) + 1)]
        chunk_masks = [np.stack(site) for site in zip(*masks[1:])]

        def passes(m: ResidualClassifier, chunk: ResidualClassifier) -> list:
            tapset, record = m.forward_with_taps(x, True, masks[0])
            grads = m.backward(record, task_loss(tapset, y))
            return [a.tobytes() for a in (
                *tapset.outputs, grads, m.arena, m.per_example_grad_norms(x, y), m.predict(x),
                *chunk.forward_as_teacher(xs, chunk_masks).outputs)]

        want = passes(model.copy(), stack.over_batches())
        m, chunk = model.copy(), stack.over_batches()
        for bound in (m, chunk):
            monkeypatch.setattr(bound, "params", NoLookup())
        monkeypatch.setattr(m.layout, "param_slices", NoLookup())
        assert passes(m, chunk) == want


class TestParamVector:
    def test_round_trip_bit_exact(self):
        m = build_model(TOY, seed=2)
        pv = m.to_param_vector()
        blob = pv.to_bytes()
        back = ParamVector.from_bytes(blob, TOY)
        assert back.to_bytes() == blob
        assert back.layout.header == pv.layout.header
        assert back.payload.tobytes() == pv.payload.tobytes()

    def test_nbytes_matches_serialized_length(self):
        pv = build_model(TOY, seed=2).to_param_vector()
        assert pv.nbytes == len(pv.to_bytes())

    def test_little_endian_header(self):
        pv = build_model(TOY, seed=2).to_param_vector()
        blob = pv.to_bytes()
        assert blob[:4] == b"CLPV"
        assert int.from_bytes(blob[4:6], "little") == 1
        assert int.from_bytes(blob[6:10], "little") == len(pv.layout.names)

    def test_truncated_blob_rejected(self):
        blob = build_model(TOY, seed=2).to_param_vector().to_bytes()
        with pytest.raises(ValueError, match="truncated"):
            ParamVector.from_bytes(blob[:-8], TOY)

    def test_truncated_header_names_byte_offset(self):
        with pytest.raises(ValueError, match="truncated header at byte 4"):
            ParamVector.from_bytes(b"CLPV", TOY)
        pv = build_model(TOY, seed=2).to_param_vector()
        blob = reference_snapshot(pv.layout.shapes.items(), pv.payload)
        with pytest.raises(ValueError, match=r"truncated header at byte 14"):
            ParamVector.from_bytes(blob[:14], TOY)

    def test_trailing_bytes_rejected(self):
        blob = build_model(TOY, seed=2).to_param_vector().to_bytes()
        with pytest.raises(ValueError, match=f"3 trailing bytes at byte {len(blob)}"):
            ParamVector.from_bytes(blob + b"\x00" * 3, TOY)

    def test_bad_magic_rejected(self):
        blob = build_model(TOY, seed=2).to_param_vector().to_bytes()
        with pytest.raises(ValueError, match="magic"):
            ParamVector.from_bytes(b"XXXX" + blob[4:], TOY)

    def test_load_restores_behavior(self):
        rng = np.random.default_rng(5)
        src = build_model(TOY, seed=3)
        for _ in range(2):  # distinct running stats
            train_pass(src, rng.standard_normal((8, 4)).astype(np.float32), rng)
        dst = model_from_vector(TOY, src.to_param_vector())
        x = rng.standard_normal((5, 4)).astype(np.float32)
        a, _ = src.forward_with_taps(x)
        b, _ = dst.forward_with_taps(x)
        np.testing.assert_array_equal(a.logits.data, b.logits.data)

    def test_model_from_vector_rejects_other_head_width(self):
        wider = build_model(dataclasses.replace(TOY, total_classes=7), seed=3)
        with pytest.raises(ValueError, match="layout mismatch for 'head.W'"):
            model_from_vector(TOY, wider.to_param_vector())
        m = build_model(TOY, seed=3)
        pv = m.to_param_vector()
        assert model_from_vector(TOY, pv).to_param_vector().to_bytes() == pv.to_bytes()

    def test_model_from_vector_draws_no_initialization(self, monkeypatch):
        import batchcl.model as model_mod

        pv = build_model(TOY, seed=3).to_param_vector()

        def no_draws(*args, **kwargs):
            raise AssertionError("model_from_vector drew an initialization")

        monkeypatch.setattr(model_mod, "xavier_uniform", no_draws)
        m = model_from_vector(TOY, pv)
        assert m.to_param_vector().to_bytes() == pv.to_bytes()
        m.params["head.b"][:] = 123.0  # the model owns copies, not the snapshot's arrays
        assert snapshot_entries(pv)["head.b"].max() != 123.0

    def test_model_over_vector_reads_a_decoded_snapshot_in_place(self):
        # a model over a decoded snapshot's read-only payload: no copy, the
        # teacher pass of a loaded model bit for bit, and a train pass,
        # which would fold its statistics into the payload, raises
        rng = np.random.default_rng(5)
        src = build_model(TOY, seed=3)
        train_pass(src, rng.standard_normal((8, 4)).astype(np.float32), rng)
        pv = ParamVector.from_bytes(src.to_param_vector().to_bytes(), TOY)
        over = model_over_vector(TOY, pv)
        assert np.shares_memory(over.arena, pv.payload) and not over.arena.flags.writeable
        x = rng.standard_normal((6, 4)).astype(np.float32)
        got = over.forward_as_teacher(x).outputs
        want = model_from_vector(TOY, pv).forward_as_teacher(x).outputs
        assert [o.tobytes() for o in got] == [o.tobytes() for o in want]
        with pytest.raises(ValueError, match="read-only"):
            over.forward_with_taps(x, train=True, masks=over.draw_masks(len(x), rng))
        wider = build_model(dataclasses.replace(TOY, total_classes=7), seed=3)
        with pytest.raises(ValueError, match="layout mismatch for 'head.W'"):
            model_over_vector(TOY, wider.to_param_vector())

    def test_layout_mismatch_rejected(self):
        m = build_model(TOY, seed=3)
        other = build_model(
            ModelConfig(input_dim=4, total_classes=3, res_blocks=1,
                        res_layers_per_block=2, res_dim=6, hidden_dim=5), seed=3
        )
        with pytest.raises(ValueError, match="layout"):
            model_from_vector(m.config, other.to_param_vector())

    def test_entries_out_of_snapshot_order_rejected(self):
        pv = build_model(TOY, seed=3).to_param_vector()
        entries = list(pv.layout.shapes.items())
        entries[:2] = entries[1], entries[0]
        swapped = reference_snapshot(entries, pv.payload)
        # 'stem.b' where the layout has 'stem.W': the names' last bytes differ
        with pytest.raises(ValueError, match="layout mismatch for 'stem.W' at byte 17"):
            ParamVector.from_bytes(swapped, TOY)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_from_bytes_accepts_what_the_reference_accepts(self, data):
        # a snapshot of one of several shapes, checked against the layout of
        # the same or another shape, after a single-byte edit, a truncation
        # or an extension, or none, mostly in or just past the header
        shapes = [TOY, PINNED16, WIDE, dataclasses.replace(TOY, total_classes=4),
                  dataclasses.replace(TOY, res_blocks=1), dataclasses.replace(TOY, hidden_dim=6)]
        source = data.draw(st.sampled_from(shapes))
        config = data.draw(st.sampled_from([source, source, *shapes]))
        layout = arena_layout(source)
        blob = bytearray(reference_snapshot(layout.shapes.items(),
                                            np.arange(layout.size, dtype=np.float32)))
        near_header = st.integers(0, len(layout.header) + 8)
        at = data.draw(st.one_of(near_header, near_header, st.integers(0, len(blob))))
        how = data.draw(st.sampled_from(["none", "byte", "truncate", "extend"]))
        if how == "byte":
            blob[min(at, len(blob) - 1)] = data.draw(st.integers(0, 255))
        elif how == "truncate":
            del blob[at:]
        elif how == "extend":
            blob += data.draw(st.binary(min_size=1, max_size=8))
        blob = bytes(blob)
        want = reference_accepts(blob, config)
        try:
            pv = ParamVector.from_bytes(blob, config)
        except ValueError:
            assert not want
        else:
            assert want
            assert pv.to_bytes() == blob
            assert pv.payload.tobytes() == reference_parse(blob)[2].tobytes()
        assert arena_layout(config).header == reference_header(arena_layout(config).shapes.items())

    def test_to_bytes_copies_the_payload_once(self):
        pv = build_model(WIDE, seed=2).to_param_vector()
        tracemalloc.start()
        try:
            blob = pv.to_bytes()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(blob) > 1_000_000
        assert peak <= 1.5 * len(blob), (peak, len(blob))  # the blob, and no second copy

    def test_copy_is_independent(self):
        m = build_model(TOY, seed=4)
        c = m.copy()
        c.params["head.b"][:] = 123.0
        assert m.params["head.b"].max() != 123.0
        assert c.to_param_vector().layout.names == m.to_param_vector().layout.names


class TestStackedTeacher:
    """A stack of k models runs one teacher pass equal to k single passes."""

    CONFIG = dataclasses.replace(TOY, res_blocks=3)

    def _models(self, k, dropout_p):
        config = dataclasses.replace(self.CONFIG, dropout_p=dropout_p)
        rng = np.random.default_rng(40)
        models = [build_model(config, seed=50 + j) for j in range(k)]
        for m in models:  # distinct running stats, which a teacher pass must ignore
            train_pass(m, rng.standard_normal((8, 4)).astype(np.float32), rng)
        return config, models

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.1, 0.3])
    def test_stack_equals_single_passes_bitwise(self, k, dropout_p):
        config, models = self._models(k, dropout_p)
        x = np.random.default_rng(41).standard_normal((9, 4)).astype(np.float32)
        masks = build_model(config, seed=60).draw_masks(len(x), np.random.default_rng(42))
        stack = stack_vectors(config, [m.to_param_vector() for m in models])
        stacked = stack.forward_as_teacher(x, masks)
        assert len(stacked.taps) == config.res_blocks + 1
        assert stacked.logits.shape == (k, 9, 3)
        for j, m in enumerate(models):
            single = m.forward_as_teacher(x, masks)
            assert single.logits.shape == (9, 3)
            for got, want in zip(stacked.taps, single.taps):
                assert got.shape == (k, *want.shape)
                assert got[j].tobytes() == want.tobytes()
            assert stacked.logits[j].tobytes() == single.logits.tobytes()

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    def test_batches_at_once_equal_a_pass_per_batch_bitwise(self, k, dropout_p):
        config, models = self._models(k, dropout_p)
        stack = stack_vectors(config, [m.to_param_vector() for m in models])
        data = np.random.default_rng(46)
        xs = data.standard_normal((3, 9, 4)).astype(np.float32)
        masks = [build_model(config, seed=60).draw_masks(9, data) for _ in xs]
        chunk = stack.over_batches()
        assert np.shares_memory(chunk.arena, stack.arena)
        together = chunk.forward_as_teacher(xs, [np.stack(site) for site in zip(*masks)])
        assert together.logits.shape == (k, 3, 9, 3)
        for b, (x, m) in enumerate(zip(xs, masks)):
            alone = stack.forward_as_teacher(x, m)
            for got, want in zip(together.taps, alone.taps):
                assert got[:, b].tobytes() == want.tobytes()
            assert together.logits[:, b].tobytes() == alone.logits.tobytes()
        with pytest.raises(GraphError, match=r"takes \(n, B, d\)"):
            chunk.forward_as_teacher(xs[0])
        with pytest.raises(GraphError, match="not a stack's"):
            models[0].over_batches()

    def test_stack_keeps_snapshot_order_and_layout(self):
        config, models = self._models(2, 0.0)
        pvs = [m.to_param_vector() for m in models]
        stack = stack_vectors(config, pvs)
        for j, pv in enumerate(pvs):
            for name, arr in snapshot_entries(pv).items():
                state = stack.params if name in stack.params else stack.stats
                np.testing.assert_array_equal(state[name][j], arr)
        wider = build_model(dataclasses.replace(config, total_classes=7), seed=3)
        with pytest.raises(ValueError, match="layout mismatch for 'head.W'"):
            stack_vectors(config, [pvs[0], wider.to_param_vector()])
        with pytest.raises(ValueError, match="at least one"):
            stack_vectors(config, [])

    @pytest.mark.parametrize("change", [dict(dropout_p=0.5), dict(total_classes=7),
                                        dict(res_blocks=1)])
    def test_a_model_and_its_snapshot_stack_alike(self, change):
        # one rule for both kinds of source: the layout, not the whole config
        model = build_model(dataclasses.replace(TOY, **change), seed=3)
        outcomes = []
        for src in (model, model.to_param_vector()):
            try:
                outcomes.append(stack_vectors(TOY, [src]).arena.tobytes())
            except ValueError as e:
                outcomes.append(str(e))
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], bytes) == ("dropout_p" in change), outcomes[0]

    def test_stack_keeps_the_single_pass_checks(self):
        config, models = self._models(2, 0.1)
        stack = stack_vectors(config, [m.to_param_vector() for m in models])
        x = np.random.default_rng(43).standard_normal((5, 4)).astype(np.float32)
        masks = models[0].draw_masks(len(x), np.random.default_rng(44))
        with pytest.raises(GraphError, match="dropout masks"):
            stack.forward_as_teacher(x, masks[:-1])
        with pytest.raises(GraphError, match=">= 2"):
            stack.forward_as_teacher(x[:1])
        with pytest.raises(GraphError, match="input_dim"):
            stack.forward_as_teacher(np.zeros((5, 9), dtype=np.float32))

    def test_stacked_pass_is_pure(self):
        config, models = self._models(2, 0.1)
        stack = stack_vectors(config, [m.to_param_vector() for m in models])
        before = [a.tobytes() for a in (*stack.params.values(), *stack.stats.values())]
        x = np.random.default_rng(45).standard_normal((5, 4)).astype(np.float32)
        stack.forward_as_teacher(x)
        after = [a.tobytes() for a in (*stack.params.values(), *stack.stats.values())]
        assert before == after


class TestStackedStudent:
    """A stack's train pass is the student pass of slice 0, with slices 1..k
    riding it as teachers: every output, the running-buffer update, the
    record and the gradients equal a plain student pass plus a teacher pass
    of the other slices, bit for bit."""

    def _models(self, k, dropout_p, res_blocks, dtype=np.float32):
        config = ModelConfig(input_dim=6, total_classes=5, res_blocks=res_blocks,
                             res_layers_per_block=2, res_dim=8, hidden_dim=7,
                             dropout_p=dropout_p)
        rng = np.random.default_rng(70)
        models = [build_model(config, seed=71 + j) for j in range(k + 1)]
        for m in models:  # distinct running buffers
            jitter_params(m, seed=int(rng.integers(1000)))
            train_pass(m, rng.standard_normal((12, 6)).astype(np.float32), rng)
        if dtype == np.float64:
            models = [float64_twin(m) for m in models]
        return config, models[0], models[1:]

    @staticmethod
    def _bytes(arrays) -> list:
        return [None if a is None else (a.shape, a.tobytes()) for a in arrays]

    def _assert_stack_is_plain_passes(self, config, student, teachers, kind="features"):
        data = np.random.default_rng(73)
        x = data.standard_normal((9, 6)).astype(student.params["stem.W"].dtype)
        y = data.integers(0, 5, size=9)
        k = len(teachers)
        origins = data.choice([-1, *range(k)], size=9)
        plain = student.copy()
        want, want_record, want_masks = train_pass(plain, x, np.random.default_rng(74))
        want_teachers = stack_vectors(config, teachers).forward_as_teacher(x, want_masks)
        stack = stack_vectors(config, [student, *teachers])
        got, got_record, got_masks = train_pass(stack, x, np.random.default_rng(74))

        assert self._bytes(got.taps) == self._bytes(want.taps)
        assert self._bytes([got.logits]) == self._bytes([want.logits])
        assert self._bytes(got_masks) == self._bytes(want_masks)
        assert got.teachers.logits.shape == (k, 9, 5)
        assert self._bytes(got.teachers.taps) == self._bytes(want_teachers.taps)
        assert self._bytes([got.teachers.logits]) == self._bytes([want_teachers.logits])

        view = stack.slice(0)
        for name, buf in plain.stats.items():  # slice 0 took the batch statistics
            assert view.stats[name].tobytes() == buf.tobytes(), name
            for j, t in enumerate(teachers):  # the teachers kept theirs
                assert stack.stats[name][1 + j].tobytes() == t.stats[name].tobytes(), name

        assert len(got_record.layers) == len(want_record.layers)
        for g, w in zip(got_record.layers, want_record.layers):
            assert g[0] == w[0]
            assert self._bytes(g[1:]) == self._bytes(w[1:]), g[0]
        assert self._bytes([got_record.head_in, got_record.head_mask]) == self._bytes(
            [want_record.head_in, want_record.head_mask])
        assert got_record.train == want_record.train

        want_value, want_grads = step_grads(
            plain, want_record, routed_l_base(want, want_teachers, y, 0.9, 1.3, kind, origins))
        got_value, got_grads = step_grads(
            view, got_record, routed_l_base(got, got.teachers, y, 0.9, 1.3, kind, origins))
        assert np.float64(got_value).tobytes() == np.float64(want_value).tobytes()
        assert list(got_grads) == list(want_grads)
        for name in want_grads:
            assert got_grads[name].tobytes() == want_grads[name].tobytes(), name

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("res_blocks", [2, 3])
    def test_stack_equals_plain_passes_bitwise(self, k, dropout_p, res_blocks):
        config, student, teachers = self._models(k, dropout_p, res_blocks)
        self._assert_stack_is_plain_passes(config, student, teachers)

    @pytest.mark.parametrize("kind", DISTILL_KINDS)
    def test_every_distill_kind(self, kind):
        config, student, teachers = self._models(3, 0.1, 2)
        self._assert_stack_is_plain_passes(config, student, teachers, kind)

    def test_float64_twin(self):
        config, student, teachers = self._models(2, 0.1, 2, np.float64)
        self._assert_stack_is_plain_passes(config, student, teachers)

    def test_sgd_on_the_student_moves_slice_0_only(self):
        config, student, teachers = self._models(2, 0.1, 2)
        stack = stack_vectors(config, [student, *teachers])
        view = stack.slice(0)
        before = {name: p.copy() for name, p in stack.params.items()}
        x = np.random.default_rng(75).standard_normal((9, 6)).astype(np.float32)
        tapset, record, _ = train_pass(stack, x, np.random.default_rng(76))
        flat = view.backward(record, task_loss(tapset, np.arange(9) % 5))
        grads = view.layout.param_views(flat.copy())  # the step spends its gradient
        SGD(lr=0.1).step(view.flat_params, flat, view.layout.param_slices)
        for name, p in stack.params.items():
            assert p[1:].tobytes() == before[name][1:].tobytes(), name
            want = before[name][0] - np.float32(0.1) * grads[name]
            assert p[0].tobytes() == want.tobytes(), name
        assert np.any(stack.params["head.W"][0] != before["head.W"][0])

    def test_stack_checks(self):
        config, student, teachers = self._models(1, 0.1, 2)
        stack = stack_vectors(config, [student, *teachers])
        x = np.zeros((4, 6), np.float32)
        with pytest.raises(GraphError, match="train mode only"):
            stack.forward_with_taps(x)
        with pytest.raises(GraphError, match="size 1"):
            train_pass(stack, x[:1], np.random.default_rng(0))
        other = build_model(dataclasses.replace(config, total_classes=7), seed=3)
        with pytest.raises(ValueError, match="layout mismatch"):
            stack_vectors(config, [student, other])


class TestArena:
    """One contiguous buffer per model; every array is a view of it."""

    CONFIG = dataclasses.replace(TOY, dropout_p=0.2)

    def _trained(self, seed: int, dtype=np.float32) -> ResidualClassifier:
        m = build_model(self.CONFIG, seed=seed)
        jitter_params(m, seed=seed + 1)
        rng = np.random.default_rng(seed + 2)
        train_pass(m, rng.standard_normal((7, 4)).astype(np.float32), rng)
        return m if dtype == np.float32 else float64_twin(m)

    def test_layout_is_snapshot_order(self):
        m = self._trained(0)
        pv = m.to_param_vector()
        assert pv.layout is m.layout
        assert pv.payload.tobytes() == m.arena.tobytes()
        assert list(m.params) + list(m.stats) == list(pv.layout.names)
        assert m.layout.size == m.arena.size == m.layout.n_params + sum(
            a.size for a in m.stats.values())

    def test_every_array_is_a_view_of_the_arena(self):
        m = self._trained(0)
        assert_views_of_own_arena(m)
        assert_views_of_own_arena(m.copy())
        pv = self._trained(1).to_param_vector()
        loaded = model_from_vector(self.CONFIG, pv)
        assert_views_of_own_arena(loaded)
        assert not np.shares_memory(loaded.arena, pv.payload)
        stack = stack_vectors(self.CONFIG, [m, pv, self._trained(2)])
        assert_views_of_own_arena(stack)
        assert stack.arena.shape == (3, m.layout.size)
        for j in range(3):
            view = stack.slice(j)
            assert_views_of_arena(view)
            assert view.arena.base is stack.arena
            assert view.arena.__array_interface__ == stack.arena[j].__array_interface__
        assert_views_of_own_arena(stack.slice(0).copy())

    def test_float64_twin_shares_its_own_arena(self):
        m = self._trained(0)
        twin = float64_twin(m)
        assert twin.arena.dtype == np.float64
        assert not np.shares_memory(twin.arena, m.arena)
        assert_views_of_own_arena(twin)
        assert all(a.dtype == np.float64 for a in (*twin.params.values(), *twin.stats.values()))
        twin.params["head.b"][:] = 5.0
        assert np.all(twin.arena[twin.layout.param_slices["head.b"]] == 5.0)

    @pytest.mark.parametrize("n", [2, 3, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_running_update_equals_per_layer_oracle(self, n, dtype):
        m = self._trained(0, dtype)
        want = m.copy()
        x = np.random.default_rng(3).standard_normal((n, 4)).astype(np.float32)
        train_pass(m, x, np.random.default_rng(4))
        per_op_forward(want, x, True, per_site_masks(want, n, np.random.default_rng(4)))
        for name, a in m.stats.items():
            assert a.tobytes() == want.stats[name].tobytes(), name
        assert m.arena.tobytes() == want.arena.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_running_update_on_a_stack_moves_slice_0_only(self, n, dtype):
        models = [self._trained(10 * j, dtype) for j in range(5)]
        stack = stack_vectors(self.CONFIG, models)
        want = models[0].copy()
        x = np.random.default_rng(5).standard_normal((n, 4)).astype(np.float32)
        train_pass(stack, x, np.random.default_rng(6))
        per_op_forward(want, x, True, per_site_masks(want, n, np.random.default_rng(6)))
        for name, a in stack.stats.items():
            assert a[0].tobytes() == want.stats[name].tobytes(), name
            for j, t in enumerate(models[1:], start=1):
                assert a[j].tobytes() == t.stats[name].tobytes(), (name, j)
        assert stack.flat_params.tobytes() == np.stack([t.flat_params for t in models]).tobytes()

    @pytest.mark.parametrize("stacked", [False, True])
    def test_overflowed_batch_statistics_raise_before_the_buffers_move(self, stacked):
        # stem weights of about 1e20 overflow the float32 batch variance to
        # inf, which zeroes inv_std and leaves every output finite; the train
        # pass must raise, and no running buffer may take the statistics
        m = self._trained(0)
        m.params["stem.W"][...] *= np.float32(1e20)
        model = stack_vectors(self.CONFIG, [m, self._trained(1)]) if stacked else m
        before = model.arena.tobytes()
        x = np.random.default_rng(7).standard_normal((8, 4)).astype(np.float32)
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteError, match="'stem.bn.running_var'"):
            train_pass(model, x, np.random.default_rng(8))
        assert model.arena.tobytes() == before

    def test_backward_is_one_fresh_flat_array(self):
        m = self._trained(0)
        x = np.random.default_rng(7).standard_normal((6, 4)).astype(np.float32)
        tapset, record, _ = train_pass(m, x, np.random.default_rng(8))
        loss = task_loss(tapset, np.arange(6) % 3)
        first, second = m.backward(record, loss), m.backward(record, loss)
        assert first.shape == (m.layout.n_params,) and first.dtype == m.arena.dtype
        assert first.base is None and not np.shares_memory(first, second)
        assert first.tobytes() == second.tobytes()

    def test_unreached_parameter_gradient_is_exact_positive_zero(self):
        # feature distillation reads the taps only, so nothing reaches the head
        m = self._trained(0)
        x = np.random.default_rng(9).standard_normal((6, 4)).astype(np.float32)
        tapset, record, _ = train_pass(m, x, np.random.default_rng(10))
        target = TapSet([*(t + 1.0 for t in tapset.taps), tapset.logits])
        loss = distill("features", target, tapset)
        grads = m.layout.param_views(m.backward(record, loss))
        for name in ("head.W", "head.b"):
            assert grads[name].tobytes() == np.zeros_like(grads[name]).tobytes(), name
        assert grads["stem.W"].any()

    @pytest.mark.parametrize("name, dims, want", [
        ("pinned16", (16, 64, dict(res_blocks=1, res_layers_per_block=2, res_dim=32,
                                   hidden_dim=16, dropout_p=0.1)),
         "e4d9583445b11b2c0521a0717573b7b781a72405b86f2ca165ecad006d8156f7"),
        ("wide", (32, 64, dict(res_blocks=2, res_layers_per_block=3, res_dim=256,
                               hidden_dim=128, dropout_p=0.3)),
         "65763ed9663f6c1a07707426698fab16a07b4899a2db48fc8528e47375ec3df3"),
    ])
    def test_initial_snapshot_bytes_are_pinned(self, name, dims, want):
        d, c, model = dims
        blob = build_model(ModelConfig(input_dim=d, total_classes=c, **model),
                           0).to_param_vector().to_bytes()
        assert hashlib.sha256(blob).hexdigest() == want, name
