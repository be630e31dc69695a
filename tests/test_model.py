"""Classifier construction, forward oracle, snapshot round-trips."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from batchcl.engine import GraphError
from batchcl.model import (
    ModelConfig,
    ParamVector,
    ResidualClassifier,
    build_model,
    model_from_vector,
    stack_vectors,
)

TOY = ModelConfig(
    input_dim=4,
    total_classes=3,
    res_blocks=2,
    res_layers_per_block=2,
    res_dim=6,
    hidden_dim=5,
    dropout_p=0.0,
)


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
        assert m.param_count == expected

    def test_param_count_closed_form_toy(self):
        m = build_model(TOY, seed=1)
        expected = (
            affine_bn_count(4, 6)
            + 2 * 2 * affine_bn_count(6, 6)
            + affine_bn_count(6, 5)
            + 5 * 3
            + 3
        )
        assert m.param_count == expected

    def test_same_seed_byte_identical(self):
        a = build_model(TOY, seed=7).to_param_vector()
        b = build_model(TOY, seed=7).to_param_vector()
        assert a.same_bytes(b)

    def test_different_seed_differs(self):
        a = build_model(TOY, seed=7).to_param_vector()
        b = build_model(TOY, seed=8).to_param_vector()
        assert not a.same_bytes(b)

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
        m.forward_with_taps(
            rng.standard_normal((8, 4)).astype(np.float32), train=True, rng=rng
        )
        x = rng.standard_normal((5, 4)).astype(np.float32)
        a, _ = m.forward_with_taps(x)
        b, _ = m.forward_with_taps(x)
        np.testing.assert_array_equal(a.logits.data, b.logits.data)
        for ta, tb in zip(a.taps, b.taps):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_matches_hand_rolled_reference(self):
        rng = np.random.default_rng(2)
        m = build_model(TOY, seed=5)
        # non-trivial running stats so eval mode is not the identity-normalizer
        for _ in range(3):
            m.forward_with_taps(
                rng.standard_normal((16, 4)).astype(np.float32), train=True, rng=rng
            )
        x = rng.standard_normal((7, 4)).astype(np.float32)
        tapset, _ = m.forward_with_taps(x)
        ref_taps, ref_logits = reference_forward(m, x)
        assert np.abs(tapset.logits.data - ref_logits).max() < 1e-5
        for got, want in zip(tapset.taps, ref_taps):
            assert np.abs(got.data - want).max() < 1e-5

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


class TestParamVector:
    def test_round_trip_bit_exact(self):
        m = build_model(TOY, seed=2)
        pv = m.to_param_vector()
        blob = pv.to_bytes()
        back = ParamVector.from_bytes(blob)
        assert back.to_bytes() == blob
        assert back.names == pv.names
        for a, b in zip(back.arrays, pv.arrays):
            np.testing.assert_array_equal(a, b)

    def test_nbytes_matches_serialized_length(self):
        pv = build_model(TOY, seed=2).to_param_vector()
        assert pv.nbytes == len(pv.to_bytes())

    def test_little_endian_header(self):
        pv = build_model(TOY, seed=2).to_param_vector()
        blob = pv.to_bytes()
        assert blob[:4] == b"CLPV"
        assert int.from_bytes(blob[4:6], "little") == 1
        assert int.from_bytes(blob[6:10], "little") == len(pv.names)

    def test_truncated_blob_rejected(self):
        blob = build_model(TOY, seed=2).to_param_vector().to_bytes()
        with pytest.raises(ValueError, match="truncated"):
            ParamVector.from_bytes(blob[:-8])

    def test_bad_magic_rejected(self):
        blob = build_model(TOY, seed=2).to_param_vector().to_bytes()
        with pytest.raises(ValueError, match="magic"):
            ParamVector.from_bytes(b"XXXX" + blob[4:])

    def test_load_restores_behavior(self):
        rng = np.random.default_rng(5)
        src = build_model(TOY, seed=3)
        for _ in range(2):  # distinct running stats
            src.forward_with_taps(
                rng.standard_normal((8, 4)).astype(np.float32), train=True, rng=rng
            )
        dst = build_model(TOY, seed=99)
        dst.load_param_vector(src.to_param_vector())
        x = rng.standard_normal((5, 4)).astype(np.float32)
        a, _ = src.forward_with_taps(x)
        b, _ = dst.forward_with_taps(x)
        np.testing.assert_array_equal(a.logits.data, b.logits.data)

    def test_model_from_vector_rejects_other_head_width(self):
        wider = build_model(dataclasses.replace(TOY, total_classes=7), seed=3)
        with pytest.raises(ValueError, match="layout mismatch for 'head.W'"):
            model_from_vector(TOY, wider.to_param_vector())
        m = build_model(TOY, seed=3)
        assert model_from_vector(TOY, m.to_param_vector()).to_param_vector().same_bytes(
            m.to_param_vector()
        )

    def test_model_from_vector_draws_no_initialization(self, monkeypatch):
        import batchcl.model as model_mod

        pv = build_model(TOY, seed=3).to_param_vector()

        def no_draws(*args, **kwargs):
            raise AssertionError("model_from_vector drew an initialization")

        monkeypatch.setattr(model_mod, "xavier_uniform", no_draws)
        m = model_from_vector(TOY, pv)
        assert m.to_param_vector().same_bytes(pv)
        m.params["head.b"][:] = 123.0  # the model owns copies, not the snapshot's arrays
        assert pv.arrays[pv.names.index("head.b")].max() != 123.0

    def test_layout_mismatch_rejected(self):
        m = build_model(TOY, seed=3)
        other = build_model(
            ModelConfig(input_dim=4, total_classes=3, res_blocks=1,
                        res_layers_per_block=2, res_dim=6, hidden_dim=5), seed=3
        )
        with pytest.raises(ValueError, match="layout"):
            m.load_param_vector(other.to_param_vector())

    def test_copy_is_independent(self):
        m = build_model(TOY, seed=4)
        c = m.copy()
        c.params["head.b"][:] = 123.0
        assert m.params["head.b"].max() != 123.0
        assert c.to_param_vector().names == m.to_param_vector().names


class TestStackedTeacher:
    """A stack of k models runs one teacher pass equal to k single passes."""

    CONFIG = dataclasses.replace(TOY, res_blocks=3)

    def _models(self, k, dropout_p):
        config = dataclasses.replace(self.CONFIG, dropout_p=dropout_p)
        rng = np.random.default_rng(40)
        models = [build_model(config, seed=50 + j) for j in range(k)]
        for m in models:  # distinct running stats, which a teacher pass must ignore
            m.forward_with_taps(rng.standard_normal((8, 4)).astype(np.float32),
                                train=True, rng=rng)
        return config, models

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.1, 0.3])
    def test_stack_equals_single_passes_bitwise(self, k, dropout_p):
        config, models = self._models(k, dropout_p)
        x = np.random.default_rng(41).standard_normal((9, 4)).astype(np.float32)
        student, _ = build_model(config, seed=60).forward_with_taps(
            x, train=True, rng=np.random.default_rng(42)
        )
        stack = stack_vectors(config, [m.to_param_vector() for m in models])
        stacked = stack.forward_as_teacher(x, student.masks)
        assert len(stacked.taps) == config.res_blocks + 1
        assert stacked.logits.shape == (k, 9, 3)
        for j, m in enumerate(models):
            single = m.forward_as_teacher(x, student.masks)
            assert single.logits.shape == (9, 3)
            for got, want in zip(stacked.taps, single.taps):
                assert got.shape == (k, *want.shape)
                assert got.data[j].tobytes() == want.data.tobytes()
            assert stacked.logits.data[j].tobytes() == single.logits.data.tobytes()

    def test_stack_keeps_snapshot_order_and_layout(self):
        config, models = self._models(2, 0.0)
        pvs = [m.to_param_vector() for m in models]
        stack = stack_vectors(config, pvs)
        for j, pv in enumerate(pvs):
            for name, arr in zip(pv.names, pv.arrays):
                state = stack.params if name in stack.params else stack.stats
                np.testing.assert_array_equal(state[name][j], arr)
        wider = build_model(dataclasses.replace(config, total_classes=7), seed=3)
        with pytest.raises(ValueError, match="layout mismatch for 'head.W'"):
            stack_vectors(config, [pvs[0], wider.to_param_vector()])
        with pytest.raises(ValueError, match="at least one"):
            stack_vectors(config, [])

    def test_stack_keeps_the_single_pass_checks(self):
        config, models = self._models(2, 0.1)
        stack = stack_vectors(config, [m.to_param_vector() for m in models])
        x = np.random.default_rng(43).standard_normal((5, 4)).astype(np.float32)
        student, _ = models[0].copy().forward_with_taps(
            x, train=True, rng=np.random.default_rng(44)
        )
        with pytest.raises(GraphError, match="dropout masks"):
            stack.forward_as_teacher(x, student.masks[:-1])
        with pytest.raises(GraphError, match=">= 2"):
            stack.forward_as_teacher(x[:1])
        with pytest.raises(GraphError, match="input_dim"):
            stack.forward_as_teacher(np.zeros((5, 9), dtype=np.float32))

    def test_stacked_pass_is_pure(self):
        config, models = self._models(2, 0.1)
        stack = stack_vectors(config, [m.to_param_vector() for m in models])
        before = [a.tobytes() for a in (*stack.params.values(), *stack.stats.values())]
        x = np.random.default_rng(45).standard_normal((5, 4)).astype(np.float32)
        teacher = stack.forward_as_teacher(x)
        after = [a.tobytes() for a in (*stack.params.values(), *stack.stats.values())]
        assert before == after
        assert not any(t.requires_grad for t in teacher.taps)
