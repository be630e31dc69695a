"""Engine gradients against a central-difference oracle, plus tape semantics."""

from __future__ import annotations

import numpy as np
import pytest

from batchcl.engine import (
    GraphError,
    NonFiniteError,
    SGD,
    Tensor,
    add,
    backward,
    batch_norm,
    batch_norm_values,
    dropout,
    dropout_mask,
    gradients,
    loss_and_grads,
    matmul,
    mean_square,
    mul,
    relu,
    masked_row_norm_mean,
    masked_row_sqnorm_mean,
    row_norm_mean,
    row_sqnorm_mean,
    scale,
    softmax_cross_entropy,
    square,
    stacked_distance,
    stop_gradient,
    sub,
    sum_all,
)

H = 1e-4
REL_TOL = 1e-4


def finite_diff(build_loss, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Central differences of build_loss(params) w.r.t. every entry, float64."""
    out = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + H
            hi = build_loss(params)
            flat[i] = orig - H
            lo = build_loss(params)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * H)
        out[name] = g
    return out


def assert_grads_close(analytic, numeric):
    for name in numeric:
        a, n = analytic[name], numeric[name]
        denom = max(np.abs(n).max(), 1.0)
        np.testing.assert_allclose(
            a, n, atol=REL_TOL * denom, rtol=REL_TOL,
            err_msg=f"gradient mismatch for {name}",
        )


def random_params(rng, spec):
    return {k: rng.standard_normal(shape) for k, shape in spec.items()}


class TestFiniteDifferenceOracle:
    def test_affine_relu_chain(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            params = random_params(
                rng, {"w1": (5, 7), "b1": (7,), "w2": (7, 3), "b2": (3,)}
            )
            x = rng.standard_normal((4, 5))
            labels = rng.integers(0, 3, size=4)

            def build(ps, x=x, labels=labels):
                t = {k: Tensor(v, requires_grad=True, name=k) for k, v in ps.items()}
                h = relu(add(matmul(Tensor(x), t["w1"]), t["b1"]))
                logits = add(matmul(h, t["w2"]), t["b2"])
                return softmax_cross_entropy(logits, labels)

            loss = build(params)
            _, analytic = loss_and_grads(
                loss, {}
            )  # smoke: no leaves requested is fine
            t = {k: Tensor(v, requires_grad=True, name=k) for k, v in params.items()}
            h = relu(add(matmul(Tensor(x), t["w1"]), t["b1"]))
            logits = add(matmul(h, t["w2"]), t["b2"])
            loss = softmax_cross_entropy(logits, labels)
            _, analytic = loss_and_grads(loss, t)
            numeric = finite_diff(lambda ps: build(ps).item(), params)
            assert_grads_close(analytic, numeric)

    def test_elementwise_and_reductions(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            params = random_params(rng, {"a": (3, 4), "b": (3, 4)})

            def build(ps):
                ta = Tensor(ps["a"], requires_grad=True, name="a")
                tb = Tensor(ps["b"], requires_grad=True, name="b")
                u = mul(sub(ta, tb), add(ta, tb))
                v = add(square(u), scale(mul(ta, tb), 0.5))
                return sum_all(v)

            loss = build(params)
            leaves = {p.name: p for p in loss.parents}
            # rebuild to get handles on the actual leaves
            ta = Tensor(params["a"], requires_grad=True, name="a")
            tb = Tensor(params["b"], requires_grad=True, name="b")
            u = mul(sub(ta, tb), add(ta, tb))
            v = add(square(u), scale(mul(ta, tb), 0.5))
            loss = sum_all(v)
            _, analytic = loss_and_grads(loss, {"a": ta, "b": tb})
            numeric = finite_diff(lambda ps: build(ps).item(), params)
            assert_grads_close(analytic, numeric)

    def test_row_norm_means(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            params = random_params(rng, {"x": (6, 5)})

            def build_l2(ps):
                return row_norm_mean(Tensor(ps["x"], requires_grad=True, name="x"))

            def build_sq(ps):
                return row_sqnorm_mean(Tensor(ps["x"], requires_grad=True, name="x"))

            for build in (build_l2, build_sq):
                tx = Tensor(params["x"], requires_grad=True, name="x")
                loss = (
                    row_norm_mean(tx) if build is build_l2 else row_sqnorm_mean(tx)
                )
                _, analytic = loss_and_grads(loss, {"x": tx})
                numeric = finite_diff(lambda ps: build(ps).item(), params)
                assert_grads_close(analytic, numeric)

    def test_masked_row_norm_means(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            params = random_params(rng, {"x": (6, 5)})
            mask = (rng.random(6) < 0.5).astype(np.float64)

            for op in (masked_row_norm_mean, masked_row_sqnorm_mean):
                def build(ps):
                    return op(Tensor(ps["x"], requires_grad=True, name="x"), mask)

                tx = Tensor(params["x"], requires_grad=True, name="x")
                _, analytic = loss_and_grads(op(tx, mask), {"x": tx})
                numeric = finite_diff(lambda ps: build(ps).item(), params)
                assert_grads_close(analytic, numeric)

    def test_masked_row_norm_selected_rows_only(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 3))
        mask = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        got = masked_row_norm_mean(Tensor(x, name="x"), mask).item()
        want = np.sqrt((x[[0, 2]] ** 2).sum(axis=1)).mean()
        assert got == pytest.approx(want, rel=1e-12)
        # deselected rows get exactly zero gradient
        tx = Tensor(x, requires_grad=True, name="x")
        _, grads = loss_and_grads(masked_row_norm_mean(tx, mask), {"x": tx})
        assert np.all(grads["x"][mask == 0.0] == 0.0)

    def test_masked_row_norm_empty_selection_is_zero(self):
        x = np.ones((4, 3))
        tx = Tensor(x, requires_grad=True, name="x")
        loss = masked_row_norm_mean(tx, np.zeros(4))
        assert loss.item() == 0.0
        _, grads = loss_and_grads(loss, {"x": tx})
        assert np.all(grads["x"] == 0.0)

    def test_masked_row_norm_bad_mask_shape(self):
        x = Tensor(np.ones((4, 3)), name="x")
        with pytest.raises(GraphError, match="mask shape"):
            masked_row_norm_mean(x, np.ones(3))

    def test_mean_square_grads(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            params = random_params(rng, {"x": (6, 5)})
            mask = (rng.random(6) < 0.5).astype(np.float64)
            for m in (None, mask):
                def build(ps, m=m):
                    return mean_square(Tensor(ps["x"], requires_grad=True, name="x"), m)

                tx = Tensor(params["x"], requires_grad=True, name="x")
                _, analytic = loss_and_grads(mean_square(tx, m), {"x": tx})
                numeric = finite_diff(lambda ps: build(ps).item(), params)
                assert_grads_close(analytic, numeric)

    def test_mean_square_values(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((5, 3))
        assert mean_square(Tensor(x)).item() == pytest.approx((x ** 2).mean(), rel=1e-12)
        mask = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        tx = Tensor(x, requires_grad=True, name="x")
        loss = mean_square(tx, mask)
        assert loss.item() == pytest.approx((x[[0, 2]] ** 2).mean(), rel=1e-12)
        _, grads = loss_and_grads(loss, {"x": tx})
        assert np.all(grads["x"][mask == 0.0] == 0.0)
        assert mean_square(Tensor(x), np.zeros(5)).item() == 0.0
        with pytest.raises(GraphError, match="mask shape"):
            mean_square(Tensor(x), np.ones(3))

    @pytest.mark.parametrize("per_feature", [True, False])
    def test_stacked_distance_grads(self, per_feature):
        rng = np.random.default_rng(14)
        shapes = {"s0": (6, 5), "s1": (6, 3)}
        for trial in range(5):
            params = random_params(rng, shapes)
            targets = [rng.standard_normal((3, *shape)) for shape in shapes.values()]
            masks = rng.random((3, 6)) < 0.5
            masks[2] = False  # a teacher with no rows in the batch

            def build(ps):
                students = [Tensor(ps[k], requires_grad=True, name=k) for k in shapes]
                return stacked_distance(students, targets, masks, per_feature), students

            loss, students = build(params)
            _, analytic = loss_and_grads(loss, dict(zip(shapes, students)))
            numeric = finite_diff(lambda ps: build(ps)[0].item(), params)
            assert_grads_close(analytic, numeric)

    @pytest.mark.parametrize("per_feature", [True, False])
    def test_stacked_distance_is_the_per_term_graph_bitwise(self, per_feature):
        """Overlapping masks and a second consumer of each student, so the
        order in which gradients are accumulated shows in the bits."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((7, 5)).astype(np.float32)
        targets = [rng.standard_normal((4, 7, 5)).astype(np.float32) for _ in range(2)]
        masks = rng.random((4, 7)) < 0.6
        masks[1] = False
        term = mean_square if per_feature else masked_row_sqnorm_mean

        def run(distance):
            leaf = Tensor(x, requires_grad=True, name="x")
            students = [relu(leaf), square(leaf)]
            other = add(sum_all(students[0]), sum_all(students[1]))
            loss = add(other, scale(distance(students), 0.3))
            return loss_and_grads(loss, {"x": leaf})

        def per_term_graph(students):
            total = None
            for j in range(4):
                per_teacher = None
                for s, t in zip(students, targets):
                    d = term(sub(Tensor(t[j]), s), masks[j].astype(np.float64))
                    per_teacher = d if per_teacher is None else add(per_teacher, d)
                total = per_teacher if total is None else add(total, per_teacher)
            return total

        got = run(lambda ss: stacked_distance(ss, targets, masks, per_feature))
        want = run(per_term_graph)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1]["x"].tobytes() == want[1]["x"].tobytes()

    @pytest.mark.parametrize("per_feature", [True, False])
    def test_stacked_distance_values(self, per_feature):
        rng = np.random.default_rng(15)
        s = rng.standard_normal((4, 3))
        targets = rng.standard_normal((2, 4, 3))
        masks = np.array([[1, 0, 1, 1], [0, 0, 0, 0]], dtype=bool)
        got = stacked_distance([Tensor(s)], [targets], masks, per_feature).item()
        sq = ((targets[0] - s) ** 2)[masks[0]]
        want = sq.mean() if per_feature else sq.sum(axis=1).mean()
        assert got == pytest.approx(want, rel=1e-12)
        with pytest.raises(GraphError, match="target stack"):
            stacked_distance([Tensor(s)], [targets[:, :3]], masks)
        with pytest.raises(GraphError, match="do not fit masks"):
            stacked_distance([Tensor(s)], [targets], masks[:, :1])
        with pytest.raises(GraphError, match="students"):
            stacked_distance([Tensor(s)], [], masks)
        with pytest.raises(GraphError, match="masks of shape"):
            stacked_distance([Tensor(s)], [targets], masks[0])

    def test_train_mode_batch_norm(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            params = random_params(rng, {"x": (8, 4), "gamma": (4,), "beta": (4,)})
            labels = rng.integers(0, 4, size=8)

            def build(ps, labels=labels):
                tx = Tensor(ps["x"], requires_grad=True, name="x")
                tg = Tensor(ps["gamma"], requires_grad=True, name="gamma")
                tb = Tensor(ps["beta"], requires_grad=True, name="beta")
                y = batch_norm(
                    tx, tg, tb, np.zeros(4), np.ones(4), train=True
                )
                return softmax_cross_entropy(y, labels), {"x": tx, "gamma": tg, "beta": tb}

            loss, leaves = build(params)
            _, analytic = loss_and_grads(loss, leaves)
            numeric = finite_diff(lambda ps: build(ps)[0].item(), params)
            assert_grads_close(analytic, numeric)

    def test_eval_mode_batch_norm(self):
        rng = np.random.default_rng(4)
        rm = rng.standard_normal(4)
        rv = rng.random(4) + 0.5
        params = random_params(rng, {"x": (5, 4), "gamma": (4,), "beta": (4,)})

        def build(ps):
            tx = Tensor(ps["x"], requires_grad=True, name="x")
            tg = Tensor(ps["gamma"], requires_grad=True, name="gamma")
            tb = Tensor(ps["beta"], requires_grad=True, name="beta")
            y = batch_norm(tx, tg, tb, rm.copy(), rv.copy(), train=False)
            return sum_all(square(y)), {"x": tx, "gamma": tg, "beta": tb}

        loss, leaves = build(params)
        _, analytic = loss_and_grads(loss, leaves)
        numeric = finite_diff(lambda ps: build(ps)[0].item(), params)
        assert_grads_close(analytic, numeric)

    def test_dropout_fixed_mask(self):
        # differentiate through dropout by replaying the identical RNG state
        rng = np.random.default_rng(5)
        params = random_params(rng, {"x": (6, 5)})

        def build(ps):
            local = np.random.default_rng(99)
            tx = Tensor(ps["x"], requires_grad=True, name="x")
            y = dropout(tx, 0.4, local, train=True)
            return sum_all(square(y)), tx

        loss, tx = build(params)
        _, analytic = loss_and_grads(loss, {"x": tx})
        numeric = finite_diff(lambda ps: build(ps)[0].item(), params)
        assert_grads_close(analytic, numeric)

    def test_many_random_graphs(self):
        # composes ops randomly; >= 50 graphs across the class in total
        rng = np.random.default_rng(6)
        for trial in range(30):
            n, d, c = 4, 6, 3
            params = random_params(
                rng, {"w": (d, c), "b": (c,), "g": (d,), "be": (d,)}
            )
            x = rng.standard_normal((n, d))
            labels = rng.integers(0, c, size=n)
            use_bn = trial % 2 == 0
            use_relu = trial % 3 != 0

            def build(ps, x=x, labels=labels, use_bn=use_bn, use_relu=use_relu):
                tx = Tensor(x)
                tw = Tensor(ps["w"], requires_grad=True, name="w")
                tb = Tensor(ps["b"], requires_grad=True, name="b")
                tg = Tensor(ps["g"], requires_grad=True, name="g")
                tbe = Tensor(ps["be"], requires_grad=True, name="be")
                h = tx
                if use_bn:
                    h = batch_norm(h, tg, tbe, np.zeros(d), np.ones(d), train=True)
                if use_relu:
                    h = relu(h)
                logits = add(matmul(h, tw), tb)
                ce = softmax_cross_entropy(logits, labels)
                reg = scale(row_sqnorm_mean(logits), 0.01)
                return add_scalar(ce, reg), {"w": tw, "b": tb, "g": tg, "be": tbe}

            def add_scalar(a, b):
                return add(a, b)

            loss, leaves = build(params)
            _, analytic = loss_and_grads(loss, leaves)
            numeric = finite_diff(lambda ps: build(ps)[0].item(), params)
            assert_grads_close(analytic, numeric)


class TestStopGradient:
    def test_blocks_backward(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True, name="x")
        frozen = stop_gradient(x)
        loss = sum_all(square(frozen))
        val, grads = loss_and_grads(loss, {"x": x})
        assert val == pytest.approx(30.0)
        np.testing.assert_array_equal(grads["x"], np.zeros((2, 2)))

    def test_partial_block(self):
        # y = x^2 + sg(x): gradient should be exactly 2x
        x = Tensor(np.array([[1.0, -2.0]]), requires_grad=True, name="x")
        loss = sum_all(add(square(x), stop_gradient(x)))
        _, grads = loss_and_grads(loss, {"x": x})
        np.testing.assert_allclose(grads["x"], np.array([[2.0, -4.0]]))

    def test_forward_value_passes_through(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        np.testing.assert_array_equal(stop_gradient(x).data, x.data)


class TestTapeSemantics:
    def test_reused_node_accumulates(self):
        # loss = sum(x*x) built by reusing the same node twice
        x = Tensor(np.array([[2.0, 3.0]]), requires_grad=True, name="x")
        loss = sum_all(mul(x, x))
        _, grads = loss_and_grads(loss, {"x": x})
        np.testing.assert_allclose(grads["x"], np.array([[4.0, 6.0]]))

    def test_diamond_graph(self):
        x = Tensor(np.array([[1.5, -0.5]]), requires_grad=True, name="x")
        a = scale(x, 2.0)
        b = scale(x, 3.0)
        loss = sum_all(mul(a, b))  # 6 x^2 -> grad 12 x
        _, grads = loss_and_grads(loss, {"x": x})
        np.testing.assert_allclose(grads["x"], np.array([[18.0, -6.0]]))

    def test_unreached_leaf_gets_zero(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True, name="x")
        y = Tensor(np.ones((2, 2)), requires_grad=True, name="y")
        loss = sum_all(square(x))
        _, grads = loss_and_grads(loss, {"x": x, "y": y})
        np.testing.assert_array_equal(grads["y"], np.zeros((2, 2)))

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(
                rng.standard_normal((8, 5)).astype(np.float32),
                requires_grad=False,
            )
            w = Tensor(
                rng.standard_normal((5, 3)).astype(np.float32),
                requires_grad=True,
                name="w",
            )
            labels = rng.integers(0, 3, size=8)
            loss = softmax_cross_entropy(matmul(x, w), labels)
            v, g = loss_and_grads(loss, {"w": w})
            return v, g["w"]

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)

    def test_float32_graph_stays_float32(self):
        x = Tensor(np.ones((4, 3), dtype=np.float32))
        w = Tensor(
            np.ones((3, 2), dtype=np.float32), requires_grad=True, name="w"
        )
        loss = softmax_cross_entropy(matmul(x, w), np.zeros(4, dtype=np.int64))
        _, grads = loss_and_grads(loss, {"w": w})
        assert grads["w"].dtype == np.float32


class TestErrors:
    def test_shape_mismatch_names_node(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((4, 5)), requires_grad=True)
        with pytest.raises(GraphError, match="first_layer"):
            matmul(x, w, name="first_layer")

    def test_label_out_of_range(self):
        logits = Tensor(np.zeros((2, 3)), requires_grad=True)
        with pytest.raises(GraphError, match="label"):
            softmax_cross_entropy(logits, np.array([0, 3]))

    def test_non_finite_loss_raises(self):
        x = Tensor(np.array([[np.inf, 1.0]]), requires_grad=True, name="x")
        loss = sum_all(x, name="bad_sum")
        with pytest.raises(NonFiniteError, match="bad_sum"):
            loss_and_grads(loss, {"x": x})

    def test_backward_needs_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GraphError, match="scalar"):
            backward(square(x))

    def test_bn_batch_of_one(self):
        x = Tensor(np.ones((1, 3)))
        g = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(GraphError, match="size 1"):
            batch_norm(x, g, b, np.zeros(3), np.ones(3), train=True)

    def test_dropout_needs_rng_in_train(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GraphError, match="RNG"):
            dropout(x, 0.5, None, train=True)


class TestBatchNormRunningStats:
    def test_values_match_train_mode_bitwise(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((9, 4)).astype(np.float32)
        g = rng.standard_normal(4).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        rm, rv = np.zeros(4, np.float32), np.ones(4, np.float32)
        node = batch_norm(Tensor(x), Tensor(g), Tensor(b), rm, rv, train=True)
        np.testing.assert_array_equal(batch_norm_values(x, g, b), node.data)

    def test_running_buffers_update(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((16, 3)) * 2.0 + 1.0)
        g = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        rm, rv = np.zeros(3), np.ones(3)
        batch_norm(x, g, b, rm, rv, train=True, momentum=0.1)
        mean = x.data.mean(axis=0)
        var_unbiased = x.data.var(axis=0) * (16 / 15)
        np.testing.assert_allclose(rm, 0.1 * mean)
        np.testing.assert_allclose(rv, 0.9 * 1.0 + 0.1 * var_unbiased)

    def test_eval_mode_does_not_touch_buffers(self):
        x = Tensor(np.ones((4, 3)) * 5.0)
        g = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        rm, rv = np.zeros(3), np.ones(3)
        batch_norm(x, g, b, rm, rv, train=False)
        np.testing.assert_array_equal(rm, np.zeros(3))
        np.testing.assert_array_equal(rv, np.ones(3))

    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((64, 5)) * 3.0 - 2.0)
        g = Tensor(np.ones(5), requires_grad=True)
        b = Tensor(np.zeros(5), requires_grad=True)
        out = batch_norm(x, g, b, np.zeros(5), np.ones(5), train=True)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-3)


class TestDropout:
    def test_eval_is_identity_and_consumes_no_rng(self):
        rng = np.random.default_rng(10)
        before = rng.bit_generator.state
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        out = dropout(x, 0.5, rng, train=False)
        np.testing.assert_array_equal(out.data, x.data)
        assert rng.bit_generator.state == before

    def test_given_mask_replaces_the_draw(self):
        rng = np.random.default_rng(12)
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        drawn = dropout(x, 0.5, np.random.default_rng(12), train=True)
        mask = dropout_mask(x.shape, 0.5, rng, x.dtype)
        before = rng.bit_generator.state
        out = dropout(x, 0.5, rng, train=True, mask=mask)
        np.testing.assert_array_equal(out.data, drawn.data)
        assert rng.bit_generator.state == before

    def test_inverted_scaling_preserves_expectation(self):
        rng = np.random.default_rng(11)
        x = Tensor(np.ones((2000, 50)))
        out = dropout(x, 0.3, rng, train=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7)
