"""Engine gradients against a central-difference oracle, plus the semantics of
the tape the per-op oracle runs on."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    add,
    assert_matches_fd,
    batch_norm,
    batch_norm_values,
    cross_entropy,
    distance,
    dropout,
    finite_diff_params,
    matmul,
    mul,
    relu,
    scale,
    square,
    sum_all,
    tape_grads,
)

import batchcl.engine
from batchcl.engine import (
    GraphError,
    NonFiniteError,
    dropout_mask,
    loss_and_grads,
    softmax_cross_entropy,
    stacked_distance,
)
from batchcl.engine.autodiff import BN_MOMENTUM, Tensor, backward


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
                return cross_entropy(logits, labels)

            loss = build(params)
            _, analytic = tape_grads(
                loss, {}
            )  # smoke: no leaves requested is fine
            t = {k: Tensor(v, requires_grad=True, name=k) for k, v in params.items()}
            h = relu(add(matmul(Tensor(x), t["w1"]), t["b1"]))
            logits = add(matmul(h, t["w2"]), t["b2"])
            loss = cross_entropy(logits, labels)
            _, analytic = tape_grads(loss, t)
            numeric = finite_diff_params(lambda: build(params).item(), params)
            assert_matches_fd(analytic, numeric)

    def test_cross_entropy_value_and_weighted_grad(self):
        rng = np.random.default_rng(18)
        for trial in range(5):
            params = random_params(rng, {"z": (5, 4)})
            labels = rng.integers(0, 4, size=5)
            value, grad = softmax_cross_entropy(params["z"], labels, 0.7)
            numeric = finite_diff_params(
                lambda: float(softmax_cross_entropy(params["z"], labels, 0.7)[0]), params
            )
            assert_matches_fd({"z": grad}, numeric)
            assert value == softmax_cross_entropy(params["z"], labels)[0] * 0.7

    def test_elementwise_and_reductions(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            params = random_params(rng, {"a": (3, 4), "b": (3, 4)})

            def build(ps):
                ta = Tensor(ps["a"], requires_grad=True, name="a")
                tb = Tensor(ps["b"], requires_grad=True, name="b")
                u = mul(add(ta, scale(tb, -1.0)), add(ta, tb))
                v = add(square(u), scale(mul(ta, tb), 0.5))
                return sum_all(v)

            loss = build(params)
            leaves = {p.name: p for p in loss.parents}
            # rebuild to get handles on the actual leaves
            ta = Tensor(params["a"], requires_grad=True, name="a")
            tb = Tensor(params["b"], requires_grad=True, name="b")
            u = mul(add(ta, scale(tb, -1.0)), add(ta, tb))
            v = add(square(u), scale(mul(ta, tb), 0.5))
            loss = sum_all(v)
            _, analytic = tape_grads(loss, {"a": ta, "b": tb})
            numeric = finite_diff_params(lambda: build(params).item(), params)
            assert_matches_fd(analytic, numeric)

    def test_row_norm_means(self):
        """Unmasked, against a zero target: the mean squared row norm of x
        over its feature count, as a value and as central differences."""
        rng = np.random.default_rng(2)
        zero = np.zeros((1, 6, 5))
        for trial in range(10):
            params = random_params(rng, {"x": (6, 5)})

            def build(ps):
                tx = Tensor(ps["x"], requires_grad=True, name="x")
                return distance([tx], [zero], None), tx

            loss, tx = build(params)
            want = (params["x"] ** 2).sum(axis=1).mean() / 5
            assert loss.item() == pytest.approx(want, rel=1e-12)
            _, analytic = tape_grads(loss, {"x": tx})
            numeric = finite_diff_params(lambda: build(params)[0].item(), params)
            assert_matches_fd(analytic, numeric)

    def test_masked_row_norm_means(self):
        """Routed: the mean squared row norm of the owned rows' differences
        over the feature count, as a value and as central differences."""
        rng = np.random.default_rng(3)
        for trial in range(10):
            params = random_params(rng, {"x": (6, 5)})
            target = rng.standard_normal((1, 6, 5))
            owner = np.where(rng.random(6) < 0.5, 0, -1)

            def build(ps):
                tx = Tensor(ps["x"], requires_grad=True, name="x")
                return distance([tx], [target], owner), tx

            loss, tx = build(params)
            if (owner == 0).any():
                rows = ((target[0] - params["x"]) ** 2)[owner == 0]
                assert loss.item() == pytest.approx(rows.sum(axis=1).mean() / 5, rel=1e-12)
            _, analytic = tape_grads(loss, {"x": tx})
            numeric = finite_diff_params(lambda: build(params)[0].item(), params)
            assert_matches_fd(analytic, numeric)

    def test_mean_square_grads(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            params = random_params(rng, {"x": (6, 5)})
            target = rng.standard_normal((1, 6, 5))
            owner = np.where(rng.random(6) < 0.5, 0, -1)
            for m in (None, owner):
                def build(ps, m=m):
                    tx = Tensor(ps["x"], requires_grad=True, name="x")
                    return distance([tx], [target], m), tx

                loss, tx = build(params)
                _, analytic = tape_grads(loss, {"x": tx})
                numeric = finite_diff_params(lambda: build(params)[0].item(), params)
                assert_matches_fd(analytic, numeric)

    def test_mean_square_values(self):
        """Against a zero target: the mean square of x."""
        rng = np.random.default_rng(13)
        x = rng.standard_normal((5, 3))
        zero = np.zeros((1, 5, 3))
        got = distance([Tensor(x)], [zero], None).item()
        assert got == pytest.approx((x ** 2).mean(), rel=1e-12)
        owner = np.array([0, -1, 0, -1, -1])
        tx = Tensor(x, requires_grad=True, name="x")
        loss = distance([tx], [zero], owner)
        assert loss.item() == pytest.approx((x[[0, 2]] ** 2).mean(), rel=1e-12)
        _, grads = tape_grads(loss, {"x": tx})
        assert np.all(grads["x"][owner == -1] == 0.0)
        empty = distance([Tensor(x)], [zero], np.full(5, -1))
        assert empty.item() == 0.0
        with pytest.raises(GraphError, match="owners of shape .3,. do not fit 5 rows"):
            distance([Tensor(x)], [zero], np.zeros(3, int))

    @pytest.mark.parametrize("routed", [True, False])
    def test_stacked_distance_grads(self, routed):
        """Central differences with each row routed to one teacher, and with
        every row counting for every teacher."""
        rng = np.random.default_rng(14)
        shapes = {"s0": (6, 5), "s1": (6, 3)}
        for trial in range(5):
            params = random_params(rng, shapes)
            targets = [rng.standard_normal((3, *shape)) for shape in shapes.values()]
            # each row has one teacher at most; teacher 2 has no rows in the batch
            owner = rng.integers(-1, 2, size=6)
            m = owner if routed else None

            def build(ps):
                students = [Tensor(ps[k], requires_grad=True, name=k) for k in shapes]
                return distance(students, targets, m), students

            loss, students = build(params)
            _, analytic = tape_grads(loss, dict(zip(shapes, students)))
            numeric = finite_diff_params(lambda: build(params)[0].item(), params)
            assert_matches_fd(analytic, numeric)

    def test_stacked_distance_is_the_per_term_graph_bitwise(self):
        """Against a sum of one-teacher nodes, joined with add in teacher
        order. Each row has one teacher at most, so the stacked node's
        gathered term per row must add to the same bits as the k terms of
        which all but one are zero; a second consumer of each student makes
        the order in which gradients are accumulated show in the bits."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((7, 5)).astype(np.float32)
        targets = [rng.standard_normal((4, 7, 5)).astype(np.float32) for _ in range(2)]
        owner = rng.integers(-1, 4, size=7)
        owner[owner == 1] = -1  # teacher 1 has no rows

        def run(distance):
            leaf = Tensor(x, requires_grad=True, name="x")
            students = [relu(leaf), square(leaf)]
            other = add(sum_all(students[0]), sum_all(students[1]))
            loss = add(other, scale(distance(students), 0.3))
            return tape_grads(loss, {"x": leaf})

        def per_teacher_graph(students):
            total = None
            for j in range(4):
                term = distance(
                    students, [t[j : j + 1] for t in targets], np.where(owner == j, 0, -1)
                )
                total = term if total is None else add(total, term)
            return total

        got = run(lambda ss: distance(ss, targets, owner))
        want = run(per_teacher_graph)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1]["x"].tobytes() == want[1]["x"].tobytes()

    def test_stacked_distance_unmasked_is_the_numpy_mean_bitwise(self):
        """Without masks the value is numpy's mean over rows and features
        and the gradient is 2 g d / size, bit for bit, on float32 inputs.
        A row sum divided by the row count, as an all-ones mask computes
        it, rounds differently on many of these shapes."""
        rng = np.random.default_rng(17)
        for trial in range(60):
            k = int(rng.integers(1, 4))
            rows = int(rng.integers(2, 40))
            widths = [int(rng.integers(1, 40)) for _ in range(int(rng.integers(1, 4)))]
            xs = [rng.standard_normal((rows, w)).astype(np.float32) for w in widths]
            targets = [rng.standard_normal((k, rows, w)).astype(np.float32) for w in widths]
            value, grads = stacked_distance(xs, targets, None, 0.3)
            total = None
            for j in range(k):
                per_teacher = None
                for a, t in zip(xs, targets):
                    d = t[j] - a
                    term = (d * d).mean()
                    per_teacher = term if per_teacher is None else per_teacher + term
                total = per_teacher if total is None else total + per_teacher
            want = np.float32(total) * np.float32(0.3)
            assert np.float32(value).tobytes() == want.tobytes(), (trial, k, rows, widths)
            g = np.float32(0.3)
            for i, (a, t) in enumerate(zip(xs, targets)):
                assert grads[i].shape == (k, *a.shape)
                for j in range(k):
                    want_j = -((g * 2.0 / a.size) * (t[j] - a))
                    assert grads[i][j].tobytes() == want_j.tobytes(), (trial, i, j)

    @pytest.mark.parametrize("routed", [True, False])
    def test_stacked_distance_values(self, routed):
        """Routed, the mean square over the owned rows of each row's own
        teacher; unrouted, the sum over teachers of the mean square over all
        rows. The shape checks hold either way."""
        rng = np.random.default_rng(15)
        s = rng.standard_normal((4, 3))
        targets = rng.standard_normal((2, 4, 3))
        owner = np.array([0, -1, 0, 0])
        m = owner if routed else None
        got = distance([Tensor(s)], [targets], m).item()
        sq = (targets - s) ** 2
        want = sq[0][owner == 0].mean() if routed else sum(sq[j].mean() for j in range(2))
        assert got == pytest.approx(want, rel=1e-12)
        with pytest.raises(GraphError, match="target stack"):
            distance([Tensor(s)], [targets[:, :3]], m)
        if routed:
            with pytest.raises(GraphError, match="do not fit 4 rows"):
                distance([Tensor(s)], [targets], owner[:1])
        with pytest.raises(GraphError, match="do not fit 2 teachers"):
            distance([Tensor(s), Tensor(s)], [targets, targets[:1]], m)
        with pytest.raises(GraphError, match="students"):
            distance([Tensor(s)], [], m)
        with pytest.raises(GraphError, match="at least one teacher"):
            distance([Tensor(s)], [targets[:0]], m)

    @pytest.mark.parametrize("stacked", [True, False])
    def test_stacked_distance_selected_rows_only(self, stacked):
        """The selected rows go to the one teacher of a stack of one, or to
        the last teacher of a stack of three."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 3))
        target = rng.standard_normal((3 if stacked else 1, 5, 3))
        j = len(target) - 1
        owner = np.array([j, -1, j, -1, -1])
        tx = Tensor(x, requires_grad=True, name="x")
        loss = distance([tx], [target], owner)
        want = ((target[j] - x) ** 2)[[0, 2]].mean()
        assert loss.item() == pytest.approx(want, rel=1e-12)
        # deselected rows get exactly zero gradient
        _, grads = tape_grads(loss, {"x": tx})
        assert np.all(grads["x"][owner == -1] == 0.0)
        assert np.all(grads["x"][owner == j] != 0.0)

    @pytest.mark.parametrize("float32", [True, False])
    def test_stacked_distance_empty_selection_is_zero(self, float32):
        dtype = np.float32 if float32 else np.float64
        tx = Tensor(np.ones((4, 3), dtype), requires_grad=True, name="x")
        loss = distance([tx], [np.zeros((2, 4, 3), dtype)], np.full(4, -1))
        assert loss.item() == 0.0
        _, grads = tape_grads(loss, {"x": tx})
        assert np.all(grads["x"] == 0.0)

    @pytest.mark.parametrize("float32", [True, False])
    def test_stacked_distance_gathers_each_rows_teacher(self, float32):
        """With owners every student gets one (B, D) contribution, whatever k
        is, and a row of no teacher gets an exact +0, in either precision."""
        dtype = np.float32 if float32 else np.float64
        rng = np.random.default_rng(18)
        s = rng.standard_normal((5, 3)).astype(dtype)
        targets = rng.standard_normal((4, 5, 3)).astype(dtype)
        owner = np.array([-1, 2, 0, 2, -1])
        _, (grad,) = stacked_distance([s], [targets], owner, 0.5)
        assert grad.shape == (1, 5, 3)
        assert np.signbit(grad[0, [0, 4]]).sum() == 0 and not grad[0, [0, 4]].any()
        _, (stack,) = stacked_distance([s], [targets], None, 0.5)
        assert stack.shape == (4, 5, 3)

    def test_stacked_distance_all_memory_batch_is_exact_zero(self):
        """A batch of memory rows only: an exact 0 value and +0 gradients."""
        rng = np.random.default_rng(19)
        s = rng.standard_normal((6, 3)).astype(np.float32)
        targets = np.stack([s + 1.0, -s]).astype(np.float32)
        value, (grad,) = stacked_distance([s], [targets], np.full(6, -1), 0.7)
        assert np.float32(value).tobytes() == np.float32(0.0).tobytes()
        assert grad.shape == (1, 6, 3)
        assert not grad.any() and not np.signbit(grad).any()

    def test_stacked_distance_rejects_an_owner_beyond_the_stack(self):
        s = np.ones((5, 3), np.float32)
        targets = np.zeros((4, 5, 3), np.float32)
        for owner, row in (([0, 4, -1, 1, 3], 1), ([0, 1, 2, 3, 9], 4)):
            with pytest.raises(GraphError, match=f"row {row} routed to teacher .* of 4"):
                stacked_distance([s], [targets], np.array(owner))

    def test_stacked_distance_absent_teacher_contributes_exact_zero(self):
        """A teacher that owns no row of the batch changes neither the value
        nor the gradient, bit for bit, against the stack without it."""
        rng = np.random.default_rng(20)
        s = rng.standard_normal((7, 4)).astype(np.float32)
        targets = rng.standard_normal((3, 7, 4)).astype(np.float32)
        owner = np.array([0, 2, -1, 2, 0, -1, 2])  # teacher 1 owns nothing
        with_absent = stacked_distance([s], [targets], owner, 1.3)
        without = stacked_distance([s], [targets[[0, 2]]], np.where(owner == 2, 1, owner), 1.3)
        assert np.float32(with_absent[0]).tobytes() == np.float32(without[0]).tobytes()
        assert with_absent[1][0].tobytes() == without[1][0].tobytes()

    def test_stacked_distance_bad_mask_shape(self):
        x = Tensor(np.ones((4, 3)), name="x")
        with pytest.raises(GraphError, match="owners of shape .3,. do not fit 4 rows"):
            distance([x], [np.zeros((1, 4, 3))], np.zeros(3, int))
        with pytest.raises(GraphError, match="owners of shape .1, 4. do not fit 4 rows"):
            distance([x], [np.zeros((1, 4, 3))], np.zeros((1, 4), int))

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
                return cross_entropy(y, labels), {"x": tx, "gamma": tg, "beta": tb}

            loss, leaves = build(params)
            _, analytic = tape_grads(loss, leaves)
            numeric = finite_diff_params(lambda: build(params)[0].item(), params)
            assert_matches_fd(analytic, numeric)

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
        _, analytic = tape_grads(loss, leaves)
        numeric = finite_diff_params(lambda: build(params)[0].item(), params)
        assert_matches_fd(analytic, numeric)

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
        _, analytic = tape_grads(loss, {"x": tx})
        numeric = finite_diff_params(lambda: build(params)[0].item(), params)
        assert_matches_fd(analytic, numeric)

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
                ce = cross_entropy(logits, labels)
                reg = scale(distance([logits], [np.zeros((1, n, c))], None, False), 0.01)
                return add_scalar(ce, reg), {"w": tw, "b": tb, "g": tg, "be": tbe}

            def add_scalar(a, b):
                return add(a, b)

            loss, leaves = build(params)
            _, analytic = tape_grads(loss, leaves)
            numeric = finite_diff_params(lambda: build(params)[0].item(), params)
            assert_matches_fd(analytic, numeric)


class TestTapeSemantics:
    def test_reused_node_accumulates(self):
        # loss = sum(x*x) built by reusing the same node twice
        x = Tensor(np.array([[2.0, 3.0]]), requires_grad=True, name="x")
        loss = sum_all(mul(x, x))
        _, grads = tape_grads(loss, {"x": x})
        np.testing.assert_allclose(grads["x"], np.array([[4.0, 6.0]]))

    def test_diamond_graph(self):
        x = Tensor(np.array([[1.5, -0.5]]), requires_grad=True, name="x")
        a = scale(x, 2.0)
        b = scale(x, 3.0)
        loss = sum_all(mul(a, b))  # 6 x^2 -> grad 12 x
        _, grads = tape_grads(loss, {"x": x})
        np.testing.assert_allclose(grads["x"], np.array([[18.0, -6.0]]))

    def test_unreached_leaf_gets_zero(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True, name="x")
        y = Tensor(np.ones((2, 2)), requires_grad=True, name="y")
        loss = sum_all(square(x))
        _, grads = tape_grads(loss, {"x": x, "y": y})
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
            loss = cross_entropy(matmul(x, w), labels)
            v, g = tape_grads(loss, {"w": w})
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
        loss = cross_entropy(matmul(x, w), np.zeros(4, dtype=np.int64))
        _, grads = tape_grads(loss, {"w": w})
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
            cross_entropy(logits, np.array([0, 3]))

    def test_non_finite_loss_raises(self):
        ran = []
        for bad in (np.float32(np.inf), np.float32(np.nan)):
            with pytest.raises(NonFiniteError, match="non-finite loss"):
                loss_and_grads(bad, lambda: ran.append(1))
        assert ran == []
        assert loss_and_grads(np.float32(0.5), lambda: {"w": 1}) == (0.5, {"w": 1})

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
        batch_norm(x, g, b, rm, rv, train=True)
        assert BN_MOMENTUM == 0.1
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


def _code_loads(node: ast.AST, enclosing: tuple[str, ...] = ()):
    """Names loaded in code under ``node`` (as a Name or an attribute), less
    those inside the definition of the same name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        enclosing = (*enclosing, node.name)
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
        name = node.id if isinstance(node, ast.Name) else node.attr
        if name not in enclosing:
            yield name
    for child in ast.iter_child_nodes(node):
        yield from _code_loads(child, enclosing)


def test_every_engine_export_has_a_caller_in_the_package():
    """Ops only tests call belong in tests/helpers.py, not in the engine.
    The re-export in engine/__init__.py and docstring mentions do not count."""
    pkg = Path(batchcl.engine.__file__).parent.parent
    used = set()
    for path in pkg.rglob("*.py"):
        if path != pkg / "engine" / "__init__.py":
            used.update(_code_loads(ast.parse(path.read_text())))
    assert sorted(set(batchcl.engine.__all__) - used) == []


TAPE_CORE = {"Tensor", "_node", "_accumulate"}


def test_no_module_but_the_engine_loads_the_tape():
    """The tape is the per-op oracle's engine: no production path may build it."""
    pkg = Path(batchcl.engine.__file__).parent.parent
    for path in pkg.rglob("*.py"):
        if path == pkg / "engine" / "autodiff.py":
            continue
        tree = ast.parse(path.read_text())
        loads = set(_code_loads(tree)) | {
            alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not loads & TAPE_CORE, path
