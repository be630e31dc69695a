"""SGD update rule and the plateau scheduler against scripted traces."""

from __future__ import annotations

import numpy as np
import pytest

from batchcl.engine import NonFiniteError, SGD, PlateauScheduler


class TestSGD:
    def test_update_rule(self):
        params = {"w": np.array([1.0, 2.0], dtype=np.float32)}
        grads = {"w": np.array([0.5, -1.0], dtype=np.float32)}
        SGD(lr=0.1).step(params, grads)
        np.testing.assert_allclose(params["w"], [0.95, 2.1], rtol=1e-6)

    def test_in_place(self):
        w = np.ones(3, dtype=np.float32)
        params = {"w": w}
        SGD(lr=1.0).step(params, {"w": np.ones(3, dtype=np.float32)})
        np.testing.assert_array_equal(w, np.zeros(3))

    def test_rejects_non_finite_grad(self):
        params = {"w": np.ones(2)}
        with pytest.raises(NonFiniteError, match="'w'"):
            SGD(lr=0.1).step(params, {"w": np.array([1.0, np.nan])})

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)

    def test_descends_convex_quadratic(self):
        # f(w) = 0.5 w' A w with A diag(1..5); lr below 2/L keeps it monotone
        a = np.arange(1.0, 6.0)
        params = {"w": np.full(5, 3.0)}
        opt = SGD(lr=0.1)
        losses = []
        for _ in range(100):
            losses.append(0.5 * float(a @ (params["w"] ** 2)))
            opt.step(params, {"w": a * params["w"]})
        assert all(l2 < l1 for l1, l2 in zip(losses, losses[1:]))


class TestPlateauScheduler:
    def test_scripted_trace(self):
        # factor .5, patience 2: reduce after the 3rd consecutive bad epoch
        opt = SGD(lr=0.1)
        sched = PlateauScheduler(opt, factor=0.5, patience=2, min_delta=1e-4)
        trace = [
            (1.0, 0.1),   # first value becomes best
            (0.9, 0.1),   # improvement
            (0.9, 0.1),   # bad 1 (within min_delta)
            (0.95, 0.1),  # bad 2
            (0.91, 0.05),  # bad 3 -> reduce
            (0.905, 0.05),  # bad 1 again (counter was reset)
            (0.5, 0.05),  # improvement resets
            (0.6, 0.05),
            (0.6, 0.05),
            (0.6, 0.025),  # third bad epoch after reset -> reduce
        ]
        for metric, expected_lr in trace:
            assert sched.step(metric) == pytest.approx(expected_lr)

    def test_min_delta_boundary(self):
        opt = SGD(lr=1.0)
        sched = PlateauScheduler(opt, factor=0.5, patience=0, min_delta=0.1)
        sched.step(1.0)
        # drop of exactly min_delta is NOT an improvement
        assert sched.step(0.9) == pytest.approx(0.5)
        # but a drop strictly greater is
        sched2 = PlateauScheduler(SGD(lr=1.0), factor=0.5, patience=0, min_delta=0.1)
        sched2.step(1.0)
        assert sched2.step(0.89) == pytest.approx(1.0)

    def test_min_lr_floor(self):
        opt = SGD(lr=1e-5)
        sched = PlateauScheduler(opt, factor=0.5, patience=0, min_lr=1e-5)
        sched.step(1.0)
        sched.step(2.0)
        assert opt.lr == pytest.approx(1e-5)
