"""SGD update rule, the plateau scheduler against scripted traces, and the
epoch loop that runs them."""

from __future__ import annotations

import numpy as np
import pytest

from batchcl.engine import NonFiniteError, SGD, PlateauScheduler, train_epochs
from batchcl.engine.optim import PLATEAU_MIN_DELTA


W = {"w": slice(0, 2)}
ONE = {"w": slice(0, 1)}


class TestSGD:
    def test_update_rule(self):
        params = np.array([1.0, 2.0], dtype=np.float32)
        grads = np.array([0.5, -1.0], dtype=np.float32)
        want = params - np.float32(0.1) * grads
        SGD(lr=0.1).step(params, grads, W)
        assert params.tobytes() == want.tobytes()
        np.testing.assert_allclose(params, [0.95, 2.1], rtol=1e-6)
        # the step spends its gradient: scaled by the learning rate in place
        np.testing.assert_array_equal(grads, np.float32(0.1) * np.array([0.5, -1.0], np.float32))

    def test_in_place(self):
        w = np.ones(3, dtype=np.float32)
        params = w[:]
        SGD(lr=1.0).step(params, np.ones(3, dtype=np.float32), {"w": slice(0, 3)})
        np.testing.assert_array_equal(w, np.zeros(3))

    def test_rejects_non_finite_grad(self):
        params = np.ones(2)
        with pytest.raises(NonFiniteError, match="'w'"):
            SGD(lr=0.1).step(params, np.array([1.0, np.nan]), W)

    def test_non_finite_last_gradient_moves_nothing(self):
        # the whole step is checked before any parameter moves; an inf in
        # the last parameter's slice names that parameter
        slices = {name: slice(3 * i, 3 * i + 3) for i, name in enumerate("abc")}
        params = np.ones(9, dtype=np.float32)
        grads = np.full(9, 0.5, dtype=np.float32)
        grads[7] = np.inf
        with pytest.raises(NonFiniteError, match="parameter 'c'"):
            SGD(lr=0.1).step(params, grads, slices)
        np.testing.assert_array_equal(params, np.ones(9))

    def test_first_non_finite_slice_is_named(self):
        slices = {name: slice(3 * i, 3 * i + 3) for i, name in enumerate("abc")}
        grads = np.zeros(9, dtype=np.float32)
        grads[[4, 8]] = np.nan
        with pytest.raises(NonFiniteError, match="parameter 'b'"):
            SGD(lr=0.1).step(np.ones(9, dtype=np.float32), grads, slices)

    def test_finite_sum_overflow_passes_the_scan(self):
        # every entry is finite, but their float32 sum overflows to inf
        params = np.zeros(4, dtype=np.float32)
        grads = np.full(4, 3e38, dtype=np.float32)
        want = -(np.float32(1e-38) * grads)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.add.reduce(grads))
            SGD(lr=1e-38).step(params, grads, {"w": slice(0, 4)})
        np.testing.assert_array_equal(params, want)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)

    def test_descends_convex_quadratic(self):
        # f(w) = 0.5 w' A w with A diag(1..5); lr below 2/L keeps it monotone
        a = np.arange(1.0, 6.0)
        params = np.full(5, 3.0)
        opt = SGD(lr=0.1)
        losses = []
        for _ in range(100):
            losses.append(0.5 * float(a @ (params ** 2)))
            opt.step(params, a * params, {"w": slice(0, 5)})
        assert all(l2 < l1 for l1, l2 in zip(losses, losses[1:]))


class TestPlateauScheduler:
    # the fixed schedule: halve after more than 5 bad epochs, improvement
    # means a drop beyond 1e-4, floor 1e-5
    def test_scripted_trace(self):
        # reduce on the 6th consecutive bad epoch
        opt = SGD(lr=0.1)
        sched = PlateauScheduler(opt)
        trace = [
            (1.0, 0.1),    # first value becomes best
            (0.9, 0.1),    # improvement
            (0.9, 0.1),    # bad 1 (within min_delta)
            (0.95, 0.1),   # bad 2
            (0.91, 0.1),   # bad 3
            (0.89995, 0.1),  # bad 4 (a drop smaller than min_delta)
            (0.92, 0.1),   # bad 5
            (0.91, 0.05),  # bad 6 -> reduce
            (0.905, 0.05),  # bad 1 again (counter was reset)
            (0.5, 0.05),   # improvement resets
            (0.6, 0.05),
            (0.6, 0.05),
            (0.6, 0.05),
            (0.6, 0.05),
            (0.6, 0.05),
            (0.6, 0.025),  # sixth bad epoch after reset -> reduce
        ]
        for metric, expected_lr in trace:
            assert sched.step(metric) == pytest.approx(expected_lr)

    def test_min_delta_boundary(self):
        def lr_after(last):
            sched = PlateauScheduler(SGD(lr=1.0))
            for metric in [1.0] * 6:  # best, then five bad epochs
                sched.step(metric)
            return sched.step(last)

        # a drop of exactly min_delta is NOT an improvement: 6th bad epoch
        assert lr_after(1.0 - PLATEAU_MIN_DELTA) == pytest.approx(0.5)
        # but a drop strictly greater is
        assert lr_after(1.0 - 1.5 * PLATEAU_MIN_DELTA) == pytest.approx(1.0)

    def test_min_lr_floor(self):
        opt = SGD(lr=1e-5)
        sched = PlateauScheduler(opt)
        for metric in [1.0] + [2.0] * 6:
            sched.step(metric)
        assert sched.bad_epochs == 0  # the reduction happened
        assert opt.lr == pytest.approx(1e-5)


def _unit_grad_run(epoch_losses, lr=0.1):
    """train_epochs on w = 0 with gradient 1 per batch.

    ``epoch_losses`` lists each epoch's batch losses. Each SGD step moves w
    by exactly the current LR, so the returned LRs (one per batch, read
    from successive values of w) trace the schedule.
    """
    params = np.zeros(1)
    seen = []
    epochs = iter(epoch_losses)

    def step(value):
        seen.append(float(params[0]))
        return value, np.ones(1)

    means = train_epochs(params, ONE, lr, len(epoch_losses), lambda: next(epochs), step)
    seen.append(float(params[0]))
    return means, [a - b for a, b in zip(seen, seen[1:])]


class TestTrainEpochs:
    def test_per_epoch_means_in_order(self):
        means, lrs = _unit_grad_run([[1.0, 3.0], [0.5], [4.0, 0.0, 2.0]])
        assert means == [2.0, 0.5, 2.0]
        assert lrs == pytest.approx([0.1] * 6)

    def test_epoch_without_batches_records_nothing(self):
        # were the empty epoch counted as bad, the last batch would run at lr/2
        flat = [[1.0]] * 6
        means, lrs = _unit_grad_run(flat[:3] + [[]] + flat[3:] + [[1.0]])
        assert means == [1.0] * 7
        assert lrs == pytest.approx([0.1] * 7)

    def test_lr_halves_on_sixth_epoch_without_improvement(self):
        # epoch 1 sets the best; epochs 2-7 are bad 1-6, so epoch 8 runs at lr/2
        means, lrs = _unit_grad_run([[1.0]] * 8)
        assert means == [1.0] * 8
        assert lrs == pytest.approx([0.1] * 7 + [0.05])

    def test_non_finite_gradient_raises(self):
        params = np.zeros(2)
        with pytest.raises(NonFiniteError, match="'w'"):
            train_epochs(
                params, W, 0.1, 1, lambda: [0],
                lambda _: (1.0, np.array([1.0, np.inf])),
            )

    def test_fresh_schedule_per_call(self):
        params = np.zeros(1)
        for _ in range(2):
            train_epochs(params, ONE, 0.1, 8, lambda: [0], lambda _: (1.0, np.ones(1)))
        # each call runs 7 epochs at 0.1 and one at 0.05
        assert params[0] == pytest.approx(-2 * (7 * 0.1 + 0.05))
