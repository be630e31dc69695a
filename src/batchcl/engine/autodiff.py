"""Array-level arithmetic of the train step, and the tape the tests check it on.

Nothing in a training run builds a graph. The objectives' two ops,
``softmax_cross_entropy`` and ``stacked_distance``, take plain arrays and
return their value together with the gradients of their inputs. The
model's passes share ``batch_norm_arrays``, ``batch_norm_grads`` and
``dropout_mask``, and its hand-written backward carries the objectives'
gradients to the parameters. ``loss_and_grads`` is where every step checks
that its loss is finite before it runs that backward.

The define-by-run tape below (``Tensor``, ``_node``, ``_accumulate``,
``backward``, ``gradients``) is kept only as the engine of the per-op
oracle in the tests: each op computes its forward value eagerly and
records a closure that routes the upstream gradient to its inputs. There
is no general broadcasting, no GPU, no higher-order gradients.

Arrays are float32 in production; every op inherits the dtype of its
inputs, so tests can run the same arithmetic in float64 against a
finite-difference oracle.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np


class GraphError(Exception):
    """Structural problem while building or evaluating a graph (names the node)."""


class NonFiniteError(GraphError):
    """A loss value, a gradient or a batch statistic turned non-finite."""


def check_finite(values: np.ndarray, slices: Mapping[str, slice], what: str) -> None:
    """Raise :class:`NonFiniteError` naming the entry of ``slices`` whose
    slice of the flat ``values`` holds the first inf or nan.

    One reduce per call: an inf or nan entry makes the sum of all entries
    non-finite, and only then is ``values`` scanned (a sum of finite
    entries that merely overflowed passes the scan).
    """
    if not np.isfinite(np.add.reduce(values, axis=None)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            name = next(n for n, sl in slices.items() if sl.start <= bad[0] < sl.stop)
            raise NonFiniteError(f"non-finite {what} '{name}'")


def dropout_mask(
    shape: tuple[int, ...], p: float, rng: np.random.Generator, dtype
) -> np.ndarray:
    """Inverted-dropout multiplier: 0 for a dropped unit, 1/(1-p) for a kept one."""
    keep = (rng.random(shape) >= p).astype(dtype)
    return keep * np.asarray(1.0 / (1.0 - p), dtype=dtype)


BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def _row_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-2, keepdims=True)`` without numpy's Python wrapper.

    The bits are the same: both divide the same sum by the row count, and a
    float32 quotient rounds the same whether numpy divides in float32 or,
    as ``mean`` does, in float64.
    """
    return np.add.reduce(x, axis=-2, keepdims=True) / x.shape[-2]


def batch_norm_arrays(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, stats, train: bool):
    """Batch norm on plain arrays: ``(out, xhat, inv_std)``.

    This is the forward arithmetic of every pass that normalizes: the
    model's student, teacher and eval passes. ``x`` is ``(..., B, D)``, and
    ``gamma``, ``beta`` broadcast against it. In train mode the statistics
    are taken over the rows (axis -2) of each leading index, as ``mean``,
    ``d = x - mean``, ``var = mean(d * d)``, and ``stats``, a list or None,
    gets slice 0's ``(D,)`` mean and (biased) variance appended: the
    student of a stack is slice 0, and its teachers keep their buffers. The
    caller folds what a pass gathered into the running buffers with
    :func:`fold_batch_stats`. In eval mode ``stats`` is the ``(mean, var)``
    pair of running buffers that supplies the statistics. Both add
    ``BN_EPS`` to the variance.
    """
    if train:
        mean = _row_mean(x)
        d = x - mean
        var = _row_mean(d * d)
        if stats is not None:
            first = (0,) * (x.ndim - 1)  # row 0 of slice 0 of a stack; (0,) for one model
            stats.extend((mean[first], var[first]))
    else:
        mean, var = stats
        d = x - mean
    inv_std = (1.0 / np.sqrt(var + BN_EPS)).astype(x.dtype, copy=False)
    xhat = d * inv_std
    return gamma * xhat + beta, xhat, inv_std


def fold_batch_stats(running: np.ndarray, batch: np.ndarray, unbias: np.ndarray) -> None:
    """Fold a train pass's batch statistics into running buffers, in place.

    ``running``, ``batch`` and ``unbias`` share one layout of mean and
    variance slots; ``unbias`` is 1 on a mean slot and ``n / (n - 1)`` on
    a variance slot, which makes the variance unbiased. Each slot moves by
    momentum ``BN_MOMENTUM``. Multiplying a mean by 1 is exact, so each
    slot takes the products of a per-buffer update in the same order.
    """
    running *= 1.0 - BN_MOMENTUM
    running += (BN_MOMENTUM * batch) * unbias


def batch_norm_grads(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                     gamma: np.ndarray, train: bool):
    """Backward of :func:`batch_norm_arrays` on ``(B, D)`` arrays:
    ``(d gamma, d beta, d x)`` for the output gradient ``g``.

    In train mode the batch statistics depend on ``x``, so the gradient
    also flows through them.
    """
    dxhat = g * gamma
    if train:
        dx = (dxhat - _row_mean(dxhat) - xhat * _row_mean(dxhat * xhat)) * inv_std
    else:
        dx = dxhat * inv_std
    return np.add.reduce(g * xhat, axis=0), np.add.reduce(g, axis=0), dx


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray, weight=1.0, name: str = "cross_entropy"
):
    """Mean cross-entropy of softmax(logits) at integer labels, times ``weight``:
    ``(value, gradient with respect to the logits)``.

    The reductions are ufunc reduces, not ``ndarray`` methods, with the same
    bits: the mean is the same sum divided by the row count (see
    :func:`_row_mean`).
    """
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise GraphError(f"{name}: logits {logits.shape} vs labels {labels.shape}")
    n, c = logits.shape
    if np.minimum.reduce(labels, initial=0) < 0 or np.maximum.reduce(labels, initial=0) >= c:
        raise GraphError(
            f"{name}: label out of range [0, {c}) (got {int(labels.min())}..{int(labels.max())})"
        )
    g = np.asarray(weight, dtype=logits.dtype)
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    ez = np.exp(shifted)
    sez = np.add.reduce(ez, axis=1, keepdims=True)
    log_probs = shifted - np.log(sez)
    every_row = np.arange(n)
    value = np.asarray(-(np.add.reduce(log_probs[every_row, labels]) / n),
                       dtype=logits.dtype) * g
    probs = ez / sez
    probs[every_row, labels] -= 1.0
    return value, (g / n) * probs.astype(logits.dtype)


def stacked_distance(
    students: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    owner: np.ndarray | None = None,
    weight=1.0,
    name: str = "stacked_distance",
):
    """Squared distances of students to k teachers' targets, summed, times ``weight``.

    This is the one distance op of the engine: every distillation term is
    one call of it. ``students[i]`` is a ``(B, D_i)`` array and
    ``targets[i]`` the ``(k, B, D_i)`` stack of what k teachers put in its
    place (a constant: it gets no gradient). Term (j, i) is the squared
    difference of target j and student i, averaged over rows and over the
    D_i features, whatever the features are (taps or logits): the one
    normalization, so a term's scale does not grow with D_i.

    ``owner``, when given, is the constant ``(B,)`` integer array that
    routes each row to one teacher: ``owner[r] = j`` makes row r teacher
    j's, and a negative entry (-1, a memory row) makes it no teacher's. An
    entry of k or more names no teacher of the stack (GraphError). Term
    (j, i) averages over teacher j's rows only, and a teacher owning no row
    contributes exactly 0. Each row's own teacher is gathered once, so a
    student's gradient is one ``(B, D_i)`` contribution whatever k is, and
    a row of no teacher gets an exact +0. Without ``owner`` every row
    counts for every teacher. That mode takes the mean over the rows and
    features as numpy's ``mean`` rounds it, not a row sum divided by the
    count of a routed mode: the two round differently in float32, so
    routing every row to a teacher is not the same number.

    Returns ``(value, grads)``. The value adds the terms of one teacher in
    student order, then the teachers in order. ``grads[i]`` is the stack of
    contributions to the gradient of student i, summed from zero in stack
    order: without ``owner`` the ``(k, B, D_i)`` teachers' contributions
    in teacher order j = 0..k-1, the order a sum of k one-teacher
    distances adds them in; with ``owner`` the ``(1, B, D_i)`` gathered
    one, which adds to the same bits since every other teacher's share of
    a row is zero.
    """
    if not students or len(students) != len(targets):
        raise GraphError(f"{name}: {len(students)} students for {len(targets)} target stacks")
    dtype = students[0].dtype
    k, rows = len(targets[0]), students[0].shape[0]
    if k == 0:
        raise GraphError(f"{name}: needs at least one teacher")
    for i, (s, t) in enumerate(zip(students, targets)):
        if s.ndim != 2 or s.shape[0] != rows or t.shape != (k, *s.shape):
            raise GraphError(
                f"{name}: student {i} of shape {s.shape} and target stack of shape "
                f"{t.shape} do not fit {k} teachers of {rows} rows"
            )
    g = np.asarray(weight, dtype=dtype)
    if owner is None:
        diffs = [t - s for s, t in zip(students, targets)]
        denoms = [s.size for s in students]
        terms = [np.add.reduce(d * d, axis=(-2, -1)) / den for d, den in zip(diffs, denoms)]
    else:
        if owner.shape != (rows,):
            raise GraphError(f"{name}: owners of shape {owner.shape} do not fit {rows} rows")
        if np.maximum.reduce(owner, initial=-1) >= k:
            r = int(np.argmax(owner >= k))
            raise GraphError(f"{name}: row {r} routed to teacher {int(owner[r])} of {k}")
        m = (owner == np.arange(k)[:, None]).astype(dtype)
        # a row of no teacher reads teacher 0's target, at weight 0
        sel, owned = np.maximum(owner, 0), (owner >= 0).astype(dtype)
        every_row = np.arange(rows)
        diffs = [t[sel, every_row] - s for s, t in zip(students, targets)]
        counts = np.maximum(np.add.reduce(m, axis=1), 1)
        denoms = [counts * s.shape[1] for s in students]
        terms = [np.add.reduce(m * np.add.reduce(d * d, axis=-1), axis=-1) / den
                 for d, den in zip(diffs, denoms)]
    per_teacher = terms[0]
    for term in terms[1:]:
        per_teacher = per_teacher + term
    total = per_teacher[0]
    for term in per_teacher[1:]:
        total = total + term
    grads = []
    for d, den in zip(diffs, denoms):
        if owner is None:
            grad = -((g * 2.0 / den) * d)
        else:
            # each row's coefficient is its own teacher's, or 0 for a row of
            # none; 0.0 - x turns that row's -0 into +0
            coef = (g * 2.0 / den)[sel] * owned
            grad = (0.0 - coef[:, None] * d)[None]
        grads.append(grad)
    return np.asarray(total, dtype=dtype) * g, grads


def loss_and_grads(
    value, backward: Callable[[], dict[str, np.ndarray]]
) -> tuple[float, dict[str, np.ndarray]]:
    """A train step's loss value and the parameter gradients ``backward()`` returns.

    Raises :class:`NonFiniteError` if the value is not finite, before any
    backward work happens.
    """
    value = float(value)
    if not np.isfinite(value):
        raise NonFiniteError(f"non-finite loss {value}")
    return value, backward()


# ---------------------------------------------------------------------------
# the tape of the per-op test oracle
# ---------------------------------------------------------------------------


class Tensor:
    """A node in the tape: a value plus optional backward plumbing.

    Leaves created with ``requires_grad=True`` accumulate into ``.grad``
    during :func:`backward`. Interior nodes are made by :func:`_node`, which
    the reference ops of the tests call.
    """

    __slots__ = ("data", "requires_grad", "grad", "parents", "backward_fn", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.parents: tuple[Tensor, ...] = ()
        self.backward_fn: Callable[[np.ndarray], None] | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)


def _node(data, parents: tuple[Tensor, ...], backward_fn, name: str) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents), name=name)
    if out.requires_grad:
        out.parents = parents
        out.backward_fn = backward_fn
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf."""
    if loss.data.shape != ():
        raise GraphError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node.backward_fn is not None and node.grad is not None:
            node.backward_fn(node.grad)


def gradients(loss: Tensor, leaves: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
    """Run backward and collect one gradient per named leaf.

    Leaves the loss never reaches get an exactly-zero entry of matching
    shape.
    """
    backward(loss)
    out: dict[str, np.ndarray] = {}
    for name, leaf in leaves.items():
        out[name] = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
    return out
