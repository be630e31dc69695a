"""Array-level arithmetic of the train step, and the tape the tests check it on.

Nothing in a training run builds a graph. The objectives' two ops,
``softmax_cross_entropy`` and ``stacked_distance``, take plain arrays and
return their value together with the gradients of their inputs. The
model's passes share ``batch_norm_arrays``, ``batch_norm_grads`` and
``dropout_mask`` (``dropout_multiplier`` for flags drawn elsewhere), and
its hand-written backward carries the objectives' gradients to the
parameters. ``loss_and_grads`` is where every step checks that its loss is
finite before it runs that backward.

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

import operator
from functools import reduce
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
    return dropout_multiplier(rng.random(shape) >= p, p, dtype)


def dropout_multiplier(keep: np.ndarray, p: float, dtype) -> np.ndarray:
    """The multiplier :func:`dropout_mask` makes of ``keep``, its flags of
    kept units (bools, or 0/1 as ``np.unpackbits`` gives them), by the same
    float operations: the same bits for the same flags."""
    mult = keep.astype(dtype)
    mult *= np.asarray(1.0 / (1.0 - p), dtype=dtype)
    return mult


BN_MOMENTUM = 0.1
BN_EPS = 1e-5


def _row_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-2, keepdims=True)`` without numpy's Python wrapper.

    The bits are the same: both divide the same sum by the row count, and a
    float32 quotient rounds the same whether numpy divides in float32 or,
    as ``mean`` does, in float64.
    """
    return np.add.reduce(x, axis=-2, keepdims=True) / x.shape[-2]


def batch_norm_arrays(x: np.ndarray, stats, train: bool):
    """Batch norm's normalization on plain arrays, in place: ``(xhat, inv_std)``.

    This is the forward arithmetic of every pass that normalizes: the
    model's student, teacher and eval passes. It consumes ``x``, a
    ``(..., B, D)`` array the caller owns (a fresh matmul output): ``x``
    becomes ``d = x - mean`` and then ``xhat = d * inv_std``, so ``xhat``
    is ``x`` itself and no ``(B, D)`` array is allocated for either. The
    affine ``gamma * xhat + beta`` is the caller's. In train mode the
    statistics are taken over the rows (axis -2) of each leading index, as
    ``mean``, ``d``, ``var = mean(d * d)``, and ``stats``, a list or None,
    gets slice 0's ``(D,)`` mean and (biased) variance appended: the
    student of a stack is slice 0, and its teachers keep their buffers. The
    caller folds what a pass gathered into the running buffers with
    :func:`fold_batch_stats`. In eval mode ``stats`` is the ``(mean, var)``
    pair of running buffers that supplies the statistics. Both add
    ``BN_EPS`` to the variance.
    """
    if train:
        mean = _row_mean(x)
        x -= mean
        var = _row_mean(x * x)
        if stats is not None:
            first = (0,) * (x.ndim - 1)  # row 0 of slice 0 of a stack; (0,) for one model
            stats.extend((mean[first], var[first]))
    else:
        mean, var = stats
        x -= mean
    inv_std = (1.0 / np.sqrt(var + BN_EPS)).astype(x.dtype, copy=False)
    x *= inv_std
    return x, inv_std


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
    """Backward of batch norm, :func:`batch_norm_arrays` followed by the
    affine ``gamma * xhat + beta``, on ``(B, D)`` arrays: ``(d gamma,
    d beta, d x)`` for the output gradient ``g``.

    In train mode the batch statistics depend on ``x``, so the gradient
    also flows through them. ``d x`` is computed in the buffer of
    ``d xhat = g * gamma``, in the float operations and order of
    ``(dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv_std``.
    ``g``, ``xhat`` and ``inv_std`` are only read.
    """
    dx = g * gamma  # d xhat, until it becomes d x
    if train:
        m1 = _row_mean(dx)
        t = xhat * _row_mean(dx * xhat)
        dx -= m1
        dx -= t
    dx *= inv_std
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
    route: tuple[np.ndarray, int] | None = None,
    weight=1.0,
    name: str = "stacked_distance",
):
    """Squared distances of students to their teachers' targets, summed, times ``weight``.

    This is the one distance op of the engine: every distillation term is
    one call of it. ``students[i]`` is a ``(B, D_i)`` array and
    ``targets[i]`` the ``(B, D_i)`` array the teachers put in its place (a
    constant: it gets no gradient). A term is the squared difference of
    target and student, averaged over rows and over the D_i features,
    whatever the features are (taps or logits): the one normalization, so
    a term's scale does not grow with D_i.

    Without ``route`` the targets are one teacher's and every row counts:
    term i is the mean over the rows and features as numpy's ``mean``
    rounds it, not a row sum divided by the count of the routed mode; the
    two round differently in float32, so routing every row to one teacher
    is not the same number.

    ``route = (owner, k)`` routes each row to one of k teachers: ``owner``
    is the constant ``(B,)`` integer array in which ``owner[r] = j`` makes
    row r teacher j's and a negative entry (-1, a memory row) makes it no
    teacher's; an entry of k or more names no teacher (GraphError). Then
    ``targets[i]`` holds each row's own teacher's target, gathered by
    whoever ran the teachers (a row of no teacher carries teacher 0's,
    which it reads at weight 0). Term (j, i) averages over teacher j's rows
    only, and a teacher owning no row contributes exactly 0.

    Returns ``(value, grads)``. The value adds the terms of one teacher in
    student order, then the teachers in order. ``grads[i]`` is the
    ``(B, D_i)`` gradient of student i; routed, each row's is its own
    teacher's, the bits of a sum of k one-teacher distances since every
    other teacher's share of a row is zero, and an exact +0 on a row of
    none.
    """
    if not students or len(students) != len(targets):
        raise GraphError(f"{name}: {len(students)} students for {len(targets)} targets")
    dtype = students[0].dtype
    rows = students[0].shape[0]
    if route is not None:
        owner, k = route
        if k == 0:
            raise GraphError(f"{name}: needs at least one teacher")
        if owner.shape != (rows,):
            raise GraphError(f"{name}: owners of shape {owner.shape} do not fit {rows} rows")
        if np.maximum.reduce(owner, initial=-1) >= k:
            r = int(np.argmax(owner >= k))
            raise GraphError(f"{name}: row {r} routed to teacher {int(owner[r])} of {k}")
    for i, (s, t) in enumerate(zip(students, targets)):
        if s.ndim != 2 or s.shape[0] != rows or t.shape != s.shape:
            raise GraphError(
                f"{name}: student {i} of shape {s.shape} and targets of shape "
                f"{t.shape} do not fit as one ({rows}, D) pair"
            )
    g = np.asarray(weight, dtype=dtype)
    diffs = [t - s for s, t in zip(students, targets)]
    if route is None:
        denoms = [s.size for s in students]
        terms = [np.add.reduce(d * d, axis=(-2, -1)) / den for d, den in zip(diffs, denoms)]
        total = reduce(operator.add, terms)
        grads = [-((g * 2.0 / den) * d) for d, den in zip(diffs, denoms)]
        return np.asarray(total, dtype=dtype) * g, grads
    m = (owner == np.arange(k)[:, None]).astype(dtype)
    sel, owned = np.maximum(owner, 0), (owner >= 0).astype(dtype)
    counts = np.maximum(np.add.reduce(m, axis=1), 1)
    denoms = [counts * s.shape[1] for s in students]
    terms = [np.add.reduce(m * np.add.reduce(d * d, axis=-1), axis=-1) / den
             for d, den in zip(diffs, denoms)]
    total = reduce(operator.add, reduce(operator.add, terms))
    # each row's coefficient is its own teacher's, or 0 for a row of none;
    # 0.0 - x turns that row's -0 into +0
    grads = [0.0 - ((g * 2.0 / den)[sel] * owned)[:, None] * d for d, den in zip(diffs, denoms)]
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
