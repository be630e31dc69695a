"""Reverse-mode differentiation on numpy arrays.

Small define-by-run tape: each operation computes its forward value eagerly
and records a closure that routes the upstream gradient to its inputs.
Only the operations needed by a residual MLP classifier are provided --
there is no general broadcasting, no GPU, no higher-order gradients.

Arrays are float32 in production; every op inherits the dtype of its
inputs, so tests can run the same graphs in float64 against a
finite-difference oracle.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np


class GraphError(Exception):
    """Structural problem while building or evaluating a graph (names the node)."""


class NonFiniteError(GraphError):
    """A forward value or gradient turned non-finite (names the node)."""


class Tensor:
    """A node in the tape: a value plus optional backward plumbing.

    Leaves created with ``requires_grad=True`` accumulate into ``.grad``
    during :func:`backward`. Interior nodes are created by the ops below.
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

    def __repr__(self) -> str:
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.shape}, grad={self.requires_grad})"


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


def stop_gradient(x: Tensor, name: str = "stop_gradient") -> Tensor:
    """Identity forward; the backward pass never crosses this node."""
    return Tensor(x.data, requires_grad=False, name=name)


def matmul(x: Tensor, w: Tensor, name: str = "matmul") -> Tensor:
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise GraphError(
            f"{name}: incompatible shapes {x.shape} @ {w.shape}"
        )
    out_data = x.data @ w.data

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)

    return _node(out_data, (x, w), backward, name)


def add(x: Tensor, y: Tensor, name: str = "add") -> Tensor:
    """Elementwise add; also accepts a rank-1 bias added to each row of a matrix."""
    bias_case = x.data.ndim == 2 and y.data.ndim == 1 and x.shape[1] == y.shape[0]
    if not bias_case and x.shape != y.shape:
        raise GraphError(f"{name}: shape mismatch {x.shape} + {y.shape}")
    out_data = x.data + y.data

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g)
        _accumulate(y, g.sum(axis=0) if bias_case else g)

    return _node(out_data, (x, y), backward, name)


def sub(x: Tensor, y: Tensor, name: str = "sub") -> Tensor:
    if x.shape != y.shape:
        raise GraphError(f"{name}: shape mismatch {x.shape} - {y.shape}")
    out_data = x.data - y.data

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g)
        _accumulate(y, -g)

    return _node(out_data, (x, y), backward, name)


def mul(x: Tensor, y: Tensor, name: str = "mul") -> Tensor:
    if x.shape != y.shape:
        raise GraphError(f"{name}: shape mismatch {x.shape} * {y.shape}")
    out_data = x.data * y.data

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * y.data)
        _accumulate(y, g * x.data)

    return _node(out_data, (x, y), backward, name)


def scale(x: Tensor, c: float, name: str = "scale") -> Tensor:
    c = float(c)
    out_data = x.data * np.asarray(c, dtype=x.dtype)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * np.asarray(c, dtype=x.dtype))

    return _node(out_data, (x,), backward, name)


def square(x: Tensor, name: str = "square") -> Tensor:
    out_data = x.data * x.data

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * 2.0 * x.data)

    return _node(out_data, (x,), backward, name)


def relu(x: Tensor, name: str = "relu") -> Tensor:
    out_data = np.maximum(x.data, 0)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * (x.data > 0))

    return _node(out_data, (x,), backward, name)


def sum_all(x: Tensor, name: str = "sum") -> Tensor:
    out_data = x.data.sum()

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.full_like(x.data, g))

    return _node(out_data, (x,), backward, name)


def dropout_mask(
    shape: tuple[int, ...], p: float, rng: np.random.Generator, dtype
) -> np.ndarray:
    """Inverted-dropout multiplier: 0 for a dropped unit, 1/(1-p) for a kept one."""
    keep = (rng.random(shape) >= p).astype(dtype)
    return keep * np.asarray(1.0 / (1.0 - p), dtype=dtype)


def dropout(
    x: Tensor,
    p: float,
    rng: np.random.Generator | None,
    train: bool,
    name: str = "dropout",
    mask: np.ndarray | None = None,
) -> Tensor:
    """Inverted dropout: kept units are scaled by 1/(1-p) at train time.

    Eval mode is the identity and consumes no randomness. A train-mode
    ``mask`` (from :func:`dropout_mask`) is applied instead of a fresh draw,
    so the caller can keep the multiplier of the pass.
    """
    if not 0.0 <= p < 1.0:
        raise GraphError(f"{name}: dropout rate {p} outside [0, 1)")
    if not train or p == 0.0:
        return _node(x.data, (x,), lambda g: _accumulate(x, g), name)
    if mask is None:
        if rng is None:
            raise GraphError(f"{name}: train-mode dropout needs an RNG")
        mask = dropout_mask(x.shape, p, rng, x.dtype)
    out_data = x.data * mask

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * mask)

    return _node(out_data, (x,), backward, name)


BN_EPS = 1e-5


def _normalize(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, mean, var, eps: float):
    inv_std = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat = (x - mean) * inv_std
    return gamma * xhat + beta, xhat, inv_std


def batch_norm_values(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = BN_EPS
) -> np.ndarray:
    """Forward value of train-mode :func:`batch_norm` on plain arrays.

    No tape node, no running buffers: for passes that are never
    differentiated but must match a train-mode pass bit for bit. Leading
    axes stack independent layers: ``x`` is ``(..., B, D)`` and ``gamma``,
    ``beta`` are ``(..., D)``; statistics are taken over the rows (axis -2)
    of each, with the same arithmetic as a single ``(B, D)`` input.
    """
    mean = x.mean(axis=-2, keepdims=True)
    var = x.var(axis=-2, keepdims=True)
    return _normalize(x, gamma[..., None, :], beta[..., None, :], mean, var, eps)[0]


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    train: bool,
    momentum: float = 0.1,
    eps: float = BN_EPS,
    name: str = "batch_norm",
) -> Tensor:
    """Per-feature normalization over the batch axis.

    Train mode normalizes by batch statistics (needs at least 2 rows) and
    folds them into the running buffers in place (running variance uses the
    unbiased estimate). Eval mode is a fixed affine map built from the
    running buffers.
    """
    if x.data.ndim != 2 or x.shape[1] != gamma.shape[0]:
        raise GraphError(f"{name}: input {x.shape} vs width {gamma.shape}")
    n = x.shape[0]
    if train:
        if n < 2:
            raise GraphError(f"{name}: train-mode batch of size {n} (need >= 2)")
        mean = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var * (n / (n - 1))
    else:
        mean = running_mean
        var = running_var
    out_data, xhat, inv_std = _normalize(x.data, gamma.data, beta.data, mean, var, eps)

    def backward(g: np.ndarray) -> None:
        _accumulate(gamma, (g * xhat).sum(axis=0))
        _accumulate(beta, g.sum(axis=0))
        dxhat = g * gamma.data
        if train:
            # batch statistics depend on x, so route gradient through them
            dx = (
                dxhat
                - dxhat.mean(axis=0)
                - xhat * (dxhat * xhat).mean(axis=0)
            ) * inv_std
        else:
            dx = dxhat * inv_std
        _accumulate(x, dx)

    return _node(out_data, (x, gamma, beta), backward, name)


def softmax_cross_entropy(
    logits: Tensor, labels: np.ndarray, name: str = "cross_entropy"
) -> Tensor:
    """Mean cross-entropy of softmax(logits) at integer labels."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2 or labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise GraphError(f"{name}: logits {logits.shape} vs labels {labels.shape}")
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise GraphError(
            f"{name}: label out of range [0, {c}) (got {int(labels.min())}..{int(labels.max())})"
        )
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    log_probs = (z - zmax) - np.log(sez)
    out_data = np.asarray(-log_probs[np.arange(n), labels].mean(), dtype=z.dtype)

    def backward(g: np.ndarray) -> None:
        probs = ez / sez
        probs[np.arange(n), labels] -= 1.0
        _accumulate(logits, (g / n) * probs.astype(z.dtype))

    return _node(out_data, (logits,), backward, name)


def row_norm_mean(x: Tensor, name: str = "row_norm_mean") -> Tensor:
    """Mean over rows of the row-wise L2 norm. Subgradient 0 at a zero row."""
    if x.data.ndim != 2:
        raise GraphError(f"{name}: expected a matrix, got shape {x.shape}")
    norms = np.sqrt((x.data * x.data).sum(axis=1))
    out_data = np.asarray(norms.mean(), dtype=x.dtype)

    def backward(g: np.ndarray) -> None:
        safe = np.where(norms > 0, norms, 1.0)
        dx = x.data / safe[:, None]
        dx[norms == 0] = 0.0
        _accumulate(x, (g / x.shape[0]) * dx)

    return _node(out_data, (x,), backward, name)


def row_sqnorm_mean(x: Tensor, name: str = "row_sqnorm_mean") -> Tensor:
    """Mean over rows of the squared row-wise L2 norm."""
    if x.data.ndim != 2:
        raise GraphError(f"{name}: expected a matrix, got shape {x.shape}")
    out_data = np.asarray((x.data * x.data).sum(axis=1).mean(), dtype=x.dtype)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, (g * 2.0 / x.shape[0]) * x.data)

    return _node(out_data, (x,), backward, name)


def _row_mask(x: Tensor, mask: np.ndarray, name: str) -> np.ndarray:
    if x.data.ndim != 2:
        raise GraphError(f"{name}: expected a matrix, got shape {x.shape}")
    m = np.asarray(mask, dtype=x.data.dtype)
    if m.shape != (x.shape[0],):
        raise GraphError(
            f"{name}: mask shape {m.shape} does not match {x.shape[0]} rows"
        )
    return m


def masked_row_norm_mean(
    x: Tensor, mask: np.ndarray, name: str = "masked_row_norm_mean"
) -> Tensor:
    """Mean of the row-wise L2 norm over selected rows only.

    ``mask`` is a constant 0/1 row selector (no gradient path); the mean is
    taken over the selected count, and an empty selection yields exactly 0.
    Subgradient 0 at a zero row, as in :func:`row_norm_mean`.
    """
    m = _row_mask(x, mask, name)
    norms = np.sqrt((x.data * x.data).sum(axis=1))
    denom = max(float(m.sum()), 1.0)
    out_data = np.asarray((m * norms).sum() / denom, dtype=x.dtype)

    def backward(g: np.ndarray) -> None:
        safe = np.where(norms > 0, norms, 1.0)
        dx = (m / denom)[:, None] * (x.data / safe[:, None])
        dx[norms == 0] = 0.0
        _accumulate(x, g * dx)

    return _node(out_data, (x,), backward, name)


def masked_row_sqnorm_mean(
    x: Tensor, mask: np.ndarray, name: str = "masked_row_sqnorm_mean"
) -> Tensor:
    """Mean of the squared row-wise L2 norm over selected rows only."""
    m = _row_mask(x, mask, name)
    denom = max(float(m.sum()), 1.0)
    out_data = np.asarray((m * (x.data * x.data).sum(axis=1)).sum() / denom, dtype=x.dtype)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, (g * 2.0) * (m / denom)[:, None] * x.data)

    return _node(out_data, (x,), backward, name)


def mean_square(
    x: Tensor, mask: np.ndarray | None = None, name: str = "mean_square"
) -> Tensor:
    """Mean of the squared entries over every column and the selected rows.

    ``mask`` is an optional constant 0/1 row selector (no gradient path);
    without it every row counts. An empty selection yields exactly 0.
    """
    if mask is None:
        if x.data.ndim != 2:
            raise GraphError(f"{name}: expected a matrix, got shape {x.shape}")
        out_data = np.asarray((x.data * x.data).mean(), dtype=x.dtype)

        def backward(g: np.ndarray) -> None:
            _accumulate(x, (g * 2.0 / x.data.size) * x.data)

        return _node(out_data, (x,), backward, name)
    m = _row_mask(x, mask, name)
    denom = max(float(m.sum()), 1.0) * x.shape[1]
    out_data = np.asarray((m * (x.data * x.data).sum(axis=1)).sum() / denom, dtype=x.dtype)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, (g * 2.0 / denom) * m[:, None] * x.data)

    return _node(out_data, (x,), backward, name)


def stacked_distance(
    students: Sequence[Tensor],
    targets: Sequence[np.ndarray],
    masks: np.ndarray,
    per_feature: bool = True,
    name: str = "stacked_distance",
) -> Tensor:
    """Masked squared distances of students to k teachers' targets, summed.

    ``students[i]`` is a ``(B, D_i)`` node and ``targets[i]`` the constant
    ``(k, B, D_i)`` stack of what k teachers put in its place (no gradient
    path); ``masks`` is the constant ``(k, B)`` 0/1 row selector of each
    teacher. Term (j, i) is the squared difference of target j and student
    i over teacher j's rows, averaged over those rows and, when
    ``per_feature``, over the D_i features too (:func:`mean_square`), else
    summed over them (:func:`masked_row_sqnorm_mean`). An empty selection
    contributes exactly 0.

    The value adds the terms of one teacher in student order, then the
    teachers in order; the backward adds teacher j's gradient into each
    student in order j = 0..k-1. Both repeat the float operations, in their
    order, of the graph of per-term ops, summed teacher by teacher, that
    this node replaces, so its value and gradients are bit-identical to it.
    """
    if not students or len(students) != len(targets):
        raise GraphError(f"{name}: {len(students)} students for {len(targets)} target stacks")
    m = np.asarray(masks, dtype=students[0].dtype)
    if m.ndim != 2:
        raise GraphError(f"{name}: masks of shape {m.shape}, expected (teachers, rows)")
    k, rows = m.shape
    for i, (s, t) in enumerate(zip(students, targets)):
        if s.data.ndim != 2 or s.shape[0] != rows or t.shape != (k, *s.shape):
            raise GraphError(
                f"{name}: student {i} of shape {s.shape} and target stack of shape "
                f"{t.shape} do not fit masks of shape {m.shape}"
            )
    counts = np.maximum(m.sum(axis=1), 1)
    denoms = [counts * s.shape[1] if per_feature else counts for s in students]
    diffs = [t - s.data for s, t in zip(students, targets)]
    per_teacher = None
    for d, denom in zip(diffs, denoms):
        term = (m * (d * d).sum(axis=-1)).sum(axis=-1) / denom
        per_teacher = term if per_teacher is None else per_teacher + term
    total = per_teacher[0]
    for term in per_teacher[1:]:
        total = total + term
    out_data = np.asarray(total, dtype=m.dtype)

    def backward(g: np.ndarray) -> None:
        for s, d, denom in zip(students, diffs, denoms):
            if per_feature:
                grad = ((g * 2.0 / denom)[:, None, None] * m[:, :, None]) * d
            else:
                grad = ((g * 2.0) * (m / denom[:, None])[:, :, None]) * d
            for j in range(k):
                _accumulate(s, -grad[j])

    return _node(out_data, tuple(students), backward, name)


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

    Leaves the loss never reaches (e.g. everything behind a stop-gradient
    node) get an exactly-zero entry of matching shape.
    """
    backward(loss)
    out: dict[str, np.ndarray] = {}
    for name, leaf in leaves.items():
        out[name] = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
    return out


def loss_and_grads(
    loss: Tensor, leaves: Mapping[str, Tensor]
) -> tuple[float, dict[str, np.ndarray]]:
    """Evaluate a built loss node and differentiate it.

    Raises :class:`NonFiniteError` if the loss value is not finite, before
    any backward work happens.
    """
    value = float(loss.data)
    if not np.isfinite(value):
        raise NonFiniteError(f"non-finite loss at node '{loss.name or 'loss'}'")
    return value, gradients(loss, leaves)
