"""Shared test utilities: float64 model twins, teacher stacks, finite-difference
oracles, the per-row gradient-norm oracle, and the per-op oracle of the
train step: the student pass and the objectives as a tape with one node
per op, built from the reference ops below; a hand-written stream file;
and consolidations forced to fork a teacher process, which may send
malformed frames."""

from __future__ import annotations

import struct

import numpy as np

import batchcl.protocol as protocol_mod
from batchcl.config import (
    BaselineSpec,
    BmcSpec,
    ExperimentConfig,
    ModelSpec,
    StreamSpec,
    TrainingSpec,
)
from batchcl.engine import (
    GraphError,
    batch_norm_arrays,
    batch_norm_grads,
    dropout_mask,
    loss_and_grads,
    softmax_cross_entropy,
    stacked_distance,
)
from batchcl.engine import SGD, PlateauScheduler
from batchcl.engine.autodiff import BN_MOMENTUM, Tensor, _accumulate, _node, gradients
from batchcl.losses import Objective, _joined, distill, l_base, task_loss
from batchcl.model import ResidualClassifier, TapSet, stack_vectors
from batchcl.protocol import (
    FRAME_OVERHEAD,
    TAG_ARTIFACT,
    TAG_TARGETS,
    decode_artifact,
    encode_artifact,
    frame,
    unframe,
)
from batchcl.replay import draw_batch, merge_pool


def experiment(method: str = "bmc", seed: int = 0, *, model: dict | None = None,
               training: dict | None = None, bmc: dict | None = None,
               baseline: dict | None = None) -> ExperimentConfig:
    """A run config from per-section overrides of the defaults.

    The runners take the stream already built, so the stream section keeps
    its defaults.
    """
    return ExperimentConfig(
        method=method,
        seed=seed,
        stream=StreamSpec(),
        model=ModelSpec(**(model or {})),
        training=TrainingSpec(**(training or {})),
        bmc=BmcSpec(**(bmc or {})),
        baseline=BaselineSpec(**(baseline or {})),
    )


def write_stream_file(path, dim: int, tasks: list[tuple[int, int, list, list]]) -> None:
    """A version-1 stream file with standard-normal features; each task is
    (task id, header class count, train class ids, val class ids), one row
    per id."""
    rng = np.random.default_rng(0)
    with open(path, "wb") as f:
        f.write(b"CLFS" + struct.pack("<HI", 1, len(tasks)))
        for task_id, n_classes, train_ids, val_ids in tasks:
            f.write(struct.pack("<IIIQQ", task_id, n_classes, dim, len(train_ids), len(val_ids)))
            for y in (*train_ids, *val_ids):
                f.write(rng.standard_normal(dim).astype("<f4").tobytes() + struct.pack("<I", y))


def stack_passes(passes: list[TapSet]) -> TapSet:
    """Single-teacher passes as one stacked pass, taps and logits ``(k, B, D)``."""
    return TapSet(
        taps=[np.stack([p.taps[i] for p in passes]) for i in range(len(passes[0].taps))],
        logits=np.stack([p.logits for p in passes]),
    )


def gathered(stack: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Row r of teacher ``owner[r]``'s slice of a ``(k, ...)`` target stack,
    teacher 0's for a row of none: the targets of the routed form. An owner
    beyond the stack reads its last teacher, for the routed form to reject."""
    sel = np.clip(owner, 0, len(stack) - 1)
    return stack[sel, np.arange(len(owner))]


def gather_passes(stack: TapSet, origins: np.ndarray) -> TapSet:
    """Each row's own teacher's taps and logits of a stacked pass."""
    return TapSet(taps=[gathered(t, origins) for t in stack.taps],
                  logits=gathered(stack.logits, origins))


def routed_distill(kind: str, stack: TapSet, student: TapSet, origins: np.ndarray,
                   weight: float = 1.0) -> Objective:
    """``distill``'s routed form on a stacked pass: each row's own teacher
    gathered from the stack, routed among all of its teachers."""
    return distill(kind, gather_passes(stack, origins), student, (origins, len(stack.logits)),
                   weight)


def routed_l_base(student: TapSet, stack: TapSet, labels: np.ndarray, task_coef: float,
                  consolidation_coef: float, kind: str, origins: np.ndarray) -> Objective:
    """``l_base`` with its distillation routed over a stacked pass of the teachers."""
    return l_base(student, gather_passes(stack, origins), labels, task_coef,
                  consolidation_coef, kind, (origins, len(stack.logits)))


def per_teacher_distill(student: TapSet, teachers: list[TapSet], origins: np.ndarray, kind: str,
                      weight: float = 1.0) -> Objective:
    """The batched term as a sum of one-teacher distances, in teacher order:
    the reference the single batched call must reproduce bit for bit.
    Teacher j is the only teacher of the rows of origin j."""
    return _joined([
        distill(kind, teacher, student, (np.where(origins == j, 0, -1), 1), weight)
        for j, teacher in enumerate(teachers)
    ])


def per_teacher_l_base(student: TapSet, teachers: list[TapSet], labels: np.ndarray,
                       origins: np.ndarray, task_coef: float, consolidation_coef: float,
                       kind: str) -> Objective:
    """``l_base`` with both terms on, from the task loss and
    :func:`per_teacher_distill`: the coefficient scales the sum of the
    teachers' terms, and each term's gradient."""
    ce = task_loss(student, labels, task_coef)
    unit = per_teacher_distill(student, teachers, origins, kind)
    weighted = per_teacher_distill(student, teachers, origins, kind, consolidation_coef)
    return Objective(ce.value + unit.value * np.float32(consolidation_coef),
                     [a + b for a, b in zip(ce.taps, weighted.taps)],
                     ce.logits + weighted.logits)


def consolidate_reference(base: ResidualClassifier, artifacts, memory, cfg: ExperimentConfig,
                          rng: np.random.Generator) -> ResidualClassifier:
    """``protocol.consolidate`` with both coefficients on, as a plain loop:
    each batch is a ``draw_batch`` of the pool, one stacked pass of the
    student and its teachers, the per-teacher consolidation objective
    (:func:`per_teacher_l_base`, every teacher routed to its rows by
    comparing origin tags with its expert index), the student's backward
    and an SGD step; a plateau schedule sees each epoch's mean loss. Reads
    ``cfg.training`` and ``cfg.bmc`` as ``consolidate`` does."""
    t, b = cfg.training, cfg.bmc
    ordered = sorted(artifacts, key=lambda a: a.expert_index)
    pool = merge_pool(memory, [a.buffer for a in ordered])
    stack = stack_vectors(base.config, [base, *(a.param_vector for a in ordered)])
    student = stack.slice(0)
    opt = SGD(t.lr)
    schedule = PlateauScheduler(opt)
    for _ in range(b.rehearsal_epochs):
        losses = []
        for _ in range(max(1, len(pool) // t.batch_size)):
            batch = draw_batch(pool, t.batch_size, rng)
            taps, record = stack.forward_with_taps(batch.features, train=True, rng=rng)
            teachers = [taps.teachers[j] for j in range(len(ordered))]
            origins = np.full(len(batch), -1)
            for j, a in enumerate(ordered):
                origins[batch.origins == a.expert_index] = j
            loss = per_teacher_l_base(taps, teachers, batch.labels, origins,
                                      b.task_coef, b.consolidation_coef, b.distill_kind)
            value, grads = loss_and_grads(loss.value, lambda: student.backward(record, loss))
            opt.step(student.flat_params, grads, student.layout.param_slices)
            losses.append(value)
        schedule.step(float(np.mean(losses)))
    return student.copy()


def rewrite_last_artifact(msgs: list[bytes], edit) -> list[bytes]:
    """ARTF frames with the last one's artifact replaced by ``edit(artifact)``."""
    last = decode_artifact(unframe(msgs[-1])[1])
    return [*msgs[:-1], frame(TAG_ARTIFACT, encode_artifact(edit(last)))]


# ways to break a teacher process's TGTS frame: each maps the frame to
# what the teacher process sends instead
MALFORMED_TARGETS = {
    "wrong_tag": lambda msg: TAG_ARTIFACT + msg[4:],
    "short": lambda msg: frame(TAG_TARGETS, msg[FRAME_OVERHEAD:-4]),
    "long": lambda msg: frame(TAG_TARGETS, msg[FRAME_OVERHEAD:], bytes(4)),
    "odd_length": lambda msg: frame(TAG_TARGETS, msg[FRAME_OVERHEAD:-1]),
}


def fork_teachers(monkeypatch) -> None:
    """Make every consolidation with the distillation term on fork its
    teacher process, however few batches it runs and however few CPUs this
    process may use."""
    monkeypatch.setattr(protocol_mod, "_FORK_MIN_BATCHES", 0)
    monkeypatch.setattr(protocol_mod, "_usable_cores", lambda: 2)


def send_malformed_targets(monkeypatch, how: str) -> None:
    """Make every consolidation with the distillation term fork its teacher
    process (:func:`fork_teachers`), and make that process send each
    batch's TGTS frame broken the way ``MALFORMED_TARGETS[how]`` breaks it."""
    real, mangle = protocol_mod._teach, MALFORMED_TARGETS[how]

    def teach(*args):
        for msg in real(*args):
            yield mangle(msg)

    fork_teachers(monkeypatch)
    monkeypatch.setattr(protocol_mod, "_teach", teach)


def float64_twin(model: ResidualClassifier) -> ResidualClassifier:
    """Copy of a model with its arena promoted to float64 (for derivative checks)."""
    return ResidualClassifier._from_arena(model.config, model.arena.astype(np.float64))


def assert_views_of_arena(model: ResidualClassifier) -> None:
    """Every entry of ``params`` and ``stats`` is a view of ``model.arena``
    at its layout slice, and ``flat_params`` is the arena's parameter region."""
    layout, arena = model.layout, model.arena
    assert arena.shape[-1] == layout.size
    n = layout.n_params
    assert model.flat_params.shape == arena.shape[:-1] + (n,)
    assert np.shares_memory(model.flat_params, arena[..., :n])
    for part, region, slices in ((model.params, arena[..., :n], layout.param_slices),
                                 (model.stats, arena[..., n:], layout.stat_slices)):
        assert list(part) == list(slices)
        for name, a in part.items():
            assert a.shape == arena.shape[:-1] + layout.shapes[name], name
            want = region[..., slices[name]].reshape(a.shape)
            assert np.shares_memory(want, arena), name
            # same address, strides and shape: the very view of its slice
            assert a.__array_interface__ == want.__array_interface__, name


def assert_views_of_own_arena(model: ResidualClassifier) -> None:
    """:func:`assert_views_of_arena`, for an arena that owns its memory."""
    assert model.arena.base is None and model.arena.flags.owndata
    assert_views_of_arena(model)


def snapshot_entries(pv) -> dict[str, np.ndarray]:
    """A snapshot's entries by name, cut from its payload in entry order."""
    entries, start = {}, 0
    for name, shape in zip(pv.names, pv.shapes):
        n = int(np.prod(shape))
        entries[name] = pv.payload[start : start + n].reshape(shape)
        start += n
    assert start == pv.payload.size
    return entries


def jitter_params(model: ResidualClassifier, seed: int, scale: float = 0.1) -> None:
    """Randomize all parameters slightly.

    Freshly built models have zero biases/betas, which parks whole dead rows
    exactly on the ReLU kink where central differences straddle the
    non-differentiability; jitter moves every pre-activation off the kink.
    """
    rng = np.random.default_rng(seed)
    for v in model.params.values():
        v += (rng.standard_normal(v.shape) * scale).astype(v.dtype)


def count_tensors(monkeypatch) -> list:
    """Patch ``Tensor`` construction to append to the returned list."""
    built: list = []
    init = Tensor.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    return built


def step_grads(model: ResidualClassifier, record, loss) -> tuple[float, dict[str, np.ndarray]]:
    """The production train step's (loss value, parameter gradients) for an
    objective on the pass ``record`` describes; the gradients are named
    views of the flat array ``backward`` returns."""
    value, flat = loss_and_grads(loss.value, lambda: model.backward(record, loss))
    return value, model.layout.param_views(flat)


def flat_grads(model: ResidualClassifier, grads: dict[str, np.ndarray]) -> np.ndarray:
    """Per-parameter gradients as one flat array laid out like ``model.flat_params``."""
    return np.concatenate([grads[name].ravel() for name in model.layout.param_slices])


def running_update_reference(running_mean: np.ndarray, running_var: np.ndarray,
                             mean: np.ndarray, var: np.ndarray, n: int) -> None:
    """One layer's running-buffer update, buffer by buffer: the oracle of
    ``fold_batch_stats``. ``var`` is the biased batch variance of ``n`` rows."""
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mean
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var * (n / (n - 1))


def grad_norms_reference(model: ResidualClassifier, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example task-loss gradient norms, one eval-mode per-op graph per row.

    The oracle of ``ResidualClassifier.per_example_grad_norms``.
    """
    out = []
    for i in range(len(y)):
        ts, leaves = per_op_forward(model, x[i : i + 1])
        _, grads = tape_grads(cross_entropy(ts.logits, y[i : i + 1]), leaves)
        out.append(np.sqrt(sum(float((g ** 2).sum()) for g in grads.values())))
    return np.array(out)


def finite_diff_params(
    build_loss, params: dict[str, np.ndarray], h: float = 1e-4
) -> dict[str, np.ndarray]:
    """Central differences of ``build_loss()`` w.r.t. every entry of ``params``.

    ``build_loss`` must read the arrays in ``params`` afresh on each call
    (re-running the forward pass); the arrays are perturbed in place.
    """
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        flat, gflat = p.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = build_loss()
            flat[i] = orig - h
            lo = build_loss()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * h)
        grads[name] = g
    return grads


def assert_matches_fd(analytic, numeric, rel_tol: float = 1e-4):
    """Relative-error comparison with a unit floor (matches the oracle contract)."""
    for name in numeric:
        a, n = analytic[name], numeric[name]
        scale = max(np.abs(n).max(), 1.0)
        np.testing.assert_allclose(
            a, n, atol=rel_tol * scale, rtol=rel_tol,
            err_msg=f"gradient mismatch for {name}",
        )


# ---------------------------------------------------------------------------
# reference ops: one tape node per op, the pieces of the per-op oracle
# ---------------------------------------------------------------------------


def tape_grads(loss: Tensor, leaves: dict[str, Tensor]) -> tuple[float, dict[str, np.ndarray]]:
    """A tape's train step: the loss value (checked finite) and the
    gradient of every leaf, zero for a leaf the loss does not reach."""
    return loss_and_grads(loss.data, lambda: gradients(loss, leaves))


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


def scale(x: Tensor, c: float, name: str = "scale") -> Tensor:
    c = float(c)
    out_data = x.data * np.asarray(c, dtype=x.dtype)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * np.asarray(c, dtype=x.dtype))

    return _node(out_data, (x,), backward, name)


def cross_entropy(logits: Tensor, labels: np.ndarray, name: str = "cross_entropy") -> Tensor:
    """``softmax_cross_entropy`` as one node; its backward takes the upstream
    gradient as the op's weight."""
    value, _ = softmax_cross_entropy(logits.data, labels, name=name)

    def backward(g: np.ndarray) -> None:
        _accumulate(logits, softmax_cross_entropy(logits.data, labels, g, name=name)[1])

    return _node(value, (logits,), backward, name)


def distance(students: list[Tensor], targets, owner=None,
             name: str = "stacked_distance") -> Tensor:
    """``stacked_distance`` as one node on ``(k, B, D)`` target stacks,
    with each row's own teacher gathered when ``owner`` routes the rows;
    its backward adds teacher j's contribution into each student in order
    j = 0..k-1."""
    arrays = [s.data for s in students]
    route = None
    if owner is not None:
        route, targets = (owner, len(targets[0])), [gathered(t, owner) for t in targets]
    value, _ = stacked_distance(arrays, targets, route, name=name)

    def backward(g: np.ndarray) -> None:
        _, grads = stacked_distance(arrays, targets, route, g, name=name)
        for s, stack in zip(students, grads):
            for contribution in stack:
                _accumulate(s, contribution)

    return _node(value, tuple(students), backward, name)


def tape_objective(student: TapSet, labels: np.ndarray, task_coef: float,
                   teacher: TapSet | None = None, distill_coef: float = 0.0,
                   kind: str = "features", owner=None) -> Tensor:
    """``l_exp`` and ``l_base`` on a per-op pass (a TapSet of nodes), as the
    tape builds them: ``task_coef`` times the cross-entropy plus
    ``distill_coef`` times the ``kind`` distance to the ``(k, B, D)``
    teacher stack, a zero coefficient leaving its term out. ``owner``
    routes each row to its teacher; without it every row counts for every
    teacher."""
    terms = []
    if task_coef != 0.0:
        terms.append(scale(cross_entropy(student.logits, labels), task_coef))
    if distill_coef != 0.0:
        n = len(student.taps)
        which = {"features": range(n), "phi_penultimate": [n - 1], "kd_logits": [n]}[kind]
        outputs, targets = [*student.taps, student.logits], [*teacher.taps, teacher.logits]
        terms.append(scale(
            distance([outputs[i] for i in which], [targets[i] for i in which], owner),
            distill_coef,
        ))
    out = terms[0]
    for t in terms[1:]:
        out = add(out, t)
    return out


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


def mul(x: Tensor, y: Tensor, name: str = "mul") -> Tensor:
    if x.shape != y.shape:
        raise GraphError(f"{name}: shape mismatch {x.shape} * {y.shape}")
    out_data = x.data * y.data

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g * y.data)
        _accumulate(y, g * x.data)

    return _node(out_data, (x, y), backward, name)


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
    ``mask`` (from ``dropout_mask``) is applied instead of a fresh draw,
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


def batch_norm_values(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Forward value of train-mode :func:`batch_norm` on plain arrays.

    No tape node, no running buffers. Leading axes stack independent
    layers: ``x`` is ``(..., B, D)`` and ``gamma``, ``beta`` are
    ``(..., D)``; statistics are taken over the rows (axis -2) of each,
    with the same arithmetic as a single ``(B, D)`` input.
    """
    xhat, _ = batch_norm_arrays(x.copy(), None, True)  # it normalizes in place
    return gamma[..., None, :] * xhat + beta[..., None, :]


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    train: bool,
    name: str = "batch_norm",
) -> Tensor:
    """Per-feature normalization over the batch axis.

    Train mode normalizes by batch statistics (needs at least 2 rows) and
    folds them into the running buffers in place with momentum
    ``BN_MOMENTUM`` (running variance uses the unbiased estimate), buffer
    by buffer as :func:`running_update_reference` does. Eval
    mode is a fixed affine map built from the running buffers. Both add
    ``BN_EPS`` to the variance.
    """
    if x.data.ndim != 2 or x.shape[1] != gamma.shape[0]:
        raise GraphError(f"{name}: input {x.shape} vs width {gamma.shape}")
    n = x.shape[0]
    if train and n < 2:
        raise GraphError(f"{name}: train-mode batch of size {n} (need >= 2)")
    # batch_norm_arrays normalizes in place, and x.data is the input node's value
    if train:
        batch: list[np.ndarray] = []
        xhat, inv_std = batch_norm_arrays(x.data.copy(), batch, True)
        running_update_reference(running_mean, running_var, *batch, n)
    else:
        xhat, inv_std = batch_norm_arrays(
            x.data.copy(), (running_mean, running_var), False
        )
    out_data = gamma.data * xhat + beta.data

    def backward(g: np.ndarray) -> None:
        dgamma, dbeta, dx = batch_norm_grads(g, xhat, inv_std, gamma.data, train)
        _accumulate(gamma, dgamma)
        _accumulate(beta, dbeta)
        _accumulate(x, dx)

    return _node(out_data, (x, gamma, beta), backward, name)


def per_op_forward(model: ResidualClassifier, x: np.ndarray, train: bool = False,
                   rng: np.random.Generator | None = None) -> tuple[TapSet, dict[str, Tensor]]:
    """The student pass as a graph of one tape node per op: the oracle of the fused pass.

    Same contract as ``ResidualClassifier.forward_with_taps``: it updates
    the running buffers in train mode and draws one dropout mask per site,
    in layer order. The fused pass must give the same taps, logits, masks,
    buffers and gradients, bit for bit.
    """
    leaves = {name: Tensor(arr, requires_grad=True, name=name)
              for name, arr in model.params.items()}
    p = model.config.dropout_p
    masks: list[np.ndarray] = []

    def drop(h, name):
        mask = None
        if train and rng is not None:
            mask = dropout_mask(h.shape, p, rng, h.dtype)
            masks.append(mask)
        return dropout(h, p, rng, train, name=name, mask=mask)

    def layer(h, prefix, p_drop):
        h = add(matmul(h, leaves[f"{prefix}.W"]), leaves[f"{prefix}.b"])
        h = batch_norm(h, leaves[f"{prefix}.bn.gamma"], leaves[f"{prefix}.bn.beta"],
                       model.stats[f"{prefix}.bn.running_mean"],
                       model.stats[f"{prefix}.bn.running_var"], train=train)
        h = relu(h)
        return drop(h, f"{prefix}.dropout") if p_drop > 0 else h

    h = layer(Tensor(x.astype(model.params["stem.W"].dtype, copy=False)), "stem", p)
    taps = []
    for b in range(model.config.res_blocks):
        r = h
        for l in range(model.config.res_layers_per_block):
            r = layer(r, f"block{b}.layer{l}", p)
        h = add(h, r)
        taps.append(h)
    pen = layer(h, "penult", 0.0)
    taps.append(pen)
    head_in = drop(pen, "head.dropout") if p > 0 else pen
    logits = add(matmul(head_in, leaves["head.W"]), leaves["head.b"])
    return TapSet(taps=taps, logits=logits, masks=masks), leaves
