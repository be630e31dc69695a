"""Training objectives.

Everything here is a pure function from live graph nodes (taps, logits)
to a scalar loss node; differentiation and parameter updates stay with
the caller. Teacher-side inputs are always shielded by stop-gradient, so
no objective in this module can move a teacher's parameters.

Objectives:

- ``task_loss``            cross-entropy on the full current head
- ``l_bd``                 per-tap mean squared feature distillation
- ``l_exp``                expert objective: task + stability
- ``l_bmc``                batched distillation over a stack of expert teachers
- ``l_base``               consolidation objective: replay task loss + l_bmc
- ``alt_distill``          ablation alternatives (logit space / last tap only)
- ``ewc_penalty``          quadratic parameter-importance penalty
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .engine import (
    GraphError,
    Tensor,
    add,
    masked_row_sqnorm_mean,
    mean_square,
    row_sqnorm_mean,
    scale,
    softmax_cross_entropy,
    stacked_distance,
    stop_gradient,
    sub,
)
from .model import TapSet


@dataclass(frozen=True)
class LossCoefficients:
    """Scalar weights of the composite objectives.

    ``stability`` multiplies the expert-side distillation term,
    ``task`` the replay cross-entropy during consolidation, and
    ``consolidation`` the batched distillation term.
    """

    stability: float = 1.0
    task: float = 1.0
    consolidation: float = 1.0

    def __post_init__(self):
        for name in ("stability", "task", "consolidation"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} coefficient must be >= 0")


def task_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over the batch, labels in global class-id space."""
    return softmax_cross_entropy(logits, labels, name="task_loss")


def _check_aligned(teacher: TapSet, student: TapSet) -> None:
    if len(teacher.taps) != len(student.taps):
        raise GraphError(
            f"tap count mismatch: teacher {len(teacher.taps)} vs student {len(student.taps)}"
        )
    for i, (t, s) in enumerate(zip(teacher.taps, student.taps)):
        if t.shape != s.shape:
            raise GraphError(f"tap {i} shape mismatch: {t.shape} vs {s.shape}")


def l_bd(teacher: TapSet, student: TapSet, row_mask: np.ndarray | None = None) -> Tensor:
    """Feature distillation: sum over depths of the mean squared tap difference.

    Each tap contributes the mean over rows and features of the squared
    teacher-student difference. The squared form gives a pull that shrinks
    with the distance, so a fixed-step update settles onto the teacher
    instead of overshooting it as the constant-size gradient of an
    unsquared norm does; the per-feature mean keeps taps of different
    widths on one scale. The teacher taps enter through stop-gradient, so
    the result is a function of student parameters only. ``row_mask``
    restricts the mean to selected rows (used when a teacher is
    authoritative for only part of a batch).
    """
    _check_aligned(teacher, student)
    total: Tensor | None = None
    for i, (t, s) in enumerate(zip(teacher.taps, student.taps)):
        d = mean_square(
            sub(stop_gradient(t, name=f"teacher_tap{i}"), s, name=f"tap{i}.diff"),
            row_mask,
            name=f"tap{i}.distance",
        )
        total = d if total is None else add(total, d, name="tap_distance_sum")
    assert total is not None
    return total


def l_exp(
    student: TapSet,
    base_teacher: TapSet,
    labels: np.ndarray,
    stability_coef: float,
    kind: str = "features",
) -> Tensor:
    """Expert objective: cross-entropy plus stability pull toward the base.

    With coefficient 0 the distillation branch is skipped entirely, making
    the objective (and its RNG/graph footprint) literally plain task loss.
    ``kind`` selects the distillation variant (ablation hook).
    """
    ce = task_loss(student.logits, labels)
    if stability_coef == 0.0:
        return ce
    return add(
        ce, scale(alt_distill(kind, base_teacher, student), stability_coef),
        name="expert_loss",
    )


def l_bmc(
    student: TapSet,
    expert_teachers: TapSet | Sequence[TapSet],
    teacher_origins: Sequence[int],
    batch_origins: np.ndarray,
    kind: str = "features",
) -> Tensor:
    """Batched distillation: per-expert distances, summed over experts, as one node.

    ``expert_teachers`` is the pass of a stack of k expert teachers: a
    TapSet whose taps and logits carry a leading expert axis, ``(k, B, D)``,
    as :meth:`~batchcl.model.ResidualClassifier.forward_as_teacher` returns
    for a stack. A list of k single-teacher TapSets is stacked first.

    Each expert is authoritative only for the exemplars its own buffer
    contributed, so its distance is averaged over the batch rows whose
    origin tag matches ``teacher_origins[j]``; rows from other buffers or
    from memory contribute nothing to that expert's term. An expert absent
    from the batch contributes an exact zero. Teacher taps are recomputed
    locally from transmitted parameter snapshots; features themselves never
    cross a worker boundary.

    Every ``kind`` is one :func:`~batchcl.engine.stacked_distance` node over
    the (k, B) origin masks. It adds expert j's gradient into the student in
    expert order j = 0..k-1, the order in which a sum of per-expert
    :func:`alt_distill` graphs accumulates them, so the loss and every
    gradient are bit-identical to that sum.
    """
    if isinstance(expert_teachers, TapSet):
        teachers = expert_teachers
    else:
        if not expert_teachers:
            raise GraphError("batched distillation needs at least one expert teacher")
        for teacher in expert_teachers:
            _check_aligned(teacher, student)
        teachers = TapSet(
            taps=[
                Tensor(np.stack([t.taps[i].data for t in expert_teachers]))
                for i in range(len(student.taps))
            ],
            logits=Tensor(np.stack([t.logits.data for t in expert_teachers])),
        )
    k = teachers.logits.shape[0]
    if len(teacher_origins) != k:
        raise GraphError(f"{k} teachers but {len(teacher_origins)} origin tags")
    if len(teachers.taps) != len(student.taps):
        raise GraphError(
            f"tap count mismatch: teacher {len(teachers.taps)} vs student {len(student.taps)}"
        )
    origins = np.asarray(batch_origins)
    masks = origins[None, :] == np.asarray(teacher_origins)[:, None]
    students, targets, per_feature = _distilled(kind, teachers, student)
    return stacked_distance(students, targets, masks, per_feature, name="expert_distance")


def l_base(
    student: TapSet,
    expert_teachers: TapSet | Sequence[TapSet] | None,
    labels: np.ndarray,
    task_coef: float,
    consolidation_coef: float,
    kind: str = "features",
    teacher_origins: Sequence[int] | None = None,
    batch_origins: np.ndarray | None = None,
) -> Tensor:
    """Consolidation objective: weighted replay cross-entropy + batched distillation.

    A zero coefficient skips its branch entirely (degenerate modes reduce
    to pure replay or pure distillation with no leftover graph work). The
    origin arguments route each batch row to the expert whose buffer
    contributed it; they are required whenever the distillation branch is
    active.
    """
    terms: list[Tensor] = []
    if task_coef != 0.0:
        terms.append(scale(task_loss(student.logits, labels), task_coef))
    if consolidation_coef != 0.0:
        if teacher_origins is None or batch_origins is None:
            raise GraphError("batched distillation needs origin tags for the batch")
        terms.append(
            scale(
                l_bmc(student, expert_teachers, teacher_origins, batch_origins, kind),
                consolidation_coef,
            )
        )
    if not terms:
        raise GraphError("both coefficients zero: nothing to optimize")
    out = terms[0]
    for t in terms[1:]:
        out = add(out, t, name="base_loss")
    return out


DISTILL_KINDS = ("features", "kd_logits", "phi_penultimate")


def _distilled(kind: str, teacher: TapSet, student: TapSet):
    """What ``kind`` compares: (student nodes, teacher arrays, per-feature mean).

    The same choice as :func:`alt_distill`: every tap, the last tap only,
    or the logits with the per-row squared norm.
    """
    if kind == "features":
        return student.taps, [t.data for t in teacher.taps], True
    if kind == "phi_penultimate":
        return student.taps[-1:], [teacher.taps[-1].data], True
    if kind == "kd_logits":
        return [student.logits], [teacher.logits.data], False
    raise ValueError(f"unknown distillation kind {kind!r}; expected one of {DISTILL_KINDS}")


def alt_distill(
    kind: str, teacher: TapSet, student: TapSet, row_mask: np.ndarray | None = None
) -> Tensor:
    """Distillation variants for the loss ablation.

    ``features`` is :func:`l_bd`; ``kd_logits`` is the per-row squared L2
    distance of the raw logits, averaged over rows; ``phi_penultimate`` is
    :func:`l_bd`'s term for the last tap only. Every kind is exactly 0
    between identical passes, which takes a teacher pass given the
    student's dropout masks when the model drops units.
    """
    if kind == "features":
        return l_bd(teacher, student, row_mask)
    if kind == "kd_logits":
        if teacher.logits.shape != student.logits.shape:
            raise GraphError(
                f"logit shape mismatch: {teacher.logits.shape} vs {student.logits.shape}"
            )
        diff = sub(
            stop_gradient(teacher.logits, name="teacher_logits"),
            student.logits,
            name="logit.diff",
        )
        if row_mask is None:
            return row_sqnorm_mean(diff, name="logit.distance")
        return masked_row_sqnorm_mean(diff, row_mask, name="logit.distance")
    if kind == "phi_penultimate":
        _check_aligned(teacher, student)
        diff = sub(
            stop_gradient(teacher.taps[-1], name="teacher_penult"),
            student.taps[-1],
            name="penult.diff",
        )
        return mean_square(diff, row_mask, name="penult.distance")
    raise ValueError(f"unknown distillation kind {kind!r}; expected one of {DISTILL_KINDS}")


@dataclass
class FisherState:
    """Diagonal parameter-importance estimate plus the anchor it penalizes drift from."""

    importance: dict[str, np.ndarray]
    anchor: dict[str, np.ndarray]
    gamma: float = 1.0

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray], gamma: float = 1.0) -> "FisherState":
        return cls(
            importance={k: np.zeros_like(v) for k, v in params.items()},
            anchor={k: v.copy() for k, v in params.items()},
            gamma=gamma,
        )

    def check_layout(self, params: dict[str, np.ndarray]) -> None:
        if set(self.importance) != set(params):
            raise ValueError("importance layout does not match model parameters")
        for k, v in params.items():
            if self.importance[k].shape != v.shape:
                raise ValueError(f"importance shape mismatch for '{k}'")


def ewc_penalty(param_leaves: dict[str, Tensor], fisher: FisherState) -> Tensor:
    """Sum over parameters of importance-weighted squared drift from the anchor.

    Computed directly on the data arrays with a hand-wired gradient (the
    penalty is elementwise, so its derivative is analytic); returned as a
    graph node so it composes with task_loss via ``add``.
    """
    fisher.check_layout({k: v.data for k, v in param_leaves.items()})
    value = 0.0
    for k, leaf in param_leaves.items():
        drift = leaf.data - fisher.anchor[k]
        value += float((fisher.importance[k] * drift * drift).sum())

    out = Tensor(
        np.asarray(value, dtype=next(iter(param_leaves.values())).dtype),
        name="ewc_penalty",
    )
    out.requires_grad = any(l.requires_grad for l in param_leaves.values())

    def backward(g: np.ndarray) -> None:
        for k, leaf in param_leaves.items():
            if leaf.requires_grad:
                if leaf.grad is None:
                    leaf.grad = np.zeros_like(leaf.data)
                drift = leaf.data - fisher.anchor[k]
                leaf.grad += g * 2.0 * fisher.importance[k] * drift

    if out.requires_grad:
        out.parents = tuple(param_leaves.values())
        out.backward_fn = backward
    return out


def update_fisher(
    model,
    x: np.ndarray,
    labels: np.ndarray,
    fisher: FisherState,
) -> None:
    """Accumulate empirical curvature from one batch into the running importance.

    Squared task-loss gradients at the ground-truth labels (eval-mode
    forward: importance estimation should not perturb normalization
    statistics or consume dropout randomness).
    """
    from .engine import loss_and_grads

    tapset, leaves = model.forward_with_taps(x, train=False)
    _, grads = loss_and_grads(task_loss(tapset.logits, labels), leaves)
    fisher.check_layout(model.params)
    for k, g in grads.items():
        fisher.importance[k] += g.astype(np.float32) ** 2


def decay_and_anchor(fisher: FisherState, params: dict[str, np.ndarray]) -> None:
    """Task-boundary bookkeeping: decay old importance by gamma, re-anchor here."""
    for k in fisher.importance:
        fisher.importance[k] *= fisher.gamma
    fisher.anchor = {k: v.copy() for k, v in params.items()}
