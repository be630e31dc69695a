"""Training objectives.

Every objective is a pure function of a student pass's arrays (taps,
logits) that returns an :class:`Objective`: the loss value and its
gradients with respect to those taps and logits, already weighted by its
coefficients: plain floats from the run's ``bmc`` config section, whose
schema keeps them >= 0. Carrying them to the parameters
(:meth:`~batchcl.model.ResidualClassifier.backward`) and updating them
stays with the caller. Teacher-side inputs are constant arrays from a
teacher pass, so no objective in this module can move a teacher's
parameters.

Objectives:

- ``task_loss``            cross-entropy on the full current head
- ``l_bd``                 per-tap mean squared feature distillation
- ``alt_distill``          the distillation kinds (every tap / logits / last tap only)
- ``l_exp``                expert objective: task + stability (``alt_distill`` to the base)
- ``l_bmc``                batched distillation over a stack of expert teachers
- ``l_base``               consolidation objective: replay task loss + l_bmc
- ``ewc_penalty``          quadratic parameter-importance penalty (on the parameters)

Every distillation distance is one :func:`~batchcl.engine.stacked_distance`
call: a single teacher pass is a stack of one, every row counting, and
``l_bmc`` routes each row to one expert of its stack by the row's origin
tag. A row's origin is the index of the expert whose buffer contributed
it, which is that expert's slice of the teacher stack, and memory rows
(origin -1) go to no expert; so the routing is the origin column itself,
fixed for a whole consolidation, with nothing to work out per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .engine import GraphError, loss_and_grads, softmax_cross_entropy, stacked_distance
from .model import TapSet


@dataclass
class Objective:
    """A loss on one student pass: its value and its gradients with respect
    to the pass's taps and logits.

    ``taps[i]`` and ``logits`` each list the contributions to one gradient,
    in the order they are summed; an empty list means the loss does not
    reach that output. The order is the one a per-op tape adds them in,
    which :meth:`~batchcl.model.ResidualClassifier.backward` keeps.
    """

    value: np.ndarray
    taps: list[list[np.ndarray]]
    logits: list[np.ndarray]


def _joined(terms: list[Objective]) -> Objective:
    """The sum of objectives on one pass; each term's contributions follow
    those of the terms before it."""
    out = terms[0]
    for t in terms[1:]:
        out = Objective(
            out.value + t.value, [a + b for a, b in zip(out.taps, t.taps)], out.logits + t.logits
        )
    return out


def task_loss(student: TapSet, labels: np.ndarray, weight: float = 1.0) -> Objective:
    """Mean cross-entropy over the batch, labels in global class-id space."""
    value, grad = softmax_cross_entropy(student.logits, labels, weight, name="task_loss")
    return Objective(value, [[] for _ in student.taps], [grad])


def l_bd(teacher: TapSet, student: TapSet) -> Objective:
    """Feature distillation: sum over depths of the mean squared tap difference.

    Each tap contributes the mean over rows and features of the squared
    teacher-student difference. The squared form gives a pull that shrinks
    with the distance, so a fixed-step update settles onto the teacher
    instead of overshooting it as the constant-size gradient of an
    unsquared norm does; the per-feature mean keeps taps of different
    widths on one scale. The teacher taps are constants, so the result is
    a function of student parameters only.
    """
    return alt_distill("features", teacher, student)


def l_exp(
    student: TapSet,
    base_teacher: TapSet,
    labels: np.ndarray,
    stability_coef: float,
    kind: str = "features",
) -> Objective:
    """Expert objective: cross-entropy plus stability pull toward the base.

    With coefficient 0 the distillation branch is skipped entirely, making
    the objective (and its RNG footprint) literally plain task loss.
    ``kind`` selects the distillation variant (ablation hook).
    """
    ce = task_loss(student, labels)
    if stability_coef == 0.0:
        return ce
    return _joined([ce, alt_distill(kind, base_teacher, student, stability_coef)])


def l_bmc(
    student: TapSet,
    expert_teachers: TapSet,
    batch_origins: np.ndarray,
    kind: str = "features",
    weight: float = 1.0,
) -> Objective:
    """Batched distillation: per-expert distances, summed over experts, in one op.

    ``expert_teachers`` is the pass of a stack of k expert teachers: a
    TapSet whose taps and logits carry a leading expert axis, ``(k, B, D)``,
    such as ``TapSet.teachers`` of the stacked student pass that computed
    ``student`` (:meth:`~batchcl.model.ResidualClassifier.forward_with_taps`).

    Each expert is authoritative only for the exemplars its own buffer
    contributed. ``batch_origins`` is the ``(B,)`` origin tag of every row,
    and a row's origin is its teacher's slice of the stack: origin j routes
    the row to expert j, and ``ORIGIN_MEMORY`` (-1) to no expert. Each
    expert's distance is averaged over its own rows; rows from other
    buffers or from memory contribute nothing to its term, and an expert
    absent from the batch contributes an exact zero. An origin of k or more
    names no expert of the stack (GraphError). Teacher taps are recomputed
    locally from transmitted parameter snapshots; features themselves never
    cross a worker boundary.

    Every ``kind`` is one :func:`~batchcl.engine.stacked_distance` call
    routed by the origins. The value adds the experts' terms in expert
    order, bit-identical to a sum of k single-expert distances. Each row's
    own expert is gathered once, so every tap's gradient is one ``(B, D)``
    contribution; a row of memory gets an exact zero. Every other expert's
    share of a row is zero, so the gradients are those of the sum of k
    single-expert distances too.
    """
    return _distance(kind, expert_teachers, student, batch_origins, weight, "expert_distance")


def l_base(
    student: TapSet,
    expert_teachers: TapSet | None,
    labels: np.ndarray,
    task_coef: float,
    consolidation_coef: float,
    kind: str = "features",
    batch_origins: np.ndarray | None = None,
) -> Objective:
    """Consolidation objective: weighted replay cross-entropy + batched distillation.

    A zero coefficient skips its branch entirely (degenerate modes reduce
    to pure replay or pure distillation with no leftover work). The batch's
    origin tags route each row to the expert whose buffer contributed it
    (:func:`l_bmc`); they are required whenever the distillation branch is
    active.
    """
    terms: list[Objective] = []
    if task_coef != 0.0:
        terms.append(task_loss(student, labels, task_coef))
    if consolidation_coef != 0.0:
        if batch_origins is None:
            raise GraphError("batched distillation needs origin tags for the batch")
        terms.append(l_bmc(student, expert_teachers, batch_origins, kind, consolidation_coef))
    if not terms:
        raise GraphError("both coefficients zero: nothing to optimize")
    return _joined(terms)


DISTILL_KINDS = ("features", "kd_logits", "phi_penultimate")


def _distance(kind: str, teacher: TapSet, student: TapSet, owner, weight: float,
              name: str) -> Objective:
    """The ``kind`` distance of the student to a teacher stack, as one
    :func:`~batchcl.engine.stacked_distance` call over every tap, the last
    tap only, or the logits; each a mean over rows and features alike."""
    n = len(student.taps)
    if len(teacher.taps) != n:
        raise GraphError(f"tap count mismatch: teacher {len(teacher.taps)} vs student {n}")
    if kind == "features":
        which, targets = range(n), teacher.taps
    elif kind == "phi_penultimate":
        which, targets = [n - 1], teacher.taps[-1:]
    elif kind == "kd_logits":
        which, targets = [n], [teacher.logits]
    else:
        raise ValueError(f"unknown distillation kind {kind!r}; expected one of {DISTILL_KINDS}")
    outputs = [*student.taps, student.logits]
    value, grads = stacked_distance([outputs[i] for i in which], targets, owner, weight, name=name)
    parts: list[list[np.ndarray]] = [[] for _ in outputs]
    for i, stack in zip(which, grads):
        parts[i] = list(stack)
    return Objective(value, parts[:-1], parts[-1])


def alt_distill(kind: str, teacher: TapSet, student: TapSet, weight: float = 1.0) -> Objective:
    """Distillation to one teacher pass, in each of the loss-ablation variants.

    ``features`` is :func:`l_bd`; ``kd_logits`` is the squared difference
    of the raw logits, averaged over rows and logits (DER's logit replay);
    ``phi_penultimate`` is :func:`l_bd`'s term for the last tap only. Every
    kind is exactly 0 between identical passes, which takes a teacher pass
    given the student's dropout masks when the model drops units. The
    teacher pass is a stack of one (a view, no copy) in which every row
    counts.
    """
    stacked = TapSet(taps=[t[None] for t in teacher.taps], logits=teacher.logits[None])
    return _distance(kind, stacked, student, None, weight, "teacher_distance")


@dataclass
class FisherState:
    """Diagonal parameter-importance estimate plus the anchor it penalizes
    drift from, both flat arrays laid out like the model's ``flat_params``."""

    importance: np.ndarray
    anchor: np.ndarray
    gamma: float = 1.0

    @classmethod
    def zeros_like(cls, params: np.ndarray, gamma: float = 1.0) -> "FisherState":
        return cls(importance=np.zeros_like(params), anchor=params.copy(), gamma=gamma)

    def check_layout(self, params: np.ndarray) -> None:
        if self.importance.shape != params.shape:
            raise ValueError(
                f"importance layout {self.importance.shape} does not match "
                f"model parameters {params.shape}"
            )


def ewc_penalty(
    params: np.ndarray, slices: Mapping[str, slice], fisher: FisherState, weight: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Sum over parameters of importance-weighted squared drift from the
    anchor, times ``weight``: ``(value, flat gradient)``.

    ``params`` is a model's ``flat_params`` and ``slices`` names each
    parameter's slice of it; the value adds one float per parameter, in
    that order. The penalty is elementwise, so its derivative is analytic.
    """
    fisher.check_layout(params)
    g = np.asarray(weight, dtype=params.dtype)
    drift = params - fisher.anchor
    terms = fisher.importance * drift * drift
    value = 0.0
    for sl in slices.values():
        value += float(terms[sl].sum())
    return np.asarray(value, dtype=g.dtype) * g, g * 2.0 * fisher.importance * drift


def update_fisher(
    model,
    x: np.ndarray,
    labels: np.ndarray,
    fisher: FisherState,
) -> None:
    """Accumulate empirical curvature from one batch into the running importance.

    Squared task-loss gradients at the ground-truth labels (eval-mode
    forward and backward: importance estimation should not perturb
    normalization statistics or consume dropout randomness).
    """
    tapset, record = model.forward_with_taps(x, train=False)
    loss = task_loss(tapset, labels)
    _, grads = loss_and_grads(loss.value, lambda: model.backward(record, loss))
    fisher.check_layout(model.flat_params)
    fisher.importance += grads.astype(np.float32) ** 2


def decay_and_anchor(fisher: FisherState, params: np.ndarray) -> None:
    """Task-boundary bookkeeping: decay old importance by gamma, re-anchor here."""
    fisher.importance *= fisher.gamma
    fisher.anchor = params.copy()
