"""Training objectives.

Every objective is a pure function of a student pass's outputs (taps,
then logits) that returns an :class:`Objective`: the loss value and its
gradient with respect to each of those outputs, already weighted by its
coefficients: plain floats from the run's ``bmc`` config section, which
``parse_config`` keeps >= 0. Carrying them to the parameters
(:meth:`~batchcl.model.ResidualClassifier.backward`) and updating them
stays with the caller. Teacher-side inputs are constant arrays from a
teacher pass, so no objective in this module can move a teacher's
parameters.

Objectives:

- ``task_loss``            cross-entropy on the full current head
- ``distill``              distillation toward teachers (every tap / last tap / logits):
                           one teacher every row counts for, or each row's own
                           expert's gathered outputs, routed by origin
- ``l_exp``                expert objective: task + stability (``distill`` to the base)
- ``l_base``               consolidation objective: replay task loss + routed ``distill``
- ``ewc_penalty``          quadratic parameter-importance penalty (on the parameters)

Every teacher pass a distance reads is ``(B, D)``, the student's shape.
Unrouted, it is one teacher's: the base's for the stability pull, and one
model's for the drift telemetry. Consolidation's k experts run in a
process of their own, which sends each batch row its own expert's
outputs; the routed form takes those and the teacher count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .engine import GraphError, loss_and_grads, softmax_cross_entropy, stacked_distance
from .model import TapSet


@dataclass
class Objective:
    """A loss on one student pass: its value and its gradient with respect
    to each of the pass's ``outputs`` (:class:`~batchcl.model.TapSet`), in
    their order; None where the loss does not reach that output.
    """

    value: np.ndarray
    grads: list[np.ndarray | None]


def _joined(terms: list[Objective]) -> Objective:
    """The sum of objectives on one pass: each output's gradient adds the
    terms' in term order, earlier terms first, as a per-op tape adds them."""
    out = terms[0]
    for t in terms[1:]:
        out = Objective(out.value + t.value, [
            b if a is None else a if b is None else a + b for a, b in zip(out.grads, t.grads)
        ])
    return out


def task_loss(student: TapSet, labels: np.ndarray, weight: float = 1.0) -> Objective:
    """Mean cross-entropy over the batch, labels in global class-id space."""
    value, grad = softmax_cross_entropy(student.logits, labels, weight, name="task_loss")
    return Objective(value, [None] * len(student.taps) + [grad])


DISTILL_KINDS = ("features", "kd_logits", "phi_penultimate")


def distilled_outputs(kind: str, n_taps: int) -> list[int]:
    """The outputs of a pass with ``n_taps`` taps that the ``kind`` distance
    compares, as indices into its ``outputs``: every tap
    (``features``), the last tap (``phi_penultimate``) or the raw logits
    (``kd_logits``, DER's logit replay)."""
    which = {"features": range(n_taps), "phi_penultimate": [n_taps - 1],
             "kd_logits": [n_taps]}.get(kind)
    if which is None:
        raise ValueError(f"unknown distillation kind {kind!r}; expected one of {DISTILL_KINDS}")
    return list(which)


def distill(kind: str, teachers: TapSet, student: TapSet,
            route: tuple[np.ndarray, int] | None = None, weight: float = 1.0) -> Objective:
    """The ``kind`` distance of the student to its teachers, times ``weight``.

    ``kind`` picks the outputs compared (:func:`distilled_outputs`). Each
    term is the squared teacher-student difference averaged over rows and
    features, exactly 0 between identical passes: its pull shrinks with
    the distance, so a fixed-step update settles onto the teacher instead
    of overshooting it.

    ``teachers`` is a pass shaped like the student's, ``(B, D)``. Without
    ``route`` it is one teacher's and every row counts: the stability pull
    and the drift telemetry. ``route = (origins, k)`` is the batched
    consolidation term: origin j routes a row to teacher j of k, whose
    buffer contributed it, and -1 (memory) to none. Then ``teachers``
    holds each row's own teacher's outputs, gathered where the k teachers
    ran (a memory row carries teacher 0's); an output the kind does not
    compare may be None. Each teacher's distance averages over its own
    rows, a teacher owning none adds an exact 0, and value and gradients
    are those of a sum of k one-teacher distances, all in one
    :func:`~batchcl.engine.stacked_distance` call.
    """
    n = len(student.taps)
    if len(teachers.taps) != n:
        raise GraphError(f"tap count mismatch: teacher {len(teachers.taps)} vs student {n}")
    which = distilled_outputs(kind, n)
    value, grads = stacked_distance(
        [student.outputs[i] for i in which], [teachers.outputs[i] for i in which], route, weight,
        name="teacher_distance" if route is None else "expert_distance",
    )
    got = dict(zip(which, grads))
    return Objective(value, [got.get(i) for i in range(n + 1)])


def l_exp(
    student: TapSet,
    base: TapSet | None,
    labels: np.ndarray,
    stability_coef: float,
    kind: str = "features",
) -> Objective:
    """Expert objective: cross-entropy plus stability pull toward the base.

    ``base`` is the base's pass on the student's batch, ``(B, D)``. With
    coefficient 0 the distillation branch is skipped entirely, making the
    objective (and its RNG footprint) literally plain task loss, and
    ``base`` may be None. ``kind`` selects the distillation variant
    (ablation hook).
    """
    ce = task_loss(student, labels)
    if stability_coef == 0.0:
        return ce
    return _joined([ce, distill(kind, base, student, weight=stability_coef)])


def l_base(
    student: TapSet,
    expert_targets: TapSet | None,
    labels: np.ndarray,
    task_coef: float,
    consolidation_coef: float,
    kind: str = "features",
    route: tuple[np.ndarray, int] | None = None,
) -> Objective:
    """Consolidation objective: weighted replay cross-entropy + batched distillation.

    A zero coefficient skips its branch entirely (degenerate modes reduce
    to pure replay or pure distillation with no leftover work). The
    distillation branch is :func:`distill`'s routed form: ``route`` is the
    batch's origin tags and the teacher count, and ``expert_targets`` each
    row's own expert's outputs; both are required whenever that branch is
    active.
    """
    terms: list[Objective] = []
    if task_coef != 0.0:
        terms.append(task_loss(student, labels, task_coef))
    if consolidation_coef != 0.0:
        if route is None:
            raise GraphError("batched distillation needs origin tags for the batch")
        terms.append(distill(kind, expert_targets, student, route, consolidation_coef))
    if not terms:
        raise GraphError("both coefficients zero: nothing to optimize")
    return _joined(terms)


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
