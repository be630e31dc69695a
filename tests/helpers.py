"""Shared test utilities: float64 model twins, teacher stacks, finite-difference oracles and the per-op student pass."""

from __future__ import annotations

import numpy as np

from batchcl.config import (
    BaselineSpec,
    BmcSpec,
    ExperimentConfig,
    ModelSpec,
    StreamSpec,
    TrainingSpec,
)
from batchcl.engine import Tensor
from batchcl.model import ResidualClassifier, TapSet


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


def stack_passes(passes: list[TapSet]) -> TapSet:
    """Single-teacher passes as one stacked pass, taps and logits ``(k, B, D)``."""
    return TapSet(
        taps=[Tensor(np.stack([p.taps[i].data for p in passes]))
              for i in range(len(passes[0].taps))],
        logits=Tensor(np.stack([p.logits.data for p in passes])),
    )


def float64_twin(model: ResidualClassifier) -> ResidualClassifier:
    """Copy of a model with all state promoted to float64 (for derivative checks)."""
    m = model.copy()
    m.params = {k: v.astype(np.float64) for k, v in m.params.items()}
    m.stats = {k: v.astype(np.float64) for k, v in m.stats.items()}
    return m


def jitter_params(model: ResidualClassifier, seed: int, scale: float = 0.1) -> None:
    """Randomize all parameters slightly.

    Freshly built models have zero biases/betas, which parks whole dead rows
    exactly on the ReLU kink where central differences straddle the
    non-differentiability; jitter moves every pre-activation off the kink.
    """
    rng = np.random.default_rng(seed)
    for v in model.params.values():
        v += (rng.standard_normal(v.shape) * scale).astype(v.dtype)


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


def per_op_forward(model: ResidualClassifier, x: np.ndarray, train: bool = False,
                   rng: np.random.Generator | None = None) -> tuple[TapSet, dict[str, Tensor]]:
    """The student pass as a graph of one tape node per op: the oracle of the fused pass.

    Same contract as ``ResidualClassifier.forward_with_taps``: it updates
    the running buffers in train mode and draws one dropout mask per site,
    in layer order. The fused pass must give the same taps, logits, masks,
    buffers and gradients, bit for bit.
    """
    from batchcl.engine import add, batch_norm, dropout, dropout_mask, matmul, relu

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
