"""Residual MLP classifier with intermediate-representation taps.

The network is the unit every other module works on: experts and the
base model are instances of the same architecture, distillation compares
their taps, and ParamVector is the only form in which parameters cross a
worker boundary.

Architecture (all affine layers followed by batch norm, then ReLU):

    x -> stem affine -> BN -> ReLU -> dropout
      -> res_blocks x [ block input h;
                        res_layers x (affine -> BN -> ReLU -> dropout);
                        output h + stack(h) ]          <- one tap per block
      -> penultimate affine -> BN -> ReLU              <- final tap
      -> dropout -> head affine -> logits

Taps are the residual-block outputs plus the penultimate activation
(``res_blocks + 1`` in total). Logits are deliberately not a tap; the
logit-space distillation alternative consumes them directly instead.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .engine import (
    GraphError,
    Tensor,
    add,
    batch_norm,
    batch_norm_values,
    dropout,
    dropout_mask,
    matmul,
    relu,
)

PARAM_VECTOR_MAGIC = b"CLPV"
PARAM_VECTOR_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the residual classifier. Defaults follow the reference setup."""

    input_dim: int
    total_classes: int
    res_blocks: int = 2
    res_layers_per_block: int = 3
    res_dim: int = 256
    hidden_dim: int = 128
    dropout_p: float = 0.3

    def __post_init__(self):
        for name in (
            "input_dim",
            "total_classes",
            "res_blocks",
            "res_layers_per_block",
            "res_dim",
            "hidden_dim",
        ):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")


@dataclass
class TapSet:
    """One forward pass: intermediate representations plus logits.

    ``taps`` are graph nodes in depth order (constants for a teacher pass);
    ``logits`` covers every class registered so far. ``masks`` are the dropout multipliers a
    train-mode pass drew, in layer order (empty when nothing was dropped);
    a teacher pass replays them to see exactly the units the student saw.
    """

    taps: list[Tensor]
    logits: Tensor
    masks: list[np.ndarray] = field(default_factory=list)


@dataclass(frozen=True)
class ParamVector:
    """Flat snapshot of a model's full inference state.

    Entries keep a stable order (build order) and include normalization
    running statistics, so loading a ParamVector reproduces the source
    model's eval-mode behavior exactly. This is the only format in which
    parameters are serialized, broadcast, or uploaded.
    """

    names: tuple[str, ...]
    arrays: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        for name, a in zip(self.names, self.arrays):
            if a.dtype != np.float32:
                raise ValueError(f"entry '{name}' is {a.dtype}, expected float32")

    def to_bytes(self) -> bytes:
        """Little-endian binary form.

        Header: magic ``CLPV``, version u16, entry count u32; per entry a
        name (u16 length + UTF-8 bytes), rank u8, and dims (u32 each).
        Payload: the float32 arrays concatenated in entry order.
        """
        out = [PARAM_VECTOR_MAGIC, struct.pack("<HI", PARAM_VECTOR_VERSION, len(self.names))]
        for name, a in zip(self.names, self.arrays):
            nb = name.encode()
            out.append(struct.pack("<H", len(nb)))
            out.append(nb)
            out.append(struct.pack("<B", a.ndim))
            out.append(struct.pack(f"<{a.ndim}I", *a.shape))
        for a in self.arrays:
            out.append(np.ascontiguousarray(a, dtype="<f4").tobytes())
        return b"".join(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ParamVector":
        if blob[:4] != PARAM_VECTOR_MAGIC:
            raise ValueError(f"bad magic {blob[:4]!r}, expected {PARAM_VECTOR_MAGIC!r}")
        version, count = struct.unpack_from("<HI", blob, 4)
        if version != PARAM_VECTOR_VERSION:
            raise ValueError(f"unsupported version {version}")
        off = 10
        names: list[str] = []
        shapes: list[tuple[int, ...]] = []
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            names.append(blob[off : off + nlen].decode())
            off += nlen
            (ndim,) = struct.unpack_from("<B", blob, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
            shapes.append(shape)
        arrays = []
        for name, shape in zip(names, shapes):
            n = int(np.prod(shape)) if shape else 1
            end = off + 4 * n
            if end > len(blob):
                raise ValueError(
                    f"truncated payload for entry '{name}' at byte {off}"
                )
            arrays.append(
                np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(shape).copy()
            )
            off = end
        return cls(tuple(names), tuple(arrays))

    @property
    def nbytes(self) -> int:
        """Exact serialized size; the quantity the cost ledger charges for."""
        header = 10 + sum(
            2 + len(n.encode()) + 1 + 4 * a.ndim
            for n, a in zip(self.names, self.arrays)
        )
        return header + 4 * sum(a.size for a in self.arrays)

    def same_bytes(self, other: "ParamVector") -> bool:
        return self.to_bytes() == other.to_bytes()


def _dropout(h: Tensor, p: float, rng, train: bool, name: str, masks: list) -> Tensor:
    """Dropout that keeps the mask it drew in ``masks`` (train mode with an RNG)."""
    mask = None
    if train and rng is not None:
        mask = dropout_mask(h.shape, p, rng, h.dtype)
        masks.append(mask)
    return dropout(h, p, rng, train, name=name, mask=mask)


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def _affine_layers(config: ModelConfig):
    """(prefix, fan-in, fan-out) of every affine -> BN layer, in build order."""
    yield "stem", config.input_dim, config.res_dim
    for b in range(config.res_blocks):
        for l in range(config.res_layers_per_block):
            yield f"block{b}.layer{l}", config.res_dim, config.res_dim
    yield "penult", config.res_dim, config.hidden_dim


def _state_shapes(config: ModelConfig) -> tuple[dict, dict]:
    """Shape of every parameter and running buffer, in snapshot order."""
    params: dict[str, tuple[int, ...]] = {}
    stats: dict[str, tuple[int, ...]] = {}
    for prefix, d_in, d_out in _affine_layers(config):
        params[f"{prefix}.W"] = (d_in, d_out)
        for name in ("b", "bn.gamma", "bn.beta"):
            params[f"{prefix}.{name}"] = (d_out,)
        for name in ("bn.running_mean", "bn.running_var"):
            stats[f"{prefix}.{name}"] = (d_out,)
    params["head.W"] = (config.hidden_dim, config.total_classes)
    params["head.b"] = (config.total_classes,)
    return params, stats


def _state_from_vector(config: ModelConfig, pv: ParamVector) -> tuple[dict, dict]:
    """A snapshot's arrays as (params, stats), checked against the shapes of ``config``.

    The arrays are the snapshot's own, not copies.
    """
    incoming = dict(zip(pv.names, pv.arrays))
    shapes = _state_shapes(config)
    expected = set(shapes[0]) | set(shapes[1])
    if set(incoming) != expected:
        missing = expected - set(incoming)
        extra = set(incoming) - expected
        raise ValueError(
            f"layout mismatch: missing={sorted(missing)} unexpected={sorted(extra)}"
        )
    state: tuple[dict, dict] = ({}, {})
    for part, part_shapes in zip(state, shapes):
        for name, shape in part_shapes.items():
            if incoming[name].shape != shape:
                raise ValueError(
                    f"layout mismatch for '{name}': {incoming[name].shape}, expected {shape}"
                )
            part[name] = incoming[name]
    return state


class ResidualClassifier:
    """The shared backbone. Single-owner: never share an instance across workers.

    ``params`` holds the learnable arrays, ``stats`` the normalization
    running buffers; both are snapshotted together by
    :meth:`to_param_vector`.
    """

    def __init__(self, config: ModelConfig, seed: int):
        self.config = config
        self.classes = config.total_classes
        self.params: dict[str, np.ndarray] = {}
        self.stats: dict[str, np.ndarray] = {}
        rng = np.random.default_rng(seed)
        for prefix, d_in, d_out in _affine_layers(config):
            self._add_affine_bn(rng, prefix, d_in, d_out)
        self.params["head.W"] = xavier_uniform(
            rng, config.hidden_dim, self.classes, (config.hidden_dim, self.classes)
        )
        self.params["head.b"] = np.zeros(self.classes, dtype=np.float32)

    @classmethod
    def _from_state(cls, config: ModelConfig, params: dict, stats: dict) -> "ResidualClassifier":
        """A model that owns the given arrays, with no initialization drawn."""
        m = cls.__new__(cls)
        m.config = config
        m.classes = config.total_classes
        m.params = params
        m.stats = stats
        return m

    def _add_affine_bn(self, rng, prefix: str, d_in: int, d_out: int) -> None:
        self.params[f"{prefix}.W"] = xavier_uniform(rng, d_in, d_out, (d_in, d_out))
        self.params[f"{prefix}.b"] = np.zeros(d_out, dtype=np.float32)
        self.params[f"{prefix}.bn.gamma"] = np.ones(d_out, dtype=np.float32)
        self.params[f"{prefix}.bn.beta"] = np.zeros(d_out, dtype=np.float32)
        self.stats[f"{prefix}.bn.running_mean"] = np.zeros(d_out, dtype=np.float32)
        self.stats[f"{prefix}.bn.running_var"] = np.ones(d_out, dtype=np.float32)

    @property
    def tap_count(self) -> int:
        return self.config.res_blocks + 1

    @property
    def param_count(self) -> int:
        """Learnable scalars only (running statistics excluded)."""
        return int(sum(a.size for a in self.params.values()))

    def _layer(self, h, prefix: str, leaves, train: bool, rng, p_drop: float, masks: list):
        w = leaves[f"{prefix}.W"]
        b = leaves[f"{prefix}.b"]
        gamma = leaves[f"{prefix}.bn.gamma"]
        beta = leaves[f"{prefix}.bn.beta"]
        h = add(matmul(h, w, name=f"{prefix}.W"), b, name=f"{prefix}.b")
        h = batch_norm(
            h,
            gamma,
            beta,
            self.stats[f"{prefix}.bn.running_mean"],
            self.stats[f"{prefix}.bn.running_var"],
            train=train,
            name=f"{prefix}.bn",
        )
        h = relu(h, name=f"{prefix}.relu")
        if p_drop > 0:
            h = _dropout(h, p_drop, rng, train, f"{prefix}.dropout", masks)
        return h

    def forward_with_taps(
        self,
        x: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[TapSet, dict[str, Tensor]]:
        """Run the network, returning the TapSet and the parameter leaves.

        The leaves map parameter names to the graph nodes of this pass;
        hand it to ``loss_and_grads`` to differentiate any loss built on
        the returned taps/logits. Train mode updates normalization running
        statistics in place and draws dropout masks from ``rng``; the
        TapSet keeps them for :meth:`forward_as_teacher`.
        """
        x = self._check_input(x)
        leaves = {
            name: Tensor(arr, requires_grad=True, name=name)
            for name, arr in self.params.items()
        }
        p = self.config.dropout_p
        masks: list[np.ndarray] = []
        # graphs run in whatever precision the parameters carry (float32 in
        # production; tests build float64 twins for derivative oracles)
        dtype = self.params["stem.W"].dtype
        h = self._layer(
            Tensor(x.astype(dtype, copy=False)), "stem", leaves, train, rng, p, masks
        )
        taps: list[Tensor] = []
        for bidx in range(self.config.res_blocks):
            r = h
            for lidx in range(self.config.res_layers_per_block):
                r = self._layer(r, f"block{bidx}.layer{lidx}", leaves, train, rng, p, masks)
            h = add(h, r, name=f"block{bidx}.skip")
            taps.append(h)
        pen = self._layer(h, "penult", leaves, train, rng, 0.0, masks)
        taps.append(pen)
        head_in = _dropout(pen, p, rng, train, "head.dropout", masks) if p > 0 else pen
        logits = add(
            matmul(head_in, leaves["head.W"], name="head.W"),
            leaves["head.b"],
            name="head.b",
        )
        return TapSet(taps=taps, logits=logits, masks=masks), leaves

    def forward_as_teacher(self, x: np.ndarray, masks=()) -> TapSet:
        """Distillation-target pass: batch statistics, replayed dropout, no mutation.

        Teachers must see the same normalization statistics and the same
        dropped units as the train-mode student they supervise, otherwise
        identical parameters would not give identical taps and the
        distillation distance would never reach zero. ``masks`` are the
        ``TapSet.masks`` of that student pass; without them no unit is
        dropped. Teacher passes are never differentiated, so this one runs
        on plain arrays with the student pass's arithmetic and records no
        tape: its taps and logits are constants. Running buffers are left
        untouched and no randomness is consumed.

        A model returns taps and logits of shape ``(B, D)``. A stack of k
        models (:func:`stack_vectors`) carries a leading expert axis on
        every array and runs the one shared batch through all k at once,
        returning ``(k, B, D)``: the shared input broadcasts over the
        ``(k, d, D)`` weights, biases and normalization scales broadcast as
        ``[..., None, :]``, and batch statistics reduce over the row axis
        (-2) of each expert. Every expert's slice thus goes through the same
        float operations as a single pass, and equals it bit for bit.
        """
        x = self._check_input(x)
        if len(x) < 2:
            raise GraphError(f"teacher pass on {len(x)} rows (batch statistics need >= 2)")
        if masks and len(masks) != self.dropout_sites:
            raise GraphError(
                f"{len(masks)} dropout masks for {self.dropout_sites} dropout layers"
            )
        replay = iter(masks)
        params = self.params

        def layer(h: np.ndarray, prefix: str, drop: bool) -> np.ndarray:
            h = h @ params[f"{prefix}.W"] + params[f"{prefix}.b"][..., None, :]
            h = np.maximum(
                batch_norm_values(h, params[f"{prefix}.bn.gamma"], params[f"{prefix}.bn.beta"]),
                0,
            )
            return h * next(replay) if drop and masks else h

        h = layer(x.astype(params["stem.W"].dtype, copy=False), "stem", True)
        taps: list[np.ndarray] = []
        for bidx in range(self.config.res_blocks):
            r = h
            for lidx in range(self.config.res_layers_per_block):
                r = layer(r, f"block{bidx}.layer{lidx}", True)
            h = h + r
            taps.append(h)
        pen = layer(h, "penult", False)
        taps.append(pen)
        head_in = pen * next(replay) if masks else pen
        logits = head_in @ params["head.W"] + params["head.b"][..., None, :]
        return TapSet(taps=[Tensor(t) for t in taps], logits=Tensor(logits))

    @property
    def dropout_sites(self) -> int:
        """Dropout layers of a pass: stem, every block layer, and the head."""
        if self.config.dropout_p == 0.0:
            return 0
        return 2 + self.config.res_blocks * self.config.res_layers_per_block

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise GraphError(
                f"input shape {x.shape} does not match input_dim={self.config.input_dim}"
            )
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode argmax over every registered class (ties -> lowest id)."""
        tapset, _ = self.forward_with_taps(x, train=False)
        return np.argmax(tapset.logits.data, axis=1)

    def to_param_vector(self) -> ParamVector:
        names = tuple(self.params) + tuple(self.stats)
        arrays = tuple(a.copy() for a in self.params.values()) + tuple(
            a.copy() for a in self.stats.values()
        )
        return ParamVector(names, arrays)

    def load_param_vector(self, pv: ParamVector) -> None:
        """Overwrite all state from a snapshot (shapes must match exactly)."""
        params, stats = _state_from_vector(self.config, pv)
        self.params = {k: v.copy() for k, v in params.items()}
        self.stats = {k: v.copy() for k, v in stats.items()}

    def copy(self) -> "ResidualClassifier":
        return ResidualClassifier._from_state(
            self.config,
            {k: v.copy() for k, v in self.params.items()},
            {k: v.copy() for k, v in self.stats.items()},
        )


def build_model(config: ModelConfig, seed: int) -> ResidualClassifier:
    """Deterministic constructor: same config and seed give identical bytes."""
    return ResidualClassifier(config, seed)


def model_from_vector(config: ModelConfig, pv: ParamVector) -> ResidualClassifier:
    """Materialize a model of shape ``config`` from a snapshot of that layout.

    This is how a worker reconstructs the base model it was sent. The
    arrays are copied from the snapshot; no initialization is drawn.
    """
    m = ResidualClassifier._from_state(config, {}, {})
    m.load_param_vector(pv)
    return m


def stack_vectors(config: ModelConfig, pvs) -> ResidualClassifier:
    """k snapshots of one layout as one teacher whose arrays lead with the expert axis.

    Each entry is the ``(k, ...)`` stack of the snapshots' arrays, in the
    given order, so expert j is slice j of every tap and logit of
    :meth:`ResidualClassifier.forward_as_teacher`. That pass is the only
    one a stack runs.
    """
    states = [_state_from_vector(config, pv) for pv in pvs]
    if not states:
        raise ValueError("a teacher stack needs at least one snapshot")
    params = {name: np.stack([p[name] for p, _ in states]) for name in states[0][0]}
    stats = {name: np.stack([s[name] for _, s in states]) for name in states[0][1]}
    return ResidualClassifier._from_state(config, params, stats)
