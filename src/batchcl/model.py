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

Every pass runs the same layer arithmetic on plain arrays
(``ResidualClassifier._values``): the train or eval student pass, the
teacher pass, ``predict`` and the per-example gradient-norm pass. No pass
builds a graph. Each layer runs its bias, batch norm, affine, ReLU and
dropout in place in the buffer its matmul allocated. The student pass
returns its taps and logits with a record of its layers (each layer's
input, output, xhat and mask, but no pre-ReLU value: the ReLU's backward
reads the output), and ``ResidualClassifier.backward`` carries an
objective's gradients with respect to them through the head and every
trunk layer and skip connection to the parameters, written into one flat
gradient. Those gradients equal the ones a tape with one node per op
gives, bit for bit. The norm pass walks the trunk backward in the same
order (``_walk_trunk``) with a per-row step instead of a summed one.

A model's whole state is one contiguous buffer, its arena
(:class:`ArenaLayout`): the parameters in build order, then the running
statistics, which is also a snapshot's payload order. ``params`` and
``stats`` are views of it, so a snapshot, a copy or a load is one copy of
the arena, a gradient is one flat array in the parameters' layout, and an
SGD step is one array op. Models of one layout stack (:func:`stack_vectors`)
into one whose arena is ``(k, size)``: a teacher pass of the stack runs k
teachers on one batch, and a train pass runs a student in row 0 together
with its teachers in rows 1..k on the shared batch and dropout masks, the
student training through views of row 0 (:meth:`ResidualClassifier.slice`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .engine import (
    GraphError,
    batch_norm_arrays,
    batch_norm_grads,
    check_finite,
    dropout_mask,
    fold_batch_stats,
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

    ``taps`` are arrays in depth order; ``logits`` covers every class
    registered so far. ``masks`` are the dropout multipliers a train-mode
    pass drew, in layer order (empty when nothing was dropped); a teacher
    pass replays them to see exactly the units the student saw.
    ``teachers`` is the pass of the teachers that rode a stack's student
    pass (slices 1..k, arrays ``(k, B, D)``), or None.

    Indexing a pass of a stack gives the pass of those slices.
    """

    taps: list[np.ndarray]
    logits: np.ndarray
    masks: list[np.ndarray] = field(default_factory=list)
    teachers: TapSet | None = None

    def __getitem__(self, j) -> TapSet:
        return TapSet(taps=[t[j] for t in self.taps], logits=self.logits[j])


class PassRecord(NamedTuple):
    """What a student pass keeps for :meth:`ResidualClassifier.backward`: each
    layer's state as ``_values`` records it, ``(prefix, input, output, xhat,
    inv_std, mask)`` with the output after ReLU and dropout, the head's
    input and the dropout mask that made it (or None), and whether batch
    statistics normalized. In a single model's pass a layer's output is the
    next layer's input, one array; nothing writes into a recorded array."""

    layers: list[tuple]
    head_in: np.ndarray
    head_mask: np.ndarray | None
    train: bool


def _unpack(fmt: str, blob: bytes, off: int, what: str) -> tuple[tuple, int]:
    """``struct.unpack_from`` at ``off`` plus the offset after it; a short
    blob raises ValueError naming ``what`` and the byte offset."""
    end = off + struct.calcsize(fmt)
    if end > len(blob):
        raise ValueError(f"truncated {what} at byte {off}")
    return struct.unpack_from(fmt, blob, off), end


@dataclass(frozen=True)
class ParamVector:
    """Flat snapshot of a model's full inference state.

    Entries keep a stable order (build order) and include normalization
    running statistics, so loading a ParamVector reproduces the source
    model's eval-mode behavior exactly. This is the only format in which
    parameters are serialized, broadcast, or uploaded. ``payload`` is
    every entry's float32 values concatenated in entry order, the layout of
    a model's arena.
    """

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    payload: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.payload.dtype != np.float32:
            raise ValueError(f"payload is {self.payload.dtype}, expected float32")

    def to_bytes(self) -> bytes:
        """Little-endian binary form.

        Header: magic ``CLPV``, version u16, entry count u32; per entry a
        name (u16 length + UTF-8 bytes), rank u8, and dims (u32 each).
        Payload: the float32 arrays concatenated in entry order, joined
        from a view of ``payload``, so the blob is the only copy made.
        """
        return b"".join(self.byte_parts())

    def byte_parts(self) -> list:
        """The pieces :meth:`to_bytes` joins, the payload last as a byte view
        of ``payload``, for a caller that joins them into a larger message."""
        out = [PARAM_VECTOR_MAGIC, struct.pack("<HI", PARAM_VECTOR_VERSION, len(self.names))]
        for name, shape in zip(self.names, self.shapes):
            nb = name.encode()
            out.append(struct.pack("<H", len(nb)))
            out.append(nb)
            out.append(struct.pack("<B", len(shape)))
            out.append(struct.pack(f"<{len(shape)}I", *shape))
        out.append(memoryview(np.ascontiguousarray(self.payload, dtype="<f4")).cast("B"))
        return out

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ParamVector":
        """Inverse of :meth:`to_bytes`; malformed input raises ValueError naming the byte.

        The payload is a float32 view of ``blob``, not a copy: it keeps
        ``blob`` alive, and it is read-only when ``blob`` is (bytes, or a
        view of them, as a decoded frame is). A model built from it
        (:func:`model_from_vector`, :func:`stack_vectors`) copies it.
        """
        if blob[:4] != PARAM_VECTOR_MAGIC:
            raise ValueError(f"bad magic {bytes(blob[:4])!r}, expected {PARAM_VECTOR_MAGIC!r}")
        (version, count), off = _unpack("<HI", blob, 4, "header")
        if version != PARAM_VECTOR_VERSION:
            raise ValueError(f"unsupported version {version}")
        names: list[str] = []
        shapes: list[tuple[int, ...]] = []
        for _ in range(count):
            (nlen,), off = _unpack("<H", blob, off, "entry header")
            (name,), off = _unpack(f"<{nlen}s", blob, off, "entry name")
            names.append(name.decode())
            (ndim,), off = _unpack("<B", blob, off, f"entry header of '{names[-1]}'")
            shape, off = _unpack(f"<{ndim}I", blob, off, f"entry header of '{names[-1]}'")
            shapes.append(shape)
        start = end = off
        for name, shape in zip(names, shapes):
            if end + 4 * math.prod(shape) > len(blob):
                raise ValueError(f"truncated payload for entry '{name}' at byte {end}")
            end += 4 * math.prod(shape)
        if end != len(blob):
            raise ValueError(f"{len(blob) - end} trailing bytes at byte {end}")
        payload = np.frombuffer(blob, dtype="<f4", count=(end - start) // 4, offset=start)
        return cls(tuple(names), tuple(shapes), payload.astype(np.float32, copy=False))

    @property
    def nbytes(self) -> int:
        """Exact serialized size; the quantity the cost ledger charges for."""
        header = 10 + sum(
            2 + len(n.encode()) + 1 + 4 * len(shape)
            for n, shape in zip(self.names, self.shapes)
        )
        return header + 4 * self.payload.size


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


class ArenaLayout:
    """Where each entry of a model's state sits in its arena.

    The arena is one contiguous float buffer: the parameters in build
    order, then the running statistics, which is the snapshot's entry and
    payload order. ``param_slices`` index the parameter region (the first
    ``n_params`` floats), ``stat_slices`` the statistics region after it.
    One layout serves every model of a shape (:func:`arena_layout`).
    """

    def __init__(self, config: ModelConfig):
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
        self.shapes = {**params, **stats}
        self.names = tuple(self.shapes)
        self.param_slices, self.n_params = _slices(params)
        self.stat_slices, n_stats = _slices(stats)
        self.size = self.n_params + n_stats
        self._var_slots = np.zeros(n_stats, dtype=bool)
        for name, sl in self.stat_slices.items():
            self._var_slots[sl] = name.endswith("running_var")
        self._unbias: dict[tuple, np.ndarray] = {}

    def param_views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter as a view of ``flat``, a ``(..., n_params)`` region."""
        return _views(flat, self.param_slices, self.shapes)

    def stat_views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Each running buffer as a view of ``flat``, a statistics region."""
        return _views(flat, self.stat_slices, self.shapes)

    def unbias(self, n: int, dtype) -> np.ndarray:
        """The factor a train pass of ``n`` rows folds its batch statistics
        in with: 1 on a mean slot and ``n / (n - 1)`` on a variance slot, in
        ``dtype``, the statistics region's layout."""
        key = (n, np.dtype(dtype))
        if key not in self._unbias:
            factor = np.where(self._var_slots, np.asarray(n / (n - 1), dtype),
                              np.asarray(1, dtype))
            factor.flags.writeable = False  # one cached array serves every pass
            self._unbias[key] = factor
        return self._unbias[key]


def _slices(shapes: dict) -> tuple[dict[str, slice], int]:
    """Consecutive flat slices for ``shapes`` in order, and their total size."""
    slices, start = {}, 0
    for name, shape in shapes.items():
        slices[name] = slice(start, start + math.prod(shape))
        start = slices[name].stop
    return slices, start


def _views(flat: np.ndarray, slices: dict, shapes: dict) -> dict[str, np.ndarray]:
    lead = flat.shape[:-1]
    return {name: flat[..., sl].reshape(lead + shapes[name]) for name, sl in slices.items()}


@lru_cache(maxsize=64)
def arena_layout(config: ModelConfig) -> ArenaLayout:
    """The arena layout of every model of shape ``config``."""
    return ArenaLayout(config)


def _payload(config: ModelConfig, pv: ParamVector) -> np.ndarray:
    """A snapshot's payload, checked against the layout of ``config``: the
    snapshot's own array, not a copy."""
    layout = arena_layout(config)
    incoming = dict(zip(pv.names, pv.shapes))
    if set(incoming) != set(layout.shapes):
        missing = set(layout.shapes) - set(incoming)
        extra = set(incoming) - set(layout.shapes)
        raise ValueError(
            f"layout mismatch: missing={sorted(missing)} unexpected={sorted(extra)}"
        )
    for name, shape in layout.shapes.items():
        if incoming[name] != shape:
            raise ValueError(
                f"layout mismatch for '{name}': {incoming[name]}, expected {shape}"
            )
    if pv.names != layout.names:
        raise ValueError("layout mismatch: entries out of snapshot order")
    return pv.payload


class ResidualClassifier:
    """The shared backbone. Single-owner: never share an instance across workers.

    ``arena`` is the model's whole state in one buffer laid out by
    :func:`arena_layout`; a stack's is ``(k, size)``, one row per slice.
    ``params`` (the learnable arrays) and ``stats`` (the normalization
    running buffers) are views of it, so an update of either shows in the
    other, and :meth:`to_param_vector` snapshots both in one copy.
    ``flat_params`` is the arena's parameter region, the array SGD steps.
    """

    def __init__(self, config: ModelConfig, seed: int):
        self._bind(config, np.zeros(arena_layout(config).size, dtype=np.float32))
        rng = np.random.default_rng(seed)
        for prefix, d_in, d_out in _affine_layers(config):
            self.params[f"{prefix}.W"][...] = xavier_uniform(rng, d_in, d_out, (d_in, d_out))
            self.params[f"{prefix}.bn.gamma"][...] = 1.0
            self.stats[f"{prefix}.bn.running_var"][...] = 1.0
        self.params["head.W"][...] = xavier_uniform(
            rng, config.hidden_dim, self.classes, (config.hidden_dim, self.classes)
        )

    @classmethod
    def _from_arena(cls, config: ModelConfig, arena: np.ndarray) -> "ResidualClassifier":
        """A model whose state is ``arena`` (not a copy), with no initialization drawn."""
        m = cls.__new__(cls)
        m._bind(config, arena)
        return m

    def _bind(self, config: ModelConfig, arena: np.ndarray) -> None:
        layout = self.layout = arena_layout(config)
        self.config = config
        self.classes = config.total_classes
        self.arena = arena
        self.flat_params = arena[..., : layout.n_params]
        params = self.params = layout.param_views(self.flat_params)
        stats = self.stats = layout.stat_views(arena[..., layout.n_params :])
        # what a pass reads of each layer, in build order, and of the head,
        # resolved once per binding so that no pass looks a name up: the
        # weight, the bias and normalization scales broadcast over the rows,
        # and the running buffers
        self._head_views = (params["head.W"], params["head.b"][..., None, :])
        self._layer_views = [
            (prefix, params[f"{prefix}.W"], params[f"{prefix}.b"][..., None, :],
             params[f"{prefix}.bn.gamma"][..., None, :], params[f"{prefix}.bn.beta"][..., None, :],
             (stats[f"{prefix}.bn.running_mean"], stats[f"{prefix}.bn.running_var"]))
            for prefix, _, _ in _affine_layers(config)
        ]

    def forward_with_taps(
        self,
        x: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
        masks: list[np.ndarray] | None = None,
    ) -> tuple[TapSet, PassRecord]:
        """Run the network, returning the TapSet and the record of the pass.

        Hand the record to :meth:`backward` with an objective's gradients
        with respect to the returned taps and logits. Train mode updates
        normalization running statistics in place and draws dropout masks
        from ``rng`` (:meth:`draw_masks`), unless ``masks`` are the ones
        that call already drew for this batch; the TapSet keeps them for
        :meth:`forward_as_teacher`.

        On a stack (:func:`stack_vectors`) this is the train pass of a
        student in slice 0 with its teachers in slices 1..k, in one call of
        the layer arithmetic: the ``(B, D)`` dropout masks, drawn once,
        broadcast over the stack axis, and each slice takes batch
        statistics over its own rows. The TapSet and the record are slice
        0's, equal bit for bit to a pass of slice 0 alone, and only slice
        0's running buffers take its statistics. ``TapSet.teachers`` is the
        pass of slices 1..k, equal bit for bit to their
        :meth:`forward_as_teacher` given these masks.
        """
        x = self._check_input(x)
        n = len(x)
        if train and n < 2:
            raise GraphError(f"stem.bn: train-mode batch of size {n} (need >= 2)")
        stacked = self.params["stem.W"].ndim == 3
        if stacked and not train:
            raise GraphError("a stack runs its student pass in train mode only")
        # passes run in whatever precision the parameters carry (float32 in
        # production; tests build float64 twins for derivative oracles)
        dtype = self.params["stem.W"].dtype
        if not train:
            masks = []
        elif masks is None:
            masks = self.draw_masks(n, rng)
        layers: list[tuple] = []
        taps, head_in, logits = self._values(
            x.astype(dtype, copy=False), "train" if train else "eval", masks, layers
        )
        teachers = None
        if stacked:
            teachers = TapSet(taps, logits)[1:]
            taps, head_in, logits = [t[0] for t in taps], head_in[0], logits[0]
        record = PassRecord(layers, head_in, masks[-1] if masks else None, train)
        return TapSet(taps=taps, logits=logits, masks=masks, teachers=teachers), record

    def backward(self, record: PassRecord, objective) -> np.ndarray:
        """Gradients of every parameter for an objective on the pass ``record``
        describes (a :class:`~batchcl.losses.Objective`), as one fresh flat
        array laid out like ``flat_params``.

        The objective lists the contributions to its gradient with respect to
        each tap and the logits; the head's contribution to the last tap
        comes before them. Contributions to every value are added in the
        order a tape with one node per op adds them, so the gradients are
        that tape's, bit for bit. The tape starts each value's gradient from
        zeros, which turns a -0 into +0; here a -0 may travel on, but every
        flat gradient entry is written by a matmul or an axis reduce, which
        start from +0 themselves, and x + (-0) is x. A parameter nothing
        reaches keeps an exact zero.
        """
        params, slices = self.params, self.layout.param_slices
        flat = np.zeros(self.layout.n_params, dtype=self.arena.dtype)
        taps = [_sum(*parts) for parts in objective.taps[:-1]]
        head = ()
        g = _sum(*objective.logits)
        if g is not None:
            w = params["head.W"]
            dw = flat[slices["head.W"]].reshape(w.shape)
            np.matmul(record.head_in.T, g, out=dw)
            np.add.reduce(g, axis=0, out=flat[slices["head.b"]])
            d = g @ w.T
            head = (d if record.head_mask is None else d * record.head_mask,)
        taps.append(_sum(*head, *objective.taps[-1]))
        step = partial(_layer_backward, params, flat, slices, record.train)
        _walk_trunk(self.config, record.layers, step, taps)
        return flat

    def draw_masks(self, n: int, rng) -> list[np.ndarray]:
        """A train pass's dropout multipliers for ``n`` rows, one ``(n, width)``
        array per site, in the parameters' precision.

        One draw covers every site, split in layer order: the same stream,
        in the same order, as one draw per site.
        """
        if self.config.dropout_p == 0.0:
            return []
        if rng is None:
            raise GraphError("stem.dropout: train-mode dropout needs an RNG")
        c = self.config
        widths = [c.res_dim] * (1 + c.res_blocks * c.res_layers_per_block) + [c.hidden_dim]
        flat = dropout_mask((n * sum(widths),), c.dropout_p, rng, self.params["stem.W"].dtype)
        masks, start = [], 0
        for w in widths:
            masks.append(flat[start : start + n * w].reshape(n, w))
            start += n * w
        return masks

    def _values(self, x: np.ndarray, mode: str, masks, layers: list | None):
        """The architecture on plain arrays: ``(taps, head input, logits)``.

        This is every pass's arithmetic. ``mode`` picks the normalization
        statistics: ``"train"`` takes batch statistics and folds them into
        the running buffers (a stack's slice 0 only), ``"teacher"`` takes
        batch statistics and touches nothing, ``"eval"`` uses the running
        buffers. A train pass gathers slice 0's batch statistics layer by
        layer and, at its end, concatenates them into one buffer laid out
        like the statistics region and folds that in with one
        :func:`fold_batch_stats`; no pass reads the running buffers before
        then. A non-finite statistic raises :class:`NonFiniteError` before
        any buffer moves: a diverging student fails its train step even when
        its overflowed variance zeroes ``inv_std`` and leaves the loss finite.
        ``masks`` are the dropout multipliers, one per site in layer
        order, or empty for none. When ``layers`` is a list, each layer
        appends what its backward needs: (prefix, input, output, xhat,
        inv_std, mask), where the output is the layer's value after ReLU
        and dropout, which is the next layer's input; no pre-ReLU value is
        kept. A stack's layers append copies of slice 0's, so the teachers'
        states are freed as the pass goes on; a layer whose input is the
        previous layer's output records that output's copy, so a stack's
        record shares arrays as a single pass's does.

        Each layer's arithmetic after ``h @ w`` runs in place in that
        product's buffer: the bias, batch norm (which turns it into xhat),
        the affine, ReLU and dropout, in the float operations and order of
        the out-of-place expressions. Only a single model's recorded pass
        takes one fresh array, ``gamma * xhat``, since the record keeps
        xhat. No pass writes into an array it was given or has handed out.
        """
        train = mode != "eval"
        replay = iter(masks)
        batch: list[np.ndarray] = []  # slice 0's batch statistics, in layout order
        last: list = [None, None]  # the last layer's output and its recorded slice 0

        def layer(h: np.ndarray, views: tuple, dropped: bool) -> np.ndarray:
            prefix, w, b, gamma, beta, running = views
            z = h @ w
            z += b
            xhat, inv_std = batch_norm_arrays(
                z, batch if mode == "train" else None if mode == "teacher" else running, train
            )
            mask = next(replay) if dropped and masks else None
            stacked = z.ndim == 3
            if layers is not None:  # slice 0's, before the affine overwrites xhat
                state = (h, xhat, inv_std) if not stacked else (
                    h if h.ndim == 2 else last[1] if h is last[0] else h[0].copy(),
                    xhat[0].copy(), inv_std[0])
            # a single model's record keeps xhat, so its affine takes a fresh array
            y = np.multiply(gamma, xhat, out=xhat if layers is None or stacked else None)
            y += beta
            np.maximum(y, 0, out=y)
            if mask is not None:
                y *= mask
            if layers is not None:
                h0, xhat0, inv_std0 = state
                last[:] = y, y[0].copy() if stacked else y
                layers.append((prefix, h0, last[1], xhat0, inv_std0, mask))
            return y

        views = iter(self._layer_views)
        h = layer(x, next(views), True)
        taps: list[np.ndarray] = []
        for _ in range(self.config.res_blocks):
            r = h
            for _ in range(self.config.res_layers_per_block):
                r = layer(r, next(views), True)
            h = h + r
            taps.append(h)
        pen = layer(h, next(views), False)
        taps.append(pen)
        head_in = pen * next(replay) if masks else pen
        head_w, head_b = self._head_views
        logits = head_in @ head_w
        logits += head_b
        if mode == "train":
            layout = self.layout
            stats = np.concatenate(batch)
            check_finite(stats, layout.stat_slices, "batch statistic for")
            student = self.arena.reshape(-1, layout.size)[0]
            fold_batch_stats(student[layout.n_params :], stats, layout.unbias(len(x), x.dtype))
        return taps, head_in, logits

    def forward_as_teacher(self, x: np.ndarray, masks=()) -> TapSet:
        """Distillation-target pass: batch statistics, replayed dropout, no mutation.

        Teachers must see the same normalization statistics and the same
        dropped units as the train-mode student they supervise, otherwise
        identical parameters would not give identical taps and the
        distillation distance would never reach zero. ``masks`` are the
        ``TapSet.masks`` of that student pass; without them no unit is
        dropped. Teacher passes are never differentiated, so this one runs
        the student pass's arithmetic and records nothing for a backward.
        Running buffers are left untouched and no randomness is consumed.

        A model returns taps and logits of shape ``(B, D)``. A stack of k
        models (:func:`stack_vectors`) carries a leading expert axis on
        every array and runs the one shared batch through all k at once,
        returning ``(k, B, D)``: the shared input broadcasts over the
        ``(k, d, D)`` weights, biases and normalization scales broadcast as
        ``[..., None, :]``, and batch statistics reduce over the row axis
        (-2) of each expert. Every expert's slice thus goes through the same
        float operations as a single pass, and equals it bit for bit. Here
        every slice is a teacher; :meth:`forward_with_taps` trains slice 0.

        A stack viewed :meth:`over_batches` runs n batches at once: ``x`` is
        ``(n, B, d)``, each mask ``(n, B, width)``, and every array gains the
        batch axis after the stack axis, ``(k, n, B, D)``. Each batch takes
        statistics over its own rows, so slice ``[j, b]`` equals the pass of
        batch b alone, bit for bit, in fewer and larger array ops.
        """
        if self.arena.ndim == 3:
            x = np.asarray(x)
            if x.ndim != 3:
                raise GraphError(f"input shape {x.shape}: a stack over batches takes (n, B, d)")
            self._check_input(x[0])
        else:
            x = self._check_input(x)
        if x.shape[-2] < 2:
            raise GraphError(f"teacher pass on {x.shape[-2]} rows (batch statistics need >= 2)")
        if masks and len(masks) != self.dropout_sites:
            raise GraphError(
                f"{len(masks)} dropout masks for {self.dropout_sites} dropout layers"
            )
        taps, _, logits = self._values(
            x.astype(self.params["stem.W"].dtype, copy=False), "teacher", masks, None
        )
        return TapSet(taps=taps, logits=logits)

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
        x = self._check_input(x).astype(self.params["stem.W"].dtype, copy=False)
        return np.argmax(self._values(x, "eval", (), None)[2], axis=1)

    def per_example_grad_norms(self, x: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """L2 norm of each row's task-loss gradient over every parameter.

        The gradient is the one row ``i`` would get alone in an eval pass:
        scoring must not disturb the running statistics, and per-row
        gradients are ill-defined under batch statistics. In eval mode
        batch norm is a fixed affine map, so rows are independent, and one
        batched forward plus one batched backward of per-row deltas give
        every row's norm. An affine layer with input ``h``
        and pre-activation gradient ``dz`` contributes ``|h|^2 |dz|^2``
        (its weight gradient is the outer product) plus ``|dz|^2`` (its
        bias); a batch norm with output gradient ``g`` contributes
        ``|g xhat|^2 + |g|^2`` (gamma and beta). The head's ``dz`` is
        ``softmax(logits) - onehot(label)``.
        """
        x = self._check_input(x)
        labels = np.asarray(labels)
        n = len(x)
        if labels.shape != (n,) or (n and (labels.min() < 0 or labels.max() >= self.classes)):
            raise GraphError(f"labels {labels.shape} do not index {self.classes} classes "
                             f"for {n} rows")
        params = self.params
        layers: list[tuple] = []
        _, head_in, logits = self._values(
            x.astype(params["stem.W"].dtype, copy=False), "eval", (), layers
        )
        ez = np.exp(logits - logits.max(axis=1, keepdims=True))
        delta = ez / ez.sum(axis=1, keepdims=True)
        delta[np.arange(n), labels] -= 1.0
        sq = (_row_sq(head_in) + 1.0) * _row_sq(delta)

        def step(state: tuple, g: np.ndarray, need_dx: bool):
            prefix, h, output, xhat, inv_std, _ = state
            g = g * (output > 0)
            dz = g * params[f"{prefix}.bn.gamma"] * inv_std
            sq[:] += (_row_sq(h) + 1.0) * _row_sq(dz) + _row_sq(g * xhat) + _row_sq(g)
            return dz @ params[f"{prefix}.W"].T if need_dx else None

        tap_grads = [None] * self.config.res_blocks + [delta @ params["head.W"].T]
        _walk_trunk(self.config, layers, step, tap_grads)
        return np.sqrt(sq)

    def to_param_vector(self, copy: bool = True) -> ParamVector:
        """A snapshot of the model's whole state. With ``copy=False`` its
        payload is the arena itself: it moves with the model, so serialize
        it before the model trains again."""
        layout = self.layout
        arena = self.arena.copy() if copy else self.arena
        return ParamVector(layout.names, tuple(layout.shapes.values()), arena)

    def over_batches(self) -> "ResidualClassifier":
        """This stack with an axis of batches after the stack axis: its
        ``(k, size)`` arena viewed as ``(k, 1, size)`` (not a copy), so that
        :meth:`forward_as_teacher` takes n batches at once."""
        if self.arena.ndim != 2:
            raise GraphError(f"an arena of shape {self.arena.shape} is not a stack's")
        return ResidualClassifier._from_arena(self.config, self.arena[:, None])

    def copy(self) -> "ResidualClassifier":
        return ResidualClassifier._from_arena(self.config, self.arena.copy())

    def slice(self, j: int) -> "ResidualClassifier":
        """Slice ``j`` of a stack as a model whose arena is row ``j`` of the
        stack's: an in-place update of either shows in the other."""
        return ResidualClassifier._from_arena(self.config, self.arena[j])


def _sum(*parts):
    """Gradient contributions to one value, added in the given order; None
    when there are none. A single contribution is returned as it is, not
    copied: no caller writes to the sum."""
    total = None
    for g in parts:
        if g is not None:
            total = g if total is None else total + g
    return total


def _layer_backward(params: dict, flat: np.ndarray, slices: dict, train: bool, state: tuple,
                    g: np.ndarray, need_dx: bool):
    """Backward of one affine -> BN -> ReLU -> dropout layer, given the
    gradient of its output: writes the layer's parameter gradients into
    their ``slices`` of the flat gradient and returns the gradient of its
    input (if needed).

    The ReLU's gate reads the recorded output, not the pre-ReLU value:
    where the dropout mask is 0 the gradient is the same zero either way,
    and where it is 1/(1-p) >= 1 the output is positive exactly when the
    pre-ReLU value is, so the bits are the same.
    """
    prefix, h, output, xhat, inv_std, mask = state
    if mask is None:
        g = g * (output > 0)
    else:
        g = g * mask
        g *= output > 0
    w = params[f"{prefix}.W"]
    dgamma, dbeta, dz = batch_norm_grads(g, xhat, inv_std, params[f"{prefix}.bn.gamma"], train)
    flat[slices[f"{prefix}.bn.gamma"]] = dgamma
    flat[slices[f"{prefix}.bn.beta"]] = dbeta
    np.add.reduce(dz, axis=0, out=flat[slices[f"{prefix}.b"]])
    dw = flat[slices[f"{prefix}.W"]].reshape(w.shape)
    np.matmul(h.T, dz, out=dw)
    return dz @ w.T if need_dx else None


def _walk_trunk(config: ModelConfig, layers: list, step, tap_grads: list) -> None:
    """Carry the tap gradients back through every trunk layer, last to first.

    ``step(state, g, need_dx)`` is one layer's backward: it takes the
    layer's recorded state and output gradient and returns its input
    gradient when ``need_dx``. With :func:`_layer_backward` as the step this
    is the trunk's part of :meth:`ResidualClassifier.backward`; the
    per-example norm pass gives a per-row step. A block output's gradient
    adds, in a per-op tape's order, its tap's gradient, the next block's
    skip pass-through and the next layer's input gradient. A value nothing
    reached passes no gradient on.
    """
    n_layers = config.res_layers_per_block
    dx = tap_grads[-1]
    if dx is not None:
        dx = step(layers[-1], dx, True)
    skip = None
    for bidx in reversed(range(config.res_blocks)):
        g = skip = _sum(tap_grads[bidx], skip, dx)
        for lidx in reversed(range(n_layers)):
            if g is not None:
                g = step(layers[1 + bidx * n_layers + lidx], g, True)
        dx = g
    g = _sum(skip, dx)
    if g is not None:
        step(layers[0], g, False)


def _row_sq(a: np.ndarray) -> np.ndarray:
    """Squared L2 norm of every row, summed in float64."""
    return np.einsum("ij,ij->i", a, a, dtype=np.float64)


def build_model(config: ModelConfig, seed: int) -> ResidualClassifier:
    """Deterministic constructor: same config and seed give identical bytes."""
    return ResidualClassifier(config, seed)


def model_from_vector(config: ModelConfig, pv: ParamVector) -> ResidualClassifier:
    """Materialize a model of shape ``config`` from a snapshot of that layout.

    This is how a worker reconstructs the base model it was sent. The
    arena is a copy of the snapshot's payload; no initialization is drawn.
    """
    return ResidualClassifier._from_arena(config, _payload(config, pv).copy())


def stack_vectors(config: ModelConfig, sources) -> ResidualClassifier:
    """Snapshots or models of one layout as one model whose arena is the
    ``(k, size)`` stack of theirs, so every array leads with the stack axis.

    Row j is source j's arena or payload, in the given order, so source j
    is slice j of every tap and logit of the stack's passes. A model source
    is stacked from its own arena, without a snapshot in between.
    :meth:`ResidualClassifier.forward_as_teacher` runs every slice as a
    teacher; :meth:`ResidualClassifier.forward_with_taps` runs slice 0 as
    the student its slices 1..k teach, which trains through
    ``stack.slice(0)``. Those two passes are the only ones a stack runs.
    """
    if not sources:
        raise ValueError("a stack needs at least one snapshot or model")
    rows = []
    for src in sources:
        if not isinstance(src, ResidualClassifier):
            rows.append(_payload(config, src))
        elif src.config != config:
            raise ValueError(f"layout mismatch: a model of {src.config} in a stack of {config}")
        else:
            rows.append(src.arena)
    return ResidualClassifier._from_arena(config, np.stack(rows))
