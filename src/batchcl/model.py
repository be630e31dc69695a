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

No pass draws randomness: a train pass drops units by the masks its caller
drew (``draw_masks``), and a teacher pass replays them or drops none.

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

import bisect
import itertools
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
    dropout_multiplier,
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

    @property
    def dropout_widths(self) -> list[int]:
        """The units of each dropout site of a pass, in layer order: the
        stem, every block layer, and the head's input; none without dropout."""
        if self.dropout_p == 0.0:
            return []
        return [self.res_dim] * (1 + self.res_blocks * self.res_layers_per_block) + [
            self.hidden_dim]

    @property
    def output_widths(self) -> list[int]:
        """The width of each of a pass's outputs: its taps, then its logits."""
        return [self.res_dim] * self.res_blocks + [self.hidden_dim, self.total_classes]


@dataclass
class TapSet:
    """One forward pass: ``outputs`` are its taps in depth order, then its
    logits, which cover every class registered so far. ``taps`` and
    ``logits`` read them. ``teachers`` is the pass of the teachers that
    rode a stack's student pass (slices 1..k, arrays ``(k, B, D)``), or
    None.

    Indexing a pass of a stack gives the pass of those slices.
    """

    outputs: list[np.ndarray]
    teachers: TapSet | None = None

    @property
    def taps(self) -> list[np.ndarray]:
        return self.outputs[:-1]

    @property
    def logits(self) -> np.ndarray:
        return self.outputs[-1]

    def __getitem__(self, j) -> TapSet:
        return TapSet([o[j] for o in self.outputs])


class PassRecord(NamedTuple):
    """What a student pass keeps for :meth:`ResidualClassifier.backward`: each
    layer's state as ``_values`` records it, ``(index, input, output, xhat,
    inv_std, mask)`` with the layer's index in ``_layers`` and the output
    after ReLU and dropout, the head's input and the dropout mask that made
    it (or None), and whether batch statistics normalized. In a single
    model's pass a layer's output is the next layer's input, one array;
    nothing writes into a recorded array."""

    layers: list[tuple]
    head_in: np.ndarray
    head_mask: np.ndarray | None
    train: bool


@dataclass(frozen=True)
class ParamVector:
    """Flat snapshot of a model's full inference state: a layout and its payload.

    ``payload`` is every entry's float32 values in the layout's entry order
    (build order, running statistics included), the layout of a model's
    arena, so loading a ParamVector reproduces the source model's eval-mode
    behavior exactly. This is the only format in which parameters are
    serialized, broadcast, or uploaded: the layout's CLPV header
    (:attr:`ArenaLayout.header`), then the payload, little-endian.
    """

    layout: ArenaLayout
    payload: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.payload.dtype != np.float32:
            raise ValueError(f"payload is {self.payload.dtype}, expected float32")

    def to_bytes(self) -> bytes:
        """The binary form, joined from :meth:`byte_parts`: the blob is the
        only copy of the payload made."""
        return b"".join(self.byte_parts())

    def byte_parts(self) -> list:
        """The layout's header, then the payload as a byte view of
        ``payload``, for a caller that joins them into a larger message."""
        return [self.layout.header,
                memoryview(np.ascontiguousarray(self.payload, dtype="<f4")).cast("B")]

    @classmethod
    def from_bytes(cls, blob: bytes, config: ModelConfig) -> "ParamVector":
        """Inverse of :meth:`to_bytes` for a snapshot of the layout of
        ``config``; anything else raises ValueError naming the byte.

        The magic and version come first, then the header must be the
        layout's byte for byte and the payload exactly the layout's size.
        The payload is a float32 view of ``blob``, not a copy: it keeps
        ``blob`` alive, and it is read-only when ``blob`` is (bytes, or a
        view of them, as a decoded frame is). A model built from it
        (:func:`model_from_vector`, :func:`stack_vectors`) copies it.
        """
        layout = arena_layout(config)
        if blob[:4] != PARAM_VECTOR_MAGIC:
            raise ValueError(f"bad magic {bytes(blob[:4])!r}, expected {PARAM_VECTOR_MAGIC!r}")
        if len(blob) < 10:
            raise ValueError("truncated header at byte 4")
        (version,) = struct.unpack_from("<H", blob, 4)
        if version != PARAM_VECTOR_VERSION:
            raise ValueError(f"unsupported version {version}")
        start = len(layout.header)
        layout.check_header(blob[:start])
        end = start + 4 * layout.size
        if len(blob) < end:
            raise ValueError(f"truncated payload at byte {len(blob)}: the layout's ends at "
                             f"byte {end}")
        if len(blob) > end:
            raise ValueError(f"{len(blob) - end} trailing bytes at byte {end}")
        payload = np.frombuffer(blob, dtype="<f4", count=layout.size, offset=start)
        return cls(layout, payload.astype(np.float32, copy=False))

    @property
    def nbytes(self) -> int:
        """Exact serialized size; the quantity the cost ledger charges for."""
        return len(self.layout.header) + 4 * self.payload.size


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

    The layout owns the snapshot format: ``header`` is the CLPV header of
    every snapshot of it (:class:`ParamVector`), built once: magic ``CLPV``,
    version u16, entry count u32, then per entry its name (u16 length +
    UTF-8 bytes), rank u8 and dims (u32 each), little-endian. Two layouts
    are the same layout when their headers are equal (:meth:`check_header`).
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
        entries = [struct.pack(f"<H{len(nb)}sB{len(shape)}I", len(nb), nb, len(shape), *shape)
                   for nb, shape in zip(map(str.encode, self.names), self.shapes.values())]
        self.header = b"".join([PARAM_VECTOR_MAGIC, struct.pack(
            "<HI", PARAM_VECTOR_VERSION, len(entries)), *entries])
        self._entry_starts = list(itertools.accumulate(map(len, entries[:-1]), initial=10))
        self.param_slices, self.n_params = _slices(params)
        self.stat_slices, n_stats = _slices(stats)
        self.size = self.n_params + n_stats
        self._var_slots = np.zeros(n_stats, dtype=bool)
        for name, sl in self.stat_slices.items():
            self._var_slots[sl] = name.endswith("running_var")
        self._unbias: dict[tuple, np.ndarray] = {}

    def check_header(self, head) -> None:
        """Raise ValueError unless ``head`` is this layout's header, naming
        the first byte where it differs and the entry that byte belongs to."""
        header = self.header
        if head == header:
            return
        at = next((i for i, (a, b) in enumerate(zip(bytes(head), header)) if a != b),
                  min(len(head), len(header)))
        if at == len(head):
            raise ValueError(f"truncated header at byte {at}")
        i = bisect.bisect_right(self._entry_starts, at)
        entry = repr(self.names[i - 1]) if i else "the entry count"
        raise ValueError(f"layout mismatch for {entry} at byte {at}")

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
        """Make ``arena`` this model's state: its views, and the table every
        pass, backward and norm walk reaches a layer through, so that none
        looks a name up. ``_layers[i]`` is affine layer i's ``(W, b, gamma,
        beta, (running mean, running var), gradient slices)``, the vectors
        broadcast over the rows and the slices those of its ``(W, b, gamma,
        beta)`` in the flat gradient; ``_head`` is ``(W, b, W slice, b slice)``."""
        layout = self.layout = arena_layout(config)
        self.config = config
        self.classes = config.total_classes
        self.arena = arena
        self.flat_params = arena[..., : layout.n_params]
        params = self.params = layout.param_views(self.flat_params)
        stats = self.stats = layout.stat_views(arena[..., layout.n_params :])
        slices = layout.param_slices
        self._layers = [(
            params[f"{p}.W"],
            *(params[f"{p}.{n}"][..., None, :] for n in ("b", "bn.gamma", "bn.beta")),
            (stats[f"{p}.bn.running_mean"], stats[f"{p}.bn.running_var"]),
            tuple(slices[f"{p}.{n}"] for n in ("W", "b", "bn.gamma", "bn.beta")),
        ) for p, _, _ in _affine_layers(config)]
        self._head = (params["head.W"], params["head.b"][..., None, :], slices["head.W"],
                      slices["head.b"])

    def forward_with_taps(self, x: np.ndarray, train: bool = False,
                          masks=()) -> tuple[TapSet, PassRecord]:
        """Run the network, returning the TapSet and the record of the pass.

        Hand the record to :meth:`backward` with an objective's gradients
        with respect to the returned taps and logits. Train mode updates
        normalization running statistics in place and drops units by
        ``masks``, the batch's :meth:`draw_masks`, which its caller drew
        (:mod:`batchcl.replay`); an eval pass drops nothing.

        On a stack (:func:`stack_vectors`) this is the train pass of a
        student in slice 0 with its teachers in slices 1..k, in one call of
        the layer arithmetic: the ``(B, D)`` dropout masks broadcast over
        the stack axis, and each slice takes batch statistics over its own
        rows. The TapSet and the record are slice 0's, equal bit for bit to
        a pass of slice 0 alone, and only slice 0's running buffers take its
        statistics. ``TapSet.teachers`` is the pass of slices 1..k, equal
        bit for bit to their :meth:`forward_as_teacher` given these masks.
        """
        if not train:
            masks = ()
        layers: list[tuple] = []
        outputs, head_in = self._values(x, "train" if train else "eval", masks, layers)
        teachers = None
        if self.arena.ndim == 2:
            teachers = TapSet(outputs)[1:]
            outputs, head_in = [o[0] for o in outputs], head_in[0]
        record = PassRecord(layers, head_in, masks[-1] if masks else None, train)
        return TapSet(outputs, teachers), record

    def backward(self, record: PassRecord, objective) -> np.ndarray:
        """Gradients of every parameter for an objective on the pass ``record``
        describes (a :class:`~batchcl.losses.Objective`), as one fresh flat
        array laid out like ``flat_params``.

        The objective holds its gradient with respect to each output of the
        pass, or None; the head's contribution to the last tap comes before
        the objective's. Contributions to every value are added in the
        order a tape with one node per op adds them, so the gradients are
        that tape's, bit for bit. The tape starts each value's gradient from
        zeros, which turns a -0 into +0; here a -0 may travel on, but every
        flat gradient entry is written by a matmul or an axis reduce, which
        start from +0 themselves, and x + (-0) is x. A parameter nothing
        reaches keeps an exact zero.
        """
        flat = np.zeros(self.layout.n_params, dtype=self.arena.dtype)
        *taps, last, g = objective.grads
        head = ()
        if g is not None:
            w, _, dw, db = self._head
            np.matmul(record.head_in.T, g, out=flat[dw].reshape(w.shape))
            np.add.reduce(g, axis=0, out=flat[db])
            d = g @ w.T
            head = (d if record.head_mask is None else d * record.head_mask,)
        taps.append(_sum(*head, last))
        step = partial(_layer_backward, self._layers, flat, record.train)
        _walk_trunk(self.config, record.layers, step, taps)
        return flat

    def draw_masks(self, n: int, rng) -> list[np.ndarray]:
        """A train pass's dropout multipliers for ``n`` rows, one ``(n, width)``
        array per site, in the parameters' precision.

        One draw covers every site, split in layer order: the same stream,
        in the same order, as one draw per site.
        """
        c = self.config
        if not c.dropout_widths:
            return []
        units = n * sum(c.dropout_widths)
        return self._site_masks(dropout_mask((units,), c.dropout_p, rng, self.arena.dtype), n)

    def masks_from_keep(self, keep: np.ndarray, n: int) -> list[np.ndarray]:
        """The :meth:`draw_masks` of ``n`` rows whose kept units are ``keep``,
        the flat flags of every site in its draw order (``mask != 0`` of its
        masks, joined): equal bit for bit to the masks that kept them."""
        c = self.config
        if not c.dropout_widths:
            return []
        return self._site_masks(dropout_multiplier(keep, c.dropout_p, self.arena.dtype), n)

    def _site_masks(self, flat: np.ndarray, n: int) -> list[np.ndarray]:
        """``flat``, the multipliers of every site of ``n`` rows in layer
        order, as one ``(n, width)`` view per site."""
        masks, start = [], 0
        for w in self.config.dropout_widths:
            masks.append(flat[start : start + n * w].reshape(n, w))
            start += n * w
        return masks

    def _values(self, x: np.ndarray, mode: str, masks, layers: list | None):
        """The architecture on plain arrays: ``(outputs, head input)``, the
        outputs being the taps, then the logits (:class:`TapSet`).

        This is every pass's arithmetic and the one check of its input,
        which raises :class:`GraphError`: ``x`` is ``(B, input_dim)``, or
        ``(n, B, input_dim)`` on a stack :meth:`over_batches`, of at least 2
        rows under batch statistics, and a stack runs no eval pass. ``x`` is
        cast to the arena's precision (float32 in production; tests build
        float64 twins). ``mode`` picks the normalization statistics:
        ``"train"`` takes batch statistics and folds them into
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
        order; a teacher pass may take none, and any other count raises
        :class:`GraphError`. When ``layers`` is a list, each layer
        appends what its backward needs: (index in ``_layers``, input,
        output, xhat, inv_std, mask), where the output is the value after ReLU
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
        x, d, rank = np.asarray(x), self.config.input_dim, max(2, self.arena.ndim)
        if x.ndim != rank or x.shape[-1] != d:
            form = "a stack over batches takes (n, B, d)" if rank == 3 else "a pass takes (B, d)"
            raise GraphError(f"input shape {x.shape}: {form} with d = input_dim={d}")
        train = mode != "eval"
        if train and x.shape[-2] < 2:
            raise GraphError(f"{mode} pass on a batch of size {x.shape[-2]} (batch statistics "
                             f"need >= 2 rows)")
        if not train and self.arena.ndim > 1:
            raise GraphError("a stack runs its student pass in train mode only")
        sites = len(self.config.dropout_widths)
        if (masks or mode == "train") and len(masks) != sites:
            raise GraphError(f"{len(masks)} dropout masks for {sites} dropout layers")
        x = x.astype(self.arena.dtype, copy=False)
        replay = iter(masks)
        batch: list[np.ndarray] = []  # slice 0's batch statistics, in layout order
        last: list = [None, None]  # the last layer's output and its recorded slice 0

        table = self._layers

        def layer(h: np.ndarray, i: int, dropped: bool) -> np.ndarray:
            w, b, gamma, beta, running, _ = table[i]
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
                layers.append((i, h0, last[1], xhat0, inv_std0, mask))
            return y

        index = itertools.count()
        h = layer(x, next(index), True)
        outputs: list[np.ndarray] = []
        for _ in range(self.config.res_blocks):
            r = h
            for _ in range(self.config.res_layers_per_block):
                r = layer(r, next(index), True)
            h = h + r
            outputs.append(h)
        pen = layer(h, next(index), False)
        outputs.append(pen)
        head_in = pen * next(replay) if masks else pen
        head_w, head_b, _, _ = self._head
        logits = head_in @ head_w
        logits += head_b
        if mode == "train":
            layout = self.layout
            stats = np.concatenate(batch)
            check_finite(stats, layout.stat_slices, "batch statistic for")
            student = self.arena.reshape(-1, layout.size)[0]
            fold_batch_stats(student[layout.n_params :], stats, layout.unbias(len(x), x.dtype))
        outputs.append(logits)
        return outputs, head_in

    def forward_as_teacher(self, x: np.ndarray, masks=()) -> TapSet:
        """Distillation-target pass: batch statistics, replayed dropout, no mutation.

        Teachers must see the same normalization statistics and the same
        dropped units as the train-mode student they supervise, otherwise
        identical parameters would not give identical taps and the
        distillation distance would never reach zero. ``masks`` are the
        dropout masks of that student pass; without them no unit is
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
        return TapSet(self._values(x, "teacher", masks, None)[0])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode argmax over every registered class (ties -> lowest id)."""
        return np.argmax(self._values(x, "eval", (), None)[0][-1], axis=1)

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
        layers: list[tuple] = []
        (*_, logits), head_in = self._values(x, "eval", (), layers)
        labels = np.asarray(labels)
        n = len(head_in)
        if labels.shape != (n,) or (n and (labels.min() < 0 or labels.max() >= self.classes)):
            raise GraphError(f"labels {labels.shape} do not index {self.classes} classes "
                             f"for {n} rows")
        ez = np.exp(logits - logits.max(axis=1, keepdims=True))
        delta = ez / ez.sum(axis=1, keepdims=True)
        delta[np.arange(n), labels] -= 1.0
        sq = (_row_sq(head_in) + 1.0) * _row_sq(delta)

        def step(state: tuple, g: np.ndarray, need_dx: bool):
            i, h, output, xhat, inv_std, _ = state
            w, _, gamma, *_ = self._layers[i]
            g = g * (output > 0)
            dz = g * gamma * inv_std
            sq[:] += (_row_sq(h) + 1.0) * _row_sq(dz) + _row_sq(g * xhat) + _row_sq(g)
            return dz @ w.T if need_dx else None

        tap_grads = [None] * self.config.res_blocks + [delta @ self._head[0].T]
        _walk_trunk(self.config, layers, step, tap_grads)
        return np.sqrt(sq)

    def to_param_vector(self, copy: bool = True) -> ParamVector:
        """A snapshot of the model's whole state. With ``copy=False`` its
        payload is the arena itself: it moves with the model, so serialize
        it before the model trains again."""
        return ParamVector(self.layout, self.arena.copy() if copy else self.arena)

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


def _layer_backward(table: list, flat: np.ndarray, train: bool, state: tuple, g: np.ndarray,
                    need_dx: bool):
    """Backward of one affine -> BN -> ReLU -> dropout layer, given the
    gradient of its output: writes the parameter gradients of the layer
    ``table`` (a model's ``_layers``) holds at its recorded index into
    their slices of the flat gradient and returns the gradient of its
    input (if needed).

    The ReLU's gate reads the recorded output, not the pre-ReLU value:
    where the dropout mask is 0 the gradient is the same zero either way,
    and where it is 1/(1-p) >= 1 the output is positive exactly when the
    pre-ReLU value is, so the bits are the same.
    """
    i, h, output, xhat, inv_std, mask = state
    w, _, gamma, _, _, (dw, db, dgamma, dbeta) = table[i]
    if mask is None:
        g = g * (output > 0)
    else:
        g = g * mask
        g *= output > 0
    flat[dgamma], flat[dbeta], dz = batch_norm_grads(g, xhat, inv_std, gamma, train)
    np.add.reduce(dz, axis=0, out=flat[db])
    np.matmul(h.T, dz, out=flat[dw].reshape(w.shape))
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
    arena_layout(config).check_header(pv.layout.header)
    return ResidualClassifier._from_arena(config, pv.payload.copy())


def stack_vectors(config: ModelConfig, sources) -> ResidualClassifier:
    """Snapshots or models of the layout of ``config`` as one model whose
    arena is the ``(k, size)`` stack of theirs, so every array leads with the
    stack axis. A source of another layout raises ValueError, whichever kind
    it is; the rest of its config (its dropout) does not matter.

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
    layout = arena_layout(config)
    for src in sources:
        layout.check_header(src.layout.header)
    rows = [src.arena if isinstance(src, ResidualClassifier) else src.payload for src in sources]
    return ResidualClassifier._from_arena(config, np.stack(rows))
