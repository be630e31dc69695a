"""Experiment configuration: the one run-level config tree and its validator.

A config file is a JSON object whose keys are the fields of the spec
dataclasses below. Unknown keys anywhere are rejected so typos fail loudly
instead of silently running defaults, and a value of the wrong type, outside
its field's choices or out of range (``_BOUNDS``) is rejected here, naming
the key, rather than mid-run. The runners read the parsed
:class:`ExperimentConfig` directly.
``parse_config -> config_to_dict -> parse_config`` is an identity.
"""

# no ``from __future__ import annotations``: the validator reads each
# field's annotation as a type

import json
import math
import operator
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .losses import DISTILL_KINDS
from .model import ModelConfig
from .replay import SAMPLING_STRATEGIES
from .streams import STREAM_KINDS, TaskStream, generate_stream, load_feature_stream

BASELINE_METHODS = ("sgd", "er", "oewc")
METHODS = ("bmc",) + BASELINE_METHODS + ("multitask",)


class ConfigError(ValueError):
    """Invalid experiment configuration, with the offending key in the text."""


@dataclass(frozen=True)
class StreamSpec:
    kind: str = field(default="permuted", metadata={"choices": STREAM_KINDS + ("file",)})
    n_tasks: int = 4
    classes_per_task: int = 2
    dim: int = 16
    train_per_task: int = 500
    val_per_task: int = 100
    seed: int = 0
    separation: float = 3.0
    path: str = ""  # only for kind=file


@dataclass(frozen=True)
class ModelSpec:
    res_blocks: int = 2
    res_layers_per_block: int = 3
    res_dim: int = 256
    hidden_dim: int = 128
    dropout_p: float = 0.3


@dataclass(frozen=True)
class TrainingSpec:
    epochs_per_task: int = 2
    lr: float = 0.1
    batch_size: int = 32


@dataclass(frozen=True)
class BmcSpec:
    experts_per_step: int = 10
    rehearsal_epochs: int = 100
    buffer_capacity: int = 10_000
    memory_capacity: int = 10_000
    sampling: str = field(default="random", metadata={"choices": SAMPLING_STRATEGIES})
    distill_kind: str = field(default="features", metadata={"choices": DISTILL_KINDS})
    stability_coef: float = 1.0
    task_coef: float = 1.0
    consolidation_coef: float = 1.0
    workers: int = 1


@dataclass(frozen=True)
class BaselineSpec:
    memory_capacity: int = 10_000
    penalty_coef: float = 0.7
    gamma: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = field(metadata={"choices": METHODS})
    seed: int
    stream: StreamSpec
    model: ModelSpec = field(default_factory=ModelSpec)
    training: TrainingSpec = field(default_factory=TrainingSpec)
    bmc: BmcSpec = field(default_factory=BmcSpec)
    baseline: BaselineSpec = field(default_factory=BaselineSpec)
    out_dir: str = "runs"


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

# what a field of each annotation accepts from JSON; bool is no number here
_JSON_TYPES = {int: int, float: (int, float), str: str, dict: dict, list: list}
_TYPE_NAMES = {int: "of type 'integer'", float: "a finite number", str: "of type 'string'",
               dict: "of type 'object'", list: "of type 'array'"}
_OPS = {">=": operator.ge, ">": operator.gt, "<": operator.lt}
_POSITIVE = ((">=", 1),)
_NON_NEGATIVE = ((">=", 0),)

# (which configs a row binds, {key path: bounds}). A section binds only the
# methods that read it, so e.g. sgd runs with any baseline/memory_capacity;
# a file stream ignores the size fields, the seed and the separation, so
# they bind generated streams only.
_BOUNDS = (
    (lambda cfg: True, {
        "seed": _NON_NEGATIVE,
        "model/res_blocks": _POSITIVE,
        "model/res_layers_per_block": _POSITIVE,
        "model/res_dim": _POSITIVE,
        "model/hidden_dim": _POSITIVE,
        "model/dropout_p": ((">=", 0), ("<", 1)),
        "training/epochs_per_task": _NON_NEGATIVE,
        "training/lr": ((">", 0),),
        # train-mode normalization needs at least 2 rows
        "training/batch_size": ((">=", 2),),
    }),
    (lambda cfg: cfg.method == "bmc", {
        "bmc/experts_per_step": _POSITIVE,
        "bmc/rehearsal_epochs": _NON_NEGATIVE,
        # an empty buffer leaves step 0 nothing to consolidate on
        "bmc/buffer_capacity": _POSITIVE,
        "bmc/memory_capacity": _POSITIVE,
        "bmc/stability_coef": _NON_NEGATIVE,
        "bmc/task_coef": _NON_NEGATIVE,
        "bmc/consolidation_coef": _NON_NEGATIVE,
        "bmc/workers": _POSITIVE,
    }),
    (lambda cfg: cfg.method == "er", {"baseline/memory_capacity": _POSITIVE}),
    (lambda cfg: cfg.method == "oewc", {
        "baseline/penalty_coef": _NON_NEGATIVE,
        "baseline/gamma": _NON_NEGATIVE,
    }),
    (lambda cfg: cfg.stream.kind != "file", {
        "stream/n_tasks": _POSITIVE,
        "stream/classes_per_task": _POSITIVE,
        "stream/dim": _POSITIVE,
        "stream/train_per_task": _POSITIVE,
        "stream/val_per_task": _POSITIVE,
        "stream/seed": _NON_NEGATIVE,
        "stream/separation": _NON_NEGATIVE,
    }),
)


def _fail(what: str, where: str, message: str):
    raise ConfigError(f"{what} invalid at {where or '<top level>'}: {message}")


def _join(where: str, key: str) -> str:
    return f"{where}/{key}" if where else key


def _check_type(value, kind: type, what: str, where: str) -> None:
    if (isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind])
            or (kind is float and not math.isfinite(value))):
        _fail(what, where, f"{value!r} is not {_TYPE_NAMES[kind]}")


def _parse(raw, cls, what: str, where: str):
    """Build dataclass ``cls`` from the mapping ``raw``, rejecting unknown
    and missing keys, values not of their field's annotated type and values
    outside their field's choices."""
    _check_type(raw, dict, what, where)
    known = {f.name: f for f in fields(cls)}
    for key in raw:
        if key not in known:
            _fail(what, where, f"Additional properties are not allowed ({key!r} was unexpected)")
    values = {}
    for name, f in known.items():
        if name not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                _fail(what, where, f"{name!r} is a required property")
            continue
        path = _join(where, name)
        if is_dataclass(f.type):
            values[name] = _parse(raw[name], f.type, what, path)
            continue
        _check_type(raw[name], f.type, what, path)
        choices = f.metadata.get("choices", ())
        if choices and raw[name] not in choices:
            _fail(what, path, f"{raw[name]!r} is not one of {list(choices)!r}")
        values[name] = raw[name]
    return cls(**values)


def _check_bounds(obj, bounds: dict, what: str, where: str) -> None:
    for path, limits in bounds.items():
        value = obj
        for part in path.split("/"):
            value = getattr(value, part)
        for op, limit in limits:
            if not _OPS[op](value, limit):
                _fail(what, _join(where, path), f"{value!r} is not {op} {limit}")


def _check_config(cfg: ExperimentConfig, what: str, where: str) -> None:
    """Raise ConfigError for a value outside the bounds that bind ``cfg``."""
    for binds, bounds in _BOUNDS:
        if binds(cfg):
            _check_bounds(cfg, bounds, what, where)
    if cfg.method == "bmc" and cfg.bmc.task_coef == cfg.bmc.consolidation_coef == 0:
        _fail(what, _join(where, "bmc"), "bmc/task_coef and bmc/consolidation_coef are both 0, "
              "so consolidation has nothing to optimize")


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping and build the config."""
    cfg = _parse(raw, ExperimentConfig, "config", "")
    _check_config(cfg, "config", "")
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def _read_json(path: str | Path, what: str) -> dict:
    """The JSON object in the UTF-8 file ``path``."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"{what} file {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} file {path} must contain a JSON object")
    return raw


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(_read_json(path, "config"))


def build_stream(spec: StreamSpec) -> TaskStream:
    if spec.kind == "file":
        if not spec.path:
            raise ConfigError("stream kind 'file' requires stream/path")
        return load_feature_stream(spec.path)
    try:
        return generate_stream(
            spec.kind,
            n_tasks=spec.n_tasks,
            classes_per_task=spec.classes_per_task,
            dim=spec.dim,
            train_per_task=spec.train_per_task,
            val_per_task=spec.val_per_task,
            seed=spec.seed,
            separation=spec.separation,
        )
    except ValueError as e:
        # parse_config bounds each size alone; the generator checks how they fit
        _fail("config", "stream/classes_per_task", str(e))


def build_model_config(spec: ModelSpec, stream: TaskStream) -> ModelConfig:
    """The classifier shape a run builds: the spec's layers over the stream's
    input width and class count."""
    return ModelConfig(input_dim=stream.dim, total_classes=stream.total_classes, **asdict(spec))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Uniform random search: each trial samples every range independently."""

    trials: int
    seed: int
    base: ExperimentConfig
    ranges: dict  # dotted config key -> {"low", "high"} or {"choices"}


@dataclass(frozen=True)
class _Range:
    """The keys of one sweep range, for the validator."""

    low: float = 0.0
    high: float = 0.0
    choices: list = field(default_factory=list)


def parse_sweep(raw: dict) -> SweepSpec:
    what = "sweep spec"
    spec = _parse(raw, SweepSpec, what, "")
    _check_bounds(spec, {"trials": _POSITIVE, "seed": _NON_NEGATIVE}, what, "")
    _check_config(spec.base, what, "base")
    if not spec.ranges:
        _fail(what, "ranges", "{} should be non-empty")
    for path, r in spec.ranges.items():
        where = f"ranges/{path}"
        _parse(r, _Range, what, where)
        if r.get("choices") == []:
            _fail(what, f"{where}/choices", "[] should be non-empty")
        kind = ExperimentConfig  # the annotated type of the key, section by section
        for part in path.split("."):
            known = {f.name: f.type for f in fields(kind)} if is_dataclass(kind) else {}
            if part not in known:
                _fail(what, where, f"sweep range targets unknown config key {path!r}")
            kind = known[part]
        if "choices" in r:
            if "low" in r or "high" in r:
                _fail(what, where, "give either choices or low/high")
        elif "low" not in r or "high" not in r:
            _fail(what, where, "needs low+high or choices")
        elif kind is not float:  # a trial draws a float from low/high
            _fail(what, where, f"{path!r} is not a float key: give it choices, not low/high")
        elif r["low"] > r["high"]:
            _fail(what, where, "low > high")
    return spec


def load_sweep(path: str | Path) -> SweepSpec:
    return parse_sweep(_read_json(path, "sweep spec"))
