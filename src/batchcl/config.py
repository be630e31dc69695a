"""Experiment configuration: the one run-level config tree and its schema.

Config files are JSON with a fixed schema; unknown keys anywhere are
rejected so typos fail loudly instead of silently running defaults, and
out-of-range values are rejected here, naming the key, rather than
mid-run. The runners read the parsed :class:`ExperimentConfig` directly.
``parse_config -> config_to_dict -> parse_config`` is an identity.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import jsonschema

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
    kind: str = "permuted"  # permuted | split_synthetic | file
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
    sampling: str = "random"
    distill_kind: str = "features"
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
    method: str
    seed: int
    stream: StreamSpec
    model: ModelSpec = field(default_factory=ModelSpec)
    training: TrainingSpec = field(default_factory=TrainingSpec)
    bmc: BmcSpec = field(default_factory=BmcSpec)
    baseline: BaselineSpec = field(default_factory=BaselineSpec)
    out_dir: str = "runs"


def _props(cls) -> dict:
    kinds = {int: {"type": "integer"}, float: {"type": "number"}, str: {"type": "string"}}
    return {f.name: dict(kinds[f.type if isinstance(f.type, type) else _ann(f)]) for f in fields(cls)}


def _ann(f) -> type:
    return {"int": int, "float": float, "str": str}[f.type]


def _section(cls, extra: dict | None = None) -> dict:
    props = _props(cls)
    for key, override in (extra or {}).items():
        props[key].update(override)
    return {"type": "object", "properties": props, "additionalProperties": False}


def _when(method: str, section: str, bounds: dict) -> dict:
    """Bounds on one section's keys that hold only in runs of ``method``."""
    return {
        "if": {"properties": {"method": {"const": method}}},
        "then": {"properties": {section: {"properties": bounds}}},
    }


_POSITIVE = {"minimum": 1}
_NON_NEGATIVE = {"minimum": 0}
_STREAM_SIZE_FIELDS = ("n_tasks", "classes_per_task", "dim", "train_per_task", "val_per_task")

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["method", "seed", "stream"],
    "additionalProperties": False,
    "properties": {
        "method": {"enum": list(METHODS)},
        "seed": {"type": "integer", **_NON_NEGATIVE},
        "out_dir": {"type": "string"},
        "stream": _section(StreamSpec, {"kind": {"enum": list(STREAM_KINDS) + ["file"]}}),
        "model": _section(
            ModelSpec,
            {
                "res_blocks": _POSITIVE,
                "res_layers_per_block": _POSITIVE,
                "res_dim": _POSITIVE,
                "hidden_dim": _POSITIVE,
                "dropout_p": {"minimum": 0, "exclusiveMaximum": 1},
            },
        ),
        "training": _section(
            TrainingSpec,
            {
                "epochs_per_task": _NON_NEGATIVE,
                "lr": {"exclusiveMinimum": 0},
                # train-mode normalization needs at least 2 rows
                "batch_size": {"minimum": 2},
            },
        ),
        "bmc": _section(
            BmcSpec,
            {
                "sampling": {"enum": list(SAMPLING_STRATEGIES)},
                "distill_kind": {"enum": list(DISTILL_KINDS)},
            },
        ),
        "baseline": _section(BaselineSpec),
    },
    # a section only binds the methods that read it, so e.g. sgd runs with
    # any baseline/memory_capacity
    "allOf": [
        _when(
            "bmc",
            "bmc",
            {
                "experts_per_step": _POSITIVE,
                "rehearsal_epochs": _NON_NEGATIVE,
                # an empty buffer leaves step 0 nothing to consolidate on
                "buffer_capacity": _POSITIVE,
                "memory_capacity": _POSITIVE,
                "stability_coef": _NON_NEGATIVE,
                "task_coef": _NON_NEGATIVE,
                "consolidation_coef": _NON_NEGATIVE,
                "workers": _POSITIVE,
            },
        ),
        _when("er", "baseline", {"memory_capacity": _POSITIVE}),
        _when("oewc", "baseline", {"penalty_coef": _NON_NEGATIVE, "gamma": _NON_NEGATIVE}),
        # a file stream ignores the size fields, the seed and the
        # separation, so they bind generated streams only
        {
            "if": {
                "properties": {
                    "stream": {"properties": {"kind": {"const": "file"}}, "required": ["kind"]}
                }
            },
            "else": {
                "properties": {
                    "stream": {
                        "properties": {
                            **{key: _POSITIVE for key in _STREAM_SIZE_FIELDS},
                            "seed": _NON_NEGATIVE,
                            "separation": _NON_NEGATIVE,
                        }
                    }
                }
            },
        },
    ],
}


def _validate(raw, validator: jsonschema.Draft202012Validator, what: str) -> None:
    """Raise ConfigError for the most relevant schema violation, naming its key."""
    error = jsonschema.exceptions.best_match(validator.iter_errors(raw))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<top level>"
        raise ConfigError(f"{what} invalid at {where}: {error.message}")


# built once: jsonschema.validate would re-check the schema itself on every call
_CONFIG_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping against the schema and build the config."""
    _validate(raw, _CONFIG_VALIDATOR, "config")
    cfg = ExperimentConfig(
        method=raw["method"],
        seed=raw["seed"],
        stream=StreamSpec(**raw["stream"]),
        model=ModelSpec(**raw.get("model", {})),
        training=TrainingSpec(**raw.get("training", {})),
        bmc=BmcSpec(**raw.get("bmc", {})),
        baseline=BaselineSpec(**raw.get("baseline", {})),
        out_dir=raw.get("out_dir", "runs"),
    )
    if cfg.method == "bmc" and cfg.bmc.task_coef == cfg.bmc.consolidation_coef == 0:
        raise ConfigError("config invalid at bmc: bmc/task_coef and bmc/consolidation_coef "
                          "are both 0, so consolidation has nothing to optimize")
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must contain a JSON object")
    return parse_config(raw)


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
        # the schema bounds each size alone; the generator checks how they fit
        raise ConfigError(f"config invalid at stream/classes_per_task: {e}") from e


def build_model_config(spec: ModelSpec, stream: TaskStream) -> ModelConfig:
    """The classifier shape a run builds: the spec's layers over the stream's
    input width and class count."""
    return ModelConfig(input_dim=stream.dim, total_classes=stream.total_classes, **asdict(spec))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

SWEEP_SCHEMA = {
    "type": "object",
    "required": ["trials", "seed", "ranges", "base"],
    "additionalProperties": False,
    "properties": {
        "trials": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", **_NON_NEGATIVE},
        "base": CONFIG_SCHEMA,
        "ranges": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "low": {"type": "number"},
                    "high": {"type": "number"},
                    "choices": {"type": "array", "minItems": 1},
                },
            },
        },
    },
}


@dataclass(frozen=True)
class SweepSpec:
    """Uniform random search: each trial samples every range independently."""

    trials: int
    seed: int
    base: ExperimentConfig
    ranges: dict[str, dict]

    def __post_init__(self):
        base_dict = config_to_dict(self.base)
        for path, spec in self.ranges.items():
            node = base_dict
            for part in path.split("."):
                if not isinstance(node, dict) or part not in node:
                    raise ConfigError(f"sweep range targets unknown config key {path!r}")
                node = node[part]
            if "choices" in spec:
                if "low" in spec or "high" in spec:
                    raise ConfigError(f"range {path!r}: give either choices or low/high")
            elif "low" in spec and "high" in spec:
                if spec["low"] > spec["high"]:
                    raise ConfigError(f"range {path!r}: low > high")
            else:
                raise ConfigError(f"range {path!r}: needs low+high or choices")


def parse_sweep(raw: dict) -> SweepSpec:
    _validate(raw, jsonschema.Draft202012Validator(SWEEP_SCHEMA), "sweep spec")
    return SweepSpec(
        trials=raw["trials"],
        seed=raw["seed"],
        base=parse_config(raw["base"]),
        ranges=raw["ranges"],
    )


def load_sweep(path: str | Path) -> SweepSpec:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path} is not valid JSON: {e}") from e
    return parse_sweep(raw)
