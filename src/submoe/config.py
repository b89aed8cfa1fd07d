"""Experiment configuration: one JSON file, nested sections, every
hyperparameter named.  The dataclasses are the schema: the parser walks
their fields, and parse errors carry the offending field path."""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .lifecycle import PhaseSchedule
from .optim import OptimConfig
from .streams import TaskSpec


@dataclass(frozen=True)
class ModelSection:
    feature_dim: int = 32
    depth: int = 4
    adapter_layers: tuple[int, ...] = (2, 3)
    rank: int = 2
    prototype_scale: float = 1.0

    def __post_init__(self):
        if self.feature_dim < 2:
            raise ConfigError(f"model.feature_dim: must be >= 2, got {self.feature_dim}")
        if self.depth < 1:
            raise ConfigError(f"model.depth: must be >= 1, got {self.depth}")
        if self.prototype_scale <= 0.0:
            raise ConfigError(f"model.prototype_scale: must be positive, got {self.prototype_scale}")
        for i in self.adapter_layers:
            if not (0 <= i < self.depth):
                raise ConfigError(f"model.adapter_layers: index {i} outside [0, {self.depth})")


@dataclass(frozen=True)
class ContrastiveSection:
    temperature: float = 0.07

    def __post_init__(self):
        if self.temperature <= 0.0:
            raise ConfigError(f"contrastive.temperature: must be positive, got {self.temperature}")


@dataclass(frozen=True)
class BankSection:
    match_threshold: float = 10.0
    metric: str = "manhattan"
    enroll_batch: int = 64
    query_window: int = 1

    def __post_init__(self):
        if self.enroll_batch < 1:
            raise ConfigError(f"task_bank.enroll_batch: must be >= 1, got {self.enroll_batch}")
        if self.query_window < 1:
            raise ConfigError(f"task_bank.query_window: must be >= 1, got {self.query_window}")


@dataclass(frozen=True)
class EvalSection:
    protocol: str = "id_given"
    cil: bool = False

    def __post_init__(self):
        if self.protocol not in ("id_given", "id_free"):
            raise ConfigError(f"evaluation.protocol: unknown protocol {self.protocol!r}")


@dataclass
class ExperimentConfig:
    seed: int = 0
    output_dir: str = "runs/run"
    model: ModelSection = field(default_factory=ModelSection)
    schedule: PhaseSchedule = field(default_factory=lambda: PhaseSchedule(
        identify_steps=100, finetune_steps=100))
    optimizer: OptimConfig = field(default_factory=lambda: OptimConfig(
        learning_rate=0.01, penalty=0.01))
    contrastive: ContrastiveSection = field(default_factory=ContrastiveSection)
    task_bank: BankSection = field(default_factory=BankSection)
    evaluation: EvalSection = field(default_factory=EvalSection)
    stream: list[TaskSpec] = field(default_factory=list)
    export_stream: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")


@functools.cache
def _schema(cls) -> dict:
    """Field name -> expected type, in field order.  `X | None` reads as X,
    because null always selects the default."""
    return {name: typing.get_args(hint)[0] if isinstance(hint, types.UnionType) else hint
            for name, hint in typing.get_type_hints(cls).items()}


def _parse(cls, raw, path: str, defaults):
    """Build dataclass `cls` from the JSON object `raw`, one field at a time;
    a missing key or an explicit null takes the field's value in `defaults`
    (so effective configs reparse)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    schema = _schema(cls)
    extra = raw.keys() - schema.keys()
    if extra:
        raise ConfigError(f"{path or 'config'}.{sorted(extra)[0]}: unknown field")
    kwargs = {}
    for name, hint in schema.items():
        val, default = raw.get(name), getattr(defaults, name)
        kwargs[name] = default if val is None else _value(
            hint, val, f"{path}.{name}" if path else name, default)
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        # a section's checks name the field under the section's own name,
        # which for a stream entry lacks the index: the path replaces it
        own = path.rpartition(".")[2].partition("[")[0]
        if own == path or not str(exc).startswith(f"{own}."):
            raise
        raise ConfigError(path + str(exc)[len(own):]) from None


def _value(hint, val, path: str, default):
    origin = typing.get_origin(hint)
    if origin is list:  # the stream: a task's defaults depend on its position
        if not isinstance(val, list):
            raise ConfigError(f"{path}: expected a list of task specs")
        return [_parse(TaskSpec, item, f"{path}[{i}]", TaskSpec(
            task_id=i, classes=8, samples_per_class=64, seed=i)) for i, item in enumerate(val)]
    if origin is tuple:  # a JSON list; config_to_dict leaves it a tuple
        if not isinstance(val, (list, tuple)) or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in val):
            raise ConfigError(f"{path}: expected a list of ints")
        return tuple(val)
    if dataclasses.is_dataclass(hint):
        return _parse(hint, val, path, default)
    return _check(hint, val, path)


def _check(kind: type, val, path: str):
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
        raise ConfigError(f"{path}: expected {kind.__name__}, got {type(val).__name__}")
    if kind is float and not math.isfinite(val):
        raise ConfigError(f"{path}: must be finite, got {val}")
    return val


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse a raw JSON config: every key is a dataclass field."""
    return _parse(ExperimentConfig, raw, "", ExperimentConfig())


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Fully resolved (effective) configuration, reparseable by config_from_dict."""
    return dataclasses.asdict(cfg)
