"""Config parsing: field-path diagnostics, defaults, and effective-config
round trips."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from submoe.config import (
    ExperimentConfig, config_from_dict, config_to_dict, load_config,
)
from submoe.errors import ConfigError


def minimal() -> dict:
    return {"stream": [{"task_id": 0, "classes": 3, "samples_per_class": 8}]}


def test_empty_config_uses_defaults():
    cfg = config_from_dict({})
    assert cfg.seed == 0
    assert cfg.model.feature_dim == 32 and cfg.model.adapter_layers == (2, 3)
    assert cfg.schedule.identify_steps == 100 and cfg.schedule.finetune_steps == 100
    assert cfg.optimizer.learning_rate == 0.01 and cfg.optimizer.penalty == 0.01
    assert cfg.contrastive.temperature == 0.07
    assert cfg.task_bank.match_threshold == 10.0
    assert cfg.evaluation.protocol == "id_given" and cfg.evaluation.cil is False
    assert cfg.stream == []


def test_unknown_keys_carry_field_paths():
    with pytest.raises(ConfigError, match=r"config\.bogus"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError, match=r"model\.width"):
        config_from_dict({"model": {"width": 8}})
    with pytest.raises(ConfigError, match=r"schedule\.steps"):
        config_from_dict({"schedule": {"steps": 5}})
    with pytest.raises(ConfigError, match=r"stream\[0\]\.klasses"):
        config_from_dict({"stream": [{"klasses": 2}]})
    with pytest.raises(ConfigError, match=r"stream\[1\]\.alignment"):
        config_from_dict({"stream": [
            {}, {"alignment": {"mode": "sideways"}},
        ]})


def test_type_errors_carry_field_paths():
    with pytest.raises(ConfigError, match=r"optimizer\.learning_rate"):
        config_from_dict({"optimizer": {"learning_rate": "fast"}})
    with pytest.raises(ConfigError, match=r"evaluation\.cil"):
        config_from_dict({"evaluation": {"cil": "yes"}})
    with pytest.raises(ConfigError, match=r"model\.adapter_layers"):
        config_from_dict({"model": {"adapter_layers": [1, "two"]}})
    with pytest.raises(ConfigError, match=r"seed"):
        config_from_dict({"seed": 1.5})


def test_validation_errors_carry_field_paths():
    with pytest.raises(ConfigError, match=r"optimizer\.penalty"):
        config_from_dict({"optimizer": {"penalty": -0.5}})
    with pytest.raises(ConfigError, match=r"schedule\.prune_threshold"):
        config_from_dict({"schedule": {"prune_threshold": 1.5}})
    with pytest.raises(ConfigError, match=r"model\.adapter_layers"):
        config_from_dict({"model": {"depth": 3, "adapter_layers": [5]}})
    with pytest.raises(ConfigError, match=r"stream\[0\]"):
        config_from_dict({"stream": [{"classes": 1}]})
    with pytest.raises(ConfigError, match=r"evaluation\.protocol"):
        config_from_dict({"evaluation": {"protocol": "oracle"}})


@pytest.mark.parametrize("key", ["identify_epochs", "finetune_epochs"])
def test_epoch_keys_are_unknown_fields(key):
    # schedule lengths are given in steps only
    with pytest.raises(ConfigError, match=rf"^schedule\.{key}: unknown field$"):
        config_from_dict({"schedule": {key: 3}})
    with pytest.raises(ConfigError, match=rf"^schedule\.{key}: unknown field$"):
        config_from_dict({**minimal(), "schedule": {"identify_steps": 5, key: 1}})


def test_effective_config_round_trip():
    raw = {
        "seed": 7,
        "output_dir": "runs/x",
        "model": {"feature_dim": 16, "depth": 3, "adapter_layers": [1, 2], "rank": 4},
        "schedule": {"identify_steps": 42, "num_candidates": 3, "kl_plateau_stop": 0.01},
        "optimizer": {"learning_rate": 0.3, "penalty": 0.025},
        "contrastive": {"temperature": 0.2},
        "task_bank": {"match_threshold": 5.5, "metric": "euclidean"},
        "evaluation": {"protocol": "id_free", "cil": True},
        "stream": [
            {"task_id": 0, "classes": 3, "samples_per_class": 8},
            {"task_id": 1, "classes": 3, "samples_per_class": 8,
             "alignment": {"mode": "reuse", "source": 0, "perturbation": 0.25}},
        ],
    }
    cfg = config_from_dict(raw)
    effective = config_to_dict(cfg)
    cfg2 = config_from_dict(effective)
    assert cfg2 == cfg
    assert config_to_dict(cfg2) == effective


def test_an_int_for_a_float_parses_to_the_float_and_reparses_equal():
    # `_check` coerces an int (not a bool) given for a float field
    raw = minimal()
    raw["optimizer"] = {"learning_rate": 5}
    cfg = config_from_dict(raw)
    assert cfg.optimizer.learning_rate == 5.0 and type(cfg.optimizer.learning_rate) is float
    effective = json.loads(json.dumps(config_to_dict(cfg)))
    assert effective["optimizer"]["learning_rate"] == 5.0
    assert type(effective["optimizer"]["learning_rate"]) is float
    assert config_from_dict(effective) == cfg


def test_effective_config_is_json_serialisable_and_complete():
    effective = config_to_dict(config_from_dict(minimal()))
    text = json.dumps(effective)
    back = config_from_dict(json.loads(text))
    assert back.stream[0].classes == 3
    # resolved values are explicit, not implied
    assert effective["schedule"]["identify_steps"] == 100
    assert effective["stream"][0]["noise"] == 0.1


def test_load_config_error_paths(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal()))
    cfg = load_config(good)
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.stream[0].samples_per_class == 8


def test_explicit_null_selects_default():
    cfg = config_from_dict({"schedule": {"kl_plateau_stop": None},
                            "task_bank": {"metric": None}})
    assert cfg.schedule.kl_plateau_stop is None
    assert cfg.task_bank.metric == "manhattan"


REPO = Path(__file__).resolve().parents[1]
CONFIG_FILES = sorted([*REPO.glob("configs/*.json"), *REPO.glob("perfbench/configs/*.json")])

# sha256 of json.dumps(config_to_dict(load_config(path)), indent=2,
# sort_keys=True): the effective config each shipped file resolves to.
EFFECTIVE_CONFIG_SHA256 = {
    "configs/demo.json":
        "86e5897b501550088f7eedc903341613d464faace7452bd92e56151399ba3822",
    "perfbench/configs/demo_free_cil.json":
        "d94a8e3435acfac2fbce992f15e411c92556c23525ef57d4a7be1e2d007b4991",
    "perfbench/configs/ortho20_free.json":
        "47bc3dbd032f9d119584e4ed71de2d60f8cd3d8a6271faf8e47d502bc22cc250",
    "perfbench/configs/ortho20_given.json":
        "b8f9a78645bb3b3927aed4e9f4cfb36f7d18375463e255c92e9ff313accee0bb",
}


def _effective_sha256(cfg: ExperimentConfig) -> str:
    text = json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(EFFECTIVE_CONFIG_SHA256))
def test_effective_config_of_each_shipped_file_is_pinned(name):
    assert _effective_sha256(load_config(REPO / name)) == EFFECTIVE_CONFIG_SHA256[name]


def test_effective_config_of_the_empty_config_is_pinned():
    assert _effective_sha256(config_from_dict({})) == (
        "00b1abd755f0cf45521cc30bb9d643d255a63f0e520f8d7587b31d3b76620d47")


@pytest.mark.parametrize("path", CONFIG_FILES, ids=lambda p: str(p.relative_to(REPO)))
def test_every_shipped_config_round_trips(path):
    cfg = load_config(path)
    assert config_from_dict(config_to_dict(cfg)) == cfg


def _with_value(dotted: str, value) -> dict:
    raw = minimal()
    node = raw
    *parents, leaf = dotted.replace("[0]", ".0").split(".")
    for key in parents:
        node = node[int(key)] if key.isdigit() else node.setdefault(key, {})
    node[leaf] = value
    return raw


FLOAT_FIELDS = (
    "model.prototype_scale", "contrastive.temperature", "task_bank.match_threshold",
    "schedule.kl_plateau_stop", "optimizer.eps", "stream[0].noise",
    "stream[0].alignment.perturbation",
)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("dotted", FLOAT_FIELDS)
def test_non_finite_floats_are_rejected_with_their_field_path(dotted, value):
    # float("NaN") and float("Infinity") are what json.loads makes of them
    with pytest.raises(ConfigError, match=re.escape(dotted) + ": must be finite"):
        config_from_dict(_with_value(dotted, float(value)))


@pytest.mark.parametrize("eps", [0.0, -1.0])
def test_optimizer_eps_must_be_positive(eps):
    with pytest.raises(ConfigError, match=r"optimizer\.eps"):
        config_from_dict({"optimizer": {"eps": eps}})


def test_load_config_rejects_a_file_that_is_not_utf8(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"output_dir": "caf\xe9"}')
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)


# each refusal of a section's bounds, with the message that names the field
BAD_VALUES = {
    "model.feature_dim": (1, "model.feature_dim: must be >= 2, got 1"),
    "model.depth": (0, "model.depth: must be >= 1, got 0"),
    "model.prototype_scale": (0.0, "model.prototype_scale: must be positive, got 0.0"),
    "contrastive.temperature": (0.0, "contrastive.temperature: must be positive, got 0.0"),
    "task_bank.enroll_batch": (0, "task_bank.enroll_batch: must be >= 1, got 0"),
    "task_bank.query_window": (0, "task_bank.query_window: must be >= 1, got 0"),
    "schedule.finetune_steps": (-1, "schedule.finetune_steps: must be >= 0, got -1"),
    "schedule.top_k": (0, "schedule.top_k: must be >= 1, got 0"),
    "schedule.batch_size": (0, "schedule.batch_size: must be >= 1, got 0"),
    "schedule.eval_batch_size": (0, "schedule.eval_batch_size: must be >= 1, got 0"),
    "schedule.snapshot_interval": (0, "schedule.snapshot_interval: must be >= 1, got 0"),
    "optimizer.weight_decay": (-1.0, "optimizer.weight_decay: must be >= 0, got -1.0"),
    "optimizer.beta1": (1.0, "optimizer.beta1/beta2: must lie in [0, 1)"),
    "optimizer.beta2": (-0.5, "optimizer.beta1/beta2: must lie in [0, 1)"),
    "stream[0].alignment.fraction": (
        1.5, "stream[0].alignment: alignment.fraction: must lie in [0, 1], got 1.5"),
    "stream[0].samples_per_class": (
        0, "stream[0]: stream.samples_per_class: must be >= 1, got 0"),
    "stream[0].eval_per_class": (0, "stream[0]: stream.eval_per_class: must be >= 1, got 0"),
    "stream[0].noise": (-0.1, "stream[0]: stream.noise: must be >= 0, got -0.1"),
}


@pytest.mark.parametrize("raw, message", [
    *[(_with_value(dotted, value), message) for dotted, (value, message) in BAD_VALUES.items()],
    ([], "config: expected an object"),
    ({"stream": {}}, "stream: expected a list of task specs"),
], ids=[*BAD_VALUES, "config not an object", "stream not a list"])
def test_each_bound_is_refused_naming_its_field(raw, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_dict(raw)
