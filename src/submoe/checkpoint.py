"""Self-describing JSON checkpoints for the model and task bank.

Floats are serialised with Python's shortest-round-trip repr, so a load
followed by a save reproduces every 64-bit value bit for bit.  Version 2
dropped the per-expert and per-router `frozen` flags that version 1 wrote;
the loader reads both and ignores those flags.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .adapter import layer_from_payload, layer_to_payload
from .errors import DataError
from .model import AdapterModel, FrozenBackbone
from .task_bank import TaskBank, bank_from_payload, bank_to_payload

FORMAT = "submoe-checkpoint"
VERSION = 2


def model_to_payload(model: AdapterModel) -> dict:
    return {
        "temperature": model.temperature,
        "learned_tasks": list(model.learned_tasks),
        "phase": {str(k): v for k, v in model.phase.items()},
        "current_task": model.current_task,
        "backbone": {
            "weights": [w.tolist() for w in model.backbone.weights],
            "biases": [b.tolist() for b in model.backbone.biases],
        },
        "adapters": [layer_to_payload(model.adapters[i]) for i in sorted(model.adapters)],
    }


def model_from_payload(payload: dict) -> AdapterModel:
    backbone = FrozenBackbone(
        weights=[np.asarray(w, dtype=np.float64) for w in payload["backbone"]["weights"]],
        biases=[np.asarray(b, dtype=np.float64) for b in payload["backbone"]["biases"]],
    )
    adapters = {}
    for entry in payload["adapters"]:
        layer = layer_from_payload(entry)
        adapters[layer.layer_index] = layer
    return AdapterModel(
        backbone=backbone,
        adapters=adapters,
        temperature=payload["temperature"],
        learned_tasks=list(payload["learned_tasks"]),
        phase={int(k): v for k, v in payload["phase"].items()},
        current_task=payload["current_task"],
    )


def save_checkpoint(path: str | Path, model: AdapterModel,
                    bank: TaskBank | None = None, meta: dict | None = None) -> Path:
    path = Path(path)
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "model": model_to_payload(model),
        "bank": bank_to_payload(bank) if bank is not None else None,
        "meta": meta or {},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc) + "\n")
    return path


_PHASES = ("expanded", "identified", "pruned", "done")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise DataError(f"checkpoint {what}")


def _require_array(arr: np.ndarray, shape: tuple, what: str) -> None:
    _require(arr.shape == shape, f"{what}: shape {arr.shape}, expected {shape}")
    _require(bool(np.isfinite(arr).all()), f"{what}: non-finite values")


def _check_model(model: AdapterModel, n_layer_entries: int) -> None:
    """Everything the converters take on trust: types, shapes, finiteness."""
    t = model.temperature
    _require((_is_int(t) or isinstance(t, float) and math.isfinite(t)) and t > 0,
             "temperature: not a positive number")
    _require(all(_is_int(task) for task in model.learned_tasks), "learned_tasks: not ints")
    _require(all(v in _PHASES for v in model.phase.values()), "phase: unknown value")
    _require(model.current_task is None or _is_int(model.current_task),
             "current_task: not an int")
    bb = model.backbone
    _require(bb.depth >= 1 and len(bb.biases) == bb.depth, "backbone: layer counts differ")
    _require(bb.weights[0].ndim == 2 and bb.dim >= 1, "backbone: weights are not matrices")
    dim = bb.dim
    for i, (w, b) in enumerate(zip(bb.weights, bb.biases)):
        _require_array(w, (dim, dim), f"backbone weight {i}")
        _require_array(b, (dim,), f"backbone bias {i}")
    _require(len(model.adapters) == n_layer_entries, "adapters: duplicate layer index")
    for index, layer in model.adapters.items():
        where = f"adapter layer {index}"
        _require(_is_int(index) and 0 <= index < bb.depth, f"{where}: outside the backbone")
        _require(all(_is_int(v) for v in (layer.rank, layer.top_k, layer.version,
                                           layer.next_expert_id))
                 and layer.rank >= 1 and layer.top_k >= 1, f"{where}: bad header")
        _require(_is_int(layer.dim) and layer.dim == dim,
                 f"{where}: dim {layer.dim!r}, backbone dim {dim}")
        ids = [e.expert_id for e in layer.experts]
        _require(all(_is_int(v) and 0 <= v < layer.next_expert_id for v in ids)
                 and len(set(ids)) == len(ids), f"{where}: bad expert ids")
        for e in layer.experts:
            _require(_is_int(e.owner_task), f"{where} expert {e.expert_id}: bad owner")
            _require_array(e.down, (layer.rank, dim), f"{where} expert {e.expert_id} down")
            _require_array(e.up, (dim, layer.rank), f"{where} expert {e.expert_id} up")
        for task, r in layer.routers.items():
            _require(_is_int(task), f"{where} router {task!r}: bad task")
            w = r.weight
            _require(w.ndim == 2 and w.shape[0] <= len(layer.experts),
                     f"{where} router {task}: shape {w.shape}, {len(layer.experts)} experts")
            _require_array(w, (w.shape[0], dim), f"{where} router {task}")


def _check_bank(bank: TaskBank, dim: int) -> None:
    for task, f in bank.entries.items():
        _require(_is_int(task), f"bank entry {task!r}: not an int task")
        _require_array(f, (2 * dim,), f"bank entry {task}")


def load_checkpoint(path: str | Path):
    """(model, bank or None, meta) from a checkpoint file; any fault in the
    file raises `DataError`."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise DataError(f"{path} is not a checkpoint file")
    version = doc.get("version")
    if not _is_int(version) or version not in (1, VERSION):
        raise DataError(f"{path}: unsupported checkpoint version {version!r}")
    # the converters trust their payload, so a missing key, a wrong type or a
    # ragged or non-numeric array surfaces as one of these
    try:
        model = model_from_payload(doc["model"])
        n_layer_entries = len(doc["model"]["adapters"])
        bank = bank_from_payload(doc["bank"]) if doc.get("bank") is not None else None
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc!r}") from exc
    _check_model(model, n_layer_entries)
    if bank is not None:
        _check_bank(bank, model.dim)
    return model, bank, doc.get("meta", {})
