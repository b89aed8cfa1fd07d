"""Self-describing JSON checkpoints for the model and task bank.

Version 3 writes every float64 array (backbone weights and biases, each
expert's `down` and `up`, each router's `weight`, each bank signature) as
one object `{"shape": [...], "f64": "<base64>"}`, where the text is
the base64 of the array's little-endian, C-order IEEE-754 bytes.  base64 is
a one-to-one map between byte strings and text, so a load returns every
value bit for bit (`-0.0` included) with no decimal conversion either way,
and a float costs 32/3 characters rather than the ~22 of its shortest
decimal repr.  Each router also stores its own `top_k`.  Scalars such as the
temperature and the bank threshold stay JSON numbers, whose shortest
round-trip repr is exact too.

Versions 1 and 2 wrote arrays as nested lists of numbers and had every
router of a layer mix the layer's `top_k`; the loader reads both.  Version 2
dropped the per-expert and per-router `frozen` flags that version 1 wrote;
the loader ignores them.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from .adapter import LoraExpert, MixtureAdapterLayer, Router
from .errors import DataError
from .model import AdapterModel, FrozenBackbone
from .task_bank import TaskBank

FORMAT = "submoe-checkpoint"
VERSION = 3


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise DataError(f"checkpoint {what}")


def encode_array(a: np.ndarray) -> dict:
    """The version 3 form of a float64 array: its shape and the base64 of its
    little-endian C-order bytes."""
    data = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape), "f64": base64.b64encode(data).decode("ascii")}


def _array_check(ok: bool, message: str) -> None:
    if not ok:
        raise DataError(message)


def decode_array(obj) -> np.ndarray:
    """Inverse of `encode_array`: an owned, writable, native float64 array.
    A malformed object raises `DataError`, worded by the array alone: the
    checkpoint and the audit both store their arrays this way, and their
    readers name the file."""
    _array_check(isinstance(obj, dict) and obj.keys() == {"shape", "f64"},
                 "array: not a {shape, f64} object")
    shape = obj["shape"]
    _array_check(isinstance(shape, list) and all(_is_int(n) and n >= 0 for n in shape),
                 "array shape: not a list of non-negative ints")
    _array_check(isinstance(obj["f64"], str), "array f64: not a string")
    try:
        data = base64.b64decode(obj["f64"], validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise DataError(f"array f64: not base64: {exc}") from exc
    _array_check(len(data) == 8 * math.prod(shape),
                 f"array f64: {len(data)} bytes for shape {shape}")
    # frombuffer is a read-only view of `data`; astype makes the owned copy
    return np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)


def _decoder(version: int):
    """The array reader of a checkpoint version: versions 1 and 2 wrote
    nested lists."""
    if version >= 3:
        return decode_array
    return lambda obj: np.asarray(obj, dtype=np.float64)


def layer_to_payload(layer: MixtureAdapterLayer) -> dict:
    return {
        "layer_index": layer.layer_index,
        "dim": layer.dim,
        "rank": layer.rank,
        "top_k": layer.top_k,
        "version": layer.version,
        "next_expert_id": layer.next_expert_id,
        "experts": [
            {
                "down": encode_array(e.down),
                "up": encode_array(e.up),
                "owner_task": e.owner_task,
                "expert_id": e.expert_id,
            }
            for e in layer.experts
        ],
        "routers": [
            {"task": task, "top_k": r.top_k, "weight": encode_array(r.weight)}
            for task, r in layer.routers.items()
        ],
    }


def layer_from_payload(payload: dict, version: int = VERSION) -> MixtureAdapterLayer:
    """Inverse of `layer_to_payload` for a checkpoint of `version`; routers of
    versions 1 and 2 take the layer's `top_k`, and version 1's `frozen` keys
    are ignored."""
    decode = _decoder(version)
    layer = MixtureAdapterLayer(
        layer_index=payload["layer_index"],
        dim=payload["dim"],
        rank=payload["rank"],
        top_k=payload["top_k"],
        experts=[LoraExpert(down=decode(e["down"]), up=decode(e["up"]),
                            owner_task=e["owner_task"], expert_id=e["expert_id"])
                 for e in payload["experts"]],
        version=payload["version"],
        next_expert_id=payload["next_expert_id"],
    )
    for r in payload["routers"]:
        weight = decode(r["weight"])
        if weight.shape == (0,):  # a version 1 or 2 router with no rows saved as []
            weight = weight.reshape(0, layer.dim)
        top_k = r["top_k"] if version >= 3 else layer.top_k
        layer.routers[r["task"]] = Router(weight=weight, top_k=top_k)
    return layer


def bank_to_payload(bank: TaskBank) -> dict:
    return {
        "threshold": bank.threshold,
        "metric": bank.metric,
        "entries": [
            {"task": task, "embedding": encode_array(bank.entries[task])}
            for task in sorted(bank.entries)
        ],
    }


def bank_from_payload(payload: dict, version: int = VERSION) -> TaskBank:
    decode = _decoder(version)
    bank = TaskBank(threshold=payload["threshold"], metric=payload["metric"])
    for item in payload["entries"]:
        bank.entries[item["task"]] = decode(item["embedding"])
    return bank


def model_to_payload(model: AdapterModel) -> dict:
    return {
        "temperature": model.temperature,
        "learned_tasks": list(model.learned_tasks),
        "phase": {str(k): v for k, v in model.phase.items()},
        "current_task": model.current_task,
        "backbone": {
            "weights": [encode_array(w) for w in model.backbone.weights],
            "biases": [encode_array(b) for b in model.backbone.biases],
        },
        "adapters": [layer_to_payload(model.adapters[i]) for i in sorted(model.adapters)],
    }


def model_from_payload(payload: dict, version: int = VERSION) -> AdapterModel:
    decode = _decoder(version)
    backbone = FrozenBackbone(
        weights=[decode(w) for w in payload["backbone"]["weights"]],
        biases=[decode(b) for b in payload["backbone"]["biases"]],
    )
    adapters = {}
    for entry in payload["adapters"]:
        layer = layer_from_payload(entry, version)
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
    with path.open("w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return path


_PHASES = ("expanded", "identified", "pruned", "done")


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
            _require(_is_int(r.top_k) and r.top_k >= 1, f"{where} router {task}: bad top_k")
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
    if not _is_int(version) or version not in (1, 2, VERSION):
        raise DataError(f"{path}: unsupported checkpoint version {version!r}")
    # the converters trust their payload, so a missing key, a wrong type or a
    # ragged or non-numeric array surfaces as one of these
    try:
        model = model_from_payload(doc["model"], version)
        n_layer_entries = len(doc["model"]["adapters"])
        bank = bank_from_payload(doc["bank"], version) if doc.get("bank") is not None else None
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc!r}") from exc
    _check_model(model, n_layer_entries)
    if bank is not None:
        _check_bank(bank, model.dim)
    return model, bank, doc.get("meta", {})
