"""Checkpoints of the model and task bank, and the container file that
holds them, the task-free audit and exported tasks.

A container is one line of JSON, the header, followed by a raw body.  The
header is a JSON document in which each float64 array is an object
`{"shape": [...], "offset": n}`; the body holds the arrays' little-endian,
C-order IEEE-754 bytes in header order, each starting where the one before
it ends.  A float costs its 8 bytes (base64 text took 32/3 characters), and
a read returns every value bit for bit (`-0.0` included) with no conversion
either way.  `write_container` and `read_container` are the one writer and
reader; `experiment` stores its audit and `streams` an exported task with
them too.

A checkpoint is a container with format `submoe-checkpoint`, version 4:
the model (backbone weights and biases, each expert's `down` and `up`, each
router's `weight` and its own `top_k`) and the bank (signatures, threshold,
metric).  Scalars such as the temperature and the bank threshold stay JSON
numbers, whose shortest round-trip repr is exact too.  Versions 1 to 3,
one line of JSON text (`checkpoint.json`), are refused with the command
that converts them: `python3 tools/upgrade.py RUN_DIR`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .adapter import LoraExpert, MixtureAdapterLayer, Router
from .errors import DataError
from .model import AdapterModel, FrozenBackbone
from .task_bank import TaskBank

FORMAT = "submoe-checkpoint"
VERSION = 4


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_shape(shape) -> bool:
    return isinstance(shape, list) and all(_is_int(n) and n >= 0 for n in shape)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise DataError(f"checkpoint {what}")


class Deferred(NamedTuple):
    """An array that `write_container` makes only when it writes it, so a
    container of computed arrays never holds them all at once: `shape` goes
    into the header, and `make()` returns the float64 array of that shape."""

    shape: tuple[int, ...]
    make: Callable[[], np.ndarray]


def _with_entries(node, placed: list):
    """`node` with each array in it (an ndarray or a `Deferred`) replaced by
    a new header entry `{"shape", "offset"}`; appends (entry, array) to
    `placed` in header order."""
    if isinstance(node, (np.ndarray, Deferred)):
        entry = {"shape": list(node.shape), "offset": None}
        placed.append((entry, node))
        return entry
    if isinstance(node, dict):
        return {key: _with_entries(value, placed) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_with_entries(value, placed) for value in node]
    return node


def write_container(path: str | Path, doc: dict) -> Path:
    """Write `doc`, a JSON document whose float64 arrays are ndarrays or
    `Deferred`, to `path` as a container: the header, whose offsets follow
    from the shapes alone, then each array's bytes straight from the array.
    Returns the path."""
    placed = []
    header = _with_entries(doc, placed)
    end = 0
    for entry, _ in placed:
        entry["offset"] = end
        end += 8 * math.prod(entry["shape"])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        for entry, node in placed:
            a = node.make() if isinstance(node, Deferred) else node
            if list(a.shape) != entry["shape"]:
                raise ValueError(f"{path}: made an array of shape {a.shape}, "
                                 f"declared {entry['shape']}")
            fh.write(np.ascontiguousarray(a, dtype="<f8").data)
    return path


def _array_slots(node, slots: list) -> None:
    """Append (parent, key) of every `{"shape", "offset"}` object below
    `node`, in document order."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        if isinstance(value, dict) and value.keys() == {"shape", "offset"}:
            slots.append((node, key))
        else:
            _array_slots(value, slots)


def read_container(path: str | Path) -> dict:
    """The document `write_container` wrote to `path`, each `{"shape",
    "offset"}` object replaced by an owned, writable, native float64 array.
    The offsets must tile the body exactly: the first array starts at 0,
    each later one where the one before it ends, and the last ends with the
    body.  An unreadable file, a first line that is not a JSON object, or
    arrays that do not tile the body raise `DataError`, worded by the file
    alone: the checkpoint, the audit and an exported task all use it."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        newline = len(raw)  # a header and no body, as JSON text without a final newline
    try:
        doc = json.loads(raw[:newline].decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"cannot read {path}: no JSON header line: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: the header is not a JSON object")
    body = memoryview(raw)[newline + 1:]
    slots = []
    _array_slots(doc, slots)
    end = 0
    for parent, key in slots:
        shape, offset = parent[key]["shape"], parent[key]["offset"]
        if not _is_shape(shape):
            raise DataError(f"{path}: array shape {shape!r}: not a list of non-negative ints")
        if not _is_int(offset) or offset != end:
            raise DataError(f"{path}: array at offset {offset!r}, where the previous "
                            f"array ends at {end}")
        count = math.prod(shape)
        if end + 8 * count > len(body):
            raise DataError(f"{path}: array of shape {shape} at offset {end} overruns "
                            f"the {len(body)}-byte body")
        # frombuffer is a read-only view of the file's bytes; astype makes the owned copy
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=end)
        try:
            parent[key] = arr.reshape(shape).astype(np.float64)
        except ValueError as exc:  # a shape numpy cannot make, such as [0, 10 ** 30]
            raise DataError(f"{path}: array shape {shape}: {exc}") from exc
        end += 8 * count
    if end != len(body):
        raise DataError(f"{path}: {len(body) - end} trailing bytes after the arrays")
    return doc


def _placed(obj) -> np.ndarray:
    """An array of the document, which `read_container` has already read."""
    if not isinstance(obj, np.ndarray):
        raise DataError("array: not a {shape, offset} object")
    return obj


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
                "down": e.down,
                "up": e.up,
                "owner_task": e.owner_task,
                "expert_id": e.expert_id,
            }
            for e in layer.experts
        ],
        "routers": [
            {"task": task, "top_k": r.top_k, "weight": r.weight}
            for task, r in layer.routers.items()
        ],
    }


def layer_from_payload(payload: dict) -> MixtureAdapterLayer:
    """Inverse of `layer_to_payload`."""
    layer = MixtureAdapterLayer(
        layer_index=payload["layer_index"],
        dim=payload["dim"],
        rank=payload["rank"],
        top_k=payload["top_k"],
        experts=[LoraExpert(down=_placed(e["down"]), up=_placed(e["up"]),
                            owner_task=e["owner_task"], expert_id=e["expert_id"])
                 for e in payload["experts"]],
        version=payload["version"],
        next_expert_id=payload["next_expert_id"],
    )
    for r in payload["routers"]:
        if r["task"] in layer.routers:
            raise DataError(f"adapter layer {layer.layer_index}: two routers for task {r['task']!r}")
        layer.routers[r["task"]] = Router(weight=_placed(r["weight"]), top_k=r["top_k"])
    return layer


def bank_to_payload(bank: TaskBank) -> dict:
    return {
        "threshold": bank.threshold,
        "metric": bank.metric,
        "entries": [
            {"task": task, "embedding": bank.entries[task]}
            for task in sorted(bank.entries)
        ],
    }


def bank_from_payload(payload: dict) -> TaskBank:
    bank = TaskBank(threshold=payload["threshold"], metric=payload["metric"])
    for item in payload["entries"]:
        if item["task"] in bank.entries:
            raise DataError(f"bank: two entries for task {item['task']!r}")
        bank.entries[item["task"]] = _placed(item["embedding"])
    return bank


def model_to_payload(model: AdapterModel) -> dict:
    return {
        "temperature": model.temperature,
        "learned_tasks": list(model.learned_tasks),
        "phase": {str(k): v for k, v in model.phase.items()},
        "current_task": model.current_task,
        "backbone": {
            "weights": list(model.backbone.weights),
            "biases": list(model.backbone.biases),
        },
        "adapters": [layer_to_payload(model.adapters[i]) for i in sorted(model.adapters)],
    }


def model_from_payload(payload: dict) -> AdapterModel:
    backbone = FrozenBackbone(
        weights=[_placed(w) for w in payload["backbone"]["weights"]],
        biases=[_placed(b) for b in payload["backbone"]["biases"]],
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
    """Write (model, bank, meta) to `path` as a version 4 container; returns
    the path."""
    return write_container(path, {
        "format": FORMAT,
        "version": VERSION,
        "model": model_to_payload(model),
        "bank": bank_to_payload(bank) if bank is not None else None,
        "meta": meta or {},
    })


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
    """(model, bank or None, meta) from a version 4 checkpoint file; `meta`
    is a JSON object, `{}` when the file has none.  Any fault in the file
    raises `DataError` naming the path, and so does a file of versions 1 to
    3, with the command that converts it."""
    path = Path(path)
    return checkpoint_from_document(read_container(path), path)


def checkpoint_from_document(doc: dict, path: Path):
    """`load_checkpoint` of `doc`, a document as `read_container` returns it,
    its faults named by `path`."""
    if doc.get("format") != FORMAT:
        raise DataError(f"{path} is not a checkpoint file")
    version = doc.get("version")
    if _is_int(version) and version in (1, 2, 3):
        raise DataError(f"{path}: checkpoint version {version}, from before the container; "
                        f"convert it with: python3 tools/upgrade.py {path.parent}")
    if not _is_int(version) or version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version!r}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise DataError(f"{path}: checkpoint meta is not a JSON object: {meta!r}")
    # the converters trust their payload, so a missing key or a wrong type
    # surfaces as one of the second group; the refusals of the converters and
    # the checks are worded without the path
    try:
        model = model_from_payload(doc["model"])
        bank = bank_from_payload(doc["bank"]) if doc.get("bank") is not None else None
        _check_model(model, len(doc["model"]["adapters"]))
        if bank is not None:
            _check_bank(bank, model.dim)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc!r}") from exc
    return model, bank, meta
