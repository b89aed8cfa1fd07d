"""Convert a directory's files from the formats before the container to
the files the engine writes today.

    python3 tools/upgrade.py DIR

`checkpoint.json` (checkpoint versions 1 to 3) becomes `checkpoint.bin`
(version 4), written by `save_checkpoint`, and `ifer_audit.jsonl` becomes
`ifer_audit.bin` (audit version 1), written by `write_container`; so a
converted file has the bytes a run writes for the same model and
distances.  Version 3 wrote each array as `{"shape": [...], "f64":
"<base64>"}` of its little-endian C-order bytes, and the JSON-lines audit
wrote its distances that way.  Versions 1 and 2 wrote arrays as nested lists
of numbers (a router with no rows as `[]`) and had every router of a layer
mix the layer's `top_k`; version 1 also wrote a `frozen` flag on every
expert and router, which nothing read and the converter drops.

Each task manifest `task_*.json` in DIR or in its `stream/` (a run's
export), the task export before the container (version 1), becomes
`task_<id>.bin` (version 2), written by `export_task`.  A manifest named
its data file, which held `SUBMOE01`, six little-endian int64s (version,
classes, dim, train rows, eval rows, task id), then `train_x`, `eval_x`,
`text_emb` and `prototypes` as little-endian float64 and `train_y` and
`eval_y` as int64.  The new file may take the old data file's name.

Every old file is read and checked before any new one is written, and each
is removed once its new form is written, so the directory holds one form of
each.  A malformed old file, a new file that already exists (other than the
old data file it replaces) or that two old files would write, or a
directory with nothing to convert is refused with a `DataError` naming it,
and the directory is left as it was.
"""

from __future__ import annotations

import argparse
import base64
import json
import math
import os
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]

from submoe.checkpoint import (  # noqa: E402
    FORMAT, VERSION, _is_int, _is_shape, checkpoint_from_document, read_container,
    save_checkpoint, write_container,
)
from submoe.errors import DataError  # noqa: E402
from submoe.experiment import (  # noqa: E402
    AUDIT_FILE, AUDIT_FORMAT, AUDIT_VERSION, CHECKPOINT_FILE, JSON_CHECKPOINT_FILE,
    JSONL_AUDIT_FILE, STREAM_DIR,
)
from submoe.streams import TaskData, export_task  # noqa: E402

OLD_TASKS = "task_*.json"


def _array_check(ok: bool, message: str) -> None:
    if not ok:
        raise DataError(message)


def decode_array(obj) -> np.ndarray:
    """A version 3 array `{"shape": [...], "f64": "<base64>"}` (the base64 of
    its little-endian C-order bytes) as an owned, writable, native float64
    array.  A malformed object raises `DataError`, worded by the array alone:
    the checkpoint and the audit both store their arrays this way, and their
    readers name the file."""
    _array_check(isinstance(obj, dict) and obj.keys() == {"shape", "f64"},
                 "array: not a {shape, f64} object")
    shape = obj["shape"]
    _array_check(_is_shape(shape), "array shape: not a list of non-negative ints")
    _array_check(isinstance(obj["f64"], str), "array f64: not a string")
    try:
        data = base64.b64decode(obj["f64"], validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise DataError(f"array f64: not base64: {exc}") from exc
    _array_check(len(data) == 8 * math.prod(shape),
                 f"array f64: {len(data)} bytes for shape {shape}")
    # frombuffer is a read-only view of `data`; astype makes the owned copy
    return np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)


def _placed_arrays(doc: dict, version: int) -> None:
    """Replace, in place, every array of `doc`, a checkpoint of `version` 1
    to 3, by the ndarray that `read_container` would have placed there, and
    give each router of versions 1 and 2 its layer's `top_k`."""
    decode = decode_array if version == 3 else lambda obj: np.asarray(obj, dtype=np.float64)
    model = doc["model"]
    for key in ("weights", "biases"):
        model["backbone"][key] = [decode(a) for a in model["backbone"][key]]
    for layer in model["adapters"]:
        for expert in layer["experts"]:
            expert["down"], expert["up"] = decode(expert["down"]), decode(expert["up"])
        for router in layer["routers"]:
            weight = decode(router["weight"])
            if weight.shape == (0,):  # a router with no rows, saved as []
                weight = weight.reshape(0, layer["dim"])
            router["weight"] = weight
            if version < 3:
                router["top_k"] = layer["top_k"]
    if doc.get("bank") is not None:
        for entry in doc["bank"]["entries"]:
            entry["embedding"] = decode(entry["embedding"])


def read_old_checkpoint(path: Path):
    """(model, bank or None, meta) of `path`, a checkpoint of version 1 to 3,
    checked as `load_checkpoint` checks a version 4 file.  Any fault raises
    `DataError` naming the path."""
    doc = read_container(path)  # one line of JSON is a container without a body
    if doc.get("format") != FORMAT:
        raise DataError(f"{path} is not a checkpoint file")
    version = doc.get("version")
    if not _is_int(version) or version not in (1, 2, 3):
        raise DataError(f"{path}: unsupported checkpoint version {version!r}; "
                        f"this converter reads versions 1 to 3")
    try:
        _placed_arrays(doc, version)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc!r}") from exc
    return checkpoint_from_document({**doc, "version": VERSION}, path)


def read_jsonl_audit(path: Path) -> dict:
    """The audit container's document of `path`, an `ifer_audit.jsonl`: one
    `{"true_task", "distance"}` record per line, the distance a version 3
    array.  Any fault raises `DataError` naming the path."""
    try:
        tasks = []
        for n, line in enumerate(path.read_text().splitlines(), 1):
            rec = json.loads(line)
            if not isinstance(rec, dict) or rec.keys() != {"true_task", "distance"}:
                raise ValueError(f"line {n} is not a {{true_task, distance}} record")
            tasks.append({"true_task": rec["true_task"], "distance": decode_array(rec["distance"])})
    except (OSError, ValueError) as exc:  # DataError is a ValueError
        raise DataError(f"{path}: cannot read the audit: {exc}") from exc
    return {"format": AUDIT_FORMAT, "version": AUDIT_VERSION, "tasks": tasks}


def read_old_task(manifest_path: Path) -> tuple[TaskData, Path]:
    """(task, data file) of `manifest_path`, a task manifest of version 1,
    with the checks its loader made.  Any fault raises `DataError` naming
    the manifest or the data file."""
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read task manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != "submoe-task":
        raise DataError(f"{manifest_path} is not a task manifest")
    name = manifest.get("file")
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise DataError(
            f"{manifest_path}: 'file' must name a file in the manifest's directory, got {name!r}"
        )
    bin_path = manifest_path.parent / name
    try:
        raw = bin_path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read task data {bin_path}: {exc}") from exc
    if len(raw) < 56:
        raise DataError(f"{bin_path}: truncated header ({len(raw)} bytes)")
    if raw[:8] != b"SUBMOE01":
        raise DataError(f"{bin_path}: bad magic")
    version, classes, dim, n_train, n_eval, task_id = struct.unpack("<6q", raw[8:56])
    if version != 1:
        raise DataError(f"{bin_path}: unsupported version {version}")
    if min(classes, dim, n_train, n_eval) < 0:
        raise DataError(f"{bin_path}: negative count in header")
    expected = 56 + 8 * ((n_train + n_eval + 2 * classes) * dim + n_train + n_eval)
    if len(raw) != expected:
        raise DataError(
            f"{bin_path}: trailing or missing bytes ({len(raw)} vs {expected} expected)"
        )
    arrays, off = [], 56
    for shape, kind in (((n_train, dim), "f8"), ((n_eval, dim), "f8"), ((classes, dim), "f8"),
                        ((classes, dim), "f8"), ((n_train,), "i8"), ((n_eval,), "i8")):
        count = math.prod(shape)
        arrays.append(np.frombuffer(raw, "<" + kind, count, off).reshape(shape).astype(kind))
        off += 8 * count
    train_x, eval_x, text, protos, train_y, eval_y = arrays
    for field_name, arr in (("train_x", train_x), ("eval_x", eval_x),
                            ("text_emb", text), ("prototypes", protos)):
        if not np.isfinite(arr).all():
            raise DataError(f"{bin_path}: {field_name} has non-finite entries")
    for field_name, labels in (("train_y", train_y), ("eval_y", eval_y)):
        if labels.size and (labels.min() < 0 or labels.max() >= classes):
            raise DataError(f"{bin_path}: {field_name} has labels outside [0, {classes})")
    return TaskData(task_id=task_id, train_x=train_x, train_y=train_y, eval_x=eval_x,
                    eval_y=eval_y, text_emb=text, prototypes=protos), bin_path


def write_task(new: Path, data: TaskData) -> None:
    """`export_task` of `data` to `new`, which may be the old data file: the
    task is written in a directory of its own beside `new`, then moved onto
    it."""
    with tempfile.TemporaryDirectory(dir=new.parent) as tmp:
        os.replace(export_task(data, tmp), new)


# old file, new file, reader of the old, writer of the new
CONVERSIONS = (
    (JSON_CHECKPOINT_FILE, CHECKPOINT_FILE, read_old_checkpoint,
     lambda path, checkpoint: save_checkpoint(path, *checkpoint)),
    (JSONL_AUDIT_FILE, AUDIT_FILE, read_jsonl_audit, write_container),
)


def _conversions(directory: Path) -> list:
    """(old files, new file, content, writer of the new) for each old file of
    `directory`, every old file read and checked: the checkpoint, the audit,
    and each task manifest, here or in `stream/`, with its data file."""
    todo = [([directory / old], directory / new, read(directory / old), write)
            for old, new, read, write in CONVERSIONS if (directory / old).is_file()]
    for manifest in [*sorted(directory.glob(OLD_TASKS)),
                     *sorted((directory / STREAM_DIR).glob(OLD_TASKS))]:
        data, data_file = read_old_task(manifest)
        todo.append(([manifest, data_file], manifest.parent / f"task_{data.task_id}.bin",
                     data, write_task))
    return todo


def upgrade(directory: str | Path) -> list[tuple[Path, Path]]:
    """Convert every old file of `directory`; returns each (old, new) pair,
    a task's old file its manifest, in the order converted."""
    directory = Path(directory)
    todo = _conversions(directory)
    if not todo:
        raise DataError(f"{directory}: no {JSON_CHECKPOINT_FILE}, {JSONL_AUDIT_FILE} or "
                        f"{OLD_TASKS} to convert")
    news = [new for _, new, _, _ in todo]
    for olds, new, _, _ in todo:
        if news.count(new) > 1:
            raise DataError(f"{olds[0]}: another old file converts to {new} too; "
                            f"nothing converted")
        if new.exists() and new not in olds:
            raise DataError(f"{olds[0]}: {new} already exists, and the directory would hold "
                            f"two forms; nothing converted")
    for olds, new, content, write in todo:
        try:
            write(new, content)
        except BaseException:
            if new not in olds:
                new.unlink(missing_ok=True)
            raise
        for old in olds:
            if old != new:
                old.unlink()
    return [(olds[0], new) for olds, new, _, _ in todo]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", metavar="DIR")
    args = parser.parse_args(argv)
    try:
        converted = upgrade(args.directory)
    except (DataError, OSError) as exc:
        print(f"upgrade: {exc}", file=sys.stderr)
        return 1
    for old, new in converted:
        print(f"upgrade: {old} -> {new}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
