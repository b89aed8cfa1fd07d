"""Convert a run directory's checkpoint and audit from the JSON text of the
formats before the container to the files a run writes today.

    python3 tools/upgrade.py RUN_DIR

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

Every old file is read and checked before any new one is written, and each
is removed once its new form is written, so the directory holds one form of
each.  A malformed old file, a new file that already exists, or a directory
with nothing to convert is refused with a `DataError` naming it, and the
directory is left as it was.
"""

from __future__ import annotations

import argparse
import base64
import json
import math
import sys
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
    JSONL_AUDIT_FILE,
)


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


# old file, new file, reader of the old, writer of the new
CONVERSIONS = (
    (JSON_CHECKPOINT_FILE, CHECKPOINT_FILE, read_old_checkpoint,
     lambda path, checkpoint: save_checkpoint(path, *checkpoint)),
    (JSONL_AUDIT_FILE, AUDIT_FILE, read_jsonl_audit, write_container),
)


def upgrade(run_dir: str | Path) -> list[tuple[Path, Path]]:
    """Convert every old file of `run_dir`; returns each (old, new) pair in
    the order converted."""
    run_dir = Path(run_dir)
    todo = [(run_dir / old, run_dir / new, read, write)
            for old, new, read, write in CONVERSIONS if (run_dir / old).is_file()]
    if not todo:
        raise DataError(f"{run_dir}: no {JSON_CHECKPOINT_FILE} or {JSONL_AUDIT_FILE} to convert")
    for old, new, _, _ in todo:
        if new.exists():
            raise DataError(f"{old}: {new} already exists, and the directory would hold "
                            f"two forms; nothing converted")
    contents = [read(old) for old, _, read, _ in todo]
    for (old, new, _, write), content in zip(todo, contents):
        try:
            write(new, content)
        except BaseException:
            new.unlink(missing_ok=True)
            raise
        old.unlink()
    return [(old, new) for old, new, _, _ in todo]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("run_dir", metavar="RUN_DIR")
    args = parser.parse_args(argv)
    try:
        converted = upgrade(args.run_dir)
    except (DataError, OSError) as exc:
        print(f"upgrade: {exc}", file=sys.stderr)
        return 1
    for old, new in converted:
        print(f"upgrade: {old} -> {new}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
