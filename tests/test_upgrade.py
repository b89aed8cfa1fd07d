"""The converter of the formats before the container, `tools/upgrade.py`: a
run directory's `checkpoint.json` (versions 1 to 3) and `ifer_audit.jsonl`
become the `checkpoint.bin` and `ifer_audit.bin` a run writes, byte for byte;
a malformed old file, an existing container or nothing to convert is refused
and leaves the directory as it was.  The old files come from the writers of
`tests/oracles.py`, which `tests/pinned.py` also pins."""

from __future__ import annotations

import base64
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from submoe.checkpoint import load_checkpoint, save_checkpoint
from submoe.errors import DataError
from submoe.experiment import (
    AUDIT_FILE, CHECKPOINT_FILE, JSON_CHECKPOINT_FILE, JSONL_AUDIT_FILE, read_audit,
)

from oracles import encode_array, frozen_fingerprint, save_checkpoint_v2, save_checkpoint_v3
from pinned import DENSE_AUDIT_FILE, RUNS, V2_CHECKPOINT_FILE, run_entry
from test_checkpoint import DIM, EXPERT, LAYER, ROUTER, _drop, _duplicate, _set, trained_model

TOOL = Path(__file__).resolve().parent.parent / "tools" / "upgrade.py"
_spec = importlib.util.spec_from_file_location("upgrade", TOOL)
upgrade = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(upgrade)

OLD_WRITERS = {"v2": save_checkpoint_v2, "v3": save_checkpoint_v3}


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _refused(run_dir: Path, match: str | None = None) -> DataError:
    """The `DataError` with which the converter refuses `run_dir`, which it
    must leave as it was."""
    before = _files(run_dir)
    with pytest.raises(DataError, match=match) as info:
        upgrade.upgrade(run_dir)
    assert _files(run_dir) == before
    return info.value


def as_version_1(v2_text: str) -> str:
    """A version 2 checkpoint's text as version 1 wrote it, with a `frozen`
    flag on every expert and router."""
    doc = json.loads(v2_text)
    doc["version"] = 1
    for layer in doc["model"]["adapters"]:
        for entry in layer["experts"] + layer["routers"]:
            entry["frozen"] = True
    return json.dumps(doc) + "\n"


def old_run(tmp_path: Path) -> tuple[Path, dict[str, bytes]]:
    """The task-free run of `tier1:pinned[id_free]` as a run wrote it before
    the container, with `checkpoint.json` (version 3) and
    `ifer_audit.jsonl`; and the containers the run wrote, by name."""
    run_entry("tier1:pinned[id_free]", tmp_path)
    run = tmp_path / "run"
    containers = {}
    for old, new in ((JSON_CHECKPOINT_FILE, CHECKPOINT_FILE), (JSONL_AUDIT_FILE, AUDIT_FILE)):
        containers[new] = (run / new).read_bytes()
        (run / new).unlink()
        (run / old).write_bytes((tmp_path / "derived" / old).read_bytes())
    return run, containers


def convert(run_dir: Path, write, model, bank, meta=None):
    """`load_checkpoint` of the converted `checkpoint.json` that `write`, an
    old-format writer, makes of (model, bank, meta) in the new `run_dir`."""
    run_dir.mkdir()
    write(run_dir / JSON_CHECKPOINT_FILE, model, bank, meta)
    assert upgrade.upgrade(run_dir) == [(run_dir / JSON_CHECKPOINT_FILE,
                                         run_dir / CHECKPOINT_FILE)]
    assert sorted(p.name for p in run_dir.iterdir()) == [CHECKPOINT_FILE]
    return load_checkpoint(run_dir / CHECKPOINT_FILE)


@pytest.mark.parametrize("entry", sorted(RUNS))
def test_every_tier1_run_converts_to_its_own_containers(tmp_path, entry):
    run_entry(entry, tmp_path)
    run, derived = tmp_path / "run", tmp_path / "derived"
    audit = (derived / JSONL_AUDIT_FILE).exists()
    assert audit == (RUNS[entry]["evaluation"]["protocol"] == "id_free")
    want = {name: _sha256(run / name) for name in (CHECKPOINT_FILE, AUDIT_FILE)
            if (run / name).exists()}
    assert len(want) == 1 + audit
    v2 = (derived / V2_CHECKPOINT_FILE).read_text()
    for version, text in (("3", (derived / JSON_CHECKPOINT_FILE).read_text()), ("2", v2),
                          ("1", as_version_1(v2))):
        assert json.loads(text)["version"] == int(version)
        old = tmp_path / f"version_{version}"
        old.mkdir()
        (old / JSON_CHECKPOINT_FILE).write_text(text)
        if audit:
            (old / JSONL_AUDIT_FILE).write_bytes((derived / JSONL_AUDIT_FILE).read_bytes())
        upgrade.upgrade(old)
        assert {p.name: _sha256(p) for p in old.iterdir()} == want, f"version {version}"


@pytest.mark.parametrize("version", [1, 2, 3])
def test_load_checkpoint_refuses_versions_1_to_3_naming_the_converter(tmp_path, version):
    model, bank, _ = trained_model()
    path = OLD_WRITERS["v3" if version == 3 else "v2"](tmp_path / JSON_CHECKPOINT_FILE,
                                                       model, bank)
    if version == 1:
        path.write_text(as_version_1(path.read_text()))
    with pytest.raises(DataError, match=re.escape(
            f"{path}: checkpoint version {version}, from before the container; "
            f"convert it with: python3 tools/upgrade.py {tmp_path}")):
        load_checkpoint(path)


def test_read_audit_refuses_a_directory_with_only_ifer_audit_jsonl(tmp_path):
    run, _ = old_run(tmp_path)
    with pytest.raises(DataError, match=re.escape(
            f"{run / JSONL_AUDIT_FILE}: the audit from before the container; "
            f"convert it with: python3 tools/upgrade.py {run}")):
        read_audit(run)


def test_a_malformed_old_file_converts_nothing(tmp_path):
    # every old file is read before any is written: a sound one stays too
    run, _ = old_run(tmp_path)
    checkpoint, audit = run / JSON_CHECKPOINT_FILE, run / JSONL_AUDIT_FILE
    good = checkpoint.read_bytes()
    checkpoint.write_bytes(good[:-40])
    _refused(run, re.escape(f"cannot read {checkpoint}: no JSON header line"))
    checkpoint.write_bytes(good)
    audit.write_text(audit.read_text().replace('"f64": "', '"f64": "@', 1))
    _refused(run, re.escape(f"{audit}: cannot read the audit: array f64: not base64"))
    audit.write_text("{}\n")
    _refused(run, re.escape(f"{audit}: cannot read the audit: line 1 is not a "
                            "{true_task, distance} record"))
    audit.write_text("not json\n")
    _refused(run, re.escape(f"{audit}: cannot read the audit: Expecting value"))


@pytest.mark.parametrize("old, new", [(JSON_CHECKPOINT_FILE, CHECKPOINT_FILE),
                                      (JSONL_AUDIT_FILE, AUDIT_FILE)])
def test_an_existing_container_converts_nothing(tmp_path, old, new):
    run, containers = old_run(tmp_path)
    (run / new).write_bytes(containers[new])
    _refused(run, re.escape(f"{run / old}: {run / new} already exists"))


def test_a_directory_with_nothing_to_convert_is_refused(tmp_path):
    run, containers = old_run(tmp_path)
    assert upgrade.upgrade(run) == [(run / JSON_CHECKPOINT_FILE, run / CHECKPOINT_FILE),
                                    (run / JSONL_AUDIT_FILE, run / AUDIT_FILE)]
    assert {name: (run / name).read_bytes() for name in containers} == containers
    assert not (run / JSON_CHECKPOINT_FILE).exists() and not (run / JSONL_AUDIT_FILE).exists()
    _refused(run, re.escape(f"{run}: no {JSON_CHECKPOINT_FILE} or {JSONL_AUDIT_FILE} to convert"))
    (tmp_path / "empty").mkdir()
    _refused(tmp_path / "empty", "to convert")
    with pytest.raises(DataError, match="to convert"):
        upgrade.upgrade(tmp_path / "missing")
    assert not (tmp_path / "missing").exists()


def test_the_command_converts_or_refuses_with_its_exit_status(tmp_path):
    run, containers = old_run(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the tool finds src/

    def command() -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, str(TOOL), str(run)], capture_output=True,
                              text=True, env=env, timeout=120)

    done = command()
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout == (f"upgrade: {run / JSON_CHECKPOINT_FILE} -> {run / CHECKPOINT_FILE}\n"
                           f"upgrade: {run / JSONL_AUDIT_FILE} -> {run / AUDIT_FILE}\n")
    assert {name: (run / name).read_bytes() for name in containers} == containers
    done = command()
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == (f"upgrade: {run}: no {JSON_CHECKPOINT_FILE} or {JSONL_AUDIT_FILE} "
                           f"to convert\n")


def test_array_encoding_is_the_exact_bytes():
    a = np.array([[0.1 + 0.2, -0.0, 5e-324], [np.nextafter(1.0, 2.0), -1e308, 3.0]])
    enc = encode_array(a)
    assert enc == {"shape": [2, 3],
                   "f64": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")}
    back = upgrade.decode_array(json.loads(json.dumps(enc)))
    assert back.tobytes() == a.tobytes() and back.shape == a.shape
    # owned, writable, native: a later learning step updates it in place
    assert back.dtype == np.float64 and back.flags.owndata and back.flags.writeable
    assert upgrade.decode_array(encode_array(np.zeros((0, DIM)))).shape == (0, DIM)


def test_version_2_routers_take_the_layer_top_k(tmp_path):
    model, bank, _ = trained_model()
    loaded, _, _ = convert(tmp_path / "run", save_checkpoint_v2, model, bank)
    for layer in loaded.adapter_layers():
        assert all(r.top_k == layer.top_k == 2 for r in layer.routers.values())
    assert (tmp_path / "run" / CHECKPOINT_FILE).read_bytes() \
        == save_checkpoint(tmp_path / "orig.bin", model, bank).read_bytes()


def test_version_3_files_convert_to_the_same_model(tmp_path):
    model, bank, _ = trained_model()
    for layer in model.adapter_layers():
        layer.router_for(1).top_k = 3
    loaded, _, meta = convert(tmp_path / "run", save_checkpoint_v3, model, bank, {"note": "x"})
    assert frozen_fingerprint(loaded) == frozen_fingerprint(model) and meta == {"note": "x"}
    assert (tmp_path / "run" / CHECKPOINT_FILE).read_bytes() == save_checkpoint(
        tmp_path / "orig.bin", model, bank, meta={"note": "x"}).read_bytes()


def test_version_1_documents_with_frozen_flags_convert(tmp_path):
    # version 1 wrote a `frozen` flag on every expert and router; nothing
    # read it, so the converter drops it
    model, bank, _ = trained_model()
    v2 = save_checkpoint_v2(tmp_path / "v2.json", model, bank)
    v1 = as_version_1(v2.read_text())
    assert json.loads(v1)["version"] == 1 and v1.count('"frozen": true') > 0

    def write_v1(path, *_):
        path.write_text(v1)

    loaded, loaded_bank, _ = convert(tmp_path / "run", write_v1, model, bank)
    assert frozen_fingerprint(loaded) == frozen_fingerprint(model)
    assert save_checkpoint_v2(tmp_path / "resaved.json", loaded, loaded_bank).read_bytes() \
        == v2.read_bytes()


BAD_V2_DOCUMENTS = {
    "not an object": lambda doc: [doc],
    "version as bool": _set(["version"], True),
    "missing model": _drop(["model"]),
    "missing backbone": _drop(["model", "backbone"]),
    "missing expert key": _drop(EXPERT + ["up"]),
    "missing bank threshold": _drop(["bank", "threshold"]),
    "phase not a mapping": _set(["model", "phase"], [1, 2]),
    "adapters not a list": _set(["model", "adapters"], 3),
    "ragged down": _set(EXPERT + ["down", 0], [1.0]),
    "non-numeric up": _set(EXPERT + ["up", 0, 0], "x"),
    "nested number": _set(EXPERT + ["up", 0, 0], [[1.0]]),
    "huge integer": _set(EXPERT + ["up", 0, 0], 10 ** 400),
    "rank as string": _set(LAYER + ["rank"], "2"),
    "zero top_k": _set(LAYER + ["top_k"], 0),
    "float layer index": _set(LAYER + ["layer_index"], 1.0),
    "layer outside backbone": _set(LAYER + ["layer_index"], 7),
    "duplicate layer index": _set(["model", "adapters", 1, "layer_index"], 1),
    "down of wrong shape": _set(EXPERT + ["down"], [[0.0] * DIM] * 3),
    "up transposed": _set(EXPERT + ["up"], [[0.0] * 2] * (DIM + 1)),
    "router beyond experts": _set(ROUTER + ["weight"], [[0.0] * DIM] * 20),
    "router of wrong width": _set(ROUTER + ["weight"], [[0.0] * (DIM - 1)]),
    "backbone weight shape": _set(["model", "backbone", "weights", 1], [[0.0] * DIM] * 2),
    "backbone bias missing": _drop(["model", "backbone", "biases", 2]),
    "non-finite backbone": _set(["model", "backbone", "biases", 0, 0], float("nan")),
    "non-finite expert": _set(EXPERT + ["down", 0, 0], float("inf")),
    "zero temperature": _set(["model", "temperature"], 0.0),
    "unknown phase": _set(["model", "phase", "0"], "halfway"),
    "duplicate expert id": _set(LAYER + ["experts", 1, "expert_id"], 0),
    "bank entry width": _set(["bank", "entries", 0, "embedding"], [0.0] * DIM),
    "bank metric": _set(["bank", "metric"], "cosine"),
    "two routers for one task": _duplicate(LAYER + ["routers"], 1, 0),
    "two bank entries for one task": _duplicate(["bank", "entries"], 1, 0),
}


@pytest.mark.parametrize("name", sorted(BAD_V2_DOCUMENTS))
def test_upgrade_refuses_malformed_version_2_documents(tmp_path, name):
    # nested-list arrays, whose faults the converter finds
    model, bank, _ = trained_model()
    path = save_checkpoint_v2(tmp_path / JSON_CHECKPOINT_FILE, model, bank)
    path.write_text(json.dumps(BAD_V2_DOCUMENTS[name](json.loads(path.read_text()))))
    assert str(path) in str(_refused(tmp_path))


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


DOWN = EXPERT + ["down"]
BAD_V3_DOCUMENTS = {
    "f64 not base64": (_set(DOWN + ["f64"], "@@@@"), "not base64"),
    "f64 not ascii": (_set(DOWN + ["f64"], "\u00e9\u00e9\u00e9\u00e9"), "not base64"),
    "f64 bad padding": (_set(DOWN + ["f64"], "AAA"), "not base64"),
    "f64 not a string": (_set(DOWN + ["f64"], 0), "f64: not a string"),
    "f64 one float short": (_set(DOWN + ["f64"], _b64(bytes(8 * (2 * DIM - 1)))),
                            "bytes for shape"),
    "f64 not whole floats": (_set(DOWN + ["f64"], _b64(bytes(8 * 2 * DIM + 3))),
                             "bytes for shape"),
    "f64 missing": (_drop(DOWN + ["f64"]), "array: not a"),
    "shape missing": (_drop(DOWN + ["shape"]), "array: not a"),
    "extra key": (_set(DOWN + ["dtype"], "f8"), "array: not a"),
    "nested list in version 3": (_set(DOWN, [[0.0] * DIM] * 2), "array: not a"),
    "negative shape": (_set(DOWN + ["shape"], [-2, -DIM]), "array shape"),
    "bool in shape": (_set(["model", "backbone", "biases", 0, "shape"], [True, DIM]),
                      "array shape"),
    "float in shape": (_set(DOWN + ["shape"], [2.0, DIM]), "array shape"),
    "shape not a list": (_set(DOWN + ["shape"], 2 * DIM), "array shape"),
    "NaN bits": (_set(DOWN + ["f64"], _b64(np.full(2 * DIM, np.nan).tobytes())),
                 "non-finite"),
    "Inf bits in the bank": (_set(["bank", "entries", 0, "embedding", "f64"],
                                  _b64(np.full(2 * DIM, -np.inf).tobytes())), "non-finite"),
    "router beyond experts": (_set(ROUTER + ["weight"], encode_array(np.zeros((20, DIM)))),
                              "router 0: shape"),
    "router top_k missing": (_drop(ROUTER + ["top_k"]), "malformed"),
    "router top_k zero": (_set(ROUTER + ["top_k"], 0), "bad top_k"),
    "router top_k bool": (_set(ROUTER + ["top_k"], True), "bad top_k"),
    # the last entry used to win: task 1's router or signature loaded as task 0's
    "two routers for one task": (_duplicate(LAYER + ["routers"], 1, 0),
                                 "adapter layer 1: two routers for task 0"),
    "two bank entries for one task": (_duplicate(["bank", "entries"], 1, 0),
                                      "bank: two entries for task 0"),
}


def _write_bad_version_3(path: Path, name: str) -> str:
    """A version 3 checkpoint at `path` with fault `name` of
    `BAD_V3_DOCUMENTS`; returns the message it must raise."""
    mutate, message = BAD_V3_DOCUMENTS[name]
    model, bank, _ = trained_model()
    save_checkpoint_v3(path, model, bank)
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    return message


@pytest.mark.parametrize("name", sorted(BAD_V3_DOCUMENTS))
def test_upgrade_refuses_malformed_version_3_documents(tmp_path, name):
    message = _write_bad_version_3(tmp_path / JSON_CHECKPOINT_FILE, name)
    _refused(tmp_path, message)


@pytest.mark.parametrize("name", ["two routers for one task", "two bank entries for one task",
                                  "f64 not base64", "router top_k zero", "NaN bits"])
def test_upgrade_names_the_path_of_its_own_refusal_once(tmp_path, name):
    path = tmp_path / JSON_CHECKPOINT_FILE
    message = _write_bad_version_3(path, name)
    text = str(_refused(tmp_path))
    assert text.startswith(f"{path}: ") and text.count(str(path)) == 1
    assert message in text and "malformed" not in text and "DataError" not in text


@pytest.mark.parametrize("writer", sorted(OLD_WRITERS))
def test_router_without_visible_experts_converts(tmp_path, writer):
    # a task whose candidates were all pruned keeps a router with no rows;
    # version 2 wrote its weight as []
    save = OLD_WRITERS[writer]
    model, bank, _ = trained_model()
    for layer in model.adapter_layers():
        layer.router_for(0).weight = np.zeros((0, DIM))
    loaded, loaded_bank, _ = convert(tmp_path / "run", save, model, bank)
    for layer in loaded.adapter_layers():
        assert layer.router_for(0).weight.shape == (0, DIM)
    x = np.random.default_rng(3).standard_normal((4, DIM))
    np.testing.assert_array_equal(loaded.embed(x, 0), model.embed(x, 0))
    assert save(tmp_path / "again.json", loaded, loaded_bank).read_bytes() \
        == save(tmp_path / "old.json", model, bank).read_bytes()


@pytest.mark.parametrize("writer", sorted(OLD_WRITERS))
def test_truncated_or_bit_flipped_checkpoints_convert_or_raise_data_error(tmp_path, writer):
    model, bank, _ = trained_model()
    good = OLD_WRITERS[writer](tmp_path / "good.json", model, bank).read_bytes()
    run = tmp_path / "run"
    run.mkdir()
    outcomes = {"converted": 0, "rejected": 0}

    def attempt(data: bytes):
        (run / JSON_CHECKPOINT_FILE).write_bytes(data)
        try:
            upgrade.upgrade(run)
        except DataError:
            outcomes["rejected"] += 1
            assert _files(run) == {JSON_CHECKPOINT_FILE: data}
        else:
            outcomes["converted"] += 1
            assert sorted(p.name for p in run.iterdir()) == [CHECKPOINT_FILE]
            load_checkpoint(run / CHECKPOINT_FILE)
            (run / CHECKPOINT_FILE).unlink()

    for end in range(0, len(good), 97):
        attempt(good[:end])
    for offset in range(0, len(good), 11):
        flipped = bytearray(good)
        flipped[offset] ^= 1 << (offset % 8)
        attempt(bytes(flipped))
    assert outcomes["converted"] > 0 and outcomes["rejected"] > 0


def test_read_audit_reads_a_converted_ifer_audit_jsonl(tmp_path):
    run, containers = old_run(tmp_path)
    # its arrays are base64 text, whose faults the converter names as before
    text = (run / JSONL_AUDIT_FILE).read_text()
    lines = [json.loads(line) for line in text.splitlines()]
    for key, value, match in (("f64", "not base64!", "not base64"),
                              ("shape", [6, 3], "bytes for shape")):
        bad = [{**lines[0], "distance": {**lines[0]["distance"], key: value}}] + lines[1:]
        (run / JSONL_AUDIT_FILE).write_text("".join(json.dumps(rec) + "\n" for rec in bad))
        _refused(run, match)
    (run / JSONL_AUDIT_FILE).write_text(text)
    upgrade.upgrade(run)
    assert (run / AUDIT_FILE).read_bytes() == containers[AUDIT_FILE]
    dense = (tmp_path / "derived" / DENSE_AUDIT_FILE).read_text().splitlines()
    assert [json.dumps(rec, sort_keys=True) for rec in read_audit(run)] == dense


def test_a_bad_jsonl_audit_array_is_named_as_the_audit(tmp_path):
    run, _ = old_run(tmp_path)
    lines = [json.loads(line) for line in (run / JSONL_AUDIT_FILE).read_text().splitlines()]
    lines[0]["distance"]["f64"] = "AAA"
    (run / JSONL_AUDIT_FILE).write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    text = str(_refused(run, "cannot read the audit"))
    assert text.startswith(f"{run / JSONL_AUDIT_FILE}: ")
    reason = text.removeprefix(f"{run / JSONL_AUDIT_FILE}: ")
    assert "not base64" in reason and "checkpoint" not in reason
