"""Checkpoint round trips must preserve every float bit for bit."""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from submoe.checkpoint import decode_array, encode_array, load_checkpoint, save_checkpoint
from submoe.errors import DataError
from submoe.lifecycle import (
    PhaseSchedule, begin_task, finetune_experts, fit_routing, learn_task, prune_candidates,
)
from submoe.model import build_model
from submoe.optim import OptimConfig
from submoe.streams import TaskSpec, generate_stream
from submoe.task_bank import TaskBank

from oracles import frozen_fingerprint, save_checkpoint_v2

DIM = 8
SCHEDULE = PhaseSchedule(identify_steps=15, finetune_steps=10, num_candidates=2,
                         batch_size=16, snapshot_interval=5)
OPTIM = OptimConfig(learning_rate=0.5, penalty=0.01)
# the current writer and the version 2 one the loader must keep reading
WRITERS = {"v3": save_checkpoint, "v2": save_checkpoint_v2}


def trained_model(learned=(0, 1)):
    stream = generate_stream(
        [TaskSpec(task_id=i, classes=3, samples_per_class=16, eval_per_class=8, seed=i)
         for i in range(2)], DIM)
    model = build_model(dim=DIM, depth=3, adapter_layers=[1, 2], rank=2,
                       top_k=2, temperature=0.5, seed=0)
    bank = TaskBank(threshold=25.0)
    for t in learned:
        learn_task(model, t, stream[t], SCHEDULE, OPTIM, np.random.default_rng(t))
        bank.enroll(t, model.embed(stream[t].train_x, None), stream[t].text_emb)
    return model, bank, stream


def test_round_trip_preserves_all_state_bitwise(tmp_path):
    model, bank, stream = trained_model()
    path = save_checkpoint(tmp_path / "ck.json", model, bank, meta={"note": "x"})
    loaded, loaded_bank, meta = load_checkpoint(path)

    assert frozen_fingerprint(loaded) == frozen_fingerprint(model)
    assert loaded.learned_tasks == model.learned_tasks
    assert loaded.phase == model.phase
    assert loaded.current_task is None
    assert loaded.temperature == model.temperature
    assert meta == {"note": "x"}
    for t in bank.entries:
        assert loaded_bank.entries[t].tobytes() == bank.entries[t].tobytes()

    # behaviour, not just bytes: embeddings agree exactly
    x = np.random.default_rng(9).standard_normal((5, DIM))
    for t in (None, 0, 1):
        np.testing.assert_array_equal(loaded.embed(x, t), model.embed(x, t))


def test_double_round_trip_is_stable(tmp_path):
    model, bank, _ = trained_model()
    p1 = save_checkpoint(tmp_path / "a.json", model, bank)
    m2, b2, _ = load_checkpoint(p1)
    p2 = save_checkpoint(tmp_path / "b.json", m2, b2)
    assert p1.read_text() == p2.read_text()


def test_checkpoint_without_bank(tmp_path):
    model, _, _ = trained_model()
    path = save_checkpoint(tmp_path / "nb.json", model, bank=None)
    _, bank, _ = load_checkpoint(path)
    assert bank is None


def test_awkward_floats_survive(tmp_path):
    model, bank, _ = trained_model()
    model.adapter_layers()[0].experts[0].up[0, 0] = 0.1 + 0.2  # not 0.3
    model.adapter_layers()[0].experts[0].down[0, 0] = 1e-308   # subnormal range
    path = save_checkpoint(tmp_path / "f.json", model, bank)
    loaded, _, _ = load_checkpoint(path)
    assert loaded.adapter_layers()[0].experts[0].up[0, 0] == 0.1 + 0.2
    assert loaded.adapter_layers()[0].experts[0].down[0, 0] == 1e-308


def test_array_encoding_is_the_exact_bytes():
    a = np.array([[0.1 + 0.2, -0.0, 5e-324], [np.nextafter(1.0, 2.0), -1e308, 3.0]])
    enc = encode_array(a)
    assert enc == {"shape": [2, 3],
                   "f64": base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")}
    back = decode_array(json.loads(json.dumps(enc)))
    assert back.tobytes() == a.tobytes() and back.shape == a.shape
    # owned, writable, native: a later learning step updates it in place
    assert back.dtype == np.float64 and back.flags.owndata and back.flags.writeable
    assert decode_array(encode_array(np.zeros((0, DIM)))).shape == (0, DIM)


def test_loaded_model_takes_learning_steps(tmp_path):
    # a checkpoint made mid-task resumes: fitting writes into loaded arrays
    model, bank, stream = trained_model(learned=(0,))
    begin_task(model, 1, SCHEDULE, np.random.default_rng(1))
    loaded, _, _ = load_checkpoint(save_checkpoint(tmp_path / "ck.json", model, bank))
    for layer in loaded.adapter_layers():
        # before any pass, every expert's arrays are writable views of its slot
        for i, e in enumerate(layer.experts):
            assert e.down.base is layer.down_all and e.up.base is layer.up_all
            assert np.shares_memory(e.down, layer.down_all[i])
            assert np.shares_memory(e.up, layer.up_all[i])
            assert e.down.flags.writeable and e.up.flags.writeable
        assert all(r.weight.flags.writeable and r.weight.flags.owndata
                   for r in layer.routers.values())
    for m in (model, loaded):
        rng = np.random.default_rng(7)
        trace = fit_routing(m, 1, stream[1], SCHEDULE, OPTIM, rng)
        prune_candidates(m, 1, trace, SCHEDULE.prune_threshold)
        finetune_experts(m, 1, stream[1], SCHEDULE, OPTIM, rng)
    assert frozen_fingerprint(loaded) == frozen_fingerprint(model)


def test_each_router_keeps_its_top_k(tmp_path):
    model, bank, _ = trained_model()
    for layer in model.adapter_layers():
        layer.router_for(0).top_k = 1
        layer.router_for(1).top_k = 3
    loaded, _, _ = load_checkpoint(save_checkpoint(tmp_path / "ck.json", model, bank))
    for layer in loaded.adapter_layers():
        assert {t: r.top_k for t, r in layer.routers.items()} == {0: 1, 1: 3}
    x = np.random.default_rng(9).standard_normal((5, DIM))
    for t in (0, 1):
        assert loaded.embed(x, t).tobytes() == model.embed(x, t).tobytes()


def test_version_2_routers_take_the_layer_top_k(tmp_path):
    model, bank, _ = trained_model()
    loaded, _, _ = load_checkpoint(save_checkpoint_v2(tmp_path / "v2.json", model, bank))
    for layer in loaded.adapter_layers():
        assert all(r.top_k == layer.top_k == 2 for r in layer.routers.values())
    assert save_checkpoint(tmp_path / "v3.json", loaded, bank).read_bytes() \
        == save_checkpoint(tmp_path / "orig.json", model, bank).read_bytes()


def test_load_rejects_bad_files(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(DataError, match="cannot read"):
        load_checkpoint(missing)

    not_json = tmp_path / "garbage.json"
    not_json.write_text("{not json")
    with pytest.raises(DataError, match="cannot read"):
        load_checkpoint(not_json)

    wrong_format = tmp_path / "other.json"
    wrong_format.write_text(json.dumps({"format": "something"}))
    with pytest.raises(DataError, match="not a checkpoint"):
        load_checkpoint(wrong_format)

    model, bank, _ = trained_model()
    path = save_checkpoint(tmp_path / "v.json", model, bank)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="version"):
        load_checkpoint(path)


def _set(path_keys, value):
    def mutate(doc):
        node = doc
        for k in path_keys[:-1]:
            node = node[k]
        node[path_keys[-1]] = value
        return doc
    return mutate


def _drop(path_keys):
    def mutate(doc):
        node = doc
        for k in path_keys[:-1]:
            node = node[k]
        del node[path_keys[-1]]
        return doc
    return mutate


LAYER = ["model", "adapters", 0]
EXPERT = LAYER + ["experts", 0]
ROUTER = LAYER + ["routers", 0]
BAD_DOCUMENTS = {
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
}


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_load_rejects_malformed_documents_with_data_error(tmp_path, name):
    # nested-list arrays: the version 2 documents the loader still reads
    model, bank, _ = trained_model()
    path = save_checkpoint_v2(tmp_path / "ck.json", model, bank)
    doc = BAD_DOCUMENTS[name](json.loads(path.read_text()))
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        load_checkpoint(path)


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
}


@pytest.mark.parametrize("name", sorted(BAD_V3_DOCUMENTS))
def test_load_rejects_malformed_version_3_arrays(tmp_path, name):
    mutate, message = BAD_V3_DOCUMENTS[name]
    model, bank, _ = trained_model()
    path = save_checkpoint(tmp_path / "ck.json", model, bank)
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_router_without_visible_experts_round_trips(tmp_path, writer):
    # a task whose candidates were all pruned keeps a router with no rows
    save = WRITERS[writer]
    model, bank, _ = trained_model()
    for layer in model.adapter_layers():
        layer.router_for(0).weight = np.zeros((0, DIM))
    path = save(tmp_path / "ck.json", model, bank)
    loaded, loaded_bank, _ = load_checkpoint(path)
    for layer in loaded.adapter_layers():
        assert layer.router_for(0).weight.shape == (0, DIM)
    x = np.random.default_rng(3).standard_normal((4, DIM))
    np.testing.assert_array_equal(loaded.embed(x, 0), model.embed(x, 0))
    again = save(tmp_path / "again.json", loaded, loaded_bank)
    assert again.read_bytes() == path.read_bytes()


def test_version_1_documents_with_frozen_flags_still_load(tmp_path):
    # version 1 wrote a `frozen` flag on every expert and router; nothing
    # reads it, so the loader ignores it
    model, bank, _ = trained_model()
    path = save_checkpoint_v2(tmp_path / "v2.json", model, bank)
    doc = json.loads(path.read_text())
    assert doc["version"] == 2
    doc["version"] = 1
    for layer in doc["model"]["adapters"]:
        for entry in layer["experts"] + layer["routers"]:
            entry["frozen"] = True
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps(doc))
    loaded, loaded_bank, _ = load_checkpoint(v1)
    assert frozen_fingerprint(loaded) == frozen_fingerprint(model)
    assert save_checkpoint_v2(tmp_path / "resaved.json", loaded, loaded_bank).read_bytes() \
        == path.read_bytes()


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_truncated_or_bit_flipped_checkpoints_load_or_raise_data_error(tmp_path, writer):
    model, bank, _ = trained_model()
    good = WRITERS[writer](tmp_path / "good.json", model, bank).read_bytes()
    path = tmp_path / "fuzz.json"
    outcomes = {"loaded": 0, "rejected": 0}

    def attempt(data: bytes):
        path.write_bytes(data)
        try:
            load_checkpoint(path)
        except DataError:
            outcomes["rejected"] += 1
        else:
            outcomes["loaded"] += 1

    for end in range(0, len(good), 97):
        attempt(good[:end])
    for offset in range(0, len(good), 11):
        flipped = bytearray(good)
        flipped[offset] ^= 1 << (offset % 8)
        attempt(bytes(flipped))
    assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0
