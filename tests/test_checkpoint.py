"""Checkpoint round trips must preserve every float bit for bit.  The
formats before the container are the converter's, `tests/test_upgrade.py`."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from submoe.checkpoint import (
    Deferred, load_checkpoint, read_container, save_checkpoint, write_container,
)
from submoe.errors import DataError
from submoe.lifecycle import (
    PhaseSchedule, begin_task, finetune_experts, fit_routing, learn_task, prune_candidates,
)
from submoe.model import build_model
from submoe.optim import OptimConfig
from submoe.streams import TaskSpec, generate_stream
from submoe.task_bank import TaskBank

from oracles import encode_array, frozen_fingerprint, save_checkpoint_v3

DIM = 8
SCHEDULE = PhaseSchedule(identify_steps=15, finetune_steps=10, num_candidates=2,
                         batch_size=16, snapshot_interval=5)
OPTIM = OptimConfig(learning_rate=0.5, penalty=0.01)


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
    p1 = save_checkpoint(tmp_path / "a.bin", model, bank)
    m2, b2, _ = load_checkpoint(p1)
    p2 = save_checkpoint(tmp_path / "b.bin", m2, b2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_without_bank(tmp_path):
    model, _, _ = trained_model()
    path = save_checkpoint(tmp_path / "nb.json", model, bank=None)
    _, bank, _ = load_checkpoint(path)
    assert bank is None


def test_awkward_floats_survive(tmp_path):
    model, bank, _ = trained_model()
    model.adapter_layers()[0].experts[0].up[0, 0] = 0.1 + 0.2  # not 0.3
    model.adapter_layers()[0].experts[0].down[0, 0] = 1e-308   # subnormal range
    model.adapter_layers()[0].experts[0].down[0, 1] = -0.0
    path = save_checkpoint(tmp_path / "f.bin", model, bank)
    loaded, _, _ = load_checkpoint(path)
    assert loaded.adapter_layers()[0].experts[0].up[0, 0] == 0.1 + 0.2
    assert loaded.adapter_layers()[0].experts[0].down[0, 0] == 1e-308
    assert np.signbit(loaded.adapter_layers()[0].experts[0].down[0, 1])


def test_container_body_is_the_exact_bytes(tmp_path):
    a = np.array([[0.1 + 0.2, -0.0, 5e-324], [np.nextafter(1.0, 2.0), -1e308, 3.0]])
    b = np.arange(4.0)[::2]  # not contiguous
    made = []
    c = Deferred((1, 2), lambda: made.append(None) or np.array([[-0.0, 2.5]]))
    doc = {"note": "x", "arrays": [a, np.zeros((0, DIM)), {"b": b, "c": c}], "n": 3}
    path = write_container(tmp_path / "c.bin", doc)
    assert len(made) == 1 and doc["arrays"][2]["c"] is c  # the document is left as it was
    raw = path.read_bytes()
    header, body = raw.split(b"\n", 1)
    assert json.loads(header) == {
        "note": "x", "n": 3, "arrays": [{"shape": [2, 3], "offset": 0},
                                        {"shape": [0, DIM], "offset": 48},
                                        {"b": {"shape": [2], "offset": 48},
                                         "c": {"shape": [1, 2], "offset": 64}}]}
    assert body == a.astype("<f8").tobytes() + b.astype("<f8").tobytes() \
        + np.array([-0.0, 2.5]).tobytes()
    back = read_container(path)
    assert back["note"] == "x" and back["n"] == 3
    got = back["arrays"][0]
    assert got.tobytes() == a.tobytes() and got.shape == a.shape
    assert back["arrays"][1].shape == (0, DIM)
    assert back["arrays"][2]["b"].tobytes() == b.tobytes()
    assert back["arrays"][2]["c"].tobytes() == np.array([[-0.0, 2.5]]).tobytes()
    # owned, writable, native: a later learning step updates it in place
    assert got.dtype == np.float64 and got.flags.owndata and got.flags.writeable
    # a deferred array must have the shape its header entry declared
    with pytest.raises(ValueError, match=r"shape \(2,\), declared \[3\]"):
        write_container(tmp_path / "d.bin", {"d": Deferred((3,), lambda: np.zeros(2))})


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
    path = save_checkpoint_v3(tmp_path / "v.json", model, bank)
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


def _duplicate(list_keys, index, task):
    """Append to the list at `list_keys` a copy of its item `index` that
    claims `task`."""
    def mutate(doc):
        node = doc
        for k in list_keys:
            node = node[k]
        node.append({**node[index], "task": task})
        return doc
    return mutate


LAYER = ["model", "adapters", 0]
EXPERT = LAYER + ["experts", 0]
ROUTER = LAYER + ["routers", 0]
# faults of structure, each with the message it raises, made in the document
# `read_container` returns and written back by `write_container`; the faults
# of an array's encoding are the converter's (`tests/test_upgrade.py`)
BAD_DOCUMENTS = {
    "not an object": (lambda doc: [doc], "the header is not a JSON object"),
    "version as bool": (_set(["version"], True), "unsupported checkpoint version True"),
    "missing model": (_drop(["model"]), "malformed checkpoint: KeyError('model')"),
    "missing backbone": (_drop(["model", "backbone"]), "KeyError('backbone')"),
    "missing expert key": (_drop(EXPERT + ["up"]), "KeyError('up')"),
    "missing bank threshold": (_drop(["bank", "threshold"]), "KeyError('threshold')"),
    "phase not a mapping": (_set(["model", "phase"], [1, 2]), "AttributeError"),
    "adapters not a list": (_set(["model", "adapters"], 3), "TypeError"),
    "rank as string": (_set(LAYER + ["rank"], "2"), "expected (('2', 8), (8, '2'))"),
    "zero top_k": (_set(LAYER + ["top_k"], 0), "adapter layer 1: bad header"),
    "float layer index": (_set(LAYER + ["layer_index"], 1.0),
                          "adapter layer 1.0: outside the backbone"),
    "layer outside backbone": (_set(LAYER + ["layer_index"], 7),
                               "adapter layer 7: outside the backbone"),
    "duplicate layer index": (_set(["model", "adapters", 1, "layer_index"], 1),
                              "duplicate layer index"),
    "down of wrong shape": (_set(EXPERT + ["down"], np.zeros((3, DIM))), "down (3, 8)"),
    "up transposed": (_set(EXPERT + ["up"], np.zeros((DIM + 1, 2))), "up (9, 2)"),
    "router beyond experts": (_set(ROUTER + ["weight"], np.zeros((20, DIM))),
                              "router 0: shape (20, 8), 4 experts"),
    "router of wrong width": (_set(ROUTER + ["weight"], np.zeros((1, DIM - 1))),
                              "router 0: shape (1, 7), expected (1, 8)"),
    "backbone weight shape": (_set(["model", "backbone", "weights", 1], np.zeros((2, DIM))),
                              "backbone weight 1: shape (2, 8)"),
    "backbone bias missing": (_drop(["model", "backbone", "biases", 2]), "layer counts differ"),
    "non-finite backbone": (_set(["model", "backbone", "biases", 0, 0], float("nan")),
                            "backbone bias 0: non-finite values"),
    "non-finite expert": (_set(EXPERT + ["down", 0, 0], float("inf")),
                          "expert 0 down: non-finite values"),
    "non-finite router": (_set(ROUTER + ["weight", 0, 0], float("nan")),
                          "router 0: non-finite values"),
    "non-finite bank entry": (_set(["bank", "entries", 0, "embedding"],
                                   np.full(2 * DIM, -np.inf)), "bank entry 0: non-finite values"),
    "zero temperature": (_set(["model", "temperature"], 0.0), "temperature: not a positive"),
    "unknown phase": (_set(["model", "phase", "0"], "halfway"), "phase: unknown value"),
    "duplicate expert id": (_set(LAYER + ["experts", 1, "expert_id"], 0), "bad expert ids"),
    "bank entry width": (_set(["bank", "entries", 0, "embedding"], np.zeros(DIM)),
                         "bank entry 0: shape (8,), expected (16,)"),
    "bank metric": (_set(["bank", "metric"], "cosine"), "unknown metric 'cosine'"),
    "router top_k missing": (_drop(ROUTER + ["top_k"]), "malformed checkpoint: KeyError('top_k')"),
    "router top_k zero": (_set(ROUTER + ["top_k"], 0), "router 0: bad top_k"),
    "router top_k bool": (_set(ROUTER + ["top_k"], True), "router 0: bad top_k"),
    # the last entry used to win: task 1's router or signature loaded as task 0's
    "two routers for one task": (_duplicate(LAYER + ["routers"], 1, 0),
                                 "adapter layer 1: two routers for task 0"),
    "two bank entries for one task": (_duplicate(["bank", "entries"], 1, 0),
                                      "bank: two entries for task 0"),
}


def _write_bad_document(path, name: str) -> str:
    """Rewrite the checkpoint at `path` with fault `name` of `BAD_DOCUMENTS`;
    returns the message it must raise."""
    mutate, message = BAD_DOCUMENTS[name]
    write_container(path, mutate(read_container(path)))
    return message


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_load_rejects_malformed_documents(tmp_path, name):
    model, bank, _ = trained_model()
    path = save_checkpoint(tmp_path / "ck.bin", model, bank)
    message = _write_bad_document(path, name)
    with pytest.raises(DataError, match=re.escape(message)):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["two routers for one task", "two bank entries for one task",
                                  "router top_k zero", "non-finite expert"])
def test_load_names_the_path_of_its_own_refusal_once(tmp_path, name):
    # a converter's refusal used to come back as `malformed checkpoint:
    # DataError('...')`, and a check's without the path
    model, bank, _ = trained_model()
    path = save_checkpoint(tmp_path / "ck.bin", model, bank)
    message = _write_bad_document(path, name)
    with pytest.raises(DataError) as info:
        load_checkpoint(path)
    text = str(info.value)
    assert text.startswith(f"{path}: ") and text.count(str(path)) == 1
    assert message in text and "malformed" not in text and "DataError" not in text


def _split(raw: bytes) -> tuple:
    header, body = raw.split(b"\n", 1)
    return json.loads(header), body


def _header(mutate):
    """A change to a container's header: `mutate` takes and returns it."""
    def apply(raw: bytes) -> bytes:
        header, body = _split(raw)
        return json.dumps(mutate(header)).encode() + b"\n" + body
    return apply


def _base64_last_array(raw: bytes) -> bytes:
    """The bank's last signature moved from the body into the header as
    version 3 base64 text."""
    header, body = _split(raw)
    last = header["bank"]["entries"][-1]
    last["embedding"] = encode_array(np.zeros(last["embedding"]["shape"]))
    return json.dumps(header).encode() + b"\n" + body[:-8 * 2 * DIM]


def _nan_first_float(raw: bytes) -> bytes:
    start = raw.index(b"\n") + 1
    return raw[:start] + np.array([np.nan]).tobytes() + raw[start + 8:]


FIRST = ["model", "backbone", "weights", 0]
LAST = ["bank", "entries", -1, "embedding"]
BAD_CONTAINERS = {
    "no header line": (lambda raw: _split(raw)[1], "cannot read .*no JSON header line"),
    "header not an object": (_header(lambda header: [header]), "not a JSON object"),
    "wrong format": (_header(_set(["format"], "submoe-audit")), "not a checkpoint"),
    "wrong version": (_header(_set(["version"], 5)), "unsupported checkpoint version 5"),
    "version 3 with a body": (_header(_set(["version"], 3)),
                              "checkpoint version 3, from before the container; "
                              "convert it with: python3 tools/upgrade.py"),
    "offset after a gap": (_header(_set(FIRST + ["offset"], 8)),
                           "offset 8, where the previous array ends at 0"),
    "offset as a float": (_header(_set(FIRST + ["offset"], 0.0)), "offset 0.0"),
    "shape overruns the body": (_header(_set(LAST + ["shape"], [4 * DIM])), "overruns"),
    "body one float short": (lambda raw: raw[:-8], "overruns"),
    "trailing bytes": (lambda raw: raw + bytes(8), "8 trailing bytes"),
    "negative shape": (_header(_set(FIRST + ["shape"], [-DIM, -DIM])), "array shape"),
    "base64 array in version 4": (_base64_last_array, r"not a \{shape, offset\}"),
    "shape numpy cannot make": (_header(_set(LAST + ["shape"], [0, 10 ** 30])),
                                "array shape \\[0, 10+\\]"),
    "NaN bits": (_nan_first_float, "non-finite"),
    # `meta` came back as it was, whatever its type
    "meta a list": (_header(_set(["meta"], [1, 2])), r"meta is not a JSON object: \[1, 2\]"),
    "meta a number": (_header(_set(["meta"], 5)), "meta is not a JSON object: 5"),
    "meta a string": (_header(_set(["meta"], "x")), "meta is not a JSON object: 'x'"),
    "meta null": (_header(_set(["meta"], None)), "meta is not a JSON object: None"),
}


@pytest.mark.parametrize("name", sorted(BAD_CONTAINERS))
def test_load_rejects_malformed_containers(tmp_path, name):
    mutate, message = BAD_CONTAINERS[name]
    model, bank, _ = trained_model()
    path = save_checkpoint(tmp_path / "ck.bin", model, bank)
    path.write_bytes(mutate(path.read_bytes()))
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)


def test_load_reads_an_absent_meta_as_an_empty_object(tmp_path):
    model, bank, _ = trained_model()
    path = save_checkpoint(tmp_path / "ck.bin", model, bank, meta={"note": "x"})
    path.write_bytes(_header(_drop(["meta"]))(path.read_bytes()))
    assert load_checkpoint(path)[2] == {}


def test_router_without_visible_experts_round_trips(tmp_path):
    # a task whose candidates were all pruned keeps a router with no rows
    model, bank, _ = trained_model()
    for layer in model.adapter_layers():
        layer.router_for(0).weight = np.zeros((0, DIM))
    path = save_checkpoint(tmp_path / "ck.bin", model, bank)
    loaded, loaded_bank, _ = load_checkpoint(path)
    for layer in loaded.adapter_layers():
        assert layer.router_for(0).weight.shape == (0, DIM)
    x = np.random.default_rng(3).standard_normal((4, DIM))
    np.testing.assert_array_equal(loaded.embed(x, 0), model.embed(x, 0))
    again = save_checkpoint(tmp_path / "again.bin", loaded, loaded_bank)
    assert again.read_bytes() == path.read_bytes()


def test_truncated_or_bit_flipped_checkpoints_load_or_raise_data_error(tmp_path):
    model, bank, _ = trained_model()
    good = save_checkpoint(tmp_path / "good.bin", model, bank).read_bytes()
    path = tmp_path / "fuzz.bin"
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
