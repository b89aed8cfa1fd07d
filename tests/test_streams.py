"""Synthetic stream generation and the export of a task as a container."""

from __future__ import annotations

import re

import numpy as np
import pytest

from submoe.checkpoint import read_container, write_container
from submoe.errors import ConfigError, DataError
from submoe.streams import (
    Alignment, TaskSpec, export_task, generate_stream, generate_task, load_task,
)

from oracles import export_task_v1
from test_checkpoint import _drop, _header, _set, _split

DIM = 16


def spec(task_id=0, classes=3, seed=0, **kw) -> TaskSpec:
    kw.setdefault("samples_per_class", 8)
    kw.setdefault("eval_per_class", 4)
    return TaskSpec(task_id=task_id, classes=classes, seed=seed, **kw)


def test_generation_is_deterministic_bytewise():
    a = generate_task(spec(seed=41), DIM, [])
    b = generate_task(spec(seed=41), DIM, [])
    for name in ("train_x", "train_y", "eval_x", "eval_y", "text_emb", "prototypes"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_seed_changes_the_draw():
    a = generate_task(spec(seed=1), DIM, [])
    b = generate_task(spec(seed=2), DIM, [])
    assert not np.array_equal(a.train_x, b.train_x)


def test_orthogonal_prototypes_are_orthonormal_and_scaled():
    data = generate_task(spec(), DIM, [], prototype_scale=2.5)
    gram = data.prototypes @ data.prototypes.T
    np.testing.assert_allclose(gram, 2.5 ** 2 * np.eye(3), atol=1e-10)


def test_orthogonal_mode_avoids_prior_span():
    first = generate_task(spec(task_id=0, seed=0), DIM, [])
    second = generate_task(spec(task_id=1, seed=9), DIM, [first.prototypes])
    cross = second.prototypes @ first.prototypes.T
    np.testing.assert_allclose(cross, 0.0, atol=1e-10)


def test_orthogonal_mode_avoids_a_prior_span_with_repeated_rows():
    # dim 12: three orthogonal tasks span 9 directions, an exact reuse of task 0
    # repeats 3 of them, and the last orthogonal task fits in the 3 left
    specs = [spec(task_id=t, seed=t) for t in range(3)]
    specs += [spec(task_id=3, seed=3, alignment=Alignment(mode="reuse", source=0)),
              spec(task_id=4, seed=4)]
    tasks = generate_stream(specs, 12)
    prior = np.vstack([t.prototypes for t in tasks[:4]])
    assert np.linalg.matrix_rank(prior) == 9
    assert np.abs(tasks[4].prototypes @ prior.T).max() <= 1e-12
    gram = tasks[4].prototypes @ tasks[4].prototypes.T
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)


def test_reuse_with_zero_perturbation_copies_exactly():
    src = generate_task(spec(task_id=0), DIM, [])
    again = generate_task(
        spec(task_id=1, seed=5, alignment=Alignment(mode="reuse", source=0)),
        DIM, [src.prototypes],
    )
    np.testing.assert_array_equal(again.prototypes, src.prototypes)


def test_reuse_and_mixed_share_the_source_label_embeddings():
    stream = generate_stream(
        [
            spec(task_id=0, seed=3),
            spec(task_id=1, seed=4, alignment=Alignment(mode="reuse", source=0,
                                                        perturbation=0.2)),
            spec(task_id=2, seed=5, alignment=Alignment(mode="mixed", source=0,
                                                        fraction=0.5)),
        ],
        DIM,
    )
    assert stream[1].text_emb.tobytes() == stream[0].text_emb.tobytes()
    assert stream[2].text_emb.tobytes() == stream[0].text_emb.tobytes()


def test_orthogonal_tasks_draw_fresh_label_embeddings():
    stream = generate_stream([spec(task_id=0, seed=3), spec(task_id=1, seed=4)], DIM)
    assert not np.array_equal(stream[0].text_emb, stream[1].text_emb)


def test_reuse_perturbation_has_exact_row_norm():
    src = generate_task(spec(task_id=0), DIM, [])
    moved = generate_task(
        spec(task_id=1, seed=5,
             alignment=Alignment(mode="reuse", source=0, perturbation=0.3)),
        DIM, [src.prototypes],
    )
    norms = np.linalg.norm(moved.prototypes - src.prototypes, axis=1)
    np.testing.assert_allclose(norms, 0.3, atol=1e-12)


def test_mixed_mode_interpolates():
    src = generate_task(spec(task_id=0), DIM, [])
    full_src = generate_task(
        spec(task_id=1, seed=3,
             alignment=Alignment(mode="mixed", source=0, fraction=0.0)),
        DIM, [src.prototypes],
    )
    np.testing.assert_allclose(full_src.prototypes, src.prototypes, atol=1e-12)
    full_fresh = generate_task(
        spec(task_id=1, seed=3,
             alignment=Alignment(mode="mixed", source=0, fraction=1.0)),
        DIM, [src.prototypes],
    )
    cross = full_fresh.prototypes @ src.prototypes.T
    np.testing.assert_allclose(cross, 0.0, atol=1e-10)


def test_orthogonal_room_exhaustion():
    dim = 4
    first = generate_task(spec(task_id=0, classes=3), dim, [])
    with pytest.raises(DataError, match="orthogonal room"):
        generate_task(spec(task_id=1, classes=3, seed=1), dim, [first.prototypes])


def test_zero_noise_puts_points_on_prototypes():
    data = generate_task(spec(noise=0.0), DIM, [])
    for c in range(data.classes):
        np.testing.assert_array_equal(
            data.train_x[data.train_y == c], np.tile(data.prototypes[c], (8, 1))
        )


def test_label_counts_and_shapes():
    data = generate_task(spec(classes=4, samples_per_class=6, eval_per_class=2), DIM, [])
    assert data.train_x.shape == (24, DIM) and data.eval_x.shape == (8, DIM)
    assert np.bincount(data.train_y).tolist() == [6, 6, 6, 6]
    assert data.train_x.dtype == np.float64 and data.train_y.dtype == np.int64


def test_text_embeddings_are_unit_norm():
    data = generate_task(spec(), DIM, [])
    np.testing.assert_allclose(np.linalg.norm(data.text_emb, axis=1), 1.0, atol=1e-12)


def test_stream_rejects_duplicate_ids():
    with pytest.raises(ConfigError, match="duplicate"):
        generate_stream([spec(task_id=0), spec(task_id=0, seed=1)], DIM)


def test_stream_rejects_forward_source_reference():
    specs = [
        spec(task_id=0),
        spec(task_id=1, seed=1, alignment=Alignment(mode="reuse", source=1)),
    ]
    with pytest.raises(ConfigError, match="earlier stream position"):
        generate_stream(specs, DIM)


def test_alignment_validation():
    with pytest.raises(ConfigError):
        Alignment(mode="shifted")
    with pytest.raises(ConfigError):
        Alignment(mode="reuse")  # no source
    with pytest.raises(ConfigError):
        Alignment(perturbation=-1.0)
    with pytest.raises(ConfigError):
        TaskSpec(task_id=0, classes=1, samples_per_class=4)


FIELDS = ("train_x", "train_y", "eval_x", "eval_y", "text_emb", "prototypes")


def test_export_round_trip_is_bit_exact(tmp_path):
    data = generate_task(spec(task_id=4, classes=3, seed=77), DIM, [])
    path = export_task(data, tmp_path / "out")
    assert path == tmp_path / "out" / "task_4.bin"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["task_4.bin"]
    back = load_task(path)
    assert back.task_id == data.task_id
    for name in FIELDS:
        got, want = getattr(back, name), getattr(data, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    # the one container: labels in the header, the four arrays in the body
    header, body = _split(path.read_bytes())
    assert (header["format"], header["version"], header["task_id"]) == ("submoe-task", 2, 4)
    assert header["train_y"] == data.train_y.tolist()
    assert body == b"".join(getattr(data, name).astype("<f8").tobytes()
                            for name in ("train_x", "eval_x", "text_emb", "prototypes"))


def test_spec_data_path_loads_instead_of_generating(tmp_path):
    data = generate_task(spec(seed=8), DIM, [])
    path = export_task(data, tmp_path / "frozen")
    loaded = generate_task(spec(seed=999, data_path=str(path)), DIM, [])
    assert loaded.train_x.tobytes() == data.train_x.tobytes()


def test_spec_data_path_holding_another_task_id_is_refused(tmp_path):
    # the task would otherwise run under the file's id, and its run's audit
    # would no longer match the stream the effective config lists
    path = export_task(generate_task(spec(task_id=7), DIM, []), tmp_path)
    with pytest.raises(DataError, match=r"stream task 1: .* holds task 7"):
        generate_task(spec(task_id=1, data_path=str(path)), DIM, [])


def test_load_rejects_unreadable_files_and_other_formats(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_task(tmp_path / "missing.bin")
    not_utf8 = tmp_path / "latin1.bin"
    not_utf8.write_bytes(b"\xff")
    with pytest.raises(DataError, match=re.escape(f"cannot read {not_utf8}: no JSON header")):
        load_task(not_utf8)
    path = export_task(generate_task(spec(), DIM, []), tmp_path)
    good = path.read_bytes()
    for mutate in (_set(["format"], "submoe-checkpoint"), _set(["version"], 1),
                   _drop(["version"])):
        path.write_bytes(_header(mutate)(good))
        with pytest.raises(DataError, match=re.escape(
                f"{path} is not a task file of format 'submoe-task', version 2")):
            load_task(path)


def test_load_refuses_a_version_1_manifest_naming_the_converter(tmp_path):
    manifest = export_task_v1(generate_task(spec(), DIM, []), tmp_path / "old")
    with pytest.raises(DataError, match=re.escape(
            f"{manifest}: a task manifest from before the container; convert it with: "
            f"python3 tools/upgrade.py {tmp_path / 'old'}")):
        load_task(manifest)
    # a container keeps its name: the suffix alone refuses nothing
    renamed = tmp_path / "task.json"
    export_task(generate_task(spec(), DIM, []), tmp_path).rename(renamed)
    assert load_task(renamed).task_id == 0


def _nan(name: str, index):
    def mutate(doc):
        doc[name][index] = np.nan
        return doc
    return mutate


def _rows(name: str, stop: int):
    def mutate(doc):
        doc[name] = doc[name][:stop]
        return doc
    return mutate


N_TRAIN, N_EVAL, CLASSES = 24, 12, 3  # of spec(): 8 and 4 rows per class
# each a change to a well-formed task document, which `write_container` writes
BAD_TASKS = {
    "task_id a float": (_set(["task_id"], 0.0), "task_id is not an int: 0.0"),
    "task_id missing": (_drop(["task_id"]), "task_id is not an int: None"),
    "train_x missing": (_drop(["train_x"]), "train_x is not a 2-d array"),
    "train_x a list": (_set(["train_x"], [[0.0] * DIM] * N_TRAIN), "train_x is not a 2-d array"),
    "text_emb 1-d": (_set(["text_emb"], np.zeros(CLASSES * DIM)), "text_emb is not a 2-d array"),
    "train_x NaN": (_nan("train_x", (0, 0)), "train_x has non-finite entries"),
    "prototypes Inf": (_set(["prototypes", -1], np.full(DIM, -np.inf)),
                       "prototypes has non-finite entries"),
    "label a float": (_set(["train_y", 0], 0.0), "train_y is not a list of ints"),
    "label a bool": (_set(["eval_y", 0], True), "eval_y is not a list of ints"),
    "label a string": (_set(["eval_y", 0], "1"), "eval_y is not a list of ints"),
    "labels not a list": (_set(["train_y"], 0), "train_y is not a list of ints"),
    "labels missing": (_drop(["eval_y"]), "eval_y is not a list of ints"),
    "label below range": (_set(["eval_y", 0], -1), re.escape("eval_y has labels outside [0, 3)")),
    "label above range": (_set(["train_y", 5], 3), re.escape("train_y has labels outside [0, 3)")),
    "label beyond int64": (_set(["train_y", 5], 2 ** 70),
                           re.escape("train_y has labels outside [0, 3)")),
    "one label short": (_rows("train_y", -1), re.escape(
        f"train_x has shape ({N_TRAIN}, {DIM}), expected ({N_TRAIN - 1}, {DIM})")),
    "one eval row short": (_rows("eval_x", -1), re.escape(
        f"eval_x has shape ({N_EVAL - 1}, {DIM}), expected ({N_EVAL}, {DIM})")),
    "eval rows of another dim": (_set(["eval_x"], np.zeros((N_EVAL, DIM - 1))), re.escape(
        f"eval_x has shape ({N_EVAL}, {DIM - 1}), expected ({N_EVAL}, {DIM})")),
    "prototypes of fewer classes": (_rows("prototypes", -1), re.escape(
        f"prototypes has shape ({CLASSES - 1}, {DIM}), expected ({CLASSES}, {DIM})")),
    "labels of fewer classes": (_rows("text_emb", 2), re.escape(
        "train_y has labels outside [0, 2)")),
}


@pytest.mark.parametrize("name", sorted(BAD_TASKS))
def test_load_rejects_malformed_tasks_naming_the_file_and_field(tmp_path, name):
    mutate, message = BAD_TASKS[name]
    path = export_task(generate_task(spec(), DIM, []), tmp_path)
    write_container(path, mutate(read_container(path)))
    with pytest.raises(DataError, match=message) as info:
        load_task(path)
    assert str(info.value).startswith(f"{path}: ")


def test_truncated_or_bit_flipped_task_files_load_or_raise_data_error(tmp_path):
    path = export_task(generate_task(spec(), DIM, []), tmp_path)
    good = path.read_bytes()
    outcomes = {"loaded": 0, "rejected": 0}

    def attempt(data: bytes):
        path.write_bytes(data)
        try:
            load_task(path)
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
