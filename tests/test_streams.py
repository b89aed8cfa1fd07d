"""Synthetic stream generation and the flat task export format."""

from __future__ import annotations

import json

import numpy as np
import pytest

from submoe.errors import ConfigError, DataError
from submoe.streams import (
    Alignment, TaskSpec, export_task, generate_stream, generate_task, load_task,
)

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


def test_export_round_trip_is_bit_exact(tmp_path):
    data = generate_task(spec(classes=3, seed=77), DIM, [])
    manifest = export_task(data, tmp_path)
    back = load_task(manifest)
    assert back.task_id == data.task_id
    for name in ("train_x", "train_y", "eval_x", "eval_y", "text_emb", "prototypes"):
        assert getattr(back, name).tobytes() == getattr(data, name).tobytes()


def test_spec_data_path_loads_instead_of_generating(tmp_path):
    data = generate_task(spec(seed=8), DIM, [])
    manifest = export_task(data, tmp_path, stem="frozen")
    loaded = generate_task(spec(seed=999, data_path=str(manifest)), DIM, [])
    assert loaded.train_x.tobytes() == data.train_x.tobytes()


def test_spec_data_path_holding_another_task_id_is_refused(tmp_path):
    # the task would otherwise run under the file's id, and its run's audit
    # would no longer match the stream the effective config lists
    manifest = export_task(generate_task(spec(task_id=7), DIM, []), tmp_path)
    with pytest.raises(DataError, match=r"stream task 1: .* holds task 7"):
        generate_task(spec(task_id=1, data_path=str(manifest)), DIM, [])


def test_load_rejects_corrupt_files(tmp_path):
    data = generate_task(spec(), DIM, [])
    manifest = export_task(data, tmp_path)
    payload = json.loads(manifest.read_text())

    bad_magic = tmp_path / payload["file"]
    raw = bytearray(bad_magic.read_bytes())
    raw[:8] = b"XXXXXXXX"
    bad_magic.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="magic"):
        load_task(manifest)

    raw[:8] = b"SUBMOE01"
    bad_magic.write_bytes(bytes(raw[:-8]))  # drop one float
    with pytest.raises(DataError, match="trailing or missing"):
        load_task(manifest)

    not_manifest = tmp_path / "other.json"
    not_manifest.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(DataError, match="not a task manifest"):
        load_task(not_manifest)

    with pytest.raises(DataError, match="cannot read"):
        load_task(tmp_path / "missing.json")

    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b"\xff")
    with pytest.raises(DataError, match="cannot read task manifest"):
        load_task(not_utf8)


def _exported(tmp_path):
    data = generate_task(spec(), DIM, [])
    manifest = export_task(data, tmp_path)
    return data, manifest, tmp_path / json.loads(manifest.read_text())["file"]


def test_load_rejects_non_finite_arrays(tmp_path):
    _, manifest, bin_path = _exported(tmp_path)
    raw = bytearray(bin_path.read_bytes())
    raw[56:64] = np.array([np.nan], dtype="<f8").tobytes()  # train_x[0, 0]
    bin_path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="train_x has non-finite"):
        load_task(manifest)


@pytest.mark.parametrize("label", [-1, 3])
def test_load_rejects_labels_outside_class_range(tmp_path, label):
    data, manifest, bin_path = _exported(tmp_path)
    n_train, n_eval = data.train_x.shape[0], data.eval_x.shape[0]
    off = 56 + 8 * (n_train + n_eval + 2 * data.classes) * DIM + 8 * n_train  # eval_y[0]
    raw = bytearray(bin_path.read_bytes())
    raw[off:off + 8] = np.array([label], dtype="<i8").tobytes()
    bin_path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=r"eval_y has labels outside \[0, 3\)"):
        load_task(manifest)


@pytest.mark.parametrize("name", ["../task_0.bin", "sub/task_0.bin", "/tmp/task_0.bin",
                                  "", "..", 7, None])
def test_load_rejects_manifest_file_outside_its_directory(tmp_path, name):
    inner = tmp_path / "inner"
    _, manifest, _ = _exported(inner)
    payload = json.loads(manifest.read_text())
    payload["file"] = name
    manifest.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="'file' must name a file"):
        load_task(manifest)


def test_load_wraps_os_errors_reading_the_data_file(tmp_path):
    _, manifest, bin_path = _exported(tmp_path)
    bin_path.unlink()
    with pytest.raises(DataError, match="cannot read task data"):
        load_task(manifest)
    bin_path.mkdir()  # reading a directory raises IsADirectoryError
    with pytest.raises(DataError, match="cannot read task data"):
        load_task(manifest)
    bin_path.rmdir()
    bin_path.write_bytes(b"SUBMOE01" + bytes(8))
    with pytest.raises(DataError, match="truncated header"):
        load_task(manifest)


def test_truncated_or_bit_flipped_task_files_load_or_raise_data_error(tmp_path):
    _, manifest, bin_path = _exported(tmp_path)
    good = bin_path.read_bytes()
    outcomes = {"loaded": 0, "rejected": 0}

    def attempt(data: bytes):
        bin_path.write_bytes(data)
        try:
            load_task(manifest)
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
