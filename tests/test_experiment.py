"""End-to-end run driver: artifacts, determinism, and metric wiring."""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from submoe.checkpoint import load_checkpoint, read_container, write_container
from submoe.cli import _file_digests
from submoe.config import config_from_dict
from submoe.errors import ConfigError, DataError, NumericError
from submoe.evaluation import EvalState, evaluate_row
from submoe.experiment import (
    ARTIFACT_WRITERS, AUDIT_FILE, CHECKPOINT_FILE, CONFIG_FILE, JSON_CHECKPOINT_FILE,
    JSONL_AUDIT_FILE, KL_FILE, MATRIX_FILE, METRICS_FILE, OUTPUT_ROOT_ENV, PRUNE_FILE,
    STREAM_DIR, SUMMARY_FILE, TRACE_FILE, compute_metrics, prepare_run, read_audit,
    resolve_output_dir, run_experiment,
)
from submoe.streams import TaskSpec, export_task, generate_stream, generate_task, load_task

from oracles import (
    UNDER_BOUNDS, blas_kernel, encode_array, for_kernel, save_audit_jsonl, save_checkpoint_v3,
)
from pinned import pinned_raw, recorded, run_entry
from reference_grads import CHUNK_BUDGETS, chunk_budget


def base_raw(n_tasks=2, protocol="id_free", cil=True) -> dict:
    return {
        "seed": 3,
        "output_dir": "runs/test",
        "model": {"feature_dim": 8, "depth": 3, "adapter_layers": [1, 2], "rank": 2},
        "schedule": {"identify_steps": 10, "finetune_steps": 5, "num_candidates": 2,
                     "batch_size": 8, "snapshot_interval": 5},
        "optimizer": {"learning_rate": 0.5, "penalty": 0.01},
        "contrastive": {"temperature": 0.2},
        "task_bank": {"match_threshold": 50.0, "enroll_batch": 16},
        "evaluation": {"protocol": protocol, "cil": cil},
        "stream": [
            {"task_id": i, "classes": 3, "samples_per_class": 8, "eval_per_class": 4,
             "seed": i}
            for i in range(n_tasks)
        ],
    }


ARTIFACTS = (METRICS_FILE, MATRIX_FILE, SUMMARY_FILE, CONFIG_FILE, TRACE_FILE,
             PRUNE_FILE, KL_FILE, CHECKPOINT_FILE)


def test_run_writes_every_artifact(tmp_path):
    cfg = config_from_dict(base_raw())
    result = run_experiment(cfg, tmp_path / "run")
    for name in ARTIFACTS + (AUDIT_FILE,):
        assert (tmp_path / "run" / name).is_file(), name

    assert result.matrix.shape == (2, 2)
    assert np.isfinite(result.matrix).all()
    assert set(result.metrics) == {"transfer", "avg", "last", "cil_last", "cil_avg"}
    assert result.metrics["transfer"] is not None
    assert result.metrics["cil_last"] is not None
    assert len(result.summary["cil_trace"]) == 2
    assert result.summary["final_expert_total"] >= 0
    assert result.summary["bank_queries"] > 0


def test_summary_counts_stage1_params_before_pruning(tmp_path):
    raw = base_raw(protocol="id_given", cil=False)
    raw["schedule"]["prune_threshold"] = 0.9
    result = run_experiment(config_from_dict(raw), tmp_path / "run")
    dim, rank, cands = 8, 2, 2
    before = {"layer_1": 0, "layer_2": 0}
    tasks = result.summary["tasks"]
    for rec, counts in zip(tasks, result.summary["expert_counts"]):
        # per layer: the candidates plus a router row for every visible expert
        expected = sum(cands * 2 * rank * dim + (n + cands) * dim for n in before.values())
        assert rec["stage1_trainable_params"] == expected
        before = {k: counts[k] for k in before}
    assert sum(rec["candidates_pruned"] for rec in tasks) > 0


def test_runs_are_byte_identical(tmp_path):
    cfg = config_from_dict(base_raw())
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    for name in ARTIFACTS + (AUDIT_FILE,):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_audit_enrollment_annotation(tmp_path):
    cfg = config_from_dict(base_raw())
    run_experiment(cfg, tmp_path / "run")
    for rec in read_audit(tmp_path / "run"):
        # a task is enrolled in the bank iff it has already been learned
        assert rec["enrolled"] == (rec["true_task"] <= rec["after_task"])


@pytest.mark.parametrize("window", [1, 3])
def test_summary_bank_counts_equal_the_audit(tmp_path, window):
    result = run_experiment(config_from_dict(pinned_raw("id_free", True, window)),
                            tmp_path / "run")
    audits = read_audit(tmp_path / "run")
    known = [a for a in audits if a["enrolled"]]
    hits = sum(a["routed_task"] == a["true_task"] for a in known)
    assert 0 < hits < len(known)
    summary = json.loads((tmp_path / "run" / SUMMARY_FILE).read_text())
    assert summary == result.summary
    assert summary["bank_queries"] == len(audits)
    assert summary["bank_id_accuracy"] == hits / len(known)


@pytest.mark.parametrize("metric,threshold,window",
                         [("manhattan", 1.3, 1), ("euclidean", 0.6, 3)])
def test_read_audit_replays_the_decisions_of_every_row(tmp_path, monkeypatch, metric,
                                                       threshold, window):
    raw = pinned_raw("id_free", True, window)
    raw["task_bank"].update(metric=metric, match_threshold=threshold)
    rows = []

    def recording(*args, **kwargs):
        row, decisions = evaluate_row(*args, **kwargs)
        rows.append(decisions)  # their arrays are replaced, never written
        return row, decisions

    monkeypatch.setattr("submoe.experiment.evaluate_row", recording)
    run_experiment(config_from_dict(raw), tmp_path / "run")
    stream = [task["task_id"] for task in raw["stream"]]
    want = [json.dumps({
        "after_task": stream[i], "distance": dist, "enrolled": d.task_id in stream[:i + 1],
        "matched": hit, "routed_task": near if hit else None, "true_task": d.task_id,
        "window_start": w * window,
    }, sort_keys=True) for i, decisions in enumerate(rows) for d in decisions
        for w, (dist, hit, near) in enumerate(zip(
            d.distance.tolist(), d.matched.tolist(), d.nearest.tolist()))]
    got = [json.dumps(rec, sort_keys=True) for rec in read_audit(tmp_path / "run")]
    assert len(rows) == 3 and got == want
    assert 0 < sum('"matched": true' in line for line in got) < len(got)


def test_read_audit_rejects_a_malformed_line(tmp_path):
    run_experiment(config_from_dict(base_raw()), tmp_path / "run")
    with open(tmp_path / "run" / AUDIT_FILE, "a") as fh:
        fh.write('{"after_task": 1}\n')
    with pytest.raises(DataError, match=re.escape(
            f"{tmp_path / 'run' / AUDIT_FILE}: 18 trailing bytes after the arrays")):
        read_audit(tmp_path / "run")


def test_read_audit_rejects_an_unfinished_or_foreign_audit(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    run_experiment(config_from_dict(pinned_raw("id_free", True, 3)), run_dir)
    audit = (run_dir / AUDIT_FILE).read_bytes()
    summary = (run_dir / SUMMARY_FILE).read_text()
    assert len(read_audit(run_dir)) == json.loads(summary)["bank_queries"]
    doc = read_container(run_dir / AUDIT_FILE)
    tasks = doc["tasks"]
    assert [rec["distance"].shape for rec in tasks] == [(5, 3)] * 3

    def rejected(audit_file: bytes | dict, summary_text: str | None, match: str) -> None:
        """`audit_file` as the bytes of the file, or as a document to write."""
        if isinstance(audit_file, bytes):
            (run_dir / AUDIT_FILE).write_bytes(audit_file)
        else:
            write_container(run_dir / AUDIT_FILE, audit_file)
        (run_dir / SUMMARY_FILE).unlink(missing_ok=True)
        if summary_text is not None:
            (run_dir / SUMMARY_FILE).write_text(summary_text)
        with pytest.raises(DataError, match=match):
            read_audit(run_dir)

    def with_tasks(records: list[dict]) -> dict:
        return {**doc, "tasks": records}

    # no summary: the run never finished
    rejected(doc, None, "summary.json")
    # a missing or an extra task record
    rejected(with_tasks(tasks[:2]), summary, "2 task records for 3 stream tasks")
    rejected(with_tasks(tasks + tasks[:1]), summary, "4 task records for 3 stream tasks")
    # the records out of stream order
    rejected(with_tasks(tasks[::-1]), summary, "record 1 is not the .* record of task 2")
    # task 2's matrix replaced: a column short, flattened to 1-d, with fewer
    # windows than bank queries made, or as base64 text
    first = tasks[0]["distance"]

    def with_first(distance) -> dict:
        return with_tasks([{**tasks[0], "distance": distance}] + tasks[1:])

    rejected(with_first(first[:, :2]), summary, r"want \[windows, 3\]")
    rejected(with_first(first.ravel()), summary, r"want \[windows, 3\]")
    rejected(with_first(first[:4]), summary, "bank queries")
    rejected(with_first(encode_array(first)), summary, r"shape \(\), want \[windows, 3\]")
    # the container: its header line, format and version, and offsets that
    # tile the body
    header, body = audit.split(b"\n", 1)
    head = json.loads(header)

    def headed(mutate) -> bytes:
        changed = json.loads(header)
        mutate(changed)
        return json.dumps(changed).encode() + b"\n" + body

    rejected(body, summary, "no JSON header line")
    rejected(json.dumps([head]).encode() + b"\n" + body, summary, "not a JSON object")
    rejected(headed(lambda h: h.update(format="submoe-checkpoint")), summary,
             "not an audit of format 'submoe-audit'")
    rejected(headed(lambda h: h.update(version=2)), summary, "version 1")
    rejected(headed(lambda h: h["tasks"][1]["distance"].update(offset=128)), summary,
             "offset 128, where the previous array ends at 120")
    rejected(headed(lambda h: h["tasks"][2]["distance"].update(shape=[6, 3])), summary,
             "overruns the 360-byte body")
    rejected(audit + bytes(8), summary, "8 trailing bytes")

    # a run that raises after its first row, into the directory of a finished
    # run, leaves neither the old audit nor a summary
    (run_dir / AUDIT_FILE).write_bytes(audit)
    (run_dir / SUMMARY_FILE).write_text(summary)
    calls = []

    def fail_second_row(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("stop")
        return evaluate_row(*args, **kwargs)

    monkeypatch.setattr("submoe.experiment.evaluate_row", fail_second_row)
    with pytest.raises(RuntimeError, match="stop"):
        run_experiment(config_from_dict(pinned_raw("id_free", True, 3)), run_dir)
    assert not (run_dir / AUDIT_FILE).exists() and not (run_dir / SUMMARY_FILE).exists()
    with pytest.raises(DataError, match=re.escape(f"cannot read {run_dir / AUDIT_FILE}: ")):
        read_audit(run_dir)


def _write_json_files(run_dir) -> None:
    """Replace a run's checkpoint and audit by the JSON files a run wrote
    before they became containers."""
    model, bank, meta = load_checkpoint(run_dir / CHECKPOINT_FILE)
    save_checkpoint_v3(run_dir / JSON_CHECKPOINT_FILE, model, bank, meta)
    save_audit_jsonl(run_dir / JSONL_AUDIT_FILE, read_container(run_dir / AUDIT_FILE)["tasks"])
    (run_dir / CHECKPOINT_FILE).unlink()
    (run_dir / AUDIT_FILE).unlink()


def test_rerun_deletes_the_json_checkpoint_and_audit(tmp_path):
    raw = pinned_raw("id_free", True, 3)
    run_experiment(config_from_dict(raw), tmp_path / "run")
    _write_json_files(tmp_path / "run")
    run_experiment(config_from_dict(raw), tmp_path / "run")
    run_experiment(config_from_dict(raw), tmp_path / "fresh")
    assert _file_digests(tmp_path / "run") == _file_digests(tmp_path / "fresh")


def test_id_given_run_removes_an_earlier_audit(tmp_path):
    run_experiment(config_from_dict(pinned_raw("id_free", True, 3)), tmp_path / "run")
    assert (tmp_path / "run" / AUDIT_FILE).is_file()
    run_experiment(config_from_dict(pinned_raw("id_given", False, 3)), tmp_path / "run")
    assert not (tmp_path / "run" / AUDIT_FILE).exists()


def test_id_given_protocol_has_no_audits(tmp_path):
    cfg = config_from_dict(base_raw(protocol="id_given", cil=False))
    result = run_experiment(cfg, tmp_path / "run")
    audit = tmp_path / "run" / AUDIT_FILE
    assert not audit.exists()
    with pytest.raises(DataError, match=re.escape(f"cannot read {audit}: ")):
        read_audit(tmp_path / "run")
    assert result.summary["bank_queries"] == 0
    assert result.summary["bank_id_accuracy"] is None
    assert result.metrics["cil_last"] is None


def test_export_stream_round_trips(tmp_path):
    raw = base_raw()
    raw["export_stream"] = True
    cfg = config_from_dict(raw)
    result = run_experiment(cfg, tmp_path / "run")
    assert result.out_dir == tmp_path / "run"
    stream = tmp_path / "run" / STREAM_DIR
    tasks = generate_stream(cfg.stream, cfg.model.feature_dim, cfg.model.prototype_scale)
    # one container per task, and no manifest
    assert sorted(p.name for p in stream.iterdir()) == sorted(
        f"task_{data.task_id}.bin" for data in tasks)
    for data in tasks:
        back = load_task(stream / f"task_{data.task_id}.bin")
        assert back.task_id == data.task_id
        for name in ("train_x", "train_y", "eval_x", "eval_y", "text_emb", "prototypes"):
            got, want = getattr(back, name), getattr(data, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name


def test_a_stream_read_through_data_path_reproduces_the_run(tmp_path):
    # every artifact but the config (which names the files) is the exported run's
    raw = base_raw()
    raw["export_stream"] = True
    run_experiment(config_from_dict(raw), tmp_path / "run")
    raw["export_stream"] = False
    for task in raw["stream"]:
        task["data_path"] = str(tmp_path / "run" / STREAM_DIR / f"task_{task['task_id']}.bin")
        task["seed"] = 99  # unused: the file holds the data
    run_experiment(config_from_dict(raw), tmp_path / "read")
    made = _file_digests(tmp_path / "run")
    read = _file_digests(tmp_path / "read")
    assert read.pop(CONFIG_FILE) != made.pop(CONFIG_FILE)
    assert read == {name: digest for name, digest in made.items()
                    if not name.startswith(STREAM_DIR + "/")}
    assert {AUDIT_FILE, CHECKPOINT_FILE, TRACE_FILE} <= read.keys()


@pytest.mark.parametrize("protocol", ["id_given", "id_free"])
@pytest.mark.parametrize("fault", sorted(UNDER_BOUNDS))
def test_a_data_path_task_below_the_bounds_is_refused_before_the_run(tmp_path, fault, protocol):
    # refused before the run writes its config or learns tasks 0 and 1
    raw = base_raw(n_tasks=3, protocol=protocol)
    below, message = UNDER_BOUNDS[fault]
    task = generate_task(TaskSpec(**raw["stream"][2]), raw["model"]["feature_dim"], [])
    raw["stream"][2]["data_path"] = str(export_task(below(task), tmp_path / "frozen"))
    cfg = config_from_dict(raw)
    want = f"^{re.escape(raw['stream'][2]['data_path'] + ': ' + message)}$"
    with pytest.raises(DataError, match=want):
        prepare_run(cfg)
    with pytest.raises(DataError, match=want):
        run_experiment(cfg, tmp_path / "run")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("n_tasks, export", [(6, False), (2, True)],
                         ids=["no export", "fewer tasks"])
def test_rerun_leaves_no_file_of_an_earlier_export(tmp_path, n_tasks, export):
    def raw_of(n_tasks, export):
        raw = base_raw(n_tasks=n_tasks)
        raw["model"]["feature_dim"] = 18  # room for six orthogonal 3-class tasks
        raw["export_stream"] = export
        return raw

    run_experiment(config_from_dict(raw_of(6, True)), tmp_path / "run")
    assert len(list((tmp_path / "run" / STREAM_DIR).iterdir())) == 6
    raw = raw_of(n_tasks, export)
    run_experiment(config_from_dict(raw), tmp_path / "run")
    run_experiment(config_from_dict(raw), tmp_path / "fresh")
    assert _file_digests(tmp_path / "run") == _file_digests(tmp_path / "fresh")


@pytest.mark.parametrize("protocol, export", [("id_free", False), ("id_given", True)])
def test_a_run_directory_holds_what_the_writers_name(tmp_path, protocol, export):
    # a file written outside `ARTIFACT_WRITERS` would outlive a failed rerun
    raw = base_raw(protocol=protocol, cil=False)
    raw["export_stream"] = export
    run_experiment(config_from_dict(raw), tmp_path / "run")
    want = {CONFIG_FILE} | {name for name, _ in ARTIFACT_WRITERS}
    if protocol != "id_free":
        want.remove(AUDIT_FILE)
    if export:
        want.add(STREAM_DIR)
    assert {p.name for p in (tmp_path / "run").iterdir()} == want


def test_a_diverging_rerun_names_its_step_and_leaves_only_its_config(tmp_path):
    out = tmp_path / "run"
    run_experiment(config_from_dict(base_raw()), out)
    raw = base_raw()
    raw["optimizer"]["learning_rate"] = 1e300  # the steps overflow
    with np.errstate(all="ignore"), pytest.raises(
            NumericError, match=r"^task 0, expert fit, step \d+: adapter input contains "
                                r"non-finite entries"):
        run_experiment(config_from_dict(raw), out)
    assert [p.name for p in out.iterdir()] == [CONFIG_FILE]
    assert json.loads((out / CONFIG_FILE).read_text())["optimizer"]["learning_rate"] == 1e300


@pytest.mark.parametrize("name, make", [
    (STREAM_DIR, lambda path: path.write_text("not a directory")),
    (SUMMARY_FILE, Path.mkdir),
    (METRICS_FILE, Path.mkdir),
], ids=["stream is a file", "summary is a directory", "metrics is a directory"])
def test_a_run_directory_fault_is_a_data_error_naming_the_path(tmp_path, name, make):
    out = tmp_path / "run"
    out.mkdir()
    make(out / name)
    with pytest.raises(DataError, match=re.escape(f"run directory {out}: ")) as info:
        run_experiment(config_from_dict(base_raw()), out)
    assert str(out / name) in str(info.value)
    if name == STREAM_DIR:  # refused before anything is written, and kept
        assert [p.name for p in out.iterdir()] == [STREAM_DIR]
        assert (out / STREAM_DIR).read_text() == "not a directory"
    else:
        assert (out / name).is_dir()


def test_single_task_stream_has_no_transfer(tmp_path):
    cfg = config_from_dict(base_raw(n_tasks=1))
    result = run_experiment(cfg, tmp_path / "run")
    assert result.metrics["transfer"] is None
    assert result.matrix.shape == (1, 1)


def test_empty_stream_is_rejected(tmp_path):
    cfg = config_from_dict({})
    with pytest.raises(ConfigError, match="stream: empty task stream"):
        run_experiment(cfg, tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_output_root_env_reroots_runs(tmp_path, monkeypatch):
    cfg = config_from_dict(base_raw())
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    assert resolve_output_dir(cfg) == tmp_path / "root" / "runs" / "test"
    # the root contains every run directory: nothing absolute, no `..` part
    for escape in (str(tmp_path / "abs_run"), "../../escape", "runs/../../escape"):
        with pytest.raises(ConfigError, match="output_dir"):
            resolve_output_dir(replace(cfg, output_dir=escape))
    monkeypatch.delenv(OUTPUT_ROOT_ENV)
    assert str(resolve_output_dir(cfg)) == "runs/test"


def test_matrix_csv_parses_back_to_exact_floats(tmp_path):
    cfg = config_from_dict(base_raw())
    result = run_experiment(cfg, tmp_path / "run")
    lines = (tmp_path / "run" / MATRIX_FILE).read_text().splitlines()
    assert lines[0].split(",")[0] == "after_task"
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == i
        parsed = [float(c) for c in cells[1:]]
        np.testing.assert_array_equal(parsed, result.matrix[i])


def test_compute_metrics_shapes():
    m = np.array([[0.5]])
    out = compute_metrics(m, [])
    assert out["transfer"] is None and out["avg"] == 0.5 and out["last"] == 0.5
    out2 = compute_metrics(np.array([[0.9, 0.4], [0.8, 0.88]]), [0.9, 0.7])
    assert out2["transfer"] == pytest.approx(0.4)
    assert out2["cil_last"] == pytest.approx(0.7)
    assert out2["cil_avg"] == pytest.approx(0.8)


# The digests of every pinned computation (`tests/pinned.py`) live in
# `tools/identity.json`, one table per BLAS kernel (`oracles.blas_kernel`),
# written by `tools/identity.py record`: the Haswell (AVX2) kernel rounds the
# learning GEMMs unlike SkylakeX (AVX-512), so the learned weights and every
# file derived from them move at the ulp level; the accuracy matrix, the
# config and the metrics do not.  The re-serialised checkpoints and audits
# must keep the bytes the version 2 and 3 and the JSON-lines writers gave.
def assert_pinned(got: dict[str, str], entry: str) -> None:
    assert got == for_kernel(recorded())[entry], f"BLAS kernel {blas_kernel()}, entry {entry}"


def capture_eval_state(monkeypatch) -> list[EvalState]:
    """The `EvalState` of each later `run_experiment` call, in call order."""
    states = []
    monkeypatch.setattr("submoe.experiment.EvalState",
                        lambda **kwargs: states.append(EvalState(**kwargs)) or states[-1])
    return states


def assert_stored_arrays_are_the_runs(run_dir, result, state: EvalState) -> None:
    """Every array in the run's checkpoint equals its model's or bank's, and
    every audit matrix equals `bank.distances` over the state's windows, by
    `tobytes`, so `-0.0` and `0.0` differ."""
    doc = read_container(run_dir / CHECKPOINT_FILE)
    model, bank = result.model, result.bank
    stored = doc["model"]["backbone"]["weights"] + doc["model"]["backbone"]["biases"]
    live = list(model.backbone.weights) + list(model.backbone.biases)
    for entry, index in zip(doc["model"]["adapters"], sorted(model.adapters)):
        layer = model.adapters[index]
        stored += [a for e in entry["experts"] for a in (e["down"], e["up"])]
        stored += [r["weight"] for r in entry["routers"]]
        live += [a for e in layer.experts for a in (e.down, e.up)]
        live += [r.weight for r in layer.routers.values()]
    stored += [item["embedding"] for item in doc["bank"]["entries"]]
    live += [bank.entries[task] for task in sorted(bank.entries)]
    assert [(a.shape, a.tobytes()) for a in stored] == [(a.shape, a.tobytes()) for a in live]
    if (run_dir / AUDIT_FILE).exists():
        tasks = read_container(run_dir / AUDIT_FILE)["tasks"]
        assert [rec["true_task"] for rec in tasks] == list(state.windows)
        assert [(rec["distance"].shape, rec["distance"].tobytes()) for rec in tasks] == [
            (want.shape, want.tobytes()) for want in (
                bank.distances(w.queries())[1] for w in state.windows.values())]


@pytest.mark.parametrize("protocol", ["id_free", "id_given"])
def test_run_directory_is_pinned(tmp_path, monkeypatch, protocol):
    """Every run-directory file, and the checkpoint re-serialised as version
    2 and 3; under `id_free` also the audit as JSON lines and as its dense
    records, a line each."""
    states = capture_eval_state(monkeypatch)
    entry = f"tier1:pinned[{protocol}]"
    result, got = run_entry(entry, tmp_path)
    assert_pinned(got, entry)
    assert_stored_arrays_are_the_runs(tmp_path / "run", result, states[0])


def test_a_kernel_without_a_table_fails_naming_it():
    with pytest.raises(AssertionError, match=f"BLAS kernel {blas_kernel()};") as info:
        for_kernel({"NoSuchKernel": {}})
    assert str(info.value).endswith(
        f"record them with: OPENBLAS_CORETYPE={blas_kernel()} python3 tools/identity.py record")


def test_dense_audit_at_window_1_is_pinned(tmp_path):
    entry = "tier1:pinned[id_free,window=1]"
    assert_pinned(run_entry(entry, tmp_path)[1], entry)


@pytest.mark.parametrize("budget", CHUNK_BUDGETS.values(), ids=CHUNK_BUDGETS.keys())
def test_dim64_run_directory_is_pinned(tmp_path, monkeypatch, budget):
    states = capture_eval_state(monkeypatch)
    with chunk_budget(budget):
        result, got = run_entry("tier1:dim64", tmp_path)
    assert_pinned(got, "tier1:dim64")
    assert_stored_arrays_are_the_runs(tmp_path / "run", result, states[0])


def test_a_bad_audit_array_is_named_as_the_audit(tmp_path):
    run_dir = tmp_path / "run"
    run_experiment(config_from_dict(pinned_raw("id_free", True, 3)), run_dir)
    audit = (run_dir / AUDIT_FILE).read_bytes()
    (run_dir / AUDIT_FILE).write_bytes(audit[:-8])
    with pytest.raises(DataError) as direct:
        read_container(run_dir / AUDIT_FILE)
    with pytest.raises(DataError) as info:
        read_audit(run_dir)
    # the container's own fault, which names the file, is reported once
    assert str(info.value) == str(direct.value)
    assert str(info.value).startswith(f"{run_dir / AUDIT_FILE}: array of shape [5, 3]")
    assert "overruns" in str(info.value) and "checkpoint" not in str(info.value)
