"""End-to-end run driver: artifacts, determinism, and metric wiring."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from submoe.checkpoint import decode_array, encode_array, load_checkpoint
from submoe.config import config_from_dict
from submoe.errors import DataError
from submoe.evaluation import evaluate_row
from submoe.experiment import (
    AUDIT_FILE, CHECKPOINT_FILE, CONFIG_FILE, KL_FILE, MATRIX_FILE, METRICS_FILE,
    OUTPUT_ROOT_ENV, PRUNE_FILE, STREAM_DIR, SUMMARY_FILE, TRACE_FILE, compute_metrics,
    read_audit, resolve_output_dir, run_experiment,
)
from submoe.streams import generate_stream, load_task

from oracles import blas_kernel, save_checkpoint_v2
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
    with pytest.raises(DataError, match="cannot read the audit"):
        read_audit(tmp_path / "run")


def test_read_audit_rejects_an_unfinished_or_foreign_audit(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    run_experiment(config_from_dict(pinned_raw("id_free", True, 3)), run_dir)
    audit = (run_dir / AUDIT_FILE).read_text()
    summary = (run_dir / SUMMARY_FILE).read_text()
    assert len(read_audit(run_dir)) == json.loads(summary)["bank_queries"]
    lines = [json.loads(line) for line in audit.splitlines()]
    assert [rec["distance"]["shape"] for rec in lines] == [[5, 3]] * 3

    def rejected(records: list[dict], summary_text: str | None, match: str) -> None:
        (run_dir / AUDIT_FILE).write_text(
            "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
        (run_dir / SUMMARY_FILE).unlink(missing_ok=True)
        if summary_text is not None:
            (run_dir / SUMMARY_FILE).write_text(summary_text)
        with pytest.raises(DataError, match=match):
            read_audit(run_dir)

    # no summary: the run never finished
    rejected(lines, None, "summary.json")
    # a missing or an extra task line
    rejected(lines[:2], summary, "2 task lines for 3 stream tasks")
    rejected(lines + lines[:1], summary, "4 task lines for 3 stream tasks")
    # the lines out of stream order
    rejected(lines[::-1], summary, "line 1 is not the .* line of task 2")
    # task 2's matrix replaced: a column short, flattened to 1-d, or with fewer
    # windows than bank queries made
    first = decode_array(lines[0]["distance"])

    def with_first(distance: dict) -> list[dict]:
        return [{**lines[0], "distance": distance}] + lines[1:]

    rejected(with_first(encode_array(first[:, :2])), summary, r"want \[windows, 3\]")
    rejected(with_first(encode_array(first.ravel())), summary, r"want \[windows, 3\]")
    rejected(with_first(encode_array(first[:4])), summary, "bank queries")
    # f64 text that is not base64, or whose bytes do not fill the shape
    rejected(with_first({**lines[0]["distance"], "f64": "not base64!"}), summary,
             "not base64")
    rejected(with_first({**lines[0]["distance"], "shape": [6, 3]}), summary,
             "bytes for shape")

    # a run that raises after its first row, into the directory of a finished
    # run, leaves neither the old audit nor a summary
    (run_dir / AUDIT_FILE).write_text(audit)
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
    with pytest.raises(DataError, match="cannot read the audit"):
        read_audit(run_dir)


def test_id_given_run_removes_an_earlier_audit(tmp_path):
    run_experiment(config_from_dict(pinned_raw("id_free", True, 3)), tmp_path / "run")
    assert (tmp_path / "run" / AUDIT_FILE).is_file()
    run_experiment(config_from_dict(pinned_raw("id_given", False, 3)), tmp_path / "run")
    assert not (tmp_path / "run" / AUDIT_FILE).exists()


def test_id_given_protocol_has_no_audits(tmp_path):
    cfg = config_from_dict(base_raw(protocol="id_given", cil=False))
    result = run_experiment(cfg, tmp_path / "run")
    assert not (tmp_path / "run" / AUDIT_FILE).exists()
    with pytest.raises(DataError, match="cannot read the audit"):
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
    assert sorted(p.name for p in stream.iterdir()) == sorted(
        f"task_{data.task_id}{ext}" for data in tasks for ext in (".bin", ".json"))
    for data in tasks:
        back = load_task(stream / f"task_{data.task_id}.json")
        assert back.task_id == data.task_id
        for name in ("train_x", "train_y", "eval_x", "eval_y", "text_emb", "prototypes"):
            got, want = getattr(back, name), getattr(data, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name


def _tree_digests(root) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("n_tasks, export", [(6, False), (2, True)],
                         ids=["no export", "fewer tasks"])
def test_rerun_leaves_no_file_of_an_earlier_export(tmp_path, n_tasks, export):
    def raw_of(n_tasks, export):
        raw = base_raw(n_tasks=n_tasks)
        raw["model"]["feature_dim"] = 18  # room for six orthogonal 3-class tasks
        raw["export_stream"] = export
        return raw

    run_experiment(config_from_dict(raw_of(6, True)), tmp_path / "run")
    assert len(list((tmp_path / "run" / STREAM_DIR).iterdir())) == 12
    raw = raw_of(n_tasks, export)
    run_experiment(config_from_dict(raw), tmp_path / "run")
    run_experiment(config_from_dict(raw), tmp_path / "fresh")
    assert _tree_digests(tmp_path / "run") == _tree_digests(tmp_path / "fresh")


def test_single_task_stream_has_no_transfer(tmp_path):
    cfg = config_from_dict(base_raw(n_tasks=1))
    result = run_experiment(cfg, tmp_path / "run")
    assert result.metrics["transfer"] is None
    assert result.matrix.shape == (1, 1)


def test_empty_stream_is_rejected(tmp_path):
    cfg = config_from_dict({})
    with pytest.raises(DataError, match="empty task stream"):
        run_experiment(cfg, tmp_path / "run")


def test_output_root_env_reroots_runs(tmp_path, monkeypatch):
    cfg = config_from_dict(base_raw())
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    assert resolve_output_dir(cfg) == tmp_path / "root" / "runs" / "test"
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


def pinned_raw(protocol: str, cil: bool, window: int) -> dict:
    """Three tasks with non-monotonic ids, a reuse task (duplicate pooled label
    rows) and a threshold that leaves some windows on the fallback."""
    return {
        "seed": 5,
        "output_dir": "runs/pinned",
        "model": {"feature_dim": 8, "depth": 3, "adapter_layers": [1, 2], "rank": 2},
        "schedule": {"identify_steps": 8, "finetune_steps": 4, "num_candidates": 2,
                     "batch_size": 8, "snapshot_interval": 4},
        "optimizer": {"learning_rate": 0.5, "penalty": 0.01},
        "contrastive": {"temperature": 0.2},
        "task_bank": {"match_threshold": 1.3, "enroll_batch": 16, "query_window": window},
        "evaluation": {"protocol": protocol, "cil": cil},
        "stream": [
            {"task_id": 2, "classes": 3, "samples_per_class": 8, "eval_per_class": 5,
             "seed": 2},
            {"task_id": 0, "classes": 3, "samples_per_class": 8, "eval_per_class": 5,
             "seed": 0},
            {"task_id": 1, "classes": 3, "samples_per_class": 8, "eval_per_class": 5,
             "seed": 1, "alignment": {"mode": "reuse", "source": 0, "perturbation": 0.3}},
        ],
    }


# sha256 of every run-directory file, recorded before stream evaluation became
# incremental; the evaluation rewrite must not move a byte.  The audit file is
# each eval task's distance matrix since; its dense records, re-serialised a
# line each, keep the digest of the full per-row file (DENSE_AUDIT_DIGEST, and
# DENSE_AUDIT_DIGEST_W1 at query window 1).  The checkpoint is
# version 3 since; the loaded file, re-serialised as version 2, keeps the
# digest of the version 2 file (V2_CHECKPOINT_DIGEST).
SHARED_DIGESTS = {
    CHECKPOINT_FILE: "a2384523874049ad655a3fe06f31119b5bf8eef1a7bc9f98d3ddc2481f088ffe",
    KL_FILE: "a08cfc5009c9f8187197f6139332359b6d9332a7cad6831921dd6b6c7a2679b6",
    TRACE_FILE: "b4570c6eba7cc334d9d3da5cd117268371e6a1134b29b219673cc162231b5252",
    PRUNE_FILE: "78c560c2f5285ca9b0b26a4078a1cb1e41b05de24848e5098da61ede3d6ef566",
}
PINNED_DIGESTS = {
    "id_free": {
        **SHARED_DIGESTS,
        MATRIX_FILE: "d08cbaf35968585767d6a3f64361c48e9e105de571d7c02334fdc0f4a947a5a1",
        CONFIG_FILE: "1cfb31def31fb50bb09e12a1da3b8321cbe9d57f0c3a6bbf76373675ca87f0de",
        AUDIT_FILE: "6b78ee7e837afa9bbff0cca5468e893136b923c13f1af887b4e6551732a3e79b",
        METRICS_FILE: "ffdb1433d423ab2d54854a3a93ec8737e1263dba28126b5c4452d985dd50c690",
        SUMMARY_FILE: "6a0e9401880bc03b3c50b2319fb74e7543e91c4392225adcf3036eead24b745b",
    },
    "id_given": {
        **SHARED_DIGESTS,
        MATRIX_FILE: "6f04daca2601d82141b75bb69295f740aa5edf7dcd577e5127ec8946c93d335d",
        CONFIG_FILE: "4767ad704106d312c0ad892235fa746208bfa32626fcf3ff8b27e70cb92a7801",
        METRICS_FILE: "3154225ba8af9e4d1be8360fe1a66df776f6675cb79b52a6e591fd766ba68e76",
        SUMMARY_FILE: "7ffb0c2623d51460da9a34d88236133f121a002d6952d6be8d399ffec125816e",
    },
}

DENSE_AUDIT_DIGEST = "4ab074f75aae1b101cde7ac8fcd6a040e9f270764bf688bbfdd750c3337e964a"
DENSE_AUDIT_DIGEST_W1 = "f325fee0ead6d1839b2b3bb73f582dc2c061f2f12f9259034f451f4dacac75ce"
V2_CHECKPOINT_DIGEST = "64365dafbdb3bc05bb94f1135052b277b401ae552c20e365e3ab4fd8e0716761"


@pytest.mark.parametrize("protocol,cil,window", [("id_free", True, 3), ("id_given", False, 1)])
def test_run_directory_is_pinned(tmp_path, protocol, cil, window):
    run_experiment(config_from_dict(pinned_raw(protocol, cil, window)), tmp_path / "run")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (tmp_path / "run").iterdir()}
    assert got == PINNED_DIGESTS[protocol], f"BLAS kernel {blas_kernel()}"
    model, bank, meta = load_checkpoint(tmp_path / "run" / CHECKPOINT_FILE)
    v2 = save_checkpoint_v2(tmp_path / "v2.json", model, bank, meta)
    assert hashlib.sha256(v2.read_bytes()).hexdigest() == V2_CHECKPOINT_DIGEST, \
        f"BLAS kernel {blas_kernel()}"
    if protocol == "id_free":
        dense = "".join(json.dumps(rec, sort_keys=True) + "\n"
                        for rec in read_audit(tmp_path / "run"))
        assert hashlib.sha256(dense.encode()).hexdigest() == DENSE_AUDIT_DIGEST, \
            f"BLAS kernel {blas_kernel()}"


def test_dense_audit_at_window_1_is_pinned(tmp_path):
    run_experiment(config_from_dict(pinned_raw("id_free", True, 1)), tmp_path / "run")
    dense = "".join(json.dumps(rec, sort_keys=True) + "\n"
                    for rec in read_audit(tmp_path / "run"))
    assert hashlib.sha256(dense.encode()).hexdigest() == DENSE_AUDIT_DIGEST_W1, \
        f"BLAS kernel {blas_kernel()}"


def dim64_raw() -> dict:
    """Dim 64, three orthogonal tasks of three candidates per layer and
    task-free evaluation in windows of 3.  Under the default chunk budget
    every pass (48 to 192 rows) stacks all its visible experts, nine at most,
    in one chunk; under `ONE_EXPERT_AT_48_ROWS` a chunk holds one expert, so
    every pass crosses a chunk boundary at each expert."""
    return {
        "seed": 7,
        "output_dir": "runs/pinned64",
        "model": {"feature_dim": 64, "depth": 3, "adapter_layers": [1, 2], "rank": 2},
        "schedule": {"identify_steps": 6, "finetune_steps": 3, "num_candidates": 3,
                     "batch_size": 48, "snapshot_interval": 3, "top_k": 64},
        "optimizer": {"learning_rate": 5.0, "penalty": 0.01},
        "contrastive": {"temperature": 0.4},
        "task_bank": {"match_threshold": 8.0, "enroll_batch": 32, "query_window": 3},
        "evaluation": {"protocol": "id_free", "cil": True},
        "stream": [{"task_id": i, "classes": 3, "samples_per_class": 16, "eval_per_class": 64,
                    "seed": i, "alignment": {"mode": "orthogonal"}} for i in range(3)],
    }


# sha256 of every run-directory file, recorded with the loop over experts,
# before the layer stacked its per-expert products
DIM64_DIGESTS = {
    AUDIT_FILE: "7187f4434012127c42968fb706f7b5e37c7c779ca5e526e949c8d78d6047ee0a",
    CHECKPOINT_FILE: "7a5d0064a606ecea362c92fae7ca6ae061a9d6b95445c797ea7fd997f55e9f15",
    CONFIG_FILE: "cd733d7628cce3bd9d6981601283f47464ab953afe97afd7278e2787a0a91e07",
    KL_FILE: "a3f1727e2558b1df28220a957bee79f79ef4ff1f71c3f67e023c1bb6e987aeb9",
    MATRIX_FILE: "1d3d778865988413b63197876302874d06699880fa1be87dececf67d8f8c520b",
    METRICS_FILE: "d17b9ae9319c703f213cba5dbfb31a8dee1cd161bb585b6997abbaf44cb6ba4b",
    PRUNE_FILE: "af2c50f95e0a128955b1ac84694c0b72158a704f62fc2d90c153fae3f0083703",
    SUMMARY_FILE: "b59f333bcf2b760e28f6d80959e085195aac0a4817ab347af6a34c35b1014988",
    TRACE_FILE: "0d919b84a63ef48f42a8b139cf11ed74f78bc3fc6ea642589f0e6723f3dfea58",
}


@pytest.mark.parametrize("budget", CHUNK_BUDGETS.values(), ids=CHUNK_BUDGETS.keys())
def test_dim64_run_directory_is_pinned(tmp_path, budget):
    with chunk_budget(budget):
        run_experiment(config_from_dict(dim64_raw()), tmp_path / "run")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (tmp_path / "run").iterdir()}
    assert got == DIM64_DIGESTS, f"BLAS kernel {blas_kernel()}"


def test_a_bad_audit_array_is_named_as_the_audit(tmp_path):
    run_dir = tmp_path / "run"
    run_experiment(config_from_dict(pinned_raw("id_free", True, 3)), run_dir)
    lines = [json.loads(line) for line in (run_dir / AUDIT_FILE).read_text().splitlines()]
    lines[0]["distance"]["f64"] = "AAA"
    (run_dir / AUDIT_FILE).write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    with pytest.raises(DataError, match="cannot read the audit") as info:
        read_audit(run_dir)
    assert "not base64" in str(info.value) and "checkpoint" not in str(info.value)
