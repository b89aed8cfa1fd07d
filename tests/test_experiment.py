"""End-to-end run driver: artifacts, determinism, and metric wiring."""

from __future__ import annotations

import json

import numpy as np
import pytest

from submoe.config import config_from_dict
from submoe.errors import DataError
from submoe.experiment import (
    AUDIT_FILE, CHECKPOINT_FILE, CONFIG_FILE, COUNTS_FILE, KL_FILE, MATRIX_FILE,
    METRICS_FILE, OUTPUT_ROOT_ENV, PRUNE_FILE, SUMMARY_FILE, TRACE_FILE,
    compute_metrics, resolve_output_dir, run_experiment,
)
from submoe.streams import load_task


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
             PRUNE_FILE, KL_FILE, COUNTS_FILE, CHECKPOINT_FILE)


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
    audits = [json.loads(line) for line in
              (tmp_path / "run" / AUDIT_FILE).read_text().splitlines()]
    for rec in audits:
        # a task is enrolled in the bank iff it has already been learned
        assert rec["enrolled"] == (rec["true_task"] <= rec["after_task"])


def test_id_given_protocol_has_no_audits(tmp_path):
    cfg = config_from_dict(base_raw(protocol="id_given", cil=False))
    result = run_experiment(cfg, tmp_path / "run")
    assert not (tmp_path / "run" / AUDIT_FILE).exists()
    assert result.summary["bank_queries"] == 0
    assert result.summary["bank_id_accuracy"] is None
    assert result.metrics["cil_last"] is None


def test_export_stream_round_trips(tmp_path):
    raw = base_raw()
    raw["export_stream"] = True
    result = run_experiment(config_from_dict(raw), tmp_path / "run")
    for i in range(2):
        data = load_task(tmp_path / "run" / "stream" / f"task_{i}.json")
        assert data.task_id == i and data.dim == 8
    assert result.out_dir == tmp_path / "run"


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
