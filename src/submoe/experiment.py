"""End-to-end run driver: learn a task stream, evaluate after every task,
and write all artifacts (matrix, metrics, traces, reports, curves) into the
run directory.  Given the same config and seed, every artifact is
byte-identical across runs.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .config import ExperimentConfig, config_to_dict
from .errors import DataError
from .evaluation import evaluate_row, pooled_accuracy
from .lifecycle import learn_task, kl_to_final, prune_records, trace_records
from .model import AdapterModel, build_model
from .streams import export_task, generate_stream
from .task_bank import TaskBank

OUTPUT_ROOT_ENV = "SUBMOE_OUTPUT_ROOT"

METRICS_FILE = "metrics.json"
MATRIX_FILE = "accuracy_matrix.csv"
SUMMARY_FILE = "summary.json"
CONFIG_FILE = "effective_config.json"
TRACE_FILE = "routing_traces.jsonl"
PRUNE_FILE = "truncation_reports.jsonl"
KL_FILE = "kl_curves.csv"
COUNTS_FILE = "expert_counts.csv"
AUDIT_FILE = "ifer_audit.jsonl"
CHECKPOINT_FILE = "checkpoint.json"


def resolve_output_dir(cfg: ExperimentConfig) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        return Path(root) / cfg.output_dir
    return Path(cfg.output_dir)


@dataclass
class RunResult:
    out_dir: Path
    matrix: np.ndarray
    metrics: dict
    summary: dict
    model: AdapterModel
    bank: TaskBank
    reports: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _write_matrix_csv(path: Path, matrix: np.ndarray) -> None:
    n = matrix.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["after_task"] + [f"task_{j}" for j in range(n)])
        for i in range(n):
            writer.writerow([i] + [repr(float(v)) for v in matrix[i]])


def compute_metrics(matrix: np.ndarray, cil_trace: list[float]) -> dict:
    from .evaluation import average_score, cil_scores, last_score, transfer_score
    n = matrix.shape[0]
    metrics = {
        "transfer": transfer_score(matrix) if n >= 2 else None,
        "avg": average_score(matrix),
        "last": last_score(matrix),
        "cil_last": None,
        "cil_avg": None,
    }
    if cil_trace:
        metrics["cil_last"], metrics["cil_avg"] = cil_scores(cil_trace)
    return metrics


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> RunResult:
    if not cfg.stream:
        raise DataError("config has an empty task stream")
    out = Path(out_dir) if out_dir is not None else resolve_output_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    (out / CONFIG_FILE).write_text(
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")

    tasks = generate_stream(cfg.stream, cfg.model.feature_dim, cfg.model.prototype_scale)
    if cfg.export_stream:
        for data in tasks:
            export_task(data, out / "stream")

    model = build_model(
        dim=cfg.model.feature_dim, depth=cfg.model.depth,
        adapter_layers=list(cfg.model.adapter_layers), rank=cfg.model.rank,
        top_k=cfg.schedule.top_k, temperature=cfg.contrastive.temperature,
        seed=cfg.seed,
    )
    bank = TaskBank(threshold=cfg.task_bank.match_threshold, metric=cfg.task_bank.metric)

    n = len(tasks)
    matrix = np.full((n, n), np.nan)
    cil_trace: list[float] = []
    all_trace_records: list[dict] = []
    all_prune_records: list[dict] = []
    all_audits: list[dict] = []
    kl_rows: list[tuple] = []
    count_rows: list[dict] = []
    per_task_summary: list[dict] = []
    reports, traces = [], []
    learned: set[int] = set()

    for i, data in enumerate(tasks):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 17, data.task_id]))
        report, trace = learn_task(model, data.task_id, data, cfg.schedule, cfg.optimizer, rng)
        learned.add(data.task_id)
        reports.append(report)
        traces.append(trace)
        all_trace_records.extend(trace_records(trace))
        all_prune_records.extend(prune_records(report))
        for step, kl in kl_to_final(trace):
            loss = next(s.loss for s in trace.snapshots if s.step == step)
            kl_rows.append((data.task_id, step, kl, loss))

        take = min(cfg.task_bank.enroll_batch, data.train_x.shape[0])
        bank.enroll(data.task_id, model.embed(data.train_x[:take], None), data.text_emb)

        counts = model.expert_counts()
        count_rows.append({"after_task": data.task_id, **{
            f"layer_{k}": v for k, v in counts.items()}, "total": sum(counts.values())})
        per_task_summary.append({
            "task_id": data.task_id,
            "stage1_trainable_params": report.stage1_trainable_params,
            "candidates_added": cfg.schedule.num_candidates * len(model.adapters),
            "candidates_pruned": report.removed_total,
            "final_eval_loss": trace.snapshots[-1].loss,
        })

        row, audits = evaluate_row(
            model, bank, tasks, learned, cfg.evaluation.protocol,
            cfg.task_bank.query_window,
        )
        matrix[i, :] = row
        for rec in audits:
            all_audits.append({
                "after_task": data.task_id,
                "enrolled": rec.true_task in learned,
                **rec.to_payload(),
            })
        if cfg.evaluation.cil:
            cil_trace.append(pooled_accuracy(
                model, bank, tasks[:i + 1], cfg.task_bank.query_window))

    metrics = compute_metrics(matrix, cil_trace)

    id_known = [a for a in all_audits if a["enrolled"]]
    summary = {
        "tasks": per_task_summary,
        "expert_counts": count_rows,
        "final_expert_total": count_rows[-1]["total"] if count_rows else 0,
        "cil_trace": cil_trace,
        "bank_queries": len(all_audits),
        "bank_id_accuracy": (
            sum(1 for a in id_known if a["routed_task"] == a["true_task"]) / len(id_known)
            if id_known else None),
    }

    (out / METRICS_FILE).write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    _write_matrix_csv(out / MATRIX_FILE, matrix)
    (out / SUMMARY_FILE).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_jsonl(out / TRACE_FILE, all_trace_records)
    _write_jsonl(out / PRUNE_FILE, all_prune_records)
    if all_audits:
        _write_jsonl(out / AUDIT_FILE, all_audits)
    with open(out / KL_FILE, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "step", "mean_kl", "eval_loss"])
        for row in kl_rows:
            writer.writerow([row[0], row[1], repr(row[2]), repr(row[3])])
    with open(out / COUNTS_FILE, "w", newline="") as fh:
        keys = list(count_rows[0].keys())
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(count_rows)
    save_checkpoint(out / CHECKPOINT_FILE, model, bank)

    return RunResult(out_dir=out, matrix=matrix, metrics=metrics, summary=summary,
                     model=model, bank=bank, reports=reports, traces=traces)
