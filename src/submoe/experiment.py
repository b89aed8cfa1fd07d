"""End-to-end run driver: learn a task stream, evaluate after every task,
and write all artifacts (matrix, metrics, traces, reports, curves) into the
run directory.  Given the same config and seed, every artifact is
byte-identical across runs.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

import numpy as np

from .checkpoint import save_checkpoint
from .config import ExperimentConfig, config_to_dict
from .errors import DataError
from .evaluation import EvalState, WindowDecisions, evaluate_row, pooled_accuracy
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


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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


def audit_lines(after_task: int, enrolled: bool, d: WindowDecisions,
                mask: np.ndarray | None = None) -> str:
    """One task's `ifer_audit.jsonl` lines for one matrix row, each equal to
    `json.dumps(record, sort_keys=True)` of the window's record, built from
    the decision arrays without a dict per window.  `mask` selects the
    windows written (default: all)."""
    sel = slice(None) if mask is None else mask
    # json.dumps of the list writes each float as json.dumps of that float
    distances = json.dumps(d.distance[sel].tolist())[1:-1].split(", ")
    head = f'{{"after_task": {after_task}, "distance": '
    flag = "true" if enrolled else "false"
    hit = f', "enrolled": {flag}, "matched": true, "routed_task": '
    miss = f', "enrolled": {flag}, "matched": false, "routed_task": null'
    tail = f', "true_task": {d.task_id}, "window_start": '
    starts = (np.arange(len(d.distance))[sel] * d.window).tolist()
    return "".join(
        f"{head}{dist}{hit}{task}{tail}{start}}}\n" if matched
        else f"{head}{dist}{miss}{tail}{start}}}\n"
        for dist, matched, task, start in zip(
            distances, d.matched[sel].tolist(), d.nearest[sel].tolist(), starts)
    )


def audit_changes(audited: dict[int, tuple[bool, WindowDecisions]], after_task: int,
                  enrolled: bool, d: WindowDecisions) -> str:
    """`audit_lines` of the windows whose record differs from the one last
    written for `d`'s task: every window at the task's first row or when
    `enrolled` flips, else those whose distance (bitwise, as `json.dumps`
    tells floats apart), matched flag or routed task changed.  `audited`
    maps each task to its last (enrolled, decisions) and is updated."""
    last = audited.get(d.task_id)
    audited[d.task_id] = (enrolled, d)
    if last is None or last[0] != enrolled:
        return audit_lines(after_task, enrolled, d)
    prev = last[1]
    changed = ((d.distance.view(np.uint64) != prev.distance.view(np.uint64))
               | (d.matched != prev.matched)
               | (d.matched & (d.nearest != prev.nearest)))
    return audit_lines(after_task, enrolled, d, changed) if changed.any() else ""


def read_audit(run_dir: str | Path) -> list[dict]:
    """Every window's audit record in every matrix row, in row order, then
    stream order, then window order.  `ifer_audit.jsonl` holds a window's
    line only at its first row and where its record changes; this rebuilds
    the rows in between from the run directory alone (the row order is
    `effective_config.json`'s stream).  A row without lines cannot be told
    from a row never evaluated, so the run must have finished: its
    `summary.json` (written after the last row) must exist and count the
    rebuilt records as `bank_queries`.  A missing, malformed or unfinished
    audit raises `DataError`."""
    run_dir = Path(run_dir)
    try:
        rows = [task["task_id"] for task in
                json.loads((run_dir / CONFIG_FILE).read_text())["stream"]]
        written: dict[int, list[dict]] = {after: [] for after in rows}
        with open(run_dir / AUDIT_FILE) as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["after_task"] not in written:
                    raise ValueError(f"after_task {rec['after_task']!r} is not in the stream")
                written[rec["after_task"]].append(rec)
        current: dict[tuple[int, int], dict] = {}
        records = []
        for after in rows:
            for rec in written[after]:
                current[rec["true_task"], rec["window_start"]] = rec
            records.extend({**rec, "after_task": after} for rec in current.values())
        if not (run_dir / SUMMARY_FILE).is_file():
            raise ValueError(f"no {SUMMARY_FILE}: the run did not finish")
        queries = json.loads((run_dir / SUMMARY_FILE).read_text())["bank_queries"]
        if queries != len(records):
            raise ValueError(f"{len(records)} records rebuilt, {queries} bank queries made")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{run_dir}: cannot read the audit: {exc!r}") from None
    return records


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


@dataclass
class _Run:
    """What a run accumulates for its artifacts."""

    model: AdapterModel
    bank: TaskBank
    matrix: np.ndarray
    cil_trace: list[float] = field(default_factory=list)
    trace_records: list[dict] = field(default_factory=list)
    prune_records: list[dict] = field(default_factory=list)
    kl_rows: list[tuple] = field(default_factory=list)
    count_rows: list[dict] = field(default_factory=list)
    per_task: list[dict] = field(default_factory=list)
    reports: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    bank_queries: int = 0
    bank_known: int = 0  # windows of enrolled tasks
    bank_hits: int = 0   # ... routed to their own task
    audited: dict[int, tuple[bool, WindowDecisions]] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


def _learn(run: _Run, cfg: ExperimentConfig, data) -> None:
    """Learn one task, enroll it in the bank and log its records."""
    model = run.model
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 17, data.task_id]))
    report, trace = learn_task(model, data.task_id, data, cfg.schedule, cfg.optimizer, rng)
    run.reports.append(report)
    run.traces.append(trace)
    run.trace_records.extend(trace_records(trace))
    run.prune_records.extend(prune_records(report))
    for step, kl in kl_to_final(trace):
        loss = next(s.loss for s in trace.snapshots if s.step == step)
        run.kl_rows.append((data.task_id, step, kl, loss))

    take = min(cfg.task_bank.enroll_batch, data.train_x.shape[0])
    run.bank.enroll(data.task_id, model.embed(data.train_x[:take], None), data.text_emb)

    counts = model.expert_counts()
    run.count_rows.append({"after_task": data.task_id, **{
        f"layer_{k}": v for k, v in counts.items()}, "total": sum(counts.values())})
    run.per_task.append({
        "task_id": data.task_id,
        "stage1_trainable_params": report.stage1_trainable_params,
        "candidates_added": cfg.schedule.num_candidates * len(model.adapters),
        "candidates_pruned": report.removed_total,
        "final_eval_loss": trace.snapshots[-1].loss,
    })


def _evaluate(run: _Run, cfg: ExperimentConfig, tasks: list, i: int, learned: set[int],
              state: EvalState, audit: TextIO | None) -> None:
    """Matrix row `i` (and the CIL pass); the row's bank decisions go to the
    summary counts, and those that changed since the last row to the audit
    file."""
    window = cfg.task_bank.query_window
    row, decisions = evaluate_row(
        run.model, run.bank, tasks, learned, cfg.evaluation.protocol, window, state=state)
    run.matrix[i, :] = row
    after = tasks[i].task_id
    for d in decisions:
        enrolled = d.task_id in learned
        run.bank_queries += len(d.distance)
        if enrolled:
            run.bank_known += len(d.distance)
            run.bank_hits += int((d.matched & (d.nearest == d.task_id)).sum())
        audit.write(audit_changes(run.audited, after, enrolled, d))
    if cfg.evaluation.cil:
        run.cil_trace.append(pooled_accuracy(
            run.model, run.bank, tasks[:i + 1], window, state=state))


def _summary(run: _Run) -> dict:
    return {
        "tasks": run.per_task,
        "expert_counts": run.count_rows,
        "final_expert_total": run.count_rows[-1]["total"] if run.count_rows else 0,
        "cil_trace": run.cil_trace,
        "bank_queries": run.bank_queries,
        "bank_id_accuracy": run.bank_hits / run.bank_known if run.bank_known else None,
    }


def _write_kl_csv(path: Path, run: _Run) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "step", "mean_kl", "eval_loss"])
        for row in run.kl_rows:
            writer.writerow([row[0], row[1], repr(row[2]), repr(row[3])])


def _write_counts_csv(path: Path, run: _Run) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(run.count_rows[0].keys()))
        writer.writeheader()
        writer.writerows(run.count_rows)


# Every artifact but the config (written first) and the audit (written a row
# at a time), in write order; `save_checkpoint` is looked up at call time.
ARTIFACT_WRITERS = (
    (METRICS_FILE, lambda path, run: _write_json(path, run.metrics)),
    (MATRIX_FILE, lambda path, run: _write_matrix_csv(path, run.matrix)),
    (SUMMARY_FILE, lambda path, run: _write_json(path, run.summary)),
    (TRACE_FILE, lambda path, run: _write_jsonl(path, run.trace_records)),
    (PRUNE_FILE, lambda path, run: _write_jsonl(path, run.prune_records)),
    (KL_FILE, _write_kl_csv),
    (COUNTS_FILE, _write_counts_csv),
    (CHECKPOINT_FILE, lambda path, run: save_checkpoint(path, run.model, run.bank)),
)


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> RunResult:
    if not cfg.stream:
        raise DataError("config has an empty task stream")
    out = Path(out_dir) if out_dir is not None else resolve_output_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / CONFIG_FILE, config_to_dict(cfg))
    # a summary marks a finished run to `read_audit`; one left by an earlier
    # run must not vouch for this run's audit
    (out / SUMMARY_FILE).unlink(missing_ok=True)

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
    run = _Run(model=model, bank=bank, matrix=np.full((len(tasks), len(tasks)), np.nan))
    state = EvalState()
    learned: set[int] = set()
    # only task-free evaluation audits the bank's decisions
    with (open(out / AUDIT_FILE, "w") if cfg.evaluation.protocol == "id_free"
          else contextlib.nullcontext()) as audit:
        for i, data in enumerate(tasks):
            _learn(run, cfg, data)
            learned.add(data.task_id)
            _evaluate(run, cfg, tasks, i, learned, state, audit)

    run.metrics = compute_metrics(run.matrix, run.cil_trace)
    run.summary = _summary(run)
    for name, write in ARTIFACT_WRITERS:
        write(out / name, run)

    return RunResult(out_dir=out, matrix=run.matrix, metrics=run.metrics,
                     summary=run.summary, model=model, bank=bank,
                     reports=run.reports, traces=run.traces)
