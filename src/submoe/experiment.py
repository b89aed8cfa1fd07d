"""End-to-end run driver: learn a task stream, evaluate after every task,
and write all artifacts (matrix, metrics, traces, reports, curves) into the
run directory.  Given the same config and seed, every artifact is
byte-identical across runs.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import decode_array, encode_array, save_checkpoint
from .config import ExperimentConfig, config_to_dict
from .errors import ConfigError, DataError
from .evaluation import EvalState, evaluate_row, pooled_accuracy
from .lifecycle import learn_task, kl_to_final, prune_records, trace_records
from .model import AdapterModel, build_model
from .streams import TaskData, export_task, generate_stream
from .task_bank import TaskBank, nearest

OUTPUT_ROOT_ENV = "SUBMOE_OUTPUT_ROOT"

METRICS_FILE = "metrics.json"
MATRIX_FILE = "accuracy_matrix.csv"
SUMMARY_FILE = "summary.json"
CONFIG_FILE = "effective_config.json"
TRACE_FILE = "routing_traces.jsonl"
PRUNE_FILE = "truncation_reports.jsonl"
KL_FILE = "kl_curves.csv"
AUDIT_FILE = "ifer_audit.jsonl"
CHECKPOINT_FILE = "checkpoint.json"
STREAM_DIR = "stream"


def resolve_output_dir(cfg: ExperimentConfig) -> Path:
    """`cfg.output_dir`, under `SUBMOE_OUTPUT_ROOT` when that is set.  The
    root contains every run directory, so it refuses an absolute path and
    one with a `..` part."""
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if not root:
        return Path(cfg.output_dir)
    rel = Path(cfg.output_dir)
    if rel.is_absolute() or ".." in rel.parts:
        raise ConfigError(f"output_dir: {cfg.output_dir!r} would leave {OUTPUT_ROOT_ENV} "
                          f"({root}); give a relative path without '..'")
    return Path(root) / rel


@dataclass
class RunResult:
    out_dir: Path
    matrix: np.ndarray
    metrics: dict
    summary: dict
    model: AdapterModel
    bank: TaskBank


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_jsonl(path: Path, records: Iterable[dict]) -> None:
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


def read_audit(run_dir: str | Path) -> list[dict]:
    """Every window's audit record in every matrix row, in row order, then
    stream order, then window order, replayed from `ifer_audit.jsonl`.  The
    file holds one line per eval task, in stream order: the task's window
    distances to every final bank signature, ids ascending, as a
    [windows, tasks] matrix.  A signature never changes after enrolment, so
    column k is what the bank measured when task k was enrolled: at row i a
    window's nearest task over the columns of the first i + 1 stream tasks
    follows the bank's rule, `task_bank.nearest`.  The row order,
    threshold and window come from `effective_config.json`.  The run must
    have finished: its `summary.json` (written after the audit) must exist
    and count the records as `bank_queries`.  A missing, malformed or
    unfinished audit raises `DataError`."""
    run_dir = Path(run_dir)
    try:
        cfg = json.loads((run_dir / CONFIG_FILE).read_text())
        stream = [task["task_id"] for task in cfg["stream"]]
        threshold = cfg["task_bank"]["match_threshold"]
        window = cfg["task_bank"]["query_window"]
        ids = np.array(sorted(stream), dtype=np.int64)
        lines = (run_dir / AUDIT_FILE).read_text().splitlines()
        if len(lines) != len(stream):
            raise ValueError(f"{len(lines)} task lines for {len(stream)} stream tasks")
        dists = []
        for n, (task, line) in enumerate(zip(stream, lines), 1):
            rec = json.loads(line)
            if (not isinstance(rec, dict) or rec.keys() != {"true_task", "distance"}
                    or rec["true_task"] != task):
                raise ValueError(f"line {n} is not the {{true_task, distance}} "
                                 f"line of task {task}")
            dist = decode_array(rec["distance"])
            if dist.ndim != 2 or dist.shape[1] != len(ids):
                raise ValueError(f"task {task}: distance shape {dist.shape}, "
                                 f"want [windows, {len(ids)}]")
            dists.append(dist)
        records = []
        for i, after in enumerate(stream):
            learned = stream[:i + 1]
            cols = np.isin(ids, learned)
            for task, dist in zip(stream, dists):
                near, distance, hit = nearest(ids[cols], dist[:, cols], threshold)
                head = {"after_task": after, "enrolled": task in learned}
                records.extend({
                    **head, "distance": dist_w, "matched": hit_w,
                    "routed_task": near_w if hit_w else None,
                    "true_task": task, "window_start": w * window,
                } for w, (dist_w, hit_w, near_w) in enumerate(zip(
                    distance.tolist(), hit.tolist(), near.tolist())))
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
    """What a run accumulates for its artifacts; the writers derive every
    record from it."""

    cfg: ExperimentConfig
    model: AdapterModel
    bank: TaskBank
    matrix: np.ndarray
    state: EvalState  # keeps routed embeddings only for the CIL pass
    cil_trace: list[float] = field(default_factory=list)
    count_rows: list[dict] = field(default_factory=list)
    reports: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    bank_queries: int = 0
    bank_known: int = 0  # windows of enrolled tasks
    bank_hits: int = 0   # ... routed to their own task
    metrics: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


def _learn(run: _Run, data) -> None:
    """Learn one task, enroll it in the bank and log its records."""
    cfg, model = run.cfg, run.model
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 17, data.task_id]))
    report, trace = learn_task(model, data.task_id, data, cfg.schedule, cfg.optimizer, rng)
    run.reports.append(report)
    run.traces.append(trace)

    take = min(cfg.task_bank.enroll_batch, data.train_x.shape[0])
    run.bank.enroll(data.task_id, model.embed(data.train_x[:take], None), data.text_emb)

    counts = model.expert_counts()
    run.count_rows.append({"after_task": data.task_id, **{
        f"layer_{k}": v for k, v in counts.items()}, "total": sum(counts.values())})


def _evaluate(run: _Run, tasks: list, i: int, learned: set[int]) -> None:
    """Matrix row `i` (and the CIL pass); the row's bank decisions go to the
    summary counts."""
    cfg = run.cfg
    window = cfg.task_bank.query_window
    row, decisions = evaluate_row(
        run.model, run.bank, tasks, learned, cfg.evaluation.protocol, window,
        state=run.state)
    run.matrix[i, :] = row
    for d in decisions:
        run.bank_queries += len(d.distance)
        if d.task_id in learned:
            run.bank_known += len(d.distance)
            run.bank_hits += int((d.matched & (d.nearest == d.task_id)).sum())
    if cfg.evaluation.cil:
        run.cil_trace.append(pooled_accuracy(
            run.model, run.bank, tasks[:i + 1], window, state=run.state))


def _summary(run: _Run) -> dict:
    added = run.cfg.schedule.num_candidates * len(run.model.adapters)
    return {
        "tasks": [{
            "task_id": report.task,
            "stage1_trainable_params": report.stage1_trainable_params,
            "candidates_added": added,
            "candidates_pruned": report.removed_total,
            "final_eval_loss": trace.snapshots[-1].loss,
        } for report, trace in zip(run.reports, run.traces)],
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
        for trace in run.traces:
            for snap, (step, kl) in zip(trace.snapshots, kl_to_final(trace)):
                writer.writerow([trace.task, step, repr(kl), repr(snap.loss)])


def _write_audit(path: Path, run: _Run) -> None:
    """Under task-free evaluation, each eval task's window distances to every
    final bank signature (see `read_audit`).  The first row evaluates every
    task, so `run.state.windows` holds them in stream order."""
    if run.cfg.evaluation.protocol == "id_free":
        _write_jsonl(path, (
            {"true_task": task, "distance": encode_array(run.bank.distances(w.queries())[1])}
            for task, w in run.state.windows.items()))


# Every artifact but the config (written first), in write order; the summary
# marks a finished run to `read_audit`, so the audit precedes it.
# `save_checkpoint` is looked up at call time.
ARTIFACT_WRITERS = (
    (METRICS_FILE, lambda path, run: _write_json(path, run.metrics)),
    (MATRIX_FILE, lambda path, run: _write_matrix_csv(path, run.matrix)),
    (AUDIT_FILE, _write_audit),
    (SUMMARY_FILE, lambda path, run: _write_json(path, run.summary)),
    (TRACE_FILE, lambda path, run: _write_jsonl(
        path, [rec for trace in run.traces for rec in trace_records(trace)])),
    (PRUNE_FILE, lambda path, run: _write_jsonl(
        path, [rec for report in run.reports for rec in prune_records(report)])),
    (KL_FILE, _write_kl_csv),
    (CHECKPOINT_FILE, lambda path, run: save_checkpoint(path, run.model, run.bank)),
)


def prepare_run(cfg: ExperimentConfig) -> tuple[list[TaskData], AdapterModel, TaskBank]:
    """The stream, the model and the bank of a run of `cfg`.  Every check of
    the configuration that the parser leaves to them fails here, before a
    run writes anything."""
    tasks = generate_stream(cfg.stream, cfg.model.feature_dim, cfg.model.prototype_scale)
    model = build_model(
        dim=cfg.model.feature_dim, depth=cfg.model.depth,
        adapter_layers=list(cfg.model.adapter_layers), rank=cfg.model.rank,
        top_k=cfg.schedule.top_k, temperature=cfg.contrastive.temperature,
        seed=cfg.seed,
    )
    return tasks, model, TaskBank(threshold=cfg.task_bank.match_threshold,
                                  metric=cfg.task_bank.metric)


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> RunResult:
    """Learn and evaluate `cfg`'s stream and write every artifact to `out_dir`
    (default: `resolve_output_dir(cfg)`).  A configuration that the stream,
    the model or the bank refuses raises before the directory is touched."""
    out = Path(out_dir) if out_dir is not None else resolve_output_dir(cfg)
    tasks, model, bank = prepare_run(cfg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"run directory {out}: cannot create it ({exc.strerror})") from exc
    _write_json(out / CONFIG_FILE, config_to_dict(cfg))
    # an earlier run's audit and exported stream must not outlive this run,
    # nor its summary (the mark of a finished run to `read_audit`) vouch for
    # this run's audit
    (out / AUDIT_FILE).unlink(missing_ok=True)
    (out / SUMMARY_FILE).unlink(missing_ok=True)
    if (out / STREAM_DIR).exists():
        shutil.rmtree(out / STREAM_DIR)

    if cfg.export_stream:
        for data in tasks:
            export_task(data, out / STREAM_DIR)

    run = _Run(cfg=cfg, model=model, bank=bank,
               matrix=np.full((len(tasks), len(tasks)), np.nan),
               state=EvalState(keep_emb=cfg.evaluation.cil))
    learned: set[int] = set()
    for i, data in enumerate(tasks):
        _learn(run, data)
        learned.add(data.task_id)
        _evaluate(run, tasks, i, learned)

    run.metrics = compute_metrics(run.matrix, run.cil_trace)
    run.summary = _summary(run)
    for name, write in ARTIFACT_WRITERS:
        write(out / name, run)

    return RunResult(out_dir=out, matrix=run.matrix, metrics=run.metrics,
                     summary=run.summary, model=model, bank=bank)
