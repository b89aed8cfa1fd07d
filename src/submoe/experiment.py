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

from .checkpoint import Deferred, read_container, save_checkpoint, write_container
from .config import ExperimentConfig, config_to_dict
from .errors import ConfigError, DataError
from .evaluation import (
    EvalState, average_score, cil_scores, evaluate_row, last_score, pooled_accuracy,
    transfer_score,
)
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
AUDIT_FILE = "ifer_audit.bin"
CHECKPOINT_FILE = "checkpoint.bin"
STREAM_DIR = "stream"
# the keys of `metrics.json`, which `compute_metrics` fills and `cli` prints in this order
METRIC_KEYS = ("transfer", "avg", "last", "cil_last", "cil_avg")
AUDIT_FORMAT = "submoe-audit"
AUDIT_VERSION = 1
# the audit and the checkpoint as JSON text, before they became containers;
# `tools/upgrade.py` converts them
JSONL_AUDIT_FILE = "ifer_audit.jsonl"
JSON_CHECKPOINT_FILE = "checkpoint.json"


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
    stream order, then window order, replayed from `ifer_audit.bin`.  The
    file is a container (`checkpoint.write_container`) whose header lists
    one `{"true_task", "distance"}` record per eval task, in stream order:
    the task's window distances to every final bank signature, ids
    ascending, as a [windows, tasks] array.  A signature never changes
    after enrolment, so column k is what the bank measured when task k was
    enrolled: at row i a window's nearest task over the columns of the first
    i + 1 stream tasks follows the bank's rule, `task_bank.nearest`.  The row
    order, threshold and window come from `effective_config.json`.  The run
    must have finished: its `summary.json` (written after the audit) must
    exist and count the records as `bank_queries`.  A missing, malformed or
    unfinished audit raises `DataError`: a fault of the container itself
    (`checkpoint.read_container`, which names the file) as it is, every
    other fault worded with `run_dir`.  A directory that holds the audit as
    `ifer_audit.jsonl`, the form before the container, is refused with the
    command that converts it."""
    run_dir = Path(run_dir)
    if not (run_dir / AUDIT_FILE).exists() and (run_dir / JSONL_AUDIT_FILE).exists():
        raise DataError(f"{run_dir / JSONL_AUDIT_FILE}: the audit from before the container; "
                        f"convert it with: python3 tools/upgrade.py {run_dir}")
    doc = read_container(run_dir / AUDIT_FILE)
    try:
        cfg = json.loads((run_dir / CONFIG_FILE).read_text())
        stream = [task["task_id"] for task in cfg["stream"]]
        threshold = cfg["task_bank"]["match_threshold"]
        window = cfg["task_bank"]["query_window"]
        ids = np.array(sorted(stream), dtype=np.int64)
        if doc.get("format") != AUDIT_FORMAT or doc.get("version") != AUDIT_VERSION:
            raise ValueError(f"not an audit of format {AUDIT_FORMAT!r}, version {AUDIT_VERSION}")
        tasks = doc["tasks"]
        if len(tasks) != len(stream):
            raise ValueError(f"{len(tasks)} task records for {len(stream)} stream tasks")
        dists = []
        for n, (task, rec) in enumerate(zip(stream, tasks), 1):
            if (not isinstance(rec, dict) or rec.keys() != {"true_task", "distance"}
                    or rec["true_task"] != task):
                raise ValueError(f"record {n} is not the {{true_task, distance}} "
                                 f"record of task {task}")
            dist = rec["distance"]
            if not isinstance(dist, np.ndarray) or dist.ndim != 2 or dist.shape[1] != len(ids):
                raise ValueError(f"task {task}: distance shape {np.shape(dist)}, "
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
    """Each metric of `METRIC_KEYS`: the CIL pair is None without a CIL
    trace, and the transfer score None for a single task."""
    transfer = transfer_score(matrix) if matrix.shape[0] >= 2 else None
    cil = cil_scores(cil_trace) if cil_trace else (None, None)
    return dict(zip(METRIC_KEYS, (transfer, average_score(matrix), last_score(matrix), *cil)))


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
    """The record of `summary.json`.  A task's candidate counts come from
    its `PruneReport`: every candidate phase 1 trained, and those pruned."""
    return {
        "tasks": [{
            "task_id": report.task,
            "stage1_trainable_params": report.stage1_trainable_params,
            "candidates_added": sum(len(rec.candidate_ids) for rec in report.layers),
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
    final bank signature (see `read_audit`), each measured as it is written.
    The first row evaluates every task, so `run.state.windows` holds them in
    stream order."""
    if run.cfg.evaluation.protocol == "id_free":
        enrolled = len(run.bank.entries)
        write_container(path, {"format": AUDIT_FORMAT, "version": AUDIT_VERSION, "tasks": [
            {"true_task": task, "distance": Deferred(
                (w.img_means.shape[0], enrolled), lambda w=w: run.bank.distances(w.queries())[1])}
            for task, w in run.state.windows.items()]})


# Every artifact but the config (written first), in write order; a run removes
# each when it starts.  The summary marks a finished run to `read_audit`, so
# the audit precedes it.  `save_checkpoint` is looked up at call time.
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


def _prepare_dir(out: Path, cfg: ExperimentConfig, tasks: list[TaskData]) -> None:
    """Make the run directory, remove every file a run writes there (and
    those of the formats before the containers), then write the config and
    export the stream: a rerun leaves no file of an earlier run, and one
    that fails leaves only its config.  A `stream` that is not a directory
    is refused, and left as it is, before anything is written."""
    out.mkdir(parents=True, exist_ok=True)
    stream = out / STREAM_DIR
    if stream.is_symlink() or (stream.exists() and not stream.is_dir()):
        raise DataError(f"run directory {out}: {stream} is not a directory; "
                        f"remove it or choose another output_dir")
    for name in [name for name, _ in ARTIFACT_WRITERS] + [JSONL_AUDIT_FILE, JSON_CHECKPOINT_FILE]:
        (out / name).unlink(missing_ok=True)
    if stream.exists():
        shutil.rmtree(stream)
    _write_json(out / CONFIG_FILE, config_to_dict(cfg))
    if cfg.export_stream:
        for data in tasks:
            export_task(data, stream)


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> RunResult:
    """Learn and evaluate `cfg`'s stream and write every artifact to `out_dir`
    (default: `resolve_output_dir(cfg)`).  A configuration that the stream,
    the model or the bank refuses raises before the directory is touched.
    A file of the run directory that cannot be written or removed raises
    `DataError` naming it."""
    out = Path(out_dir) if out_dir is not None else resolve_output_dir(cfg)
    return _run_prepared(cfg, prepare_run(cfg), out)


def _run_prepared(cfg: ExperimentConfig,
                  prepared: tuple[list[TaskData], AdapterModel, TaskBank],
                  out: Path) -> RunResult:
    """`run_experiment` of `cfg` into `out`, on `prepared`, what
    `prepare_run(cfg)` returned; the run learns into its model and bank."""
    tasks, model, bank = prepared
    try:
        _prepare_dir(out, cfg, tasks)
    except OSError as exc:
        raise DataError(f"run directory {out}: cannot prepare {exc.filename or out} "
                        f"({exc.strerror or exc})") from exc

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
        try:
            write(out / name, run)
        except OSError as exc:
            raise DataError(f"run directory {out}: cannot write {out / name} "
                            f"({exc.strerror or exc})") from exc

    return RunResult(out_dir=out, matrix=run.matrix, metrics=run.metrics,
                     summary=run.summary, model=model, bank=bank)
