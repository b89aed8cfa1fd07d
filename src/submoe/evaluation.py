"""Accuracy-matrix metrics and stream evaluation protocols.

The accuracy matrix a[i][j] holds task j's accuracy after learning task i
(0-based).  Entries above the diagonal evaluate tasks not yet learned and
always go through the fallback (bare backbone) or, under the task-free
protocol, through the bank, which cannot match an unenrolled task.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .model import AdapterModel
from .numerics import rowwise_matmul
from .streams import TaskData
from .task_bank import TaskBank, window_queries


def _check_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"accuracy matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericError("accuracy matrix has non-finite (unpopulated?) entries")
    if m.min() < 0.0 or m.max() > 1.0:
        raise NumericError("accuracies must lie in [0, 1]")
    return m


def transfer_score(matrix) -> float:
    """Mean, over tasks j >= 1, of the mean accuracy on task j before it was
    learned (rows i < j)."""
    m = _check_matrix(matrix)
    n = m.shape[0]
    if n < 2:
        raise DomainError("transfer needs at least two tasks")
    cols = []
    for j in range(1, n):
        cols.append(m[:j, j].sum() / j)
    return float(sum(cols) / (n - 1))


def last_score(matrix) -> float:
    """Mean accuracy over all tasks after the final task."""
    m = _check_matrix(matrix)
    return float(m[-1, :].mean())


def average_score(matrix) -> float:
    """Grand mean over the full matrix."""
    m = _check_matrix(matrix)
    return float(m.mean())


def cil_scores(trace) -> tuple[float, float]:
    """(last, average) of a class-incremental accuracy sequence A_1..A_n."""
    a = np.asarray(trace, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise DomainError("CIL trace must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(a)) or a.min() < 0.0 or a.max() > 1.0:
        raise NumericError("CIL accuracies must be finite and lie in [0, 1]")
    return float(a[-1]), float(a.mean())


@dataclass
class AuditRecord:
    true_task: int
    window_start: int
    matched: bool
    routed_task: int | None
    distance: float

    def to_payload(self) -> dict:
        return {
            "true_task": self.true_task,
            "window_start": self.window_start,
            "matched": self.matched,
            "routed_task": self.routed_task,
            "distance": self.distance,
        }


def task_accuracy(model: AdapterModel, data: TaskData, route_task: int | None) -> float:
    """Accuracy of cosine-similarity classification on the eval split, routed
    through `route_task`'s adapters (None = bare backbone)."""
    pred = model.predict(data.eval_x, data.text_emb, route_task)
    return float((pred == data.eval_y).mean())


def bank_routed_predictions(model: AdapterModel, bank: TaskBank, data: TaskData,
                            window: int = 1,
                            text_emb: np.ndarray | None = None,
                            label_offset: int = 0):
    """Task-free inference: identify each query window via the bank, then
    classify through the matched task's adapters (fallback when unmatched).

    `text_emb` defaults to the task's own label table; passing a pooled table
    with `label_offset` evaluates the class-incremental protocol.  Returns
    (predictions, audit records); predictions are offset into the table.

    Batched: one bare-backbone embed of every row, one bank match of every
    window, then one forward per routed group (the fallback is a group).
    Every product goes through `rowwise_matmul` with the window as its block,
    so results equal those of embedding, matching and classifying one window
    at a time bit for bit; a single GEMM per group would round differently
    and can flip argmax ties between duplicate label rows of a pooled table.
    """
    if window < 1:
        raise DimensionError(f"query window must be >= 1, got {window}")
    table = data.text_emb if text_emb is None else text_emb
    matmul = partial(rowwise_matmul, block=window)
    x = data.eval_x
    n = x.shape[0]
    queries = window_queries(model.embed(x, None, matmul), data.text_emb, window)
    tasks, distances, matched = bank.match(queries)
    row_window = np.arange(n) // window
    preds = np.empty(n, dtype=np.int64)
    for route in [None, *sorted(set(tasks[matched].tolist()))]:
        in_group = ~matched if route is None else matched & (tasks == route)
        rows = in_group[row_window]
        if rows.any():
            # a group is whole windows in stream order, so blocks stay windows
            preds[rows] = model.predict(x[rows], table, route, matmul)
    audits = [
        AuditRecord(
            true_task=data.task_id, window_start=w * window, matched=bool(hit),
            routed_task=int(task) if hit else None, distance=float(dist),
        )
        for w, (task, dist, hit) in enumerate(zip(tasks, distances, matched))
    ]
    return preds, audits


def bank_routed_accuracy(model: AdapterModel, bank: TaskBank, data: TaskData,
                         window: int = 1):
    preds, audits = bank_routed_predictions(model, bank, data, window)
    return float((preds == data.eval_y).mean()), audits


def pooled_accuracy(model: AdapterModel, bank: TaskBank,
                    tasks: list[TaskData], window: int = 1) -> float:
    """Class-incremental accuracy over every class seen so far: one pooled
    label table, task identity inferred per query window."""
    if not tasks:
        raise DomainError("pooled accuracy needs at least one task")
    table = np.vstack([t.text_emb for t in tasks])
    offsets = {}
    acc_offset = 0
    for t in tasks:
        offsets[t.task_id] = acc_offset
        acc_offset += t.text_emb.shape[0]
    hits = 0
    total = 0
    for t in tasks:
        preds, _ = bank_routed_predictions(model, bank, t, window, text_emb=table)
        truth = t.eval_y + offsets[t.task_id]
        hits += int((preds == truth).sum())
        total += truth.shape[0]
    return hits / total


def evaluate_row(model: AdapterModel, bank: TaskBank | None,
                 tasks: list[TaskData], learned: set[int],
                 protocol: str, window: int = 1) -> tuple[np.ndarray, list[AuditRecord]]:
    """One matrix row: accuracy on every task given the current model."""
    row = np.empty(len(tasks))
    audits: list[AuditRecord] = []
    for j, data in enumerate(tasks):
        if protocol == "id_free":
            if bank is None:
                raise DomainError("id_free protocol needs a task bank")
            row[j], rec = bank_routed_accuracy(model, bank, data, window)
            audits.extend(rec)
        else:
            route = data.task_id if data.task_id in learned else None
            row[j] = task_accuracy(model, data, route)
    return row, audits
