"""Accuracy-matrix metrics and stream evaluation protocols.

The accuracy matrix a[i][j] holds task j's accuracy after learning task i
(0-based).  Entries above the diagonal evaluate tasks not yet learned and
always go through the fallback (bare backbone) or, under the task-free
protocol, through the bank, which cannot match an unenrolled task.

A run evaluates incrementally through one `EvalState`.  A learned task's
adapters are frozen and the bank only grows, so a window's output changes
only when its route does:
- `id_free`: each eval task's windows are embedded through the bare
  backbone once and start with no decisions; every bank entry the task has
  not yet measured is then measured alone, in ascending id order
  (`TaskBank.rematch`), so a window only gains a route or changes it, and
  only windows whose route changed are embedded and classified again.  The
  state keeps each task's window image means and text mean (the query
  matrix is joined from them for the time of a call), each window's
  nearest task, distance and route, and each row's prediction, but no bare
  embeddings: a new metric or threshold, or a replaced or removed
  signature, starts the task afresh.  Each row's routed embedding is kept
  only for the CIL pass (`EvalState(keep_emb=True)`); without it, a call
  embeds what it classifies into a temporary.
- `id_given`: accuracy is kept per (task, route), so a run makes 2n predicts.
- the CIL pass reuses the row's routed embeddings and computes only the
  cosine against the grown pooled label table.
Every product of task-free evaluation goes through `rowwise_matmul` with the
query window as its block, so each window's result is one BLAS call on its
own rows, whatever else is computed with it: the incremental results equal
those of a fresh `EvalState` on the same bank, and of evaluating one window
at a time, bit for bit (one GEMM per route would round differently and can
flip argmax ties between duplicate label rows of a pooled table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, NumericError, StateError
from .model import AdapterModel, cosine_logits
from .numerics import rowwise_matmul
from .streams import TaskData
from .task_bank import TaskBank, fused_queries, window_means


def _check_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"accuracy matrix must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
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
    if not np.isfinite(a).all() or a.min() < 0.0 or a.max() > 1.0:
        raise NumericError("CIL accuracies must be finite and lie in [0, 1]")
    return float(a[-1]), float(a.mean())


def task_accuracy(model: AdapterModel, data: TaskData, route_task: int | None) -> float:
    """Accuracy of cosine-similarity classification on the eval split, routed
    through `route_task`'s adapters (None = bare backbone)."""
    pred = model.predict(data.eval_x, data.text_emb, route_task)
    return float((pred == data.eval_y).mean())


def _embed_routes(model: AdapterModel, x: np.ndarray, tasks: np.ndarray,
                  todo: np.ndarray, window: int, out: np.ndarray) -> None:
    """Write into `out` the embedding of every row of the windows in the mask
    `todo` through its window's route in `tasks`: one embed per route.  Rows
    go in as whole windows in stream order, so `rowwise_matmul`'s blocks stay
    windows and each window's rows equal those of any other embed of it, bit
    for bit."""
    row_window = np.arange(x.shape[0]) // window
    matmul = partial(rowwise_matmul, block=window)
    for route in sorted(set(tasks[todo].tolist())):
        rows = (todo & (tasks == route))[row_window]
        out[rows] = model.embed(x[rows], route, matmul)


class WindowDecisions(NamedTuple):
    """The bank's decisions for one task's query windows in one matrix row;
    window w starts at eval row w * query_window and goes to `nearest[w]`
    when `matched[w]`, else to the fallback."""

    task_id: int
    nearest: np.ndarray   # int64, nearest enrolled id even when unmatched
    distance: np.ndarray  # float64
    matched: np.ndarray   # bool


@dataclass
class _TaskWindows:
    """One eval task's cached task-free evaluation under one bank rule.  It
    starts with no decisions (every window unmatched at distance +inf, no
    signature measured) and `emb` holding the bare-backbone embeddings, or
    None when its state keeps no embeddings; `EvalState.task_windows`
    measures the bank's entries into it.  The decision arrays are replaced,
    never written in place, so a `WindowDecisions` stays valid.  The query
    matrix is built only for the time of a call."""

    data: TaskData
    window: int
    img_means: np.ndarray  # [windows, dim], bare-backbone window image means
    txt_mean: np.ndarray   # [dim], the task's label-text mean
    emb: np.ndarray | None  # [rows, dim], embeddings through each row's route
    rule: tuple[str, float]  # the bank's (metric, threshold)
    nearest: np.ndarray = field(init=False)
    distance: np.ndarray = field(init=False)
    matched: np.ndarray = field(init=False)
    preds: np.ndarray = field(init=False)  # [rows], against the task's own labels
    signatures: dict[int, np.ndarray] = field(default_factory=dict)  # those measured

    def __post_init__(self):
        n = self.img_means.shape[0]
        # the largest id, so that at distance +inf any enrolled id wins the tie
        self.nearest = np.full(n, np.iinfo(np.int64).max)
        self.distance = np.full(n, np.inf)
        self.matched = np.zeros(n, dtype=bool)
        self.preds = np.empty(self.data.eval_x.shape[0], dtype=np.int64)

    def queries(self) -> np.ndarray:
        """The [windows, 2 * dim] bank queries of the task's windows."""
        return fused_queries(self.img_means, self.txt_mean)


@dataclass
class EvalState:
    """Evaluation results of one run that later matrix rows reuse.

    Valid while learned tasks stay frozen (criterion 05) and while the bank
    only gains entries; a bank entry that is replaced or removed, or a new
    metric or threshold, starts a task afresh.  Entries are keyed by task id
    and hold their `TaskData`, so another task object under the same id, or
    another window, starts afresh too.

    Each task's routed embeddings are kept only under `keep_emb`, which the
    CIL pass (`pooled_accuracy`) needs; a run without that pass keeps the
    window decisions and the predictions alone.
    """

    keep_emb: bool = True
    windows: dict[int, _TaskWindows] = field(default_factory=dict)
    given: dict[tuple[int, int | None], tuple[TaskData, float]] = field(
        default_factory=dict)

    def task_windows(self, model: AdapterModel, bank: TaskBank, data: TaskData,
                     window: int) -> _TaskWindows:
        """`data`'s windows routed by the current bank, with their own-table
        predictions (and, under `keep_emb`, their routed embeddings) brought
        up to date."""
        if window < 1:
            raise DimensionError(f"query window must be >= 1, got {window}")
        if not bank.entries:
            raise StateError("task bank is empty; enroll at least one task first")
        matmul = partial(rowwise_matmul, block=window)
        rule = (bank.metric, bank.threshold)
        w = self.windows.get(data.task_id)
        fresh = (w is None or w.data is not data or w.window != window or w.rule != rule
                 or any(bank.entries.get(t) is not sig for t, sig in w.signatures.items()))
        if fresh:
            emb = model.embed(data.eval_x, None, matmul)
            img_means, txt_mean = window_means(emb, data.text_emb, window)
            w = self.windows[data.task_id] = _TaskWindows(
                data=data, window=window, img_means=img_means, txt_mean=txt_mean,
                emb=emb if self.keep_emb else None, rule=rule)
        else:
            emb = w.emb
        old_nearest, old_matched = w.nearest, w.matched
        new = sorted(bank.entries.keys() - w.signatures.keys())
        if new:
            queries = w.queries()
            for task in new:
                w.nearest, w.distance, w.matched = bank.rematch(
                    queries, w.nearest, w.distance, task)
            w.signatures = dict(bank.entries)
        moved = w.matched & (~old_matched | (w.nearest != old_nearest))
        todo = np.ones_like(moved) if fresh else moved
        if not todo.any():
            return w
        rows = todo[np.arange(data.eval_x.shape[0]) // window]
        if emb is None:
            # nothing kept: the moved windows alone go into a temporary, still
            # whole windows in stream order, as `_embed_routes` needs
            emb = np.empty((int(rows.sum()), w.txt_mean.shape[0]))
            _embed_routes(model, data.eval_x[rows], w.nearest[moved],
                          np.ones(int(moved.sum()), dtype=bool), window, emb)
        else:
            _embed_routes(model, data.eval_x, w.nearest, moved, window, emb)
            emb = emb[rows]
        w.preds[rows] = cosine_logits(emb, data.text_emb, matmul).argmax(axis=1)
        return w

    def given_accuracy(self, model: AdapterModel, data: TaskData,
                       route: int | None) -> float:
        """`task_accuracy`, computed once per (task, route)."""
        key = (data.task_id, route)
        hit = self.given.get(key)
        if hit is None or hit[0] is not data:
            hit = self.given[key] = (data, task_accuracy(model, data, route))
        return hit[1]


def pooled_accuracy(model: AdapterModel, bank: TaskBank,
                    tasks: list[TaskData], window: int = 1,
                    state: EvalState | None = None) -> float:
    """Class-incremental accuracy over every class seen so far: one pooled
    label table, task identity inferred per query window.  Reuses the routed
    embeddings `state` holds (a new state evaluates from scratch); a state
    that keeps none raises `StateError`."""
    if not tasks:
        raise DomainError("pooled accuracy needs at least one task")
    state = EvalState() if state is None else state
    if not state.keep_emb:
        raise StateError("pooled accuracy needs an EvalState that keeps its embeddings")
    table = np.vstack([t.text_emb for t in tasks])
    matmul = partial(rowwise_matmul, block=window)
    hits = 0
    total = 0
    offset = 0
    for t in tasks:
        w = state.task_windows(model, bank, t, window)
        preds = cosine_logits(w.emb, table, matmul).argmax(axis=1)
        truth = t.eval_y + offset
        hits += int((preds == truth).sum())
        total += truth.shape[0]
        offset += t.text_emb.shape[0]
    return hits / total


def evaluate_row(model: AdapterModel, bank: TaskBank | None,
                 tasks: list[TaskData], learned: set[int],
                 protocol: str, window: int = 1,
                 state: EvalState | None = None) -> tuple[np.ndarray, list[WindowDecisions]]:
    """One matrix row: accuracy on every task given the current model, plus
    the bank's window decisions per task under `id_free` (none under
    `id_given`).  Reuses what `state` holds from earlier rows (a new state
    evaluates from scratch)."""
    state = EvalState() if state is None else state
    row = np.empty(len(tasks))
    decisions: list[WindowDecisions] = []
    for j, data in enumerate(tasks):
        if protocol == "id_free":
            if bank is None:
                raise DomainError("id_free protocol needs a task bank")
            w = state.task_windows(model, bank, data, window)
            row[j] = float((w.preds == data.eval_y).mean())
            decisions.append(WindowDecisions(data.task_id, w.nearest, w.distance, w.matched))
        else:
            route = data.task_id if data.task_id in learned else None
            row[j] = state.given_accuracy(model, data, route)
    return row, decisions
