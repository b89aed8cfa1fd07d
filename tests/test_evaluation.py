"""Accuracy-matrix metrics (frozen hand oracles) and routed evaluation."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submoe.errors import DimensionError, DomainError, NumericError, StateError
from submoe.evaluation import (
    EvalState, average_score, cil_scores, evaluate_row, last_score, pooled_accuracy,
    task_accuracy, transfer_score,
)
from submoe.lifecycle import PhaseSchedule, learn_task
from submoe.model import build_model, cosine_logits
from submoe.numerics import rowwise_matmul
from submoe.optim import OptimConfig
from submoe.streams import Alignment, TaskSpec, generate_stream
from submoe.task_bank import TaskBank, fused_embedding

# Hand-computed oracle: columnwise pre-learning means
#   j=1: 0.5 / 1            j=2: (0.4+0.45)/2        j=3: (0.3+0.35+0.4)/3
#   transfer = (0.5 + 0.425 + 0.35) / 3 = 0.425
MATRIX_4 = [
    [0.90, 0.50, 0.40, 0.30],
    [0.80, 0.85, 0.45, 0.35],
    [0.75, 0.80, 0.90, 0.40],
    [0.70, 0.78, 0.88, 0.92],
]
MATRIX_4_TRANSFER = 0.425
MATRIX_4_LAST = 0.82     # (0.70+0.78+0.88+0.92)/4
MATRIX_4_AVG = 0.6675    # grand mean of all 16 entries

CIL_TRACE = [0.9, 0.8, 0.7, 0.6, 0.85]
CIL_LAST, CIL_AVG = 0.85, 0.77


def test_metric_hand_oracles():
    assert transfer_score(MATRIX_4) == pytest.approx(MATRIX_4_TRANSFER, abs=1e-12)
    assert last_score(MATRIX_4) == pytest.approx(MATRIX_4_LAST, abs=1e-12)
    assert average_score(MATRIX_4) == pytest.approx(MATRIX_4_AVG, abs=1e-12)
    assert cil_scores(CIL_TRACE) == (pytest.approx(CIL_LAST), pytest.approx(CIL_AVG))


def test_transfer_three_task_example():
    m = [[0.9, 0.3, 0.3], [0.8, 0.9, 0.5], [0.7, 0.85, 0.95]]
    # (0.3/1 + (0.3+0.5)/2) / 2
    assert transfer_score(m) == pytest.approx(0.35, abs=1e-12)


def test_transfer_matches_brute_force_double_loop():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        m = rng.uniform(0.0, 1.0, size=(n, n))
        total = 0.0
        for j in range(1, n):
            inner = 0.0
            for i in range(j):
                inner += m[i, j]
            total += inner / j
        assert transfer_score(m) == pytest.approx(total / (n - 1), abs=1e-12)


def test_transfer_ignores_diagonal_and_lower_triangle():
    m = np.asarray(MATRIX_4, dtype=float)
    altered = m.copy()
    altered[np.tril_indices(4)] = 0.123
    assert transfer_score(altered) == pytest.approx(transfer_score(m), abs=1e-15)


def test_metric_domain_errors():
    with pytest.raises(DomainError, match="two tasks"):
        transfer_score([[1.0]])
    with pytest.raises(DimensionError):
        transfer_score([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    with pytest.raises(NumericError, match="non-finite"):
        last_score([[0.5, np.nan], [0.2, 0.3]])
    with pytest.raises(NumericError):
        average_score([[1.5, 0.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        cil_scores([])
    with pytest.raises(NumericError):
        cil_scores([0.5, 1.2])


DIM = 8


def small_setup(n_tasks=2, threshold=50.0):
    specs = [
        TaskSpec(task_id=i, classes=3, samples_per_class=16, eval_per_class=8,
                 seed=i, noise=0.05)
        for i in range(n_tasks)
    ]
    stream = generate_stream(specs, DIM, prototype_scale=2.0)
    model = build_model(dim=DIM, depth=3, adapter_layers=[1, 2], rank=2,
                       top_k=2, temperature=0.1, seed=0)
    sched = PhaseSchedule(identify_steps=30, finetune_steps=30, num_candidates=2,
                          batch_size=16, snapshot_interval=10)
    cfg = OptimConfig(learning_rate=0.5, penalty=0.01)
    bank = TaskBank(threshold=threshold)
    return model, bank, stream, sched, cfg


def enroll(model, bank, data):
    bank.enroll(data.task_id, model.embed(data.train_x, None), data.text_emb)


def routed(model, bank, data, window=1, table=None):
    """A fresh `EvalState`'s task-free evaluation of `data`: predictions
    against `table` (the task's own label table by default) and one
    (matched, route, distance) record per query window."""
    w = EvalState().task_windows(model, bank, data, window)
    preds = w.preds
    if table is not None:
        preds = cosine_logits(w.emb, table, partial(rowwise_matmul, block=window)).argmax(axis=1)
    records = [(m, t if m else None, d) for t, d, m in
               zip(w.nearest.tolist(), w.distance.tolist(), w.matched.tolist())]
    return preds, records


def test_task_accuracy_bounds_and_fallback():
    model, _, stream, sched, cfg = small_setup()
    acc_before = task_accuracy(model, stream[0], None)
    learn_task(model, 0, stream[0], sched, cfg, np.random.default_rng(0))
    acc_after = task_accuracy(model, stream[0], 0)
    assert 0.0 <= acc_before <= 1.0 and 0.0 <= acc_after <= 1.0


def test_bank_routing_matches_direct_routing_when_identified():
    model, bank, stream, sched, cfg = small_setup()
    learn_task(model, 0, stream[0], sched, cfg, np.random.default_rng(1))
    enroll(model, bank, stream[0])
    preds, records = routed(model, bank, stream[0], window=4)
    assert all(matched and route == 0 for matched, route, _ in records)
    acc = float((preds == stream[0].eval_y).mean())
    assert acc == pytest.approx(task_accuracy(model, stream[0], 0), abs=1e-12)
    assert len(records) == stream[0].eval_x.shape[0] // 4


def test_unmatched_queries_fall_back_to_backbone():
    model, bank, stream, sched, cfg = small_setup(threshold=0.0)
    learn_task(model, 0, stream[0], sched, cfg, np.random.default_rng(2))
    # enroll a signature far from anything real so nothing matches at 0.0
    bank.entries[0] = np.full(2 * DIM, 1e6)
    preds, records = routed(model, bank, stream[0])
    assert all(not matched and route is None for matched, route, _ in records)
    acc = float((preds == stream[0].eval_y).mean())
    assert acc == pytest.approx(task_accuracy(model, stream[0], None), abs=1e-12)


def test_evaluate_row_id_given_routes_only_learned_tasks():
    model, _, stream, sched, cfg = small_setup()
    learn_task(model, 0, stream[0], sched, cfg, np.random.default_rng(3))
    row, audits = evaluate_row(model, None, stream, {0}, protocol="id_given")
    assert row.shape == (2,) and audits == []
    assert row[0] == pytest.approx(task_accuracy(model, stream[0], 0))
    assert row[1] == pytest.approx(task_accuracy(model, stream[1], None))


def test_evaluate_row_id_free_requires_bank():
    model, _, stream, _, _ = small_setup()
    with pytest.raises(DomainError, match="task bank"):
        evaluate_row(model, None, stream, set(), protocol="id_free")


def test_pooled_accuracy_uses_global_labels():
    model, bank, stream, sched, cfg = small_setup()
    for t in (0, 1):
        learn_task(model, t, stream[t], sched, cfg, np.random.default_rng(4 + t))
        enroll(model, bank, stream[t])
    acc = pooled_accuracy(model, bank, stream, window=4)
    assert 0.0 <= acc <= 1.0
    # single-task pooling with that task's own table reduces to routed accuracy
    solo = pooled_accuracy(model, bank, stream[:1], window=4)
    preds, _ = routed(model, bank, stream[0], window=4)
    assert solo == pytest.approx(float((preds == stream[0].eval_y).mean()), abs=1e-12)
    with pytest.raises(DomainError):
        pooled_accuracy(model, bank, [])


def _identify_reference(bank, img_emb, txt_emb):
    """The bank's matching rule one signature at a time: strict `<` keeps the
    lower id on ties."""
    q = fused_embedding(img_emb, txt_emb)
    best_task, best_dist = None, np.inf
    for task in sorted(bank.entries):
        diff = q - bank.entries[task]
        if bank.metric == "manhattan":
            d = float(np.abs(diff).sum())
        else:
            d = float(np.linalg.norm(diff))
        if d < best_dist:
            best_task, best_dist = task, d
    matched = best_dist <= bank.threshold
    return matched, best_task if matched else None, best_dist


def _routed_predictions_reference(model, bank, data, window, table):
    """Task-free inference one query window at a time, with plain GEMM."""
    n = data.eval_x.shape[0]
    preds = np.empty(n, dtype=np.int64)
    records = []
    for start in range(0, n, window):
        rows = data.eval_x[start:start + window]
        record = _identify_reference(bank, model.embed(rows, None), data.text_emb)
        preds[start:start + rows.shape[0]] = model.predict(rows, table, record[1])
        records.append(record)
    return preds, records


@pytest.fixture(scope="module")
def trained_three():
    """Three learned tasks, their enrolment signatures, and per-metric middle
    thresholds (the median one-row distance to the nearest signature)."""
    model, _, stream, sched, cfg = small_setup(n_tasks=2)
    # a reuse task keeps task 0's label rows, so the pooled table has duplicates
    stream += generate_stream([
        TaskSpec(task_id=0, classes=3, samples_per_class=16, eval_per_class=8, seed=0,
                 noise=0.05),
        TaskSpec(task_id=2, classes=3, samples_per_class=16, eval_per_class=8, seed=2,
                 noise=0.05, alignment=Alignment(mode="reuse", source=0, perturbation=0.3)),
    ], DIM, prototype_scale=2.0)[1:]
    signatures = {}
    for t, data in enumerate(stream):
        learn_task(model, t, data, sched, cfg, np.random.default_rng(20 + t))
        signatures[t] = fused_embedding(model.embed(data.train_x, None), data.text_emb)
    middle = {}
    for metric in ("manhattan", "euclidean"):
        bank = TaskBank(threshold=0.0, metric=metric, entries=dict(signatures))
        nearest = [
            _identify_reference(bank, model.embed(d.eval_x[i:i + 1], None), d.text_emb)[2]
            for d in stream for i in range(d.eval_x.shape[0])
        ]
        middle[metric] = float(np.median(nearest))
    return model, stream, signatures, middle


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_batched_routing_equals_one_window_at_a_time(trained_three, data):
    model, stream, signatures, middle = trained_three
    task = data.draw(st.sampled_from(stream), label="task")
    n = task.eval_x.shape[0]
    window = data.draw(st.integers(1, n + 3), label="window")
    metric = data.draw(st.sampled_from(["manhattan", "euclidean"]), label="metric")
    # None: exactly the first window's distance, which must still match
    threshold = data.draw(st.sampled_from([0.0, middle[metric], 1e300, None]),
                          label="threshold")
    # each enrolled id takes some learned task's signature, so two ids can hold
    # the same signature and a tie must go to the lower id
    ids = data.draw(st.lists(st.sampled_from(sorted(signatures)), min_size=1,
                             max_size=3, unique=True), label="ids")
    sources = data.draw(st.lists(st.sampled_from(sorted(signatures)), min_size=len(ids),
                                 max_size=len(ids)), label="sources")
    bank = TaskBank(threshold=threshold or 0.0, metric=metric,
                    entries={i: signatures[s].copy() for i, s in zip(ids, sources)})
    if threshold is None:
        bank.threshold = _identify_reference(
            bank, model.embed(task.eval_x[:window], None), task.text_emb)[2]
    pooled = data.draw(st.booleans(), label="pooled")
    table = np.vstack([d.text_emb for d in stream]) if pooled else task.text_emb

    preds, records = routed(model, bank, task, window, table if pooled else None)
    ref_preds, ref_records = _routed_predictions_reference(model, bank, task, window, table)

    assert np.array_equal(preds, ref_preds)
    assert len(records) == -(-n // window)
    assert records == ref_records


def _pooled_reference(model, bank, tasks, window):
    """Class-incremental accuracy from a fresh evaluation of every task."""
    table = np.vstack([t.text_emb for t in tasks])
    hits = total = offset = 0
    for t in tasks:
        preds, _ = routed(model, bank, t, window, table)
        hits += int((preds == t.eval_y + offset).sum())
        total += t.eval_y.shape[0]
        offset += t.text_emb.shape[0]
    return hits / total


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_incremental_rows_equal_full_re_evaluation(trained_three, data):
    """One EvalState carried across enrolments, as a run carries it, gives
    every row, decision and CIL accuracy that a fresh EvalState gives."""
    model, stream, signatures, middle = trained_three
    n = stream[0].eval_x.shape[0]
    window = data.draw(st.integers(1, n + 3), label="window")
    metric = data.draw(st.sampled_from(["manhattan", "euclidean"]), label="metric")
    protocol = data.draw(st.sampled_from(["id_free", "id_given"]), label="protocol")
    # enrolment order need not follow the ids; ids sharing a source tie
    ids = data.draw(st.permutations(sorted(signatures)), label="ids")
    sources = data.draw(st.lists(st.sampled_from(sorted(signatures)), min_size=len(ids),
                                 max_size=len(ids)), label="sources")
    threshold = data.draw(st.sampled_from([0.0, middle[metric], 1e300, None]),
                          label="threshold")
    if threshold is None:
        # exactly one window's distance to its nearest signature in the full bank
        full = TaskBank(threshold=0.0, metric=metric,
                        entries={i: signatures[s] for i, s in zip(ids, sources)})
        task = data.draw(st.sampled_from(stream), label="threshold task")
        _, records = routed(model, full, task, window)
        threshold = data.draw(st.sampled_from([dist for _, _, dist in records]),
                              label="window distance")
    bank = TaskBank(threshold=threshold, metric=metric)
    state = EvalState()
    learned = set()
    for i, (task_id, source) in enumerate(zip(ids, sources)):
        bank.entries[task_id] = signatures[source].copy()
        learned.add(task_id)
        row, decisions = evaluate_row(model, bank, stream, learned, protocol, window,
                                      state=state)
        if protocol == "id_given":
            assert decisions == []
            want = [task_accuracy(model, d, d.task_id if d.task_id in learned else None)
                    for d in stream]
            assert row.tolist() == want
            continue
        assert len(decisions) == len(stream)
        for j, (d, dec) in enumerate(zip(stream, decisions)):
            preds, records = routed(model, bank, d, window)
            assert row[j] == float((preds == d.eval_y).mean())
            assert dec.task_id == d.task_id
            assert records == [(m, t if m else None, dist) for t, dist, m in zip(
                dec.nearest.tolist(), dec.distance.tolist(), dec.matched.tolist())]
        # the reuse task keeps task 0's label rows: the pooled table has duplicates
        seen = stream[:i + 1]
        assert (pooled_accuracy(model, bank, seen, window, state=state)
                == _pooled_reference(model, bank, seen, window))


def test_task_free_evaluation_on_an_empty_bank_raises_state_error(trained_three):
    model, stream, _, _ = trained_three
    with pytest.raises(StateError, match="empty"):
        evaluate_row(model, TaskBank(threshold=1e300), stream, set(), "id_free", 1)


def test_task_windows_refuses_a_window_below_one(trained_three):
    model, stream, signatures, _ = trained_three
    bank = TaskBank(threshold=1e300, entries={0: signatures[0]})
    with pytest.raises(DimensionError, match="^query window must be >= 1, got 0$"):
        EvalState().task_windows(model, bank, stream[0], 0)


def test_eval_state_reevaluates_when_a_signature_is_replaced(trained_three):
    model, stream, signatures, _ = trained_three
    bank = TaskBank(threshold=1e300, entries={0: signatures[0].copy()})
    state = EvalState()
    evaluate_row(model, bank, stream, {0}, "id_free", 2, state=state)
    bank.entries[1] = signatures[1].copy()
    bank.entries[0] = signatures[2].copy()  # replaced, not a new id
    row, decisions = evaluate_row(model, bank, stream, {0, 1}, "id_free", 2, state=state)
    fresh_row, fresh = evaluate_row(model, bank, stream, {0, 1}, "id_free", 2)
    assert row.tolist() == fresh_row.tolist()
    for got, want in zip(decisions, fresh):
        assert got.nearest.tolist() == want.nearest.tolist()
        assert got.distance.tolist() == want.distance.tolist()


@pytest.mark.parametrize("change", ["threshold", "metric"])
@pytest.mark.parametrize("window", [1, 3, 7])
def test_eval_state_re_embeds_windows_that_fall_back_after_a_rule_change(
        trained_three, window, change):
    # a new threshold or metric starts each task afresh, and the state keeps
    # no bare embeddings: a window matched before the change and unmatched
    # after it goes through the bare backbone again
    model, stream, signatures, _ = trained_three
    entries = {t: s.copy() for t, s in signatures.items()}
    learned = set(signatures)
    _, manhattan = evaluate_row(model, TaskBank(threshold=0.0, entries=entries), stream,
                                learned, "id_free", window)
    median = float(np.median(np.concatenate([d.distance for d in manhattan])))
    # a euclidean distance is at most the manhattan one, so it matches more
    bank = (TaskBank(threshold=1e300, entries=entries) if change == "threshold"
            else TaskBank(threshold=median, metric="euclidean", entries=entries))
    state = EvalState()
    _, before = evaluate_row(model, bank, stream, learned, "id_free", window, state=state)
    pooled_accuracy(model, bank, stream, window, state=state)
    bank.threshold, bank.metric = median, "manhattan"
    row, decisions = evaluate_row(model, bank, stream, learned, "id_free", window, state=state)
    fresh = EvalState()
    fresh_row, fresh_decisions = evaluate_row(model, bank, stream, learned, "id_free",
                                              window, state=fresh)
    unmatched = sum(int((~d.matched).sum()) for d in decisions)
    assert 0 < unmatched < sum(d.matched.size for d in decisions)
    assert any((b.matched & ~d.matched).any() for b, d in zip(before, decisions, strict=True))
    assert row.tolist() == fresh_row.tolist()
    for got, want in zip(decisions, fresh_decisions, strict=True):
        assert got.task_id == want.task_id
        for a, b in zip(got[1:], want[1:]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for data in stream:
        got, want = state.windows[data.task_id], fresh.windows[data.task_id]
        assert got.emb.tobytes() == want.emb.tobytes()
        assert got.preds.tolist() == want.preds.tolist()
    assert (pooled_accuracy(model, bank, stream, window, state=state)
            == pooled_accuracy(model, bank, stream, window, state=fresh))


@pytest.mark.parametrize("window", [3, 7])
def test_eval_state_keeps_no_bare_embeddings_or_query_matrix(trained_three, window):
    model, stream, signatures, middle = trained_three
    bank = TaskBank(threshold=middle["manhattan"], entries=dict(signatures))
    state = EvalState()
    evaluate_row(model, bank, stream, set(signatures), "id_free", window, state=state)
    for data in stream:
        rows, dim = data.eval_x.shape
        w = state.windows[data.task_id]
        shapes = [v.shape for v in vars(w).values() if isinstance(v, np.ndarray)]
        assert shapes.count((rows, dim)) == 1  # the routed embeddings
        assert (-(-rows // window), 2 * dim) not in shapes
        assert w.queries().shape == (-(-rows // window), 2 * dim)


@pytest.mark.parametrize("window", [1, 3, 7])  # 7: the last window is shorter
def test_kept_embeddings_are_each_windows_own_embed(trained_three, window):
    # the CIL pass reads `w.emb`: after every row, each window's kept rows
    # are its own embed through its current route, or the bare backbone
    model, stream, signatures, middle = trained_three
    bank = TaskBank(threshold=middle["manhattan"])
    state = EvalState()
    matmul = partial(rowwise_matmul, block=window)
    learned, routes = set(), set()
    for task_id, signature in signatures.items():
        bank.entries[task_id] = signature
        learned.add(task_id)
        evaluate_row(model, bank, stream, learned, "id_free", window, state=state)
        for data in stream:
            w = state.windows[data.task_id]
            for k, start in enumerate(range(0, data.eval_x.shape[0], window)):
                route = int(w.nearest[k]) if w.matched[k] else None
                rows = slice(start, start + window)
                want = model.embed(data.eval_x[rows], route, matmul)
                assert w.emb[rows].tobytes() == want.tobytes()
                routes.add(route)
    assert None in routes and len(routes) > 2  # bare and routed windows both checked
@pytest.mark.parametrize("window", [1, 3, 7])  # 7: the last window is shorter
def test_a_state_without_embeddings_decides_and_predicts_the_same(trained_three, window):
    # a run without the CIL pass keeps no routed embeddings: it embeds a fresh
    # task, and each call's moved windows, into a temporary
    model, stream, signatures, middle = trained_three
    bank = TaskBank(threshold=middle["manhattan"])
    kept, lean = EvalState(), EvalState(keep_emb=False)
    learned, moved = set(), 0
    for task_id, signature in signatures.items():
        bank.entries[task_id] = signature
        learned.add(task_id)
        before = {t: w.preds.copy() for t, w in lean.windows.items()}
        want_row, want = evaluate_row(model, bank, stream, learned, "id_free", window,
                                      state=kept)
        row, got = evaluate_row(model, bank, stream, learned, "id_free", window, state=lean)
        assert row.tobytes() == want_row.tobytes()
        for g, d in zip(got, want, strict=True):
            assert g.task_id == d.task_id
            for a, b in zip(g[1:], d[1:]):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for data in stream:
            w = lean.windows[data.task_id]
            assert w.emb is None and kept.windows[data.task_id].emb is not None
            assert w.preds.tobytes() == kept.windows[data.task_id].preds.tobytes()
            if data.task_id in before:
                moved += int((w.preds != before[data.task_id]).sum())
    assert moved > 0  # later rows reclassified moved windows through the temporary
    with pytest.raises(StateError, match="keeps its embeddings"):
        pooled_accuracy(model, bank, stream, window, state=lean)
    assert (pooled_accuracy(model, bank, stream, window, state=kept)
            == pooled_accuracy(model, bank, stream, window))
