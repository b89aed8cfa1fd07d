"""Signature bank used for task-free routing."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from submoe.errors import ConfigError, DimensionError, StateError
from submoe.checkpoint import bank_from_payload, bank_to_payload
from submoe.task_bank import MatchResult, TaskBank, fused_embedding, nearest


def test_fused_embedding_is_mean_concat():
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    txt = np.array([[10.0, 20.0], [30.0, 40.0], [50.0, 60.0]])
    np.testing.assert_array_equal(
        fused_embedding(img, txt), np.array([2.0, 3.0, 30.0, 40.0])
    )


def test_fused_embedding_guards():
    with pytest.raises(DimensionError):
        fused_embedding(np.zeros((0, 2)), np.ones((1, 2)))
    with pytest.raises(Exception):
        fused_embedding(np.array([[np.inf, 0.0]]), np.ones((1, 2)))


def test_manhattan_and_euclidean_distances():
    bank_m = TaskBank(threshold=10.0, metric="manhattan")
    bank_e = TaskBank(threshold=10.0, metric="euclidean")
    a, b = np.array([0.0, 0.0, 0.0]), np.array([3.0, -4.0, 0.0])
    for bank, want in ((bank_m, 7.0), (bank_e, 5.0)):
        bank.entries[0] = b
        assert nearest(*bank.distances(a[None]), bank.threshold)[1].tolist() == [want]


def test_identify_nearest_with_threshold():
    bank = TaskBank(threshold=1.0)
    img0 = np.array([[0.0, 0.0]])
    img1 = np.array([[5.0, 5.0]])
    txt = np.array([[1.0, 0.0]])
    bank.enroll(0, img0, txt)
    bank.enroll(1, img1, txt)

    hit = bank.identify(np.array([[0.2, 0.1]]), txt)
    assert hit == MatchResult(matched=True, task=0, distance=pytest.approx(0.3))

    far = bank.identify(np.array([[2.5, 2.5]]), txt)
    assert not far.matched and far.task is None
    assert far.distance == pytest.approx(5.0)  # nearest is task 0 or 1, 5 away each


def test_equidistant_tie_goes_to_lower_task_id():
    bank = TaskBank(threshold=100.0)
    txt = np.array([[0.0, 0.0]])
    bank.enroll(3, np.array([[1.0, 0.0]]), txt)
    bank.enroll(1, np.array([[-1.0, 0.0]]), txt)
    res = bank.identify(np.array([[0.0, 0.0]]), txt)
    assert res.matched and res.task == 1


def test_exact_threshold_still_matches():
    bank = TaskBank(threshold=2.0)
    txt = np.array([[0.0]])
    bank.enroll(0, np.array([[0.0]]), txt)
    res = bank.identify(np.array([[2.0]]), txt)
    assert res.matched and res.distance == pytest.approx(2.0)


def test_enroll_overwrites_same_task():
    bank = TaskBank(threshold=1.0)
    txt = np.array([[0.0]])
    bank.enroll(0, np.array([[1.0]]), txt)
    bank.enroll(0, np.array([[9.0]]), txt)
    assert len(bank.entries) == 1
    np.testing.assert_array_equal(bank.entries[0], np.array([9.0, 0.0]))


def test_enroll_rejects_width_mismatch():
    bank = TaskBank(threshold=1.0)
    bank.enroll(0, np.zeros((1, 2)), np.zeros((1, 2)))
    with pytest.raises(DimensionError, match="width"):
        bank.enroll(1, np.zeros((1, 3)), np.zeros((1, 3)))


def test_empty_bank_identify_raises():
    with pytest.raises(StateError, match="empty"):
        TaskBank(threshold=1.0).identify(np.zeros((1, 2)), np.zeros((1, 2)))


def test_rematch_on_a_task_the_bank_does_not_hold_raises_state_error():
    bank = TaskBank(threshold=1.0)
    bank.enroll(0, np.ones((1, 2)), np.ones((1, 2)))
    q = np.zeros((2, 4))
    with pytest.raises(StateError, match="task 5 is not enrolled"):
        bank.rematch(q, np.zeros(2, dtype=np.int64), np.full(2, np.inf), 5)


def test_bank_validation():
    with pytest.raises(ConfigError):
        TaskBank(threshold=-1.0)
    with pytest.raises(ConfigError):
        TaskBank(threshold=1.0, metric="cosine")


def test_payload_round_trip_is_bit_exact():
    rng = np.random.default_rng(0)
    bank = TaskBank(threshold=0.1 + 0.2, metric="euclidean")
    for t in (2, 0, 5):
        bank.enroll(t, rng.standard_normal((4, 3)), rng.standard_normal((2, 3)))
    back = bank_from_payload(bank_to_payload(bank))
    assert back.threshold == bank.threshold and back.metric == bank.metric
    assert sorted(back.entries) == sorted(bank.entries)
    for t in bank.entries:
        assert back.entries[t].tobytes() == bank.entries[t].tobytes()


@st.composite
def queries_and_signatures(draw):
    """Queries and signatures over a shared pool of rows, so equal distances
    (ties) and repeated signatures occur."""
    width = draw(st.integers(1, 6), label="width")
    pool = draw(arrays(np.float64, (draw(st.integers(1, 4)), width),
                       elements=st.floats(-1e6, 1e6)), label="pool")
    rows = st.integers(0, pool.shape[0] - 1)
    q = pool[draw(st.lists(rows, min_size=1, max_size=5), label="q")]
    s = pool[draw(st.lists(rows, min_size=1, max_size=5), label="s")]
    noise = draw(arrays(np.float64, q.shape, elements=st.sampled_from([0.0, 0.5, -3.25])))
    return q + noise, s


@settings(max_examples=200, deadline=None)
@given(qs=queries_and_signatures(), metric=st.sampled_from(["manhattan", "euclidean"]))
def test_each_distance_column_equals_its_one_signature_call(qs, metric):
    # TaskBank.rematch measures one signature at a time; distances measures all
    q, s = qs
    bank = TaskBank(threshold=1.0, metric=metric)
    full = bank._distances(q, s)
    for j in range(s.shape[0]):
        assert full[:, j].tobytes() == bank._distances(q, s[j:j + 1])[:, 0].tobytes()
        for i in range(q.shape[0]):  # the 1-d measure of one pair
            one = (np.abs(q[i] - s[j]).sum() if metric == "manhattan"
                   else np.linalg.norm(q[i] - s[j]))
            assert full[i, j].tobytes() == one.tobytes()


@settings(max_examples=200, deadline=None)
@given(qs=queries_and_signatures(), metric=st.sampled_from(["manhattan", "euclidean"]),
       data=st.data())
def test_rematch_one_enrolment_at_a_time_equals_match(qs, metric, data):
    q, s = qs
    ids = data.draw(st.lists(st.integers(-3, 9), min_size=s.shape[0],
                             max_size=s.shape[0], unique=True), label="ids")
    bank = TaskBank(threshold=0.0, metric=metric)
    # exactly one of the distances, so the <= boundary is exercised
    bank.threshold = float(data.draw(st.sampled_from(
        sorted(set(bank._distances(q, s).ravel().tolist()))), label="threshold"))
    bank.entries[ids[0]] = s[0]
    tasks, dist, matched = nearest(*bank.distances(q), bank.threshold)
    for task, sig in zip(ids[1:], s[1:]):
        bank.entries[task] = sig
        tasks, dist, matched = bank.rematch(q, tasks, dist, task)
    ref = nearest(*bank.distances(q), bank.threshold)
    for got, want in zip((tasks, dist, matched), ref):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
def test_distances_columns_equal_rematch_and_match_is_their_argmin(metric):
    # the audit stores `distances` of the final bank and replays each row's
    # decisions from it, so each column must be what `rematch` measured at
    # that task's enrolment, and `nearest` its argmin with the lower id on ties
    rng = np.random.default_rng(11)
    imgs = rng.standard_normal((6, 4, 5))
    txt = rng.standard_normal((3, 5))
    ids = rng.permutation(np.arange(-4, 20)).tolist()
    bank = TaskBank(threshold=0.0, metric=metric)
    for k, task in enumerate(ids):
        bank.enroll(task, imgs[k % 6], txt)  # every signature four times: ties
    q = np.vstack([fused_embedding(img, txt) for img in imgs]
                  + [rng.standard_normal((7, 10))])
    got_ids, dist = bank.distances(q)
    assert got_ids.dtype == np.int64 and got_ids.tolist() == sorted(ids)
    assert dist.shape == (13, 24)
    assert ((dist == dist.min(axis=1, keepdims=True)).sum(axis=1) == 4).all()
    n = q.shape[0]
    for k, task in enumerate(got_ids.tolist()):
        _, alone, _ = bank.rematch(q, np.full(n, task), np.full(n, np.inf), task)
        assert dist[:, k].tobytes() == alone.tobytes()

    bank.threshold = float(np.median(dist.min(axis=1)))
    tasks, best, matched = nearest(*bank.distances(q), bank.threshold)
    col = dist.argmin(axis=1)
    assert tasks.tolist() == got_ids[col].tolist()
    assert best.tobytes() == dist[np.arange(n), col].tobytes()
    assert matched.tolist() == (best <= bank.threshold).tolist()
    assert 0 < matched.sum() < n
    for r in range(n):
        assert tasks[r] == got_ids[dist[r] == best[r]].min()


@pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
def test_distances_measure_one_signature_at_a_time_in_bounded_memory(metric):
    # a [windows, tasks, width] difference array would take 19.7 MB here
    rng = np.random.default_rng(5)
    bank = TaskBank(threshold=1.0, metric=metric,
                    entries={t: rng.standard_normal(128) for t in range(100)})
    q = rng.standard_normal((192, 128))
    tracemalloc.start()
    try:
        _, dist = bank.distances(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.shape == (192, 100)
    assert peak < 2**20
