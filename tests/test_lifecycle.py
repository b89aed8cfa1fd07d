"""Two-phase per-task training: expansion, routing fit, pruning, fine-tune."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from submoe.errors import ConfigError, NumericError, StateError
from submoe.lifecycle import (
    PhaseSchedule, RoutingSnapshot, RoutingTrace, begin_task, finetune_experts,
    fit_routing, kl_to_final, learn_task, prune_candidates, prune_records,
    trace_records,
)
from submoe.model import build_model, trainable_stage1_params
from submoe.optim import OptimConfig
from submoe.streams import Alignment, TaskSpec, generate_stream

from oracles import frozen_fingerprint

DIM = 8


def make_model(seed=0, top_k=2):
    return build_model(dim=DIM, depth=3, adapter_layers=[1, 2], rank=2,
                       top_k=top_k, temperature=0.5, seed=seed)


def make_schedule(**kw) -> PhaseSchedule:
    kw.setdefault("identify_steps", 20)
    kw.setdefault("finetune_steps", 10)
    kw.setdefault("num_candidates", 2)
    kw.setdefault("batch_size", 16)
    kw.setdefault("snapshot_interval", 5)
    return PhaseSchedule(**kw)


def make_cfg(**kw) -> OptimConfig:
    kw.setdefault("learning_rate", 0.5)
    kw.setdefault("penalty", 0.01)
    return OptimConfig(**kw)


def two_task_stream(seed=0):
    specs = [
        TaskSpec(task_id=0, classes=3, samples_per_class=16, eval_per_class=8, seed=seed),
        TaskSpec(task_id=1, classes=3, samples_per_class=16, eval_per_class=8,
                 seed=seed + 1, alignment=Alignment(mode="orthogonal")),
    ]
    return generate_stream(specs, DIM)


def test_begin_task_grows_every_adapter_layer():
    model = make_model()
    sched = make_schedule(num_candidates=3, top_k=4)
    begin_task(model, 0, sched, np.random.default_rng(0))
    for layer in model.adapter_layers():
        assert len(layer.experts) == 3
        assert all(e.owner_task == 0 for e in layer.experts)
        assert layer.router_for(0).n_visible == 3
        assert layer.router_for(0).top_k == 4
        assert (np.vstack([e.up for e in layer.experts]) == 0.0).all()
    assert model.phase[0] == "expanded" and model.current_task == 0


def test_phase_order_is_enforced():
    model = make_model()
    sched = make_schedule()
    cfg = make_cfg()
    data = two_task_stream()[0]
    rng = np.random.default_rng(1)
    with pytest.raises(StateError, match="begin_task first"):
        fit_routing(model, 0, data, sched, cfg, rng)
    begin_task(model, 0, sched, rng)
    with pytest.raises(StateError, match="already started"):
        begin_task(model, 0, sched, rng)
    with pytest.raises(StateError, match="in progress"):
        begin_task(model, 1, sched, rng)
    with pytest.raises(StateError, match="completed routing fit"):
        prune_candidates(model, 0, RoutingTrace(task=0, snapshots=[]), 0.1)
    with pytest.raises(StateError, match="prune_candidates first"):
        finetune_experts(model, 0, data, sched, cfg, rng)
    trace = fit_routing(model, 0, data, sched, cfg, rng)
    foreign = RoutingTrace(task=1, snapshots=trace.snapshots)
    with pytest.raises(StateError, match="belongs to task"):
        prune_candidates(model, 0, foreign, 0.1)


def test_snapshot_steps_and_final_coverage():
    model = make_model()
    data = two_task_stream()[0]
    sched = make_schedule(identify_steps=17, snapshot_interval=5)
    rng = np.random.default_rng(2)
    begin_task(model, 0, sched, rng)
    trace = fit_routing(model, 0, data, sched, make_cfg(), rng)
    steps = [s.step for s in trace.snapshots]
    assert steps == [0, 5, 10, 15, 17]
    for snap in trace.snapshots:
        assert len(snap.layer_weights) == 2
        for w in snap.layer_weights:
            assert w.sum() == pytest.approx(1.0, abs=1e-9)


def test_learn_task_accounting_and_phase():
    model = make_model()
    data = two_task_stream()[0]
    sched = make_schedule()
    report, trace = learn_task(model, 0, data, sched, make_cfg(),
                               np.random.default_rng(3))
    assert model.phase[0] == "done"
    assert model.learned_tasks == [0] and model.current_task is None
    for rec, layer in zip(report.layers, model.adapter_layers()):
        assert len(rec.candidate_ids) == sched.num_candidates
        assert sorted(rec.pruned_ids + rec.kept_ids) == sorted(rec.candidate_ids)
        # new count = old (0) + M - removed
        assert len(layer.experts) == sched.num_candidates - rec.removed


def test_earlier_tasks_stay_bitwise_identical():
    model = make_model()
    stream = two_task_stream()
    sched = make_schedule()
    cfg = make_cfg()
    learn_task(model, 0, stream[0], sched, cfg, np.random.default_rng(4))
    x = np.random.default_rng(5).standard_normal((6, DIM))
    before = model.embed(x, task=0).copy()
    fp = frozen_fingerprint(model)

    learn_task(model, 1, stream[1], sched, cfg, np.random.default_rng(6))

    assert frozen_fingerprint(model, exclude_task=1) == fp
    np.testing.assert_array_equal(model.embed(x, task=0), before)


def test_a_later_top_k_leaves_earlier_tasks_bitwise_identical():
    # each router keeps the k it was learned with, so a stream continued with
    # another schedule.top_k does not re-route old tasks
    model = make_model()
    stream = two_task_stream()
    cfg = make_cfg()
    keep_all = dict(num_candidates=3, prune_threshold=0.0)  # so k matters for task 0
    learn_task(model, 0, stream[0], make_schedule(top_k=1, **keep_all), cfg,
               np.random.default_rng(4))
    x = np.random.default_rng(5).standard_normal((6, DIM))
    before = model.embed(x, task=0).copy()
    assert all(layer.router_for(0).n_visible == 3 for layer in model.adapter_layers())

    learn_task(model, 1, stream[1], make_schedule(top_k=2, **keep_all), cfg,
               np.random.default_rng(6))

    for layer in model.adapter_layers():
        assert (layer.router_for(0).top_k, layer.router_for(1).top_k) == (1, 2)
    assert model.embed(x, task=0).tobytes() == before.tobytes()


def test_training_is_deterministic_under_shared_seed():
    stream = two_task_stream()
    sched = make_schedule()
    cfg = make_cfg()

    def run():
        model = make_model()
        learn_task(model, 0, stream[0], sched, cfg, np.random.default_rng(7))
        return model

    a, b = run(), run()
    for la, lb in zip(a.adapter_layers(), b.adapter_layers()):
        assert len(la.experts) == len(lb.experts)
        for ea, eb in zip(la.experts, lb.experts):
            assert ea.down.tobytes() == eb.down.tobytes()
            assert ea.up.tobytes() == eb.up.tobytes()
        assert la.router_for(0).weight.tobytes() == lb.router_for(0).weight.tobytes()


def test_stage1_param_count_is_linear_in_candidates():
    counts = []
    for m in (1, 2, 3, 4):
        model = make_model()
        begin_task(model, 0, make_schedule(num_candidates=m), np.random.default_rng(8))
        counts.append(trainable_stage1_params(model, 0))
    second_diffs = np.diff(counts, n=2)
    assert (second_diffs == 0).all()
    assert counts[1] > counts[0]


def test_prune_report_counts_stage1_params_before_pruning():
    stream = two_task_stream()
    sched = make_schedule(prune_threshold=0.99, num_candidates=3)
    model = make_model()
    rng = np.random.default_rng(9)
    begin_task(model, 0, sched, rng)
    trace = fit_routing(model, 0, stream[0], sched, make_cfg(), rng)
    trained = trainable_stage1_params(model, 0)
    report = prune_candidates(model, 0, trace, sched.prune_threshold)
    assert report.removed_total > 0
    assert report.stage1_trainable_params == trained
    assert trainable_stage1_params(model, 0) < trained


def test_prune_threshold_extremes():
    stream = two_task_stream()
    sched_keep = make_schedule(prune_threshold=0.0)
    model = make_model()
    report, _ = learn_task(model, 0, stream[0], sched_keep, make_cfg(),
                           np.random.default_rng(9))
    assert report.removed_total == 0  # nothing is strictly below 0

    sched_cut = make_schedule(prune_threshold=0.99, num_candidates=3)
    model2 = make_model()
    report2, _ = learn_task(model2, 0, stream[0], sched_cut, make_cfg(),
                            np.random.default_rng(9))
    # three candidates cannot all hold 0.99 of the mass; at least two go
    assert report2.removed_total >= 2 * len(model2.adapters)
    assert model2.phase[0] == "done"  # no-survivor layers still finish


def test_plateau_stop_cuts_the_fit_short():
    model = make_model()
    data = two_task_stream()[0]
    # any drift is below the huge plateau threshold -> stop after two intervals
    sched = make_schedule(identify_steps=100, snapshot_interval=5,
                          kl_plateau_stop=1e6)
    rng = np.random.default_rng(10)
    begin_task(model, 0, sched, rng)
    trace = fit_routing(model, 0, data, sched, make_cfg(), rng)
    assert trace.snapshots[-1].step == 10  # 0, 5, 10 then stop


def test_kl_curve_properties():
    model = make_model()
    data = two_task_stream()[0]
    sched = make_schedule()
    rng = np.random.default_rng(11)
    begin_task(model, 0, sched, rng)
    trace = fit_routing(model, 0, data, sched, make_cfg(), rng)
    curve = kl_to_final(trace)
    assert [s for s, _ in curve] == [s.step for s in trace.snapshots]
    assert all(v >= 0.0 for _, v in curve)
    assert curve[-1][1] == 0.0  # final snapshot against itself
    with pytest.raises(StateError, match="two snapshots"):
        kl_to_final(RoutingTrace(task=0, snapshots=[trace.snapshots[0]]))


def test_non_finite_forward_raises_numeric_error():
    model = make_model()
    data = two_task_stream()[0]
    sched = make_schedule(identify_steps=60, finetune_steps=0)
    rng = np.random.default_rng(12)
    begin_task(model, 0, sched, rng)
    # poison the last adapter layer so its expert product overflows to inf
    last = model.adapter_layers()[-1]
    last.experts[0].up[...] = 1e200
    last.experts[0].down[...] = 1e200
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite"):
        fit_routing(model, 0, data, sched, make_cfg(), rng)


def test_huge_learning_rate_stalls_but_stays_finite():
    """Cosine normalisation absorbs exploding weights: an absurd learning
    rate degrades to a zero-gradient stall rather than a non-finite loss."""
    model = make_model()
    data = two_task_stream()[0]
    sched = make_schedule(identify_steps=10, finetune_steps=0)
    cfg = OptimConfig(learning_rate=1e160, penalty=0.0)
    rng = np.random.default_rng(12)
    begin_task(model, 0, sched, rng)
    with np.errstate(all="ignore"):
        trace = fit_routing(model, 0, data, sched, cfg, rng)
    assert all(np.isfinite(s.loss) for s in trace.snapshots)


def test_trace_requires_increasing_steps():
    def snap(step):
        return RoutingSnapshot(step=step, layer_weights=[], layer_probs=[], loss=0.0)

    with pytest.raises(StateError, match="strictly increasing"):
        RoutingTrace(task=0, snapshots=[snap(0), snap(5), snap(5)])
    with pytest.raises(StateError, match="strictly increasing"):
        RoutingTrace(task=0, snapshots=[snap(5), snap(0)])


def test_schedule_validation():
    with pytest.raises(ConfigError):
        make_schedule(identify_steps=0)
    with pytest.raises(ConfigError):
        make_schedule(prune_threshold=1.0)
    with pytest.raises(ConfigError):
        make_schedule(num_candidates=0)
    with pytest.raises(ConfigError):
        make_schedule(kl_plateau_stop=0.0)


def test_records_are_json_serialisable():
    model = make_model()
    data = two_task_stream()[0]
    sched = make_schedule()
    report, trace = learn_task(model, 0, data, sched, make_cfg(),
                               np.random.default_rng(13))
    t_rows = trace_records(trace)
    p_rows = prune_records(report)
    json.dumps(t_rows)
    json.dumps(p_rows)
    assert {r["layer"] for r in t_rows} == {0, 1}
    assert all(r["task"] == 0 for r in t_rows)
    assert len(p_rows) == 2
    assert all(r["threshold"] == sched.prune_threshold for r in p_rows)


def test_second_task_routers_see_all_predecessors():
    model = make_model()
    stream = two_task_stream()
    sched = make_schedule()
    cfg = make_cfg()
    learn_task(model, 0, stream[0], sched, cfg, np.random.default_rng(14))
    survivors = {l.layer_index: len(l.experts) for l in model.adapter_layers()}
    learn_task(model, 1, stream[1], sched, cfg, np.random.default_rng(15))
    for layer in model.adapter_layers():
        n0 = survivors[layer.layer_index]
        # the old router still sees exactly the prefix it was trained on
        assert layer.router_for(0).n_visible == n0
        assert layer.router_for(1).n_visible == len(layer.experts)
        assert all(e.owner_task == 0 for e in layer.experts[:n0])


# sha256 over every expert's (down, up) and every router's weight bytes after
# two AdamW tasks with weight decay, recorded before the AdamW update moved
# into `optim.apply_step`.  It pins bytes, so like the benchmark's golden
# files it holds for one NumPy/BLAS build.
ADAMW_TWO_TASK_DIGEST = "da114acaa83fffe84f04034752ef99d4718491b99dea190e4404563b8920ee96"


def test_adamw_learning_path_is_pinned():
    model = make_model()
    stream = two_task_stream()
    cfg = make_cfg(method="adamw", weight_decay=0.05)
    for t in (0, 1):
        learn_task(model, t, stream[t], make_schedule(), cfg, np.random.default_rng(40 + t))
    h = hashlib.sha256()
    for layer in model.adapter_layers():
        for e in layer.experts:
            h.update(e.down.tobytes())
            h.update(e.up.tobytes())
        for t in sorted(layer.routers):
            h.update(layer.routers[t].weight.tobytes())
    assert model.expert_counts() == {1: 3, 2: 4}  # pruning ran on one layer
    assert h.hexdigest() == ADAMW_TWO_TASK_DIGEST
