"""Two-phase per-task training: expansion, routing fit, pruning, fine-tune."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from submoe.config import config_from_dict
from submoe.errors import ConfigError, DataError, NumericError, StateError
from submoe.experiment import prepare_run
from submoe.lifecycle import (
    PhaseSchedule, RoutingSnapshot, RoutingTrace, begin_task, finetune_experts,
    fit_routing, kl_to_final, learn_task, prune_candidates, prune_records,
    trace_records,
)
from submoe.model import AdapterModel, build_model, trainable_stage1_params
from submoe.optim import OptimConfig
from submoe.streams import Alignment, TaskSpec, generate_stream

from oracles import blas_kernel, for_kernel, frozen_fingerprint
from pinned import ADAMW_ENTRY, adamw_two_task, recorded
from reference_grads import full_loss_and_grads

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
    with pytest.raises(DataError, match="^task 0: empty training set$"):
        fit_routing(model, 0, replace(data, train_x=data.train_x[:0], train_y=data.train_y[:0]),
                    sched, cfg, rng)
    trace = fit_routing(model, 0, data, sched, cfg, rng)
    foreign = RoutingTrace(task=1, snapshots=trace.snapshots)
    with pytest.raises(StateError, match="belongs to task"):
        prune_candidates(model, 0, foreign, 0.1)
    final = trace.snapshots[-1]
    for weights, message in (
            (final.layer_weights[:1], "^trace layer count does not match the model$"),
            ([w[:-1] for w in final.layer_weights],
             f"^layer 1: trace has {final.layer_weights[0].size - 1} experts, router sees "
             f"{final.layer_weights[0].size}$")):
        cut = RoutingTrace(task=0, snapshots=[replace(final, layer_weights=weights)])
        with pytest.raises(StateError, match=message):
            prune_candidates(model, 0, cut, 0.1)
    prune_candidates(model, 0, trace, 0.0)  # every candidate survives
    with pytest.raises(DataError, match="^task has no training rows$"):
        finetune_experts(model, 0, replace(data, train_x=data.train_x[:0],
                                           train_y=data.train_y[:0]), sched, cfg, rng)


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


def test_finetune_without_survivors_takes_no_step(monkeypatch):
    # the demo's task 0 at prune_threshold 0.99 prunes every candidate
    raw = json.loads((Path(__file__).resolve().parents[1] / "configs" / "demo.json").read_text())
    raw["schedule"]["prune_threshold"] = 0.99
    raw["stream"] = raw["stream"][:1]
    cfg = config_from_dict(raw)
    (data,), model, _ = prepare_run(cfg)
    rng = np.random.default_rng(0)
    begin_task(model, 0, cfg.schedule, rng)
    trace = fit_routing(model, 0, data, cfg.schedule, cfg.optimizer, rng)
    prune_candidates(model, 0, trace, cfg.schedule.prune_threshold)
    assert sum(model.expert_counts().values()) == 0
    calls = []
    real = AdapterModel.loss_and_grads
    monkeypatch.setattr(AdapterModel, "loss_and_grads",
                        lambda self, *a, **kw: calls.append(1) or real(self, *a, **kw))
    before = frozen_fingerprint(model)
    finetune_experts(model, 0, data, cfg.schedule, cfg.optimizer, rng)
    assert calls == []
    assert model.phase[0] == "done" and model.learned_tasks == [0] and model.current_task is None
    assert frozen_fingerprint(model) == before


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


def test_adamw_learning_path_is_pinned():
    """Two AdamW tasks with weight decay, pinned by the sha256 over every
    expert's and router's bytes, recorded before the AdamW update moved into
    `optim.apply_step` (`tests/pinned.py`)."""
    model, got = adamw_two_task()
    assert model.expert_counts() == {1: 3, 2: 4}  # pruning ran on one layer
    assert got == for_kernel(recorded())[ADAMW_ENTRY], f"BLAS kernel {blas_kernel()}"


# A phase's steps read what `AdapterModel.step_rows` made once for every
# training row.  These cases run whole phases at dim 64 over 96 training
# rows, with 14 frozen experts below the candidates: each step must equal,
# bit for bit, a step computed from scratch on its batch's own rows.  On
# the SkylakeX kernel a cache made from one product over all 96 rows fails
# every case, through the frozen routing of 14-16 experts at K 64 or, at
# 16 rows, the prefix (the Haswell kernel rounds those products alike).
PHASE_CASES = {
    "48 of 96 rows": dict(batch_size=48),
    "a tail block": dict(batch_size=40),
    "top_k masking": dict(batch_size=48, top_k=3),
    "adamw": dict(batch_size=16, method="adamw"),
    "no survivor at the lowest layer": dict(batch_size=48, clear_lowest=True),
}


def _grown_model(top_k: int, old_tasks: int = 7):
    """A dim-64 model whose adapter layers hold two live experts and a
    router for each of `old_tasks` earlier tasks, as if learned."""
    model = build_model(dim=64, depth=3, adapter_layers=[1, 2], rank=2, top_k=top_k,
                        temperature=0.4, seed=0)
    rng = np.random.default_rng(60)
    for t in range(old_tasks):
        for layer in model.adapter_layers():
            for _ in range(2):
                e = layer.add_expert(t, rng)
                e.up[...] = 0.3 * rng.standard_normal(e.up.shape)
            layer.add_router(t).weight[...] = rng.standard_normal((len(layer.experts), 64))
        model.phase[t] = "done"
        model.learned_tasks.append(t)
    return model


def _reference_step(model, x, labels, text, task):
    """(loss, {layer: (expert_grads, router_grad)}, {layer: dist}) of a step
    computed from scratch on the rows `x`."""
    loss, layers = full_loss_and_grads(model, x, labels, text, task)
    _, tape = model._forward(x, task, keep_tape=True)
    return loss, layers, {i: cache.dist for i, (_, cache) in enumerate(tape) if cache}


@pytest.mark.parametrize("case", PHASE_CASES.values(), ids=PHASE_CASES.keys())
def test_every_phase_step_equals_a_step_from_scratch(monkeypatch, case):
    case = dict(case)
    clear_lowest = case.pop("clear_lowest", False)
    method = case.pop("method", "sgd")
    model = _grown_model(case.pop("top_k", 64))
    task = 7
    data = generate_stream([TaskSpec(task_id=task, classes=3, samples_per_class=32,
                                     eval_per_class=8, seed=3)], 64)[0]
    assert data.train_x.shape[0] == 96
    sched = make_schedule(identify_steps=12, finetune_steps=12, snapshot_interval=6,
                          prune_threshold=0.0, **case)
    cfg = make_cfg(learning_rate=1.0, method=method)
    real = AdapterModel.loss_and_grads
    frozen = []

    def checked_step(self, rows, idx):
        x, y = data.train_x[idx], data.train_y[idx]
        ref_loss, ref_layers, ref_dists = _reference_step(self, x, y, data.text_emb, task)
        loss, grads = real(self, rows, idx)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        for lg in grads:
            ref_experts, ref_router = ref_layers[lg.layer_index]
            ref_dist = ref_dists[lg.layer_index]
            assert lg.dist.probs.tobytes() == ref_dist.probs.tobytes()
            assert lg.dist.weights.tobytes() == ref_dist.weights.tobytes()
            if rows.frozen is None:
                assert lg.router_grad.tobytes() == ref_router.tobytes()
            else:
                assert lg.router_grad is None
            owner = [e.owner_task for e in self.adapters[lg.layer_index].experts]
            for j, got in enumerate(lg.expert_grads):
                if owner[j] == task:
                    assert [g.tobytes() for g in got] == [g.tobytes() for g in ref_experts[j]]
                else:
                    assert got is None
        frozen.append(rows.frozen is not None)
        return loss, grads

    monkeypatch.setattr(AdapterModel, "loss_and_grads", checked_step)
    rng = np.random.default_rng(61)
    begin_task(model, task, sched, rng)
    trace = fit_routing(model, task, data, sched, cfg, rng)
    prune_candidates(model, task, trace, sched.prune_threshold)
    lowest = model.adapters[1]
    if clear_lowest:
        lowest.remove_experts({lowest.experts[i].expert_id
                              for i in lowest.candidate_indices(task)}, task)
    finetune_experts(model, task, data, sched, cfg, rng)
    assert frozen == [False] * 12 + [True] * 12
    assert 13 <= lowest.router_for(task).n_visible <= 16
    assert len(lowest.candidate_indices(task)) == (0 if clear_lowest else 2)
