"""End-to-end acceptance checks, one test per release criterion.

Each test pins the tolerance and (where relevant) the runtime budget it must
meet; streams and hyperparameters are frozen so the checks are bit-reproducible.
"""

from __future__ import annotations

import time

import numpy as np

from submoe.adapter import RoutingDistribution
from submoe.config import config_from_dict
from submoe.evaluation import (
    EvalState, average_score, cil_scores, last_score, task_accuracy, transfer_score,
)
from submoe.experiment import METRICS_FILE, run_experiment
from submoe.lifecycle import PhaseSchedule, kl_to_final, learn_task
from submoe.model import build_model
from submoe.optim import OptimConfig, apply_step, step_scale
from submoe.streams import Alignment, TaskSpec, generate_stream
from submoe.task_bank import TaskBank

from oracles import finite_diff_grad, proximal_argmin, soft_projection

DIM = 16


def orthogonal_stream(n_tasks=3, base_seed=0, classes=3):
    specs = [
        TaskSpec(task_id=i, classes=classes, samples_per_class=32,
                 eval_per_class=64, seed=base_seed + i, noise=0.05)
        for i in range(n_tasks)
    ]
    return generate_stream(specs, DIM, prototype_scale=2.0)


def sharing_stream():
    """Three fresh-subspace tasks followed by three perturbed replays."""
    specs = [
        TaskSpec(task_id=i, classes=3, samples_per_class=32, eval_per_class=64,
                 seed=i, noise=0.05)
        for i in range(3)
    ]
    specs += [
        TaskSpec(task_id=3 + i, classes=3, samples_per_class=32,
                 eval_per_class=64, seed=10 + i, noise=0.05,
                 alignment=Alignment(mode="reuse", source=i, perturbation=p))
        for i, p in enumerate((0.8, 0.8, 0.5))
    ]
    return generate_stream(specs, DIM, prototype_scale=2.0)


def train_stream(stream, model, sched, cfg):
    """Learn every task in order; returns (reports, traces) keyed by task."""
    reports, traces = {}, {}
    for data in stream:
        rng = np.random.default_rng(np.random.SeedSequence([0, 17, data.task_id]))
        rep, trace = learn_task(model, data.task_id, data, sched, cfg, rng)
        reports[data.task_id] = rep
        traces[data.task_id] = trace
    return reports, traces


def plastic_setup(tau=0.1):
    """3-task fresh-subspace run used by several checks below."""
    stream = orthogonal_stream()
    model = build_model(dim=DIM, depth=3, adapter_layers=[1, 2], rank=2,
                        top_k=2, temperature=0.4, seed=0)
    sched = PhaseSchedule(identify_steps=150, finetune_steps=50,
                          num_candidates=2, top_k=2, batch_size=48,
                          snapshot_interval=150, prune_threshold=tau)
    cfg = OptimConfig(learning_rate=5.0, penalty=0.005)
    return stream, model, sched, cfg


def test_criterion_01_damped_step_matches_quadratic_minimizer():
    """Closed-form damped update == argmin of the step's quadratic objective."""
    rng = np.random.default_rng(20250823)
    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        g = rng.standard_normal(d) * float(10.0 ** rng.integers(-2, 3))
        w = rng.standard_normal(d)
        pi = float(rng.choice([0.0, 1.0, rng.uniform()]))
        n = int(rng.integers(0, 6))
        c = OptimConfig(
            learning_rate=float(10.0 ** rng.uniform(-3, 1)),
            penalty=float(rng.choice([0.0, 10.0 ** rng.uniform(-4, 0)])),
        )
        oracle = proximal_argmin(g, w, pi, n, c)
        closed = w - c.learning_rate * step_scale(pi, n, c) * g
        worst = max(worst, float(np.max(np.abs(oracle - closed))))
    elapsed = time.monotonic() - start
    print(f"proximal agreement over 1000 draws: worst |diff| = {worst:.3e}, "
          f"{elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_applied_step_is_projected_gradient():
    """The executed update equals -lr * (projection @ gradient) per block, and
    the projection collapses to the identity when the penalty is off."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        c = OptimConfig(learning_rate=float(rng.uniform(0.01, 2.0)),
                        penalty=float(rng.uniform(0.0, 8.0)))
        n_cand = int(rng.integers(1, 5))
        shapes = [(int(rng.integers(1, 4)), int(rng.integers(1, 6)))
                  for _ in range(n_cand)]
        cand_w = [[rng.standard_normal(s)] for s in shapes]
        cand_g = [[rng.standard_normal(s)] for s in shapes]
        pis = [float(rng.choice([0.0, rng.uniform(0.01, 1.0)]))
               for _ in range(n_cand)]
        plain_w = rng.standard_normal((4, 3))
        plain_g = rng.standard_normal((4, 3))
        live = [[w[0].copy()] for w in cand_w]
        plain = [plain_w.copy()]
        report = apply_step(live, cand_g, pis, plain, [plain_g], c)
        proj = soft_projection(pis, report.change_count, c)
        proj_plain, proj_new = proj.apply([plain_g], cand_g)
        for j in range(n_cand):
            np.testing.assert_allclose(
                live[j][0], cand_w[j][0] - c.learning_rate * proj_new[j][0],
                atol=1e-12)
        np.testing.assert_allclose(
            plain[0], plain_w - c.learning_rate * proj_plain[0], atol=1e-12)

    # penalty off: projection is the identity, update is plain SGD, bitwise
    c0 = OptimConfig(learning_rate=0.3, penalty=0.0)
    proj0 = soft_projection([0.4, 1.0, 0.0], 3, c0)
    assert (proj0.new_scales == 1.0).all()
    w = rng.standard_normal((2, 5))
    g = rng.standard_normal((2, 5))
    live = [[w.copy()]]
    apply_step(live, [[g]], [0.7], [], [], c0)
    np.testing.assert_array_equal(live[0][0], w - 0.3 * g)
    print("projected-step identity held on 100 instances; "
          "penalty=0 reproduced plain SGD bitwise")


def test_criterion_03_analytic_gradients_match_finite_differences():
    """Full backward (experts, routers, similarity head) vs central FD."""
    rng = np.random.default_rng(11)
    start = time.monotonic()
    checked = 0
    for inst in range(50):
        dim = int(rng.integers(4, 7))
        rank = int(rng.integers(1, 3))
        model = build_model(dim=dim, depth=3, adapter_layers=[1, 2], rank=rank,
                            top_k=2, temperature=float(rng.uniform(0.2, 0.8)),
                            seed=inst)
        for layer in model.adapter_layers():
            for _ in range(2):
                e = layer.add_expert(0, rng)
                e.up[...] = 0.3 * rng.standard_normal(e.up.shape)
                e.down[...] = rng.standard_normal(e.down.shape)
            r = layer.add_router(0)
            r.weight[...] = rng.standard_normal(r.weight.shape)
        x = rng.standard_normal((3, dim))
        labels = rng.integers(0, 3, size=3)
        text = rng.standard_normal((3, dim))
        text /= np.linalg.norm(text, axis=1, keepdims=True)

        every_row = np.arange(len(x))
        _, grads = model.loss_and_grads(
            model.step_rows(x, labels, text, 0, len(x), True), every_row)

        def loss_of(target):
            saved = target.copy()

            def f(v):
                target[...] = v.reshape(target.shape)
                out, _ = model.loss_and_grads(
                    model.step_rows(x, labels, text, 0, len(x), True), every_row)
                target[...] = saved
                return out

            return f

        for lg in grads:
            layer = model.adapters[lg.layer_index]
            router = layer.router_for(0)
            tensors = [(lg.router_grad, router.weight)]
            for j, e in enumerate(layer.experts):
                gd, gu = lg.expert_grads[j]
                tensors += [(gd, e.down), (gu, e.up)]
            for analytic, param in tensors:
                num = finite_diff_grad(loss_of(param), param.ravel().copy())
                # atol floors the relative check where the gradient is ~0
                np.testing.assert_allclose(analytic.ravel(), num,
                                           rtol=1e-5, atol=1e-8)
                checked += analytic.size
    elapsed = time.monotonic() - start
    print(f"finite-difference agreement: {checked} partials over 50 "
          f"instances, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_04_expert_gradients_scale_with_routing_weight():
    """With the upstream gradient held fixed, an expert's gradient under
    mixture weights w equals w_j times its gradient as the sole expert."""
    rng = np.random.default_rng(13)
    for inst in range(10):
        dim = int(rng.integers(4, 8))
        n_exp = int(rng.integers(2, 5))
        model = build_model(dim=dim, depth=2, adapter_layers=[1], rank=2,
                            top_k=n_exp, temperature=0.5, seed=inst)
        layer = model.adapter_layers()[0]
        for _ in range(n_exp):
            e = layer.add_expert(0, rng)
            e.up[...] = rng.standard_normal(e.up.shape)
            e.down[...] = rng.standard_normal(e.down.shape)
        layer.add_router(0)
        x = rng.standard_normal((5, dim))
        gout = rng.standard_normal((5, dim))
        _, _, cache = layer.forward(0, x)

        w_vec = rng.dirichlet(np.ones(n_exp))

        def with_weights(w_rows):
            cache.dist = RoutingDistribution(probs=w_rows.copy(), weights=w_rows)
            return layer.backward(cache, gout)[1]

        mix_grads = with_weights(np.tile(w_vec, (5, 1)))
        for j in range(n_exp):
            one_hot = np.zeros((5, n_exp))
            one_hot[:, j] = 1.0
            sole = with_weights(one_hot)[j]
            for got, ref in zip(mix_grads[j], sole):
                np.testing.assert_allclose(got, w_vec[j] * ref, atol=1e-10)
    print("expert gradients scaled exactly with routing weight "
          "(10 instances, atol 1e-10)")


def test_criterion_05_old_task_logits_unchanged_by_new_task():
    stream, model, sched, cfg = plastic_setup()
    for data in stream[:2]:
        rng = np.random.default_rng(np.random.SeedSequence([0, 17, data.task_id]))
        learn_task(model, data.task_id, data, sched, cfg, rng)
    before = [
        model.logits(d.eval_x, d.text_emb, task=d.task_id).tobytes()
        for d in stream[:2]
    ]
    rng = np.random.default_rng(np.random.SeedSequence([0, 17, 2]))
    learn_task(model, 2, stream[2], sched, cfg, rng)
    after = [
        model.logits(d.eval_x, d.text_emb, task=d.task_id).tobytes()
        for d in stream[:2]
    ]
    assert before == after
    print("earlier-task logits byte-identical after learning a third task")


def test_criterion_06_prune_accounting_identity():
    """new = old + M - removed per layer, and pruned mass sits under 0.1."""
    stream, model, sched, cfg = plastic_setup(tau=0.1)
    for data in stream:
        before = [len(layer.experts) for layer in model.adapter_layers()]
        rng = np.random.default_rng(np.random.SeedSequence([0, 17, data.task_id]))
        rep, _ = learn_task(model, data.task_id, data, sched, cfg, rng)
        after = [len(layer.experts) for layer in model.adapter_layers()]
        for i, rec in enumerate(rep.layers):
            removed = len(rec.pruned_ids)
            assert after[i] == before[i] + sched.num_candidates - removed
            for cid, mass in zip(rec.candidate_ids, rec.mean_weights):
                if cid in rec.pruned_ids:
                    assert mass < 0.1
    print("per-layer growth accounting held on a 3-task stream "
          "(threshold 0.1)")


def test_criterion_07_penalty_grid_shrinks_expert_count():
    """Across the penalty grid, total retained experts never increase, and
    the largest penalty retains strictly fewer than no penalty."""
    start = time.monotonic()
    stream = sharing_stream()
    totals = []
    for lam in (0.0, 0.005, 0.01, 0.015, 0.02, 0.025):
        model = build_model(dim=DIM, depth=3, adapter_layers=[1, 2], rank=2,
                            top_k=64, temperature=0.4, seed=0)
        sched = PhaseSchedule(identify_steps=50, finetune_steps=30,
                              num_candidates=2, top_k=64, batch_size=48,
                              snapshot_interval=50, prune_threshold=0.030)
        cfg = OptimConfig(learning_rate=5.0, penalty=lam)
        train_stream(stream, model, sched, cfg)
        totals.append(sum(len(l.experts) for l in model.adapter_layers()))
    elapsed = time.monotonic() - start
    print(f"expert totals across penalty grid: {totals} ({elapsed:.1f}s)")
    assert all(b <= a for a, b in zip(totals, totals[1:])), totals
    assert totals[-1] < totals[0], totals
    assert elapsed < 300.0


def test_criterion_08_final_orthogonal_task_stays_learnable():
    """A fresh-subspace final task keeps candidates in every adapter layer
    and beats the frozen-backbone baseline by >= 20 accuracy points."""
    stream, model, sched, cfg = plastic_setup()
    train_stream(stream, model, sched, cfg)
    last = stream[-1]
    survivors = [
        sum(1 for e in layer.experts if e.owner_task == last.task_id)
        for layer in model.adapter_layers()
    ]
    adapted = task_accuracy(model, last, route_task=last.task_id)
    frozen = task_accuracy(model, last, route_task=None)
    print(f"survivors per layer {survivors}; adapted {adapted:.4f} vs "
          f"frozen backbone {frozen:.4f}")
    assert all(s >= 1 for s in survivors)
    assert adapted - frozen >= 0.20


def test_criterion_09_metric_formula_oracles():
    matrix = np.array([
        [0.90, 0.50, 0.40, 0.30],
        [0.80, 0.85, 0.45, 0.35],
        [0.75, 0.80, 0.90, 0.40],
        [0.70, 0.78, 0.88, 0.92],
    ])
    assert abs(transfer_score(matrix) - 0.425) <= 1e-12
    assert abs(last_score(matrix) - 0.82) <= 1e-12
    assert abs(average_score(matrix) - 0.6675) <= 1e-12

    small = np.array([
        [0.90, 0.30, 0.30],
        [0.80, 0.90, 0.50],
        [0.70, 0.85, 0.95],
    ])
    assert abs(transfer_score(small) - 0.35) <= 1e-12

    cil_last, cil_avg = cil_scores([0.9, 0.8, 0.7, 0.6, 0.85])
    assert abs(cil_last - 0.85) <= 1e-12
    assert abs(cil_avg - 0.77) <= 1e-12
    print("metric oracles matched to 1e-12 (incl. 3-task transfer 0.35)")


def test_criterion_10_bank_identification_and_fallback():
    stream, model, sched, cfg = plastic_setup()
    train_stream(stream, model, sched, cfg)

    bank = TaskBank(threshold=8.0)
    for data in stream:
        bank.enroll(data.task_id, model.embed(data.train_x[:32], None),
                    data.text_emb)
    queries = hits = 0
    for data in stream:
        w = EvalState().task_windows(model, bank, data, window=1)
        assert w.matched.all() and (w.nearest == data.task_id).all()
        given = np.concatenate([
            model.predict(data.eval_x[s:s + 1], data.text_emb, data.task_id)
            for s in range(data.eval_x.shape[0])
        ])
        assert np.array_equal(w.preds, given)
        queries += len(w.matched)
        hits += int((w.matched & (w.nearest == data.task_id)).sum())

    # threshold 0: nothing matches, inference must equal the bare backbone
    strict = TaskBank(threshold=0.0)
    for data in stream:
        strict.enroll(data.task_id, model.embed(data.train_x[:32], None),
                      data.text_emb)
    for data in stream:
        w = EvalState().task_windows(model, strict, data, window=1)
        assert not w.matched.any()
        fallback = np.concatenate([
            model.predict(data.eval_x[s:s + 1], data.text_emb, None)
            for s in range(data.eval_x.shape[0])
        ])
        assert np.array_equal(w.preds, fallback)
    print(f"identification {hits}/{queries}; matched path and fallback "
          "both bit-identical to their references")
    assert hits == queries


def test_criterion_11_routing_settles_before_loss():
    """The routing distribution converges (KL to final < 1e-2) while the
    loss is still more than 10% above its final value."""
    stream = orthogonal_stream(n_tasks=2, base_seed=40)
    model = build_model(dim=DIM, depth=3, adapter_layers=[1, 2], rank=2,
                        top_k=2, temperature=0.4, seed=0)
    sched = PhaseSchedule(identify_steps=600, finetune_steps=30,
                          num_candidates=1, top_k=2, batch_size=48,
                          snapshot_interval=5, prune_threshold=0.1)
    cfg = OptimConfig(learning_rate=5.0, penalty=0.2)
    _, traces = train_stream(stream, model, sched, cfg)
    trace = traces[1]
    curve = kl_to_final(trace)
    losses = [s.loss for s in trace.snapshots]
    final_loss = losses[-1]
    assert curve[0][1] >= 1e-2, "routing started already converged"
    idx = next(i for i, (_, kl) in enumerate(curve) if kl < 1e-2)
    print(f"KL start {curve[0][1]:.3g}; crossed 1e-2 at snapshot {idx} "
          f"(step {curve[idx][0]}) with loss {losses[idx]:.4f} vs final "
          f"{final_loss:.4f} (ratio {losses[idx] / final_loss:.2f})")
    assert losses[idx] > 1.1 * final_loss


def test_criterion_12_runs_are_byte_identical(tmp_path):
    raw = {
        "seed": 3,
        "output_dir": "runs/acceptance",
        "model": {"feature_dim": 8, "depth": 3, "adapter_layers": [1, 2],
                  "rank": 2},
        "schedule": {"identify_steps": 10, "finetune_steps": 5,
                     "num_candidates": 2, "batch_size": 8,
                     "snapshot_interval": 5},
        "optimizer": {"learning_rate": 0.5, "penalty": 0.01},
        "contrastive": {"temperature": 0.2},
        "task_bank": {"match_threshold": 50.0, "enroll_batch": 16},
        "evaluation": {"protocol": "id_free", "cil": True},
        "stream": [
            {"task_id": i, "classes": 3, "samples_per_class": 8,
             "eval_per_class": 4, "seed": i}
            for i in range(2)
        ],
    }
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_experiment(config_from_dict(raw), first)
    run_experiment(config_from_dict(raw), second)
    a = (first / METRICS_FILE).read_bytes()
    b = (second / METRICS_FILE).read_bytes()
    assert a == b
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    for name in files:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    print(f"two identical runs wrote byte-identical metrics "
          f"({len(a)} bytes) and {len(files)} byte-identical files")
