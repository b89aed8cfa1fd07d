"""Backbone plus adapter stack: forward semantics and the full analytic
backward pass checked against finite differences."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from submoe.errors import ConfigError, DimensionError
from submoe.model import AdapterModel, build_backbone, build_model, trainable_stage1_params
from submoe.numerics import contrastive_loss

from oracles import finite_diff_grad, frozen_fingerprint
from reference_grads import full_loss_and_grads

DIM = 6


def make_model(seed=0, rank=2, top_k=2, temperature=0.5) -> AdapterModel:
    return build_model(dim=DIM, depth=3, adapter_layers=[1, 2], rank=rank,
                       top_k=top_k, temperature=temperature, seed=seed)


def attach_task(model: AdapterModel, task: int, n_experts: int, seed=0) -> None:
    """Grow each adapter layer by live (randomised) experts plus a router."""
    rng = np.random.default_rng(seed)
    for layer in model.adapter_layers():
        for _ in range(n_experts):
            e = layer.add_expert(task, rng)
            e.up[...] = 0.3 * rng.standard_normal(e.up.shape)
            e.down[...] = rng.standard_normal(e.down.shape)
        r = layer.add_router(task)
        r.weight[...] = rng.standard_normal(r.weight.shape)


def batch(rng, n=5):
    x = rng.standard_normal((n, DIM))
    labels = rng.integers(0, 3, size=n)
    text = rng.standard_normal((3, DIM))
    text /= np.linalg.norm(text, axis=1, keepdims=True)
    return x, labels, text


def test_backbone_layers_are_orthogonal_and_deterministic():
    bb = build_backbone(DIM, 4, seed=3)
    for w in bb.weights:
        np.testing.assert_allclose(w @ w.T, np.eye(DIM), atol=1e-12)
    again = build_backbone(DIM, 4, seed=3)
    for a, b in zip(bb.weights, again.weights):
        assert a.tobytes() == b.tobytes()
    assert build_backbone(DIM, 4, seed=4).weights[0].tobytes() != bb.weights[0].tobytes()


def test_taskless_embed_is_the_bare_tanh_stack():
    model = make_model()
    attach_task(model, 0, n_experts=2)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, DIM))
    h = x
    for i in range(model.backbone.depth):
        h = np.tanh(h @ model.backbone.weights[i].T + model.backbone.biases[i])
    np.testing.assert_array_equal(model.embed(x, task=None), h)


def test_zero_output_experts_leave_embedding_unchanged():
    model = make_model()
    rng = np.random.default_rng(2)
    for layer in model.adapter_layers():
        for _ in range(3):
            layer.add_expert(0, rng)  # up stays zero
        layer.add_router(0)
    x = rng.standard_normal((4, DIM))
    np.testing.assert_array_equal(model.embed(x, task=0), model.embed(x, task=None))


def step(model, x, labels, text, task, router_grad=True):
    """One learning step over every row of `x`: the rows a phase would make
    for them, in one block, and the batch of all of them."""
    rows = model.step_rows(x, labels, text, task, len(x), router_grad)
    return model.loss_and_grads(rows, np.arange(len(x)))


def test_loss_and_grads_match_finite_differences():
    model = make_model()
    attach_task(model, 0, n_experts=3, seed=4)
    rng = np.random.default_rng(5)
    x, labels, text = batch(rng)

    loss, grads = step(model, x, labels, text, task=0)

    def loss_of(arr, target):
        saved = target.copy()

        def f(v):
            target[...] = v.reshape(target.shape)
            out, _ = step(model, x, labels, text, task=0)
            target[...] = saved
            return out

        return f

    assert len(grads) == 2
    for lg in grads:
        layer = model.adapters[lg.layer_index]
        router = layer.router_for(0)
        num = finite_diff_grad(loss_of(None, router.weight),
                               router.weight.ravel().copy())
        np.testing.assert_allclose(lg.router_grad.ravel(), num, atol=1e-5)
        for j, e in enumerate(layer.experts):
            gd, gu = lg.expert_grads[j]
            num_d = finite_diff_grad(loss_of(None, e.down), e.down.ravel().copy())
            np.testing.assert_allclose(gd.ravel(), num_d, atol=1e-5)
            num_u = finite_diff_grad(loss_of(None, e.up), e.up.ravel().copy())
            np.testing.assert_allclose(gu.ravel(), num_u, atol=1e-5)
    assert np.isfinite(loss)


def test_loss_and_grads_equal_the_full_backward_bitwise():
    # adapters at 1 and 2 of 4 layers: the backward pass stops at layer 1,
    # and each layer returns gradients only for the routed task's experts
    model = build_model(dim=DIM, depth=4, adapter_layers=[1, 2], rank=2,
                        top_k=2, temperature=0.5, seed=0)
    attach_task(model, 0, n_experts=2, seed=20)
    attach_task(model, 1, n_experts=3, seed=21)
    x, labels, text = batch(np.random.default_rng(22))
    for task, router_grad in ((0, True), (1, True), (0, False), (1, False)):
        loss, grads = step(model, x, labels, text, task=task, router_grad=router_grad)
        ref_loss, ref_layers = full_loss_and_grads(model, x, labels, text, task)
        assert loss == ref_loss
        assert [lg.layer_index for lg in grads] == sorted(ref_layers)
        for lg in grads:
            ref_experts, ref_router = ref_layers[lg.layer_index]
            if router_grad:
                assert lg.router_grad.tobytes() == ref_router.tobytes()
            else:  # a frozen router: no router gradient, the rest unchanged
                assert lg.router_grad is None
            layer = model.adapters[lg.layer_index]
            assert len(lg.expert_grads) == len(ref_experts)
            for j, got in enumerate(lg.expert_grads):
                if layer.experts[j].owner_task == task:
                    assert got[0].tobytes() == ref_experts[j][0].tobytes()
                    assert got[1].tobytes() == ref_experts[j][1].tobytes()
                else:
                    assert got is None


def test_routing_snapshot_matches_direct_loss():
    model = make_model()
    attach_task(model, 0, n_experts=2, seed=6)
    rng = np.random.default_rng(7)
    x, labels, text = batch(rng)
    loss, weights, probs = model.routing_snapshot(x, labels, text, task=0)
    direct, _ = contrastive_loss(model.embed(x, 0), text, labels, model.temperature)
    assert loss == pytest.approx(direct, abs=1e-12)
    assert len(weights) == 2
    for w, p in zip(weights, probs):
        assert w.shape == (2,) and p.shape == (2,)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("top_k", [1, 2, 64])
def test_inference_passes_equal_a_forward_that_keeps_its_tape(top_k):
    # embed and routing_snapshot keep no tape; their values are those of
    # the training forward
    model = make_model(top_k=top_k)
    attach_task(model, 0, n_experts=3, seed=30)
    attach_task(model, 1, n_experts=2, seed=31)
    x, labels, text = batch(np.random.default_rng(32), n=9)
    for task in (0, 1):
        emb, tape = model._forward(x, task, keep_tape=True)
        dists = [cache.dist for _, cache in tape if cache is not None]
        loss, weights, probs = model.routing_snapshot(x, labels, text, task)
        assert loss == contrastive_loss(emb, text, labels, model.temperature)[0]
        assert [w.tobytes() for w in weights] == [
            np.mean(d.weights, axis=0).tobytes() for d in dists]
        assert [p.tobytes() for p in probs] == [
            np.mean(d.probs, axis=0).tobytes() for d in dists]
        assert model.embed(x, task).tobytes() == emb.tobytes()


def test_a_learning_step_peaks_under_one_mib():
    # dim 64, 48 rows and 29 experts per layer: the forward keeps no expert
    # outputs for the backward, which recomputes them chunk by chunk
    model = build_model(dim=64, depth=3, adapter_layers=[1, 2], rank=2, top_k=64,
                        temperature=0.4, seed=0)
    attach_task(model, 0, n_experts=14, seed=50)
    attach_task(model, 1, n_experts=15, seed=51)
    rng = np.random.default_rng(52)
    x, labels = rng.standard_normal((48, 64)), rng.integers(0, 3, size=48)
    text = rng.standard_normal((3, 64))
    step(model, x, labels, text, task=1)  # packs the layers
    tracemalloc.start()
    try:
        _, grads = step(model, x, labels, text, task=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(lg.expert_grads) for lg in grads] == [29, 29]
    assert peak < 2**20


def test_predict_shapes_and_range():
    model = make_model()
    attach_task(model, 0, n_experts=2, seed=8)
    rng = np.random.default_rng(9)
    x, _, text = batch(rng, n=7)
    logits = model.logits(x, text, task=0)
    assert logits.shape == (7, 3)
    assert (np.abs(logits) <= 1.0 + 1e-12).all()  # cosine similarities
    preds = model.predict(x, text, task=0)
    assert preds.shape == (7,) and preds.min() >= 0 and preds.max() < 3


def test_build_model_validation():
    with pytest.raises(ConfigError, match="adapter_layers"):
        build_model(DIM, 3, [], 2, 1, 0.5, 0)
    with pytest.raises(ConfigError, match="outside"):
        build_model(DIM, 3, [3], 2, 1, 0.5, 0)
    with pytest.raises(ConfigError, match="duplicate"):
        build_model(DIM, 3, [1, 1], 2, 1, 0.5, 0)
    with pytest.raises(ConfigError, match="rank"):
        build_model(DIM, 3, [1], 0, 1, 0.5, 0)
    with pytest.raises(ConfigError, match="temperature"):
        build_model(DIM, 3, [1], 2, 1, 0.0, 0)


def test_input_width_guard():
    model = make_model()
    with pytest.raises(DimensionError):
        model.embed(np.zeros((2, DIM + 1)), task=None)


def test_trainable_param_count():
    model = make_model(rank=2)
    attach_task(model, 0, n_experts=3, seed=10)
    # per layer: 3 candidates * (2*6 down + 6*2 up) + router 3*6
    assert trainable_stage1_params(model, 0) == 2 * (3 * 24 + 18)


def test_fingerprint_excludes_named_task():
    model = make_model()
    attach_task(model, 0, n_experts=2, seed=11)
    attach_task(model, 1, n_experts=2, seed=12)
    full = frozen_fingerprint(model)
    without = frozen_fingerprint(model, exclude_task=1)
    assert len(full) > len(without)
    assert all(k in full for k in without)
    # mutating an excluded expert leaves the filtered fingerprint unchanged
    for layer in model.adapter_layers():
        for e in layer.candidates(1):
            e.up += 1.0
    assert frozen_fingerprint(model, exclude_task=1) == without
    assert frozen_fingerprint(model) != full
