"""Mixture adapter layer: routing, forward/backward, and serialisation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submoe.adapter import (
    MixtureAdapterLayer, Router, layer_from_payload, layer_to_payload, top_k_select,
)
from submoe.errors import DimensionError, MissingRouterError, StateError
from submoe.numerics import softmax_rows

from oracles import expert_gradient_norm, finite_diff_grad
from reference_grads import full_backward


def make_layer(dim=6, rank=2, top_k=2, n_experts=3, task=0, seed=0,
               random_up=True, random_router=True) -> MixtureAdapterLayer:
    rng = np.random.default_rng(seed)
    layer = MixtureAdapterLayer(layer_index=0, dim=dim, rank=rank, top_k=top_k)
    for _ in range(n_experts):
        e = layer.add_expert(task, rng)
        if random_up:
            e.up = rng.standard_normal((dim, rank)) * 0.5
    router = layer.add_router(task)
    if random_router:
        router.weight = rng.standard_normal((n_experts, dim)) * 0.5
    return layer


def test_top_k_equal_probs_takes_lowest_indices():
    probs = np.full((1, 4), 0.25)
    mask = top_k_select(probs, 2)
    np.testing.assert_array_equal(mask, [[True, True, False, False]])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 64])
def test_top_k_select_equals_its_stable_sort(k):
    probs = np.array([[0.1, 0.4, 0.1, 0.4], [0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]])
    order = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    want = np.zeros(probs.shape, dtype=bool)
    np.put_along_axis(want, order, True, axis=1)
    assert top_k_select(probs, k).tobytes() == want.tobytes()


def test_route_equal_rows_renormalises_to_half():
    layer = make_layer(n_experts=4, random_router=False)  # zero router -> uniform probs
    dist = layer.route(0, np.random.default_rng(1).standard_normal((3, 6)))
    np.testing.assert_allclose(dist.probs, 0.25)
    np.testing.assert_array_equal(dist.top_k_mask[:, :2], True)
    np.testing.assert_array_equal(dist.top_k_mask[:, 2:], False)
    np.testing.assert_allclose(dist.weights[:, :2], 0.5, atol=1e-15)
    np.testing.assert_array_equal(dist.weights[:, 2:], 0.0)


def test_route_single_expert_is_degenerate():
    layer = make_layer(n_experts=1, top_k=2)
    dist = layer.route(0, np.ones((2, 6)))
    np.testing.assert_allclose(dist.probs, 1.0)
    np.testing.assert_allclose(dist.weights, 1.0)


def test_route_k_equals_n_matches_plain_softmax():
    layer = make_layer(n_experts=3, top_k=3)
    x = np.random.default_rng(2).standard_normal((4, 6))
    dist = layer.route(0, x)
    logits = x @ layer.router_for(0).weight.T
    np.testing.assert_allclose(dist.weights, softmax_rows(logits), atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2 ** 31 - 1))
def test_route_weights_are_valid(k, n_experts, seed):
    layer = make_layer(n_experts=n_experts, top_k=k, seed=seed)
    x = np.random.default_rng(seed + 1).standard_normal((3, 6))
    dist = layer.route(0, x)
    k_eff = min(k, n_experts)
    assert (dist.top_k_mask.sum(axis=1) == k_eff).all()
    np.testing.assert_allclose(dist.weights.sum(axis=1), 1.0, atol=1e-12)
    assert (dist.weights[~dist.top_k_mask] == 0.0).all()
    assert (dist.weights >= 0.0).all()


def test_forward_with_zero_up_is_identity():
    layer = make_layer(random_up=False)
    x = np.random.default_rng(3).standard_normal((5, 6))
    y, _, _ = layer.forward(0, x)
    np.testing.assert_array_equal(y, x)


def test_forward_matches_hand_computation():
    layer = make_layer(dim=4, rank=1, top_k=1, n_experts=2, seed=5)
    x = np.random.default_rng(6).standard_normal((3, 4))
    y, dist, _ = layer.forward(0, x)
    expected = x.copy()
    for b in range(3):
        j = int(dist.weights[b].argmax())
        e = layer.experts[j]
        expected[b] += dist.weights[b, j] * (e.up @ (e.down @ x[b]))
    np.testing.assert_allclose(y, expected, atol=1e-12)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    layer = make_layer(dim=5, rank=2, top_k=2, n_experts=3, seed=8)
    x = rng.standard_normal((4, 5))
    target = rng.standard_normal((4, 5))

    def loss_fn():
        y, _, _ = layer.forward(0, x)
        return 0.5 * float(((y - target) ** 2).sum())

    y, _, cache = layer.forward(0, x)
    grad_x, expert_grads, router_grad = layer.backward(cache, y - target)

    router = layer.router_for(0)

    def perturbed(arr, fn):
        def f(v):
            old = arr.copy()
            arr[...] = v
            out = fn()
            arr[...] = old
            return out
        return f

    fd_router = finite_diff_grad(perturbed(router.weight, loss_fn), router.weight)
    np.testing.assert_allclose(router_grad, fd_router, rtol=1e-6, atol=1e-8)
    for j, e in enumerate(layer.experts):
        fd_down = finite_diff_grad(perturbed(e.down, loss_fn), e.down)
        fd_up = finite_diff_grad(perturbed(e.up, loss_fn), e.up)
        np.testing.assert_allclose(expert_grads[j][0], fd_down, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(expert_grads[j][1], fd_up, rtol=1e-6, atol=1e-8)
    fd_x = finite_diff_grad(
        lambda v: 0.5 * float(((layer.forward(0, v)[0] - target) ** 2).sum()), x)
    np.testing.assert_allclose(grad_x, fd_x, rtol=1e-6, atol=1e-8)


@settings(max_examples=80, deadline=None)
@given(
    owners=st.lists(st.integers(0, 2), max_size=6).map(lambda tail: [0, 1] + tail),
    visible=st.lists(st.integers(0, 8), min_size=3, max_size=3),
    task=st.integers(0, 2),
    top_k=st.integers(1, 5),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2 ** 31 - 1),
)
def test_backward_is_bit_exact_on_owned_experts(owners, visible, task, top_k, rows, seed):
    # experts of several tasks in any order; each task's router sees a prefix
    # of the expert list, possibly empty
    dim, rank = 5, 2
    rng = np.random.default_rng(seed)
    layer = MixtureAdapterLayer(layer_index=0, dim=dim, rank=rank, top_k=top_k)
    for owner in owners:
        layer.add_expert(owner, rng).up = rng.standard_normal((dim, rank))
    for t, nv in enumerate(visible):
        layer.routers[t] = Router(weight=rng.standard_normal((min(nv, len(owners)), dim)))
    x = rng.standard_normal((rows, dim))
    g = rng.standard_normal((rows, dim))
    _, _, cache = layer.forward(task, x)
    ref_x, ref_experts, ref_router = full_backward(layer, cache, g)

    for input_grad in (True, False):
        grad_x, expert_grads, router_grad = layer.backward(cache, g, input_grad=input_grad)
        if input_grad:
            assert grad_x.tobytes() == ref_x.tobytes()
        else:
            assert grad_x is None
        assert router_grad.tobytes() == ref_router.tobytes()
        assert len(expert_grads) == cache.n_visible
        for j, got in enumerate(expert_grads):
            if owners[j] == task:
                assert got[0].tobytes() == ref_experts[j][0].tobytes()
                assert got[1].tobytes() == ref_experts[j][1].tobytes()
            else:
                assert got is None


def test_expert_grad_equals_routing_mass_times_sole_expert_grad():
    # single-row inputs so the routing mass is a scalar per expert
    rng = np.random.default_rng(9)
    for trial in range(20):
        layer = make_layer(dim=6, rank=2, top_k=2, n_experts=4, seed=100 + trial)
        x = rng.standard_normal((1, 6))
        g = rng.standard_normal((1, 6))
        _, dist, cache = layer.forward(0, x)
        _, expert_grads, _ = layer.backward(cache, g)
        for j in range(4):
            sole = dist.weights.copy()
            sole[:] = 0.0
            sole[0, j] = 1.0
            sole_dist = type(dist)(probs=dist.probs, top_k_mask=dist.top_k_mask, weights=sole)
            sole_cache = type(cache)(
                x=cache.x, task=cache.task, dist=sole_dist,
                down_acts=cache.down_acts, outputs=cache.outputs,
                n_visible=cache.n_visible, version=cache.version,
            )
            _, sole_grads, _ = layer.backward(sole_cache, g)
            w = dist.weights[0, j]
            np.testing.assert_allclose(expert_grads[j][0], w * sole_grads[j][0], atol=1e-10)
            np.testing.assert_allclose(expert_grads[j][1], w * sole_grads[j][1], atol=1e-10)


def test_zero_routing_mass_gives_exactly_zero_expert_grad():
    layer = make_layer(dim=6, rank=2, top_k=1, n_experts=3, seed=11)
    x = np.random.default_rng(12).standard_normal((1, 6))
    _, dist, cache = layer.forward(0, x)
    _, expert_grads, _ = layer.backward(cache, np.ones((1, 6)))
    for j in range(3):
        if dist.weights[0, j] == 0.0:
            assert np.all(expert_grads[j][0] == 0.0)
            assert np.all(expert_grads[j][1] == 0.0)


def test_expert_gradient_norm_single_entry():
    gd = np.zeros((2, 3))
    gu = np.zeros((3, 2))
    gd[1, 2] = -0.75
    norms = expert_gradient_norm([(gd, gu)])
    assert norms[0] == pytest.approx(0.75, abs=1e-15)


def test_missing_router_raises():
    layer = make_layer()
    with pytest.raises(MissingRouterError):
        layer.route(99, np.ones((1, 6)))


def test_stale_cache_raises():
    layer = make_layer()
    _, _, cache = layer.forward(0, np.ones((2, 6)))
    layer.add_expert(1, np.random.default_rng(0))
    with pytest.raises(StateError):
        layer.backward(cache, np.ones((2, 6)))


def test_bad_grad_shape_raises():
    layer = make_layer()
    _, _, cache = layer.forward(0, np.ones((2, 6)))
    with pytest.raises(DimensionError):
        layer.backward(cache, np.ones((3, 6)))


def test_old_router_forward_bitwise_stable_after_growth_and_prune():
    layer = make_layer(n_experts=2, task=0, seed=13)
    x = np.random.default_rng(14).standard_normal((4, 6))
    y_before, _, _ = layer.forward(0, x)
    rng = np.random.default_rng(15)
    for _ in range(3):
        e = layer.add_expert(1, rng)
        e.up = rng.standard_normal((6, 2))
    layer.add_router(1)
    y_grown, _, _ = layer.forward(0, x)
    np.testing.assert_array_equal(y_grown, y_before)
    pruned_ids = {e.expert_id for e in layer.experts if e.owner_task == 1}
    layer.remove_experts(pruned_ids, 1)
    y_pruned, _, _ = layer.forward(0, x)
    np.testing.assert_array_equal(y_pruned, y_before)


def test_serialisation_round_trip_is_bit_exact():
    layer = make_layer(seed=16)
    layer.experts[0].down[0, 0] = 0.1 + 0.2  # classic non-representable decimal
    payload = layer_to_payload(layer)
    import json
    restored = layer_from_payload(json.loads(json.dumps(payload)))
    assert restored.top_k == layer.top_k and restored.rank == layer.rank
    for a, b in zip(layer.experts, restored.experts):
        np.testing.assert_array_equal(a.down, b.down)
        np.testing.assert_array_equal(a.up, b.up)
        assert (a.owner_task, a.expert_id) == (b.owner_task, b.expert_id)
    for task in layer.routers:
        np.testing.assert_array_equal(
            layer.routers[task].weight, restored.routers[task].weight)


def test_prune_output_shift_bounded_by_cached_quantities():
    # removing low-mass experts perturbs outputs by at most
    # sum_j |w_before - w_after| * ||u_j|| per sample, all cache-computable
    layer = make_layer(dim=6, rank=2, top_k=3, n_experts=2, task=0, seed=17)
    rng = np.random.default_rng(18)
    for _ in range(2):
        e = layer.add_expert(1, rng)
        e.up = 0.3 * rng.standard_normal((6, 2))
    layer.add_router(1)
    layer.router_for(1).weight = rng.standard_normal((4, 6))
    x = rng.standard_normal((5, 6))
    y_before, dist_before, cache = layer.forward(1, x)
    out_norms = np.stack([np.linalg.norm(u, axis=1) for u in cache.outputs], axis=1)
    doomed = {layer.experts[3].expert_id}
    keep_cols = [0, 1, 2]
    layer.remove_experts(doomed, 1)
    y_after, dist_after, _ = layer.forward(1, x)
    w_before = dist_before.weights
    w_after = np.zeros_like(w_before)
    w_after[:, keep_cols] = dist_after.weights
    bound = (np.abs(w_before - w_after) * out_norms).sum(axis=1)
    shift = np.linalg.norm(y_before - y_after, axis=1)
    assert np.all(shift <= bound + 1e-12)
