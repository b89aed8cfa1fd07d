"""Mixture adapter layer: routing, forward/backward, and serialisation."""

from __future__ import annotations

import copy
import pickle
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submoe import adapter
from submoe.adapter import ForwardCache, MixtureAdapterLayer, Router, top_k_select
from submoe.checkpoint import (
    layer_from_payload, layer_to_payload, read_container, write_container,
)
from submoe.errors import DimensionError, MissingRouterError, StateError
from submoe.model import build_model
from submoe.numerics import rowwise_matmul, softmax_rows

from oracles import expert_gradient_norm, finite_diff_grad, reference_route
from reference_grads import (
    CHUNK_BUDGETS, blockwise_matmul, chunk_budget, full_backward, loop_forward,
)


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
    mask = top_k_select(dist.probs, 2)
    np.testing.assert_array_equal(mask[:, :2], True)
    np.testing.assert_array_equal(mask[:, 2:], False)
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
    mask = top_k_select(dist.probs, k)
    assert (mask.sum(axis=1) == k_eff).all()
    np.testing.assert_allclose(dist.weights.sum(axis=1), 1.0, atol=1e-12)
    assert (dist.weights[~mask] == 0.0).all()
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
        layer.routers[t] = Router(weight=rng.standard_normal((min(nv, len(owners)), dim)),
                                  top_k=top_k)
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
            sole_dist = type(dist)(probs=dist.probs, weights=sole)
            sole_cache = type(cache)(
                x=cache.x, task=cache.task, dist=sole_dist, down_acts=cache.down_acts,
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


def _grown(layer: MixtureAdapterLayer) -> MixtureAdapterLayer:
    """`layer` with one expert of task 1 and task 1's router over all four."""
    layer.add_expert(1, np.random.default_rng(5))
    layer.add_router(1)
    return layer


def _stale_frozen_mix(layer: MixtureAdapterLayer, x: np.ndarray):
    frozen = layer.frozen_mix(0, x, block=2)
    layer.add_expert(1, np.random.default_rng(5))
    return layer.forward(0, x, frozen=frozen)


def _flags_on_a_frozen_mix(layer: MixtureAdapterLayer, x: np.ndarray):
    # task 1 owns expert 3 alone, so the frozen mix holds experts 0-2
    _, _, cache = layer.forward(1, x, frozen=_grown(layer).frozen_mix(1, x, block=2))
    return layer.backward(cache, np.ones_like(x), input_grad=False)


LAYER_REFUSALS = {
    "second router": (lambda layer, x: layer.add_router(0), StateError,
                      "layer 0 already has a router for task 0"),
    "unknown expert id": (lambda layer, x: layer.remove_experts({99}, 0), StateError,
                          "some expert ids to remove were not found"),
    "foreign expert id": (lambda layer, x: _grown(layer).remove_experts({0}, 1), StateError,
                          "expert 0 belongs to task 0, not 1"),
    "input of another width": (lambda layer, x: layer.route(0, x[:, :5]), DimensionError,
                               "layer dim 6, input width 5"),
    "stale frozen mix": (_stale_frozen_mix, StateError,
                         "frozen mix is stale: layer structure changed since frozen_mix()"),
    "flags on a frozen mix": (_flags_on_a_frozen_mix, StateError,
                              "a forward from a frozen mix keeps no activations of the experts "
                              "mixed in it: it has no input or router gradient"),
}


@pytest.mark.parametrize("name", sorted(LAYER_REFUSALS))
def test_the_layer_refuses_naming_the_fault(name):
    act, kind, message = LAYER_REFUSALS[name]
    layer = make_layer()
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        act(layer, np.random.default_rng(6).standard_normal((2, 6)))


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


def test_remove_experts_refuses_experts_another_router_sees():
    # task 1's router sees task 0's experts; dropping one of them would leave
    # that router with more rows than experts
    layer = make_layer(n_experts=2, task=0, seed=19)
    rng = np.random.default_rng(20)
    for _ in range(2):
        layer.add_expert(1, rng).up = rng.standard_normal((6, 2))
    layer.add_router(1).weight = rng.standard_normal((4, 6))
    x = rng.standard_normal((3, 6))
    y1, _, _ = layer.forward(1, x)

    def state():
        return ([(e.expert_id, e.down.tobytes(), e.up.tobytes()) for e in layer.experts],
                {t: r.weight.tobytes() for t, r in layer.routers.items()}, layer.version)

    before = state()
    with pytest.raises(StateError, match="visible to task 1"):
        layer.remove_experts({layer.experts[1].expert_id}, 0)
    assert state() == before
    assert layer.forward(1, x)[0].tobytes() == y1.tobytes()


def test_router_top_k_is_its_own():
    layer = make_layer(n_experts=3, top_k=1, seed=21)
    layer.add_router(1, top_k=3).weight = layer.router_for(0).weight.copy()
    x = np.random.default_rng(22).standard_normal((4, 6))
    assert (np.count_nonzero(layer.route(0, x).weights, axis=1) == 1).all()
    assert (np.count_nonzero(layer.route(1, x).weights, axis=1) == 3).all()
    assert layer.add_router(2).top_k == layer.top_k == 1


def test_serialisation_round_trip_is_bit_exact(tmp_path):
    layer = make_layer(seed=16)
    layer.experts[0].down[0, 0] = 0.1 + 0.2  # classic non-representable decimal
    path = write_container(tmp_path / "layer.bin", layer_to_payload(layer))
    restored = layer_from_payload(read_container(path))
    assert restored.top_k == layer.top_k and restored.rank == layer.rank
    for a, b in zip(layer.experts, restored.experts):
        np.testing.assert_array_equal(a.down, b.down)
        np.testing.assert_array_equal(a.up, b.up)
        assert (a.owner_task, a.expert_id) == (b.owner_task, b.expert_id)
    for task in layer.routers:
        np.testing.assert_array_equal(
            layer.routers[task].weight, restored.routers[task].weight)
        assert restored.routers[task].top_k == layer.routers[task].top_k


def test_prune_output_shift_bounded_by_cached_quantities():
    # removing low-mass experts perturbs outputs by at most
    # sum_j |w_before - w_after| * ||u_j|| per sample, all cache-computable:
    # u_j = a_j @ up_j.T from the cached down activations
    layer = make_layer(dim=6, rank=2, top_k=3, n_experts=2, task=0, seed=17)
    rng = np.random.default_rng(18)
    for _ in range(2):
        e = layer.add_expert(1, rng)
        e.up = 0.3 * rng.standard_normal((6, 2))
    layer.add_router(1)
    layer.router_for(1).weight = rng.standard_normal((4, 6))
    x = rng.standard_normal((5, 6))
    y_before, dist_before, cache = layer.forward(1, x)
    out_norms = np.stack([np.linalg.norm(a @ e.up.T, axis=1)
                          for a, e in zip(cache.down_acts, layer.experts)], axis=1)
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


# (dim, rows): under the default budget a chunk holds 20 experts at dim 64 and
# 100 rows, 8 at 256 rows and 6 at 300 rows; under `ONE_EXPERT_AT_48_ROWS` it
# holds 6 at dim 64 and 7 rows, 4 at dim 16 and 48 rows, and one at dim 64
# from 100 rows up.  So the larger layers cross chunks under both.
STACK_SHAPES = [(5, 1), (5, 6), (64, 1), (64, 7), (64, 100), (64, 256), (64, 300),
                (16, 48)]


@pytest.mark.parametrize("budget", CHUNK_BUDGETS.values(), ids=CHUNK_BUDGETS.keys())
@settings(max_examples=60, deadline=None)
@given(
    owners=st.lists(st.integers(0, 2), min_size=1, max_size=24),
    visible=st.lists(st.integers(0, 24), min_size=3, max_size=3),
    task=st.integers(0, 2),
    top_k=st.integers(1, 30),
    shape=st.sampled_from(STACK_SHAPES),
    block=st.sampled_from([None, 1, 3, 7]),
    rebind=st.booleans(),
    event=st.sampled_from(["none", "remove", "checkpoint"]),
    seed=st.integers(0, 2 ** 31 - 1),
)
def test_stacked_layer_is_bit_exact_against_a_loop_over_experts(
        budget, owners, visible, task, top_k, shape, block, rebind, event, seed):
    # each task's router sees a prefix of the expert list, possibly empty
    dim, rows = shape
    rng = np.random.default_rng(seed)
    layer = MixtureAdapterLayer(layer_index=0, dim=dim, rank=2, top_k=top_k)
    for owner in owners:
        e = layer.add_expert(owner, rng)
        if rebind:  # the expert's array is then no longer a slot of the pack
            e.up = rng.standard_normal((dim, 2))
        else:
            e.up[...] = rng.standard_normal((dim, 2))
    for t, nv in enumerate(visible):
        layer.routers[t] = Router(weight=rng.standard_normal((min(nv, len(owners)), dim)),
                                  top_k=top_k)
    if event == "remove":
        # task 3 sees every expert, then loses one of its own two
        for _ in range(2):
            layer.add_expert(3, rng).up[...] = rng.standard_normal((dim, 2))
        layer.add_router(3).weight = rng.standard_normal((len(layer.experts), dim))
        layer.remove_experts({layer.experts[-2 + seed % 2].expert_id}, 3)
        task = 3
    elif event == "checkpoint":
        # a loaded layer's arrays are owned copies, as `read_container` makes
        layer = layer_from_payload(copy.deepcopy(layer_to_payload(layer)))
    engine = np.matmul if block is None else partial(rowwise_matmul, block=block)
    ref = np.matmul if block is None else partial(blockwise_matmul, block=block)
    x = rng.standard_normal((rows, dim))
    g = rng.standard_normal((rows, dim))

    with chunk_budget(budget):
        y, dist, cache = layer.forward(task, x, engine)
        passes = [(input_grad, router_grad,
                   layer.backward(cache, g, input_grad=input_grad, router_grad=router_grad))
                  for input_grad in (True, False) for router_grad in (True, False)]
    ref_y, ref_dist, ref_cache = loop_forward(layer, task, x, ref)
    assert y.tobytes() == ref_y.tobytes()
    for name in ("probs", "weights"):
        assert getattr(dist, name).tobytes() == getattr(ref_dist, name).tobytes()
    assert (cache.task, cache.n_visible, cache.version) == (
        ref_cache.task, ref_cache.n_visible, ref_cache.version)
    assert cache.x.tobytes() == ref_cache.x.tobytes()
    assert cache.down_acts.shape == (cache.n_visible, rows, 2)
    for got, want in zip(cache.down_acts, ref_cache.down_acts):
        assert got.tobytes() == want.tobytes()

    ref_x, ref_experts, ref_router = full_backward(layer, ref_cache, g)
    for input_grad, router_grad, (grad_x, expert_grads, rgrad) in passes:
        if input_grad:
            assert grad_x.tobytes() == ref_x.tobytes()
        else:
            assert grad_x is None
        if router_grad:
            assert rgrad.tobytes() == ref_router.tobytes()
        else:
            assert rgrad is None
        assert len(expert_grads) == cache.n_visible
        for j, got in enumerate(expert_grads):
            if layer.experts[j].owner_task == task:
                assert got[0].tobytes() == ref_experts[j][0].tobytes()
                assert got[1].tobytes() == ref_experts[j][1].tobytes()
            else:
                assert got is None


@pytest.mark.parametrize("acts", [
    lambda acts: list(acts),                  # the loop oracle's per-expert list
    lambda acts: acts[:-1],                   # one expert short
    lambda acts: acts.transpose(1, 0, 2),     # [rows, n_visible, rank]
    lambda acts: None,                        # no activations at all
], ids=["list", "short", "transposed", "none"])
def test_backward_refuses_a_cache_its_forward_did_not_make(acts):
    layer = make_layer(n_experts=3, seed=31)
    x = np.random.default_rng(32).standard_normal((5, 6))
    _, _, cache = layer.forward(0, x)
    foreign = ForwardCache(
        x=cache.x, task=cache.task, dist=cache.dist, down_acts=acts(cache.down_acts),
        n_visible=cache.n_visible, version=cache.version)
    with pytest.raises(StateError, match="a foreign cache"):
        layer.backward(foreign, np.ones_like(x))


@pytest.mark.parametrize("n_visible", [1, 4, 9])
@pytest.mark.parametrize("k_offset", [-3, -1, 0, 1, 50])
@pytest.mark.parametrize("scale", [0.0, 0.5, 40.0])
def test_route_is_bit_exact_against_its_first_form(n_visible, k_offset, scale):
    # top_k below, at and above the visible count; a zero router ties every
    # expert and a large one saturates the softmax
    top_k = max(1, n_visible + k_offset)
    layer = make_layer(dim=7, top_k=top_k, n_experts=n_visible, seed=n_visible)
    router = layer.router_for(0)
    router.weight = router.weight * scale
    x = np.random.default_rng(5).standard_normal((33, 7))
    dist = layer.route(0, x)
    want = reference_route(router.weight, top_k, x)
    for name in ("probs", "weights"):
        got, ref = getattr(dist, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    for rows in (1, 2, 33):
        part = layer.route(0, x[:rows])
        assert part.mean_weights().tobytes() == np.mean(part.weights, axis=0).tobytes()
        assert part.mean_probs().tobytes() == np.mean(part.probs, axis=0).tobytes()


def test_experts_are_views_of_the_packed_arrays():
    layer = make_layer(n_experts=3, seed=23)
    down_all, up_all = layer.down_all, layer.up_all
    assert down_all.shape == (3, 2, 6) and up_all.shape == (3, 6, 2)
    for i, e in enumerate(layer.experts):
        assert np.shares_memory(e.down, down_all[i]) and np.shares_memory(e.up, up_all[i])
        assert e.down.tobytes() == down_all[i].tobytes()
        assert e.up.tobytes() == up_all[i].tobytes()
    # assignment writes the values into the slot: the expert stays its view
    layer.experts[1].up = np.ones((6, 2))
    assert (up_all[1] == 1.0).all() and np.shares_memory(layer.experts[1].up, up_all[1])
    # an in-place update of an expert is an update of the pack
    layer.experts[2].down += 1.0
    assert layer.down_all is down_all
    assert down_all[2].tobytes() == layer.experts[2].down.tobytes()
    with pytest.raises(DimensionError):
        layer.experts[0].down = np.ones((2, 5))
    assert layer.experts[0].down.shape == (2, 6)
    assert np.shares_memory(layer.experts[0].down, down_all[0])


def test_assignment_reaches_the_pass():
    layer = make_layer(n_experts=3, seed=29)
    rng = np.random.default_rng(30)
    x = rng.standard_normal((5, 6))
    layer.experts[0].up = rng.standard_normal((6, 2))
    layer.experts[1].down += 0.25
    layer.experts[2].up *= -2.0
    y, _, _ = layer.forward(0, x)
    ref, _, _ = loop_forward(layer, 0, x)
    assert y.tobytes() == ref.tobytes()
    # the same values through a layer packed from fresh copies of the arrays
    assert y.tobytes() == rebuilt(layer).forward(0, x)[0].tobytes()


def test_passes_never_reallocate_the_packs():
    layer = make_layer(dim=8, n_experts=5, top_k=3, seed=37)
    packs = layer.down_all, layer.up_all
    rng = np.random.default_rng(38)
    for rows in (1, 4, 48):
        x = rng.standard_normal((rows, 8))
        y, _, cache = layer.forward(0, x)
        layer.backward(cache, np.ones_like(y))
        layer.experts[rows % 5].up += 0.5  # a learning step's in-place write
    frozen = layer.frozen_mix(0, x, block=48)
    layer.backward(layer.forward(0, x, frozen=frozen)[2], np.ones_like(y),
                   input_grad=False, router_grad=False)
    assert layer.down_all is packs[0] and layer.up_all is packs[1]
    for i, e in enumerate(layer.experts):
        assert np.shares_memory(e.down, packs[0][i]) and np.shares_memory(e.up, packs[1][i])


def test_only_the_layer_changes_its_expert_list():
    layer = make_layer(n_experts=2, seed=39)
    assert isinstance(layer.experts, tuple)
    with pytest.raises(AttributeError):
        layer.experts.append(layer.experts[0])
    # an expert belongs to one layer: a second layer would take its slot
    with pytest.raises(StateError):
        MixtureAdapterLayer(layer_index=1, dim=6, rank=2, top_k=2, experts=[layer.experts[0]])
    added = layer.add_expert(0, np.random.default_rng(40))
    assert layer.experts[-1] is added and layer.down_all.shape[0] == 3
    assert np.shares_memory(added.up, layer.up_all[2])


def rebuilt(layer: MixtureAdapterLayer) -> MixtureAdapterLayer:
    """A layer packed from fresh copies of `layer`'s expert and router arrays."""
    return MixtureAdapterLayer(
        layer_index=layer.layer_index, dim=layer.dim, rank=layer.rank, top_k=layer.top_k,
        experts=[adapter.LoraExpert(e.down.copy(), e.up.copy(), e.owner_task, e.expert_id)
                 for e in layer.experts],
        routers={t: Router(r.weight.copy(), r.top_k) for t, r in layer.routers.items()},
        version=layer.version, next_expert_id=layer.next_expert_id)


COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda layer: pickle.loads(pickle.dumps(layer))}


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_copied_layer_stays_consistent_after_an_in_place_write(how):
    layer = make_layer(dim=8, n_experts=4, top_k=4, seed=41)
    rng = np.random.default_rng(42)
    x = rng.standard_normal((6, 8))
    layer.forward(0, x)  # a layer in use, as a model mid-training is
    twin = COPIES[how](layer)
    # the copy first, then the original: each write reaches only its own layer
    for written, other in ((twin, layer), (layer, twin)):
        kept = other.forward(0, x)[0].tobytes()
        for e in written.experts:  # what a learning step does to a candidate
            e.up += rng.standard_normal(e.up.shape)
            e.down -= 0.1 * rng.standard_normal(e.down.shape)
        written.router_for(0).weight += 0.1 * rng.standard_normal((4, 8))
        got = written.forward(0, x)[0]
        assert got.tobytes() == rebuilt(written).forward(0, x)[0].tobytes()
        assert got.tobytes() != kept
        assert other.forward(0, x)[0].tobytes() == kept
        for i, e in enumerate(written.experts):
            assert np.shares_memory(e.up, written.up_all[i])
            assert np.shares_memory(e.down, written.down_all[i])
    kept = layer.forward(0, x)[0].tobytes()
    twin.remove_experts({twin.experts[-1].expert_id}, 0)  # pruning drops a router row
    assert layer.forward(0, x)[0].tobytes() == kept


def test_a_training_cache_holds_only_the_down_activations_and_routing():
    # dim 64, 48 rows and 29 experts: their outputs alone would be 696 KiB
    layer = make_layer(dim=64, n_experts=29, top_k=29, seed=41)
    x = np.random.default_rng(42).standard_normal((48, 64))
    layer.forward(0, x)  # packs the layer and keeps its chunk shapes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = layer.forward(0, x)[2]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert cache.down_acts.shape == (29, 48, 2)
    assert held < 64 * 1024


def test_a_layer_whose_candidates_were_all_pruned_passes_forward_and_backward():
    layer = make_layer(dim=64, n_experts=2, seed=43)
    layer.remove_experts({e.expert_id for e in layer.experts}, 0)
    rng = np.random.default_rng(44)
    x, g = rng.standard_normal((48, 64)), rng.standard_normal((48, 64))
    y, dist, cache = layer.forward(0, x)
    assert y.tobytes() == x.tobytes() and dist.weights.shape == (48, 0)
    assert cache.n_visible == 0 and cache.down_acts.shape == (0, 48, 2)
    grad_x, expert_grads, rgrad = layer.backward(cache, g)
    assert np.array_equal(grad_x, g)
    assert expert_grads == [] and rgrad.shape == (0, 64)


def assert_same_grads(got, want) -> None:
    assert got[0].tobytes() == want[0].tobytes()
    assert got[2].tobytes() == want[2].tobytes()
    for g, w in zip(got[1], want[1], strict=True):
        assert g[0].tobytes() == w[0].tobytes() and g[1].tobytes() == w[1].tobytes()


def test_backward_after_later_passes_on_the_layer_gives_the_same_grads():
    # a cache holds everything its backward reads, not the workspace, so
    # other forwards and backwards may run on the layer in between (the
    # benchmark sweeps do)
    layer = make_layer(dim=64, n_experts=29, top_k=5, seed=45)
    rng = np.random.default_rng(46)
    x, x2, g = (rng.standard_normal((48, 64)) for _ in range(3))
    want = layer.backward(layer.forward(0, x)[2], g)
    cache = layer.forward(0, x)[2]
    layer.backward(layer.forward(0, x2)[2], g)
    layer.forward(0, x2[:7])
    layer.forward(0, rng.standard_normal((300, 64)))  # chunks of another shape
    assert_same_grads(layer.backward(cache, g), want)


def model_layers(seed: int) -> list[MixtureAdapterLayer]:
    """The two dim-64 adapter layers of a model whose task 0 owns 29 live
    experts per layer and mixes all of them."""
    model = build_model(dim=64, depth=3, adapter_layers=[1, 2], rank=2, top_k=64,
                        temperature=0.4, seed=seed)
    rng = np.random.default_rng(seed)
    for layer in model.adapter_layers():
        for _ in range(29):
            layer.add_expert(0, rng).up[...] = 0.5 * rng.standard_normal((64, 2))
        layer.add_router(0).weight[...] = rng.standard_normal((29, 64))
    return model.adapter_layers()


@pytest.mark.parametrize("pair", ["two layers of one model", "two models"])
def test_interleaved_passes_share_the_workspace_without_changing_a_result(pair, monkeypatch):
    # every layer of every model writes its chunks to the process's one
    # workspace: a model's forward and backward interleave its layers'
    # passes, and a caller that holds two models (the benchmark worker keeps
    # the last call's) can interleave the models'
    monkeypatch.setattr(adapter, "_work", np.empty(adapter.CHUNK_BYTES // 8))
    first = model_layers(61)
    a, b = first if pair == "two layers of one model" else (first[0], model_layers(62)[0])
    rng = np.random.default_rng(63)
    xa, xb, ga, gb = (rng.standard_normal((48, 64)) for _ in range(4))
    alone = []
    for layer, x, g in ((a, xa, ga), (b, xb, gb)):
        y, _, cache = layer.forward(0, x)
        alone.append((y, layer.backward(cache, g)))

    ya, _, cache_a = a.forward(0, xa)
    yb, _, cache_b = b.forward(0, xb)
    a.forward(0, rng.standard_normal((2100, 64)))
    assert adapter._work.size == 2100 * 64  # one expert outgrew the budget
    grads_b = b.backward(cache_b, gb)
    grads_a = a.backward(cache_a, ga)
    assert ya.tobytes() == alone[0][0].tobytes() and yb.tobytes() == alone[1][0].tobytes()
    assert_same_grads(grads_a, alone[0][1])
    assert_same_grads(grads_b, alone[1][1])


def test_a_pass_over_29_experts_makes_one_stacked_product_per_stage():
    # dim 64 and 48 rows, the shape of every training step of the dim-64
    # workloads: a chunk of the default budget holds 42 experts
    layer = make_layer(dim=64, n_experts=29, top_k=29, seed=47)
    rng = np.random.default_rng(48)
    x, g = rng.standard_normal((48, 64)), rng.standard_normal((48, 64))
    calls = []

    def counting(a, b, out=None):
        calls.append((a.shape, b.shape))
        return np.matmul(a, b, out=out)

    cache = layer.forward(0, x, counting)[2]
    # the router's product, then the down and the up stage
    assert calls == [((48, 64), (64, 29)), ((48, 64), (29, 64, 2)), ((29, 48, 2), (29, 2, 64))]
    calls.clear()
    layer.backward(cache, g)
    assert calls == [((29, 48, 2), (29, 2, 64))]  # the outputs, recomputed
