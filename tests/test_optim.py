"""Damped-step optimiser: closed form vs generic quadratic minimisation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submoe.errors import ConfigError, DimensionError, NumericError
from submoe.optim import (
    OptimConfig, apply_step, init_adamw_state, penalty_value, step_scale,
)

from oracles import block_dot, proximal_argmin, soft_projection, total_loss

# Frozen hand evaluations of the damping factor 1 / (1 + 2*lr*penalty*n*pi)
SCALE_FULL_MASS = 0.5            # lr=0.1, penalty=5, n=1, pi=1 -> 1/2
SCALE_PARTIAL = 1.0 / 1.8        # lr=0.1, penalty=5, n=2, pi=0.4 -> 0.5555...


def cfg(lr=0.1, penalty=5.0, **kw) -> OptimConfig:
    return OptimConfig(learning_rate=lr, penalty=penalty, **kw)


def test_step_scale_hand_values():
    assert step_scale(1.0, 1, cfg()) == pytest.approx(SCALE_FULL_MASS, abs=1e-15)
    assert step_scale(0.4, 2, cfg()) == pytest.approx(SCALE_PARTIAL, abs=1e-15)
    assert SCALE_PARTIAL == pytest.approx(0.5556, abs=1e-4)
    with pytest.raises(NumericError, match=r"^routing mass must lie in \[0, 1\], got 1.5$"):
        step_scale(1.5, 1, cfg())
    with pytest.raises(NumericError, match="^change count must be >= 0, got -1$"):
        step_scale(0.5, -1, cfg())


def test_step_scale_zero_penalty_is_exactly_one():
    assert step_scale(0.7, 3, cfg(penalty=0.0)) == 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-4, 10.0), st.floats(0.0, 50.0), st.floats(0.0, 1.0),
    st.integers(0, 8),
)
def test_step_scale_bounds_and_monotonicity(lr, penalty, pi, n):
    c = cfg(lr=lr, penalty=penalty)
    s = step_scale(pi, n, c)
    assert 0.0 < s <= 1.0
    # non-increasing in penalty, pi, and n
    assert step_scale(pi, n, cfg(lr=lr, penalty=penalty + 1.0)) <= s
    assert step_scale(min(1.0, pi + 0.1), n, c) <= s + 1e-15
    assert step_scale(pi, n + 1, c) <= s


def test_proximal_oracle_matches_applied_step():
    rng = np.random.default_rng(0)
    for _ in range(300):
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        g = rng.standard_normal(shape)
        w = rng.standard_normal(shape)
        pi = float(rng.uniform(0.0, 1.0))
        c = cfg(lr=float(rng.uniform(1e-3, 1.0)), penalty=float(rng.uniform(0.0, 10.0)))
        # a lone candidate with mass and gradient counts as the only change
        n = 1 if pi > 0.0 else 0
        oracle = proximal_argmin(g, w, pi, n, c)
        live = [[w.copy()]]
        apply_step(live, [[g]], [pi], [], [], c)
        np.testing.assert_allclose(live[0][0], oracle, atol=1e-10)


def test_proximal_oracle_multi_candidate_change_count():
    rng = np.random.default_rng(10)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        ws = [rng.standard_normal(3) for _ in range(k)]
        gs = [rng.standard_normal(3) for _ in range(k)]
        pis = [float(rng.uniform(0.05, 1.0)) for _ in range(k)]
        c = cfg(lr=0.3, penalty=float(rng.uniform(0.5, 6.0)))
        live = [[w.copy()] for w in ws]
        apply_step(live, [[g] for g in gs], pis, [], [], c)
        for j in range(k):
            oracle = proximal_argmin(gs[j], ws[j], pis[j], k, c)
            np.testing.assert_allclose(live[j][0], oracle, atol=1e-10)


def test_proximal_oracle_agrees_with_scipy_minimiser():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(1)
    for _ in range(5):
        g = rng.standard_normal(6)
        w = rng.standard_normal(6)
        pi, n = 0.6, 2
        c = cfg(lr=0.2, penalty=3.0)

        def objective(v):
            d = v - w
            return float(g @ d + (d @ d) / (2 * c.learning_rate)
                         + c.penalty * n * pi * (d @ d))

        res = scipy_opt.minimize(objective, w.copy(), method="BFGS",
                                 options={"gtol": 1e-12})
        np.testing.assert_allclose(proximal_argmin(g, w, pi, n, c), res.x, atol=1e-6)


def test_zero_penalty_step_is_bitwise_plain_sgd():
    rng = np.random.default_rng(2)
    g = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 4))
    c = cfg(penalty=0.0, lr=0.025)
    expected = w - c.learning_rate * g
    live = [[w.copy()]]
    apply_step(live, [[g]], [0.8], [], [], c)
    np.testing.assert_array_equal(live[0][0], expected)


def test_zero_routing_mass_candidate_steps_like_plain_sgd():
    g = np.ones((2, 2))
    w = np.zeros((2, 2))
    c = cfg(penalty=9.0, lr=0.5)
    live = [[w.copy()]]
    apply_step(live, [[g]], [0.0], [], [], c)
    np.testing.assert_array_equal(live[0][0], -0.5 * g)


def test_applied_step_equals_projected_gradient_blockwise():
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = cfg(lr=float(rng.uniform(0.01, 1.0)), penalty=float(rng.uniform(0.0, 8.0)))
        n_cand = int(rng.integers(1, 4))
        cand_w = [[rng.standard_normal((2, 3))] for _ in range(n_cand)]
        cand_g = [[rng.standard_normal((2, 3))] for _ in range(n_cand)]
        pis = [float(rng.uniform(0.01, 1.0)) for _ in range(n_cand)]
        router_w = rng.standard_normal((4, 3))
        router_g = rng.standard_normal((4, 3))
        live = [[w[0].copy()] for w in cand_w]
        plain = [router_w.copy()]
        report = apply_step(live, cand_g, pis, plain, [router_g], c)
        proj = soft_projection(pis, report.change_count, c)
        proj_plain, proj_new = proj.apply([router_g], cand_g)
        for j in range(n_cand):
            expected = cand_w[j][0] - c.learning_rate * proj_new[j][0]
            np.testing.assert_allclose(live[j][0], expected, atol=1e-12)
        np.testing.assert_allclose(plain[0], router_w - c.learning_rate * proj_plain[0],
                                   atol=1e-12)


def test_projection_scales_are_identity_at_zero_penalty():
    proj = soft_projection([0.3, 0.9, 1.0], 3, cfg(penalty=0.0))
    assert (proj.new_scales == 1.0).all()


def test_block_dot_is_zero():
    rng = np.random.default_rng(4)
    assert block_dot(rng.standard_normal((3, 2)), rng.standard_normal(5)) == 0.0


def test_penalty_value_hand_example():
    w_prev = np.zeros(4)
    live = [[w_prev + 1.0]]  # displacement norm^2 = 4
    assert penalty_value([0.5], live, [[w_prev]], 1) == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(DimensionError, match="^candidate count mismatch between live params, "
                                             "prev, and pis$"):
        penalty_value([0.5, 0.5], live, [[w_prev]], 1)


def test_penalty_value_zero_without_movement():
    w = np.random.default_rng(5).standard_normal(3)
    assert penalty_value([0.9], [[w.copy()]], [[w]], 2) == 0.0


def test_change_count_requires_mass_and_gradient():
    c = cfg()
    live = [[np.zeros(2)], [np.zeros(2)], [np.zeros(2)]]
    grads = [[np.ones(2)], [np.zeros(2)], [np.ones(2)]]
    report = apply_step(live, grads, [0.5, 0.5, 0.0], [], [], c)
    assert report.change_count == 1  # only the first block has mass and gradient


def test_total_loss_combines_and_checks():
    c = cfg(penalty=0.5)
    assert total_loss(1.25, 4.0, c) == pytest.approx(3.25)
    assert total_loss(1.25, 4.0, cfg(penalty=0.0)) == 1.25
    with pytest.raises(NumericError):
        total_loss(float("nan"), 0.0, c)


def test_config_validation():
    with pytest.raises(ConfigError):
        OptimConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        OptimConfig(learning_rate=0.1, penalty=-1.0)
    with pytest.raises(ConfigError):
        OptimConfig(learning_rate=0.1, method="lbfgs")


def test_apply_step_shape_guards():
    with pytest.raises(DimensionError):
        apply_step([[np.zeros(2)]], [], [0.5], [], [], cfg())
    with pytest.raises(DimensionError, match="^plain params and grads must align$"):
        apply_step([], [], [], [np.zeros(2)], [], cfg())
    live = [[np.zeros(2)]]
    with pytest.raises(DimensionError):  # AdamW without a moment per array
        apply_step(live, [[np.ones(2)]], [0.5], [], [], cfg(method="adamw"),
                   init_adamw_state([]))


def test_adamw_moves_params_and_respects_scale():
    rng = np.random.default_rng(7)
    c = cfg(method="adamw")  # a lone candidate with full mass is damped by 1/2
    g = rng.standard_normal(4)
    base = rng.standard_normal(4)
    a, b = base.copy(), base.copy()
    adam = init_adamw_state([b, a])
    report = apply_step([[b]], [[g]], [1.0], [a], [g], c, adam)
    assert report.scales == [SCALE_FULL_MASS]
    assert adam.t == 1 and np.abs(base - a).sum() > 0
    # moments depend only on the gradient, so the first damped step is
    # exactly scale times the full one
    np.testing.assert_allclose(base - b, 0.5 * (base - a), atol=1e-12)


def test_adamw_weight_decay_shrinks_params():
    c = OptimConfig(learning_rate=0.1, method="adamw", weight_decay=0.1)
    p = np.full(3, 100.0)
    g = np.zeros(3)
    apply_step([], [], [], [p], [g], c, init_adamw_state([p]))
    # zero gradient contributes nothing; decoupled decay still shrinks
    np.testing.assert_allclose(p, 100.0 * (1.0 - 0.01), atol=1e-12)
