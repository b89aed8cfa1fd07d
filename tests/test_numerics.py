"""Core numeric primitives against hand-evaluated and finite-difference oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from submoe.errors import DimensionError, LabelError, NumericError
from submoe.numerics import (
    contrastive_loss, kl_divergence, rowwise_matmul, softmax, softmax_rows,
)

from oracles import finite_diff_grad, is_prob_vector, reference_contrastive_loss

# Hand-evaluated expectations, frozen before the implementations were run.
SOFTMAX_LN2_LN1 = (2.0 / 3.0, 1.0 / 3.0)          # softmax([ln 2, ln 1])
KL_POINT_VS_UNIFORM = math.log(2.0)                # KL([1,0] || [0.5,0.5])
KL_HALF_VS_SKEWED = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
# = 0.5108256237659907


def test_softmax_hand_value():
    out = softmax([math.log(2.0), math.log(1.0)])
    assert out == pytest.approx(SOFTMAX_LN2_LN1, abs=1e-15)


def test_softmax_shift_invariance():
    v = np.array([0.3, -1.2, 2.5])
    np.testing.assert_allclose(softmax(v), softmax(v + 1000.0), atol=1e-12)


def test_softmax_extreme_logits_stay_finite():
    out = softmax([1000.0, -1000.0, 0.0])
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0)


def test_softmax_rejects_bad_input():
    with pytest.raises(DimensionError):
        softmax([])
    with pytest.raises(DimensionError):
        softmax(np.zeros((2, 2)))
    with pytest.raises(NumericError):
        softmax([np.nan, 0.0])


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.integers(1, 12),
              elements=st.floats(-50, 50, allow_nan=False)))
def test_softmax_is_probability_vector(logits):
    assert is_prob_vector(softmax(logits))


def test_softmax_rows_matches_vector_softmax():
    m = np.array([[0.1, 2.0, -1.0], [5.0, 5.0, 5.0]])
    out = softmax_rows(m)
    for i in range(2):
        np.testing.assert_allclose(out[i], softmax(m[i]), atol=1e-15)


def test_kl_hand_values():
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(KL_POINT_VS_UNIFORM, abs=1e-12)
    assert kl_divergence([0.5, 0.5], [0.9, 0.1]) == pytest.approx(KL_HALF_VS_SKEWED, abs=1e-12)
    assert KL_HALF_VS_SKEWED == pytest.approx(0.5108, abs=1e-4)


def test_kl_identical_is_zero():
    p = softmax([0.2, 1.4, -0.7])
    assert kl_divergence(p, p) == 0.0


def test_kl_zero_in_q_is_floored_not_infinite():
    val = kl_divergence([0.5, 0.5], [1.0, 0.0])
    assert np.isfinite(val)
    assert val > 1.0  # log(0.5 / floor) is large but finite


def test_kl_shape_mismatch():
    with pytest.raises(DimensionError):
        kl_divergence([0.5, 0.5], [1.0, 0.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(
    arrays(np.float64, 6, elements=st.floats(-20, 20, allow_nan=False)),
    arrays(np.float64, 6, elements=st.floats(-20, 20, allow_nan=False)),
)
def test_kl_nonnegative(lp, lq):
    assert kl_divergence(softmax(lp), softmax(lq)) >= 0.0


def test_contrastive_uniform_similarities_gives_log_c():
    # image rows orthogonal to every text row -> all similarities equal 0
    img = np.zeros((2, 6))
    img[:, 0] = 1.0
    txt = np.zeros((4, 6))
    for c in range(4):
        txt[c, c + 2] = 1.0
    loss, _ = contrastive_loss(img, txt, [0, 3], temperature=0.5)
    assert loss == pytest.approx(math.log(4.0), abs=1e-12)


def test_contrastive_aligned_pair_small_temperature_drives_loss_to_zero():
    txt = np.eye(3)
    img = txt[1:2] * 5.0  # same direction as its label row
    loss, _ = contrastive_loss(img, txt, [1], temperature=0.01)
    assert loss < 1e-10


def test_contrastive_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(10):
        b, c, d = 4, 5, 7
        img = rng.standard_normal((b, d))
        txt = rng.standard_normal((c, d))
        y = rng.integers(0, c, size=b)
        temp = float(rng.uniform(0.1, 1.0))
        _, grad = contrastive_loss(img, txt, y, temp)
        fd = finite_diff_grad(lambda m: contrastive_loss(m, txt, y, temp)[0], img)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


def test_contrastive_errors():
    img = np.ones((2, 3))
    txt = np.eye(3)
    with pytest.raises(LabelError):
        contrastive_loss(img, txt, [0, 3], 0.5)
    with pytest.raises(NumericError):
        contrastive_loss(np.zeros((1, 3)), txt, [0], 0.5)
    with pytest.raises(NumericError):
        contrastive_loss(img, txt, [0, 1], -1.0)
    with pytest.raises(DimensionError):
        contrastive_loss(img, np.eye(4), [0, 1], 0.5)


@settings(max_examples=150, deadline=None)
@given(
    b=st.integers(1, 64),
    d=st.integers(1, 70),
    c=st.integers(1, 12),
    log_temp=st.floats(-3.0, 0.0),
    img_exp=st.integers(-170, 170),
    txt_exp=st.integers(-170, 170),
    seed=st.integers(0, 2 ** 31 - 1),
)
def test_contrastive_loss_is_bit_exact_against_its_first_form(
        b, d, c, log_temp, img_exp, txt_exp, seed):
    # tiny norms underflow to zero rows and huge ones overflow to infinity
    # in both; either way both must give the same bytes or the same error
    rng = np.random.default_rng(seed)
    img = rng.standard_normal((b, d)) * 10.0 ** img_exp
    txt = rng.standard_normal((c, d)) * 10.0 ** txt_exp
    labels = rng.integers(0, c, size=b)
    temp = 10.0 ** log_temp
    with np.errstate(all="ignore"):
        try:
            want = reference_contrastive_loss(img, txt, labels, temp)
        except NumericError as exc:
            with pytest.raises(NumericError) as got:
                contrastive_loss(img, txt, labels, temp)
            assert str(got.value) == str(exc)
            return
        loss, grad = contrastive_loss(img, txt, labels, temp)
    assert np.float64(loss).tobytes() == np.float64(want[0]).tobytes()
    assert grad.shape == want[1].shape and grad.tobytes() == want[1].tobytes()


def _zero_row(a, i):
    a = a.copy()
    a[i] = 0.0
    return a


def _poison(a, value):
    a = a.copy()
    a.flat[a.size // 2] = value
    return a


IMG, TXT = np.random.default_rng(3).standard_normal((4, 5)), np.eye(3, 5)
REJECTED = {
    "zero image row": (_zero_row(IMG, 2), TXT, [0, 1, 2, 0], 0.5),
    "zero text row": (IMG, _zero_row(TXT, 1), [0, 1, 2, 0], 0.5),
    "label too large": (IMG, TXT, [0, 1, 3, 0], 0.5),
    "label negative": (IMG, TXT, [0, -1, 2, 0], 0.5),
    "nan image": (_poison(IMG, np.nan), TXT, [0, 1, 2, 0], 0.5),
    "inf text": (IMG, _poison(TXT, -np.inf), [0, 1, 2, 0], 0.5),
    "zero temperature": (IMG, TXT, [0, 1, 2, 0], 0.0),
    "negative temperature": (IMG, TXT, [0, 1, 2, 0], -1.0),
    "nan temperature": (IMG, TXT, [0, 1, 2, 0], np.nan),
    "inf temperature": (IMG, TXT, [0, 1, 2, 0], np.inf),
    "label count": (IMG, TXT, [0, 1, 2], 0.5),
    "widths": (IMG, np.eye(3, 4), [0, 1, 2, 0], 0.5),
    "no images": (np.zeros((0, 5)), TXT, [], 0.5),
    "not a matrix": (IMG[0], TXT, [0], 0.5),
}


@pytest.mark.parametrize("args", REJECTED.values(), ids=REJECTED.keys())
def test_contrastive_loss_rejects_what_its_first_form_rejects(args):
    with pytest.raises(Exception) as want:
        reference_contrastive_loss(*args)
    with pytest.raises(type(want.value)) as got:
        contrastive_loss(*args)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


def test_contrastive_loss_reports_label_rows_then_labels_then_image_rows():
    zero_img, nan_img = _zero_row(IMG, 2), _poison(IMG, np.nan)
    for img in (zero_img, nan_img):
        with pytest.raises(NumericError, match="^zero-norm text embedding row$"):
            contrastive_loss(img, _zero_row(TXT, 1), [0, 1, 3, 0], 0.5)
        with pytest.raises(NumericError, match="^text embeddings contains non-finite"):
            contrastive_loss(img, _poison(TXT, np.inf), [0, 1, 3, 0], 0.5)
        with pytest.raises(LabelError):
            contrastive_loss(img, TXT, [0, 1, 3, 0], 0.5)
    with pytest.raises(NumericError, match="^image embeddings contains non-finite"):
        contrastive_loss(_zero_row(nan_img, 0), TXT, [0, 1, 2, 0], 0.5)


def test_finite_diff_on_known_quadratic():
    # f(x) = sum(x^2) has gradient 2x; central differences are exact up to rounding
    x = np.array([1.0, 2.0])
    grad = finite_diff_grad(lambda v: float((v * v).sum()), x, h=1e-5)
    np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-8)
    np.testing.assert_array_equal(x, [1.0, 2.0])  # input untouched


def test_finite_diff_rejects_bad_step():
    with pytest.raises(NumericError):
        finite_diff_grad(lambda v: 0.0, np.ones(2), h=0.0)


# (rows, inner, columns) of the products task-free evaluation makes: backbone
# and adapter layers at dim 16 and 64, rank 2, pooled label tables of 18 rows
MATMUL_SHAPES = [(192, 16, 16), (192, 64, 64), (192, 64, 2), (192, 2, 64),
                 (192, 64, 57), (192, 16, 18), (7, 8, 3), (1, 8, 8)]


@pytest.mark.parametrize("n,k,m", MATMUL_SHAPES)
def test_rowwise_matmul_equals_stacked_one_row_products(n, k, m):
    rng = np.random.default_rng(n * k + m)
    a = rng.standard_normal((n, k))
    b = rng.standard_normal((m, k)).T  # transposed view, as in `x @ w.T`
    ref = np.vstack([a[i:i + 1] @ b for i in range(n)])
    assert np.array_equal(rowwise_matmul(a, b), ref)
    for block in (2, 3, 5, n, n + 3):
        ref = np.vstack([a[s:s + block] @ b for s in range(0, n, block)])
        assert np.array_equal(rowwise_matmul(a, b, block), ref)
        out = np.empty((n, m))
        assert rowwise_matmul(a, b, block, out=out) is out
        assert out.tobytes() == ref.tobytes()


# (lead of a, lead of b): a 2-d against stacked experts, stacked against
# stacked, stacked against 2-d, and a broadcast lead
STACKED_LEADS = [((), (5,)), ((5,), (5,)), ((5,), ()), ((3, 1), (1, 4))]


@pytest.mark.parametrize("lead_a,lead_b", STACKED_LEADS)
@pytest.mark.parametrize("n,k,m", [(192, 64, 2), (192, 2, 64), (7, 8, 3), (1, 8, 8)])
def test_rowwise_matmul_with_stacked_operands_equals_per_item_block_products(
        lead_a, lead_b, n, k, m):
    rng = np.random.default_rng(n * k + m + len(lead_a) + 3 * len(lead_b))
    a = rng.standard_normal(lead_a + (n, k))
    b = rng.standard_normal(lead_b + (m, k)).swapaxes(-1, -2)  # as `down_all[s].transpose(0, 2, 1)`
    lead = np.broadcast_shapes(lead_a, lead_b)
    ai = np.broadcast_to(a, lead + (n, k))
    bi = np.broadcast_to(b, lead + (k, m))
    for block in (1, 2, 3, 7, n, n + 3):
        got = rowwise_matmul(a, b, block)
        assert got.shape == lead + (n, m)
        # into a view of a larger array, as the adapter fills its activations
        out = np.full((2,) + lead + (n, m), np.nan)
        view = out[1]
        assert rowwise_matmul(a, b, block, out=view) is view
        assert view.tobytes() == got.tobytes() and np.isnan(out[0]).all()
        for idx in np.ndindex(*lead):
            want = np.vstack([ai[idx][s:s + block] @ bi[idx] for s in range(0, n, block)])
            assert got[idx].tobytes() == want.tobytes()
