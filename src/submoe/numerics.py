"""Float64 numeric primitives shared by every other module.

Everything here is pure and operates on plain numpy arrays.  The contrastive
loss has one body, `table_loss`: a learning phase checks its label rows once
with `label_table` and `label_ids`, and `contrastive_loss` is those three in
a row.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionError, LabelError, NumericError

# Probabilities below this are floored before entering a log.
KL_FLOOR = 1e-12


def as_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got shape {arr.shape}")
    return arr


def require_finite(name: str, arr: np.ndarray) -> None:
    # the reduction `ndarray.all` makes, without its Python wrapper
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NumericError(f"{name} contains non-finite entries")


# `matmul(a, b, out=None)`: `a @ b`, written to `out` when given
MatMul = Callable[..., np.ndarray]


def rowwise_matmul(a: np.ndarray, b: np.ndarray, block: int = 1,
                   out: np.ndarray | None = None) -> np.ndarray:
    """`a @ b` as one BLAS call per block of `block` consecutive rows of `a`
    (the last block may be shorter) and per matrix of the leading stacked
    axes of `a` and `b`, which broadcast as they do in `np.matmul`.  The
    result goes to `out` when given, as with `np.matmul`.

    The result equals the products of each block of each matrix,
    ``a[..., s:s + block, :] @ b``, stacked back in row order, bit for bit:
    NumPy's stacked matmul loops over the leading axes in C and makes, for
    each block, the BLAS call that the 2-d product of that block makes (GEMV
    for one row, GEMM for more).  A single GEMM over all rows rounds
    differently in the last ulp, which can flip an argmax between tied
    columns, so code that must reproduce one-window-at-a-time results
    batches through this instead of `a @ b`.
    """
    *lead, n, k = a.shape
    if out is None:
        out = np.empty((*np.broadcast_shapes(tuple(lead), b.shape[:-2]), n, b.shape[-1]),
                       np.result_type(a, b))
    full = n - n % block
    head = out[..., :full, :]
    # splitting the row axis of `head` into blocks is a view of `out`
    np.matmul(a[..., :full, :].reshape(*lead, full // block, block, k), b[..., None, :, :],
              out=head.reshape(*head.shape[:-2], full // block, block, head.shape[-1]))
    if full < n:
        np.matmul(a[..., full:, :], b, out=out[..., full:, :])
    return out


def by_row_blocks(fn: Callable[[slice], tuple[np.ndarray, ...]], n: int,
                  block: int) -> tuple[np.ndarray, ...]:
    """The arrays `fn(rows)` returns for each slice `rows` of `block`
    consecutive rows out of `n`, stitched back by row.  The blocks run from
    row 0, and the last is the last `block` rows, which may repeat rows of
    the one before it: every call sees exactly `block` rows, so each row's
    values come from products of that one shape."""
    if not 1 <= block <= n:
        raise DimensionError(f"blocks of {block} rows need 1 to {n} of them")
    out: tuple[np.ndarray, ...] = ()
    for s in (*range(0, n - block, block), n - block):
        part = fn(slice(s, s + block))
        if not out:
            out = tuple(np.empty((n, *p.shape[1:]), p.dtype) for p in part)
        for o, p in zip(out, part):
            o[s:s + block] = p
    return out


def softmax(logits) -> np.ndarray:
    """Stable softmax of a 1-d logit vector."""
    v = np.asarray(logits, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError(f"softmax expects a non-empty 1-d vector, got shape {v.shape}")
    require_finite("logits", v)
    e = np.exp(v - v.max())
    return e / e.sum()


def softmax_rows(logits) -> np.ndarray:
    """Row-wise stable softmax of a 2-d logit array."""
    m = as_matrix(logits)
    if m.shape[1] == 0:
        raise DimensionError("softmax needs at least one column")
    require_finite("logits", m)
    e = m - np.maximum.reduce(m, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def kl_divergence(p, q) -> float:
    """KL(p || q) with q floored at KL_FLOOR and renormalised; 0*log(0) := 0."""
    pa = np.asarray(p, dtype=np.float64)
    qa = np.asarray(q, dtype=np.float64)
    if pa.ndim != 1 or pa.shape != qa.shape:
        raise DimensionError(f"KL needs matching 1-d vectors, got {pa.shape} vs {qa.shape}")
    require_finite("p", pa)
    require_finite("q", qa)
    qf = np.maximum(qa, KL_FLOOR)
    qf = qf / qf.sum()
    mask = pa > 0.0
    val = float(np.sum(pa[mask] * np.log(pa[mask] / qf[mask])))
    # exact p == q can land a few ulp below zero; the quantity itself is >= 0
    return max(val, 0.0)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row: what `np.linalg.norm(x, axis=1)` computes
    for real input, without its conjugate copy.  The loss,
    `model.cosine_logits` and the streams' unit rows normalise through it."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def label_table(txt_emb, width: int, temperature: float) -> np.ndarray:
    """The per-task part of `contrastive_loss`: the label rows checked
    (non-empty, `width` wide, finite, none of zero norm), with `temperature`,
    and scaled to unit norm.  A learning phase makes it once for every
    `table_loss` of its steps."""
    txt = as_matrix(txt_emb)
    if txt.shape[0] == 0:
        raise DimensionError("contrastive loss needs at least one image and one label row")
    if txt.shape[1] != width:
        raise DimensionError(f"embedding widths differ: image {width} vs text {txt.shape[1]}")
    if not np.isfinite(temperature) or temperature <= 0.0:
        raise NumericError(f"temperature must be positive, got {temperature}")
    require_finite("text embeddings", txt)
    norm = _row_norms(txt)
    if not norm.all():
        raise NumericError("zero-norm text embedding row")
    return txt / norm[:, None]


def label_ids(labels, rows: int, classes: int) -> np.ndarray:
    """`labels` as int64 ids, one per row, each in [0, classes)."""
    y = np.asarray(labels, dtype=np.int64).ravel()
    if y.shape[0] != rows:
        raise DimensionError(f"{rows} image rows but {y.shape[0]} labels")
    if np.minimum.reduce(y, initial=0) < 0 or np.maximum.reduce(y, initial=-1) >= classes:
        raise LabelError(f"labels must lie in [0, {classes})")
    return y


def contrastive_loss(img_emb, txt_emb, labels, temperature: float):
    """Cross-entropy over temperature-scaled cosine similarities, image rows
    against the label-embedding table.

    Returns (loss, grad) where grad is the analytic gradient with respect to
    the unnormalised image embeddings (the cosine normalisation is part of
    the op and is differentiated through).  It is `table_loss` against the
    table `label_table` makes, with the ids `label_ids` makes, after a check
    that there is an image row: of several faults, the label rows' is
    reported first, then the labels', then the image rows'.
    """
    img = as_matrix(img_emb)
    if img.shape[0] == 0:
        raise DimensionError("contrastive loss needs at least one image and one label row")
    table = label_table(txt_emb, img.shape[1], temperature)
    y = label_ids(labels, img.shape[0], table.shape[0])
    return table_loss(img, table, y, temperature)


def table_loss(img: np.ndarray, table: np.ndarray, y: np.ndarray, temperature: float):
    """The per-step part of `contrastive_loss`: (loss, grad) of the image
    rows `img` against `table` and `temperature`, which `label_table`
    checked, with `y` from `label_ids`.  It checks what changes per step:
    the image rows are finite and none has zero norm."""
    require_finite("image embeddings", img)
    img_norm = _row_norms(img)
    if not img_norm.all():
        raise NumericError("zero-norm image embedding row")
    ih = img / img_norm[:, None]

    # every temporary below is fresh, so it is scaled and shifted in place
    logits = ih @ table.T
    logits /= temperature
    m = np.maximum.reduce(logits, axis=1, keepdims=True)
    shifted = logits - m
    np.exp(shifted, out=shifted)
    lse = np.log(np.add.reduce(shifted, axis=1, keepdims=True))
    lse += m
    logp = logits
    logp -= lse
    b = img.shape[0]
    rows = np.arange(b)
    loss = float(-(np.add.reduce(logp[rows, y]) / b))

    ds = np.exp(logp, out=logp)
    ds[rows, y] -= 1.0
    ds /= b
    dih = ds @ table
    dih /= temperature
    # back through the row normalisation of the image embeddings
    proj = np.add.reduce(dih * ih, axis=1, keepdims=True)
    grad = dih
    grad -= proj * ih
    grad /= img_norm[:, None]
    return loss, grad
