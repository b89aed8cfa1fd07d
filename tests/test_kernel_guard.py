"""The BLAS property a learning phase's cached rows rest on.

A phase computes what its steps share once, in blocks of the steps' row
count M (`numerics.by_row_blocks`), and each step gathers its batch's rows
from that.  This is bit for bit what the step would compute from its own
rows only if the running kernel gives a row of an M-row product the same
bits whichever M rows share the product with it.  Here that is checked for
every product shape a phase caches or a step makes at the configs' sizes:
M in {8, 16, 48}, K (the model width) in {16, 64}, the backbone layer
[K, K], a router over 1 to 57 experts, and the experts' stacked down and up
products at rank 2.  A kernel that rounds by position fails here by name,
rather than drift every pinned digest.
"""

from __future__ import annotations

import numpy as np
import pytest

from submoe.numerics import by_row_blocks

from oracles import blas_kernel

ROWS = 96  # a task's training rows in the shipped configs
RANK = 2


def _assert_rows_keep_their_bits(product, x: np.ndarray, m: int, what: str) -> None:
    """`product(rows)` over random batches of `m` rows of `x` equals, row
    for row, `product` over the blocks of `m` consecutive rows."""
    (blocked,) = by_row_blocks(lambda rows: (product(x[rows]),), x.shape[0], m)
    rng = np.random.default_rng(m)
    for _ in range(4):
        idx = rng.permutation(x.shape[0])[:m]
        got = product(x[idx])
        if got.tobytes() != blocked[idx].tobytes():
            raise AssertionError(
                f"BLAS kernel {blas_kernel()} (tests/oracles.py::blas_kernel()) rounds a row "
                f"of the {what} product at {m} rows by the rows beside it: a phase's cached "
                f"rows would no longer be its steps' own, so this kernel's digests cannot hold")


@pytest.mark.parametrize("k", [16, 64])
@pytest.mark.parametrize("m", [8, 16, 48])
def test_a_row_of_an_m_row_product_keeps_its_bits_in_any_batch(m, k):
    rng = np.random.default_rng(k)
    x = np.tanh(rng.standard_normal((ROWS, k)))
    backbone = rng.standard_normal((k, k))
    _assert_rows_keep_their_bits(lambda a: a @ backbone.T, x, m, f"backbone [{k}, {k}]")
    for experts in range(1, 58):
        router = rng.standard_normal((experts, k))
        _assert_rows_keep_their_bits(lambda a: a @ router.T, x, m,
                                     f"router [{k}, {experts}]")
    # as the layer calls them: [rows, K] by [experts, K, rank], then
    # [experts, rows, rank] by [experts, rank, K]; the rows axis goes first
    # to be gathered
    down = rng.uniform(-0.1, 0.1, (57, RANK, k))
    up = rng.standard_normal((57, k, RANK))

    def down_product(a):
        return np.matmul(a, down.transpose(0, 2, 1)).transpose(1, 0, 2)

    def up_product(a):
        acts = np.ascontiguousarray(a.transpose(1, 0, 2))
        return np.matmul(acts, up.transpose(0, 2, 1)).transpose(1, 0, 2)

    _assert_rows_keep_their_bits(down_product, x, m, f"stacked down [57, {k}, {RANK}]")
    _assert_rows_keep_their_bits(up_product, down_product(x), m, f"stacked up [57, {RANK}, {k}]")
