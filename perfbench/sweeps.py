"""Op sweeps: the hot ops timed through public calls, each over its size.

The ops run on a model built with `build_model` at dim 64 and rank 2 (the
`ortho20_*` shape).  Each op is repeated in batches of about 20 ms and the
median batch gives the time per call, so one slow batch does not move it.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from submoe import TaskBank, build_model, contrastive_loss
from submoe.checkpoint import load_checkpoint, save_checkpoint

DIM = 64
RANK = 2
BATCH = 48
N_VISIBLE = (4, 16, 64)
BANK_SIZES = (5, 20, 100)
BATCHES = 7
BATCH_SECONDS = 0.02


def per_call_seconds(fn) -> float:
    """Median over `BATCHES` timed batches of `fn()`'s wall time per call."""
    t0 = perf_counter()
    fn()
    once = max(perf_counter() - t0, 1e-7)
    reps = max(1, int(BATCH_SECONDS / once))
    samples = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        samples.append((perf_counter() - t0) / reps)
    return statistics.median(samples)


def _adapter_layer(rng: np.random.Generator):
    """One adapter layer holding a router per swept size: the router of task
    `nv` sees exactly the first `nv` experts."""
    model = build_model(dim=DIM, depth=3, adapter_layers=[1, 2], rank=RANK,
                        top_k=max(N_VISIBLE), temperature=0.4, seed=0)
    layer = model.adapters[1]
    for nv in N_VISIBLE:
        while len(layer.experts) < nv:
            expert = layer.add_expert(nv, rng)
            expert.up[:] = rng.standard_normal(expert.up.shape) * 0.1
        router = layer.add_router(nv)
        router.weight[:] = rng.standard_normal(router.weight.shape) * 0.1
    return layer


def op_sweeps(model, bank, scratch: Path) -> dict[str, float]:
    """Per-call times of the hot ops; checkpoint save/load use the given
    trained model and bank."""
    rng = np.random.default_rng(0)
    out: dict[str, float] = {}
    layer = _adapter_layer(rng)
    x = rng.standard_normal((BATCH, DIM))
    row = x[:1]
    for nv in N_VISIBLE:
        _, _, cache = layer.forward(nv, x)
        grad = rng.standard_normal(x.shape)
        out[f"adapter.forward_us.nv{nv}"] = per_call_seconds(lambda: layer.forward(nv, x)) * 1e6
        out[f"adapter.infer_us.nv{nv}"] = per_call_seconds(lambda: layer.forward(nv, row)) * 1e6
        out[f"adapter.backward_us.nv{nv}"] = per_call_seconds(
            lambda: layer.backward(cache, grad)) * 1e6

    text = rng.standard_normal((3, DIM))
    labels = rng.integers(0, 3, size=BATCH)
    out["numerics.contrastive_loss_us"] = per_call_seconds(
        lambda: contrastive_loss(x, text, labels, 0.4)) * 1e6

    for size in BANK_SIZES:
        sweep_bank = TaskBank(threshold=8.0)
        for task in range(size):
            sweep_bank.enroll(task, rng.standard_normal((32, DIM)), rng.standard_normal((3, DIM)))
        out[f"task_bank.identify_us.bank{size}"] = per_call_seconds(
            lambda: sweep_bank.identify(row, text)) * 1e6

    path = scratch / "sweep_checkpoint.json"
    out["checkpoint.save_ms"] = _median_of(3, lambda: save_checkpoint(path, model, bank)) * 1e3
    out["checkpoint.load_ms"] = _median_of(3, lambda: load_checkpoint(path)) * 1e3
    return out


def _median_of(n: int, fn) -> float:
    samples = []
    for _ in range(n):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return statistics.median(samples)
