"""Independent checks the test suite compares the engine against: a generic
quadratic solve for the damped step, its diagonal projection form, central
finite differences, byte fingerprints of frozen state, and the version 2
checkpoint writer.  None of this is used by the engine itself."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from submoe.errors import DimensionError, NumericError
from submoe.optim import OptimConfig, step_scale


def proximal_argmin(g: np.ndarray, w_prev: np.ndarray, pi: float, n: int,
                    cfg: OptimConfig) -> np.ndarray:
    """Independent oracle for the damped step.

    Minimises  g . (w - w_prev) + ||w - w_prev||^2 / (2 lr)
               + penalty * n * pi * ||w - w_prev||^2
    by assembling the quadratic's Hessian and solving the stationarity
    system, rather than using the closed-form scalar damping.
    """
    gv = np.asarray(g, dtype=np.float64)
    wv = np.asarray(w_prev, dtype=np.float64)
    if gv.shape != wv.shape:
        raise DimensionError(f"gradient shape {gv.shape} vs parameter shape {wv.shape}")
    dim = gv.size
    hess = (1.0 / cfg.learning_rate + 2.0 * cfg.penalty * n * pi) * np.eye(dim)
    delta = np.linalg.solve(hess, -gv.ravel())
    return wv + delta.reshape(wv.shape)


@dataclass
class SoftProjection:
    """Diagonal block form of the damped step: identity on the old/plain
    block, per-candidate scale on each new block."""

    new_scales: np.ndarray  # one scale per candidate block

    def apply(self, plain_grads: list[np.ndarray],
              new_grads: list[list[np.ndarray]]) -> tuple[list[np.ndarray], list[list[np.ndarray]]]:
        if len(new_grads) != self.new_scales.size:
            raise DimensionError(
                f"{len(new_grads)} new blocks but {self.new_scales.size} scales"
            )
        proj_plain = [g.copy() for g in plain_grads]
        proj_new = [[self.new_scales[j] * g for g in grads] for j, grads in enumerate(new_grads)]
        return proj_plain, proj_new


def soft_projection(pis, n: int, cfg: OptimConfig) -> SoftProjection:
    scales = np.array([step_scale(float(p), n, cfg) for p in pis])
    return SoftProjection(new_scales=scales)


def block_dot(old_block: np.ndarray, new_block: np.ndarray) -> float:
    """Inner product of the two step components embedded in the concatenated
    parameter space: [old, 0] against [0, new].  Identically zero; kept as a
    checkable witness that the blocks never mix."""
    a = np.concatenate([np.ravel(old_block), np.zeros(np.size(new_block))])
    b = np.concatenate([np.zeros(np.size(old_block)), np.ravel(new_block)])
    return float(a @ b)


def total_loss(contrastive: float, aux: float, cfg: OptimConfig) -> float:
    val = contrastive + cfg.penalty * aux
    if not np.isfinite(val):
        raise NumericError(f"total loss is non-finite ({contrastive} + {cfg.penalty} * {aux})")
    return val


def is_prob_vector(v, atol: float = 1e-12) -> bool:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        return False
    if arr.min() < -atol or arr.max() > 1.0 + atol:
        return False
    return abs(float(arr.sum()) - 1.0) <= max(atol, 64 * np.finfo(np.float64).eps * arr.size)


def finite_diff_grad(f: Callable[[np.ndarray], float], x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a
    time.  It knows nothing about the analytic gradients it checks."""
    if not np.isfinite(h) or h <= 0.0:
        raise NumericError(f"step size must be positive, got {h}")
    base = np.array(x, dtype=np.float64)  # private copy; f sees perturbed views of it
    grad = np.zeros_like(base)
    flat = base.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f(base))
        flat[i] = orig - h
        f_minus = float(f(base))
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"objective non-finite near coordinate {i}")
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def frozen_fingerprint(model, exclude_task: int | None = None) -> dict:
    """Byte-level fingerprint of every parameter not owned by `exclude_task`;
    used to assert that training leaves frozen state untouched."""
    fp = {}
    for i, layer in enumerate(model.adapter_layers()):
        for e in layer.experts:
            if exclude_task is not None and e.owner_task == exclude_task:
                continue
            fp[("expert", i, e.expert_id, "down")] = e.down.tobytes()
            fp[("expert", i, e.expert_id, "up")] = e.up.tobytes()
        for t, r in layer.routers.items():
            if exclude_task is not None and t == exclude_task:
                continue
            fp[("router", i, t)] = r.weight.tobytes()
    for j, w in enumerate(model.backbone.weights):
        fp[("backbone", j, "w")] = w.tobytes()
        fp[("backbone", j, "b")] = model.backbone.biases[j].tobytes()
    return fp


def expert_gradient_norm(expert_grads) -> np.ndarray:
    """Combined Frobenius norm per expert over its (down, up) gradients; give
    it the non-None entries of a backward pass's `expert_grads`."""
    out = np.empty(len(expert_grads))
    for j, (gd, gu) in enumerate(expert_grads):
        out[j] = np.sqrt(float((gd * gd).sum() + (gu * gu).sum()))
    return out


def save_checkpoint_v2(path, model, bank=None, meta=None) -> Path:
    """Write (model, bank, meta) as a version 2 checkpoint, the format before
    version 3: every float64 array as nested lists of shortest-repr numbers,
    and one `top_k` per layer that all its routers use.  `load_checkpoint`
    must keep reading these files, and re-serialising a loaded version 3
    file this way must give the bytes the version 2 writer gave."""
    def layer_payload(layer) -> dict:
        ks = {r.top_k for r in layer.routers.values()}
        if ks - {layer.top_k}:
            raise ValueError(f"layer {layer.layer_index}: version 2 has one top_k per "
                             f"layer, its routers use {sorted(ks)}")
        return {
            "layer_index": layer.layer_index,
            "dim": layer.dim,
            "rank": layer.rank,
            "top_k": layer.top_k,
            "version": layer.version,
            "next_expert_id": layer.next_expert_id,
            "experts": [
                {"down": e.down.tolist(), "up": e.up.tolist(),
                 "owner_task": e.owner_task, "expert_id": e.expert_id}
                for e in layer.experts
            ],
            "routers": [{"task": task, "weight": r.weight.tolist()}
                        for task, r in layer.routers.items()],
        }

    model_payload = {
        "temperature": model.temperature,
        "learned_tasks": list(model.learned_tasks),
        "phase": {str(k): v for k, v in model.phase.items()},
        "current_task": model.current_task,
        "backbone": {
            "weights": [w.tolist() for w in model.backbone.weights],
            "biases": [b.tolist() for b in model.backbone.biases],
        },
        "adapters": [layer_payload(model.adapters[i]) for i in sorted(model.adapters)],
    }
    bank_payload = None if bank is None else {
        "threshold": bank.threshold,
        "metric": bank.metric,
        "entries": [{"task": task, "embedding": bank.entries[task].tolist()}
                    for task in sorted(bank.entries)],
    }
    doc = {"format": "submoe-checkpoint", "version": 2, "model": model_payload,
           "bank": bank_payload, "meta": meta or {}}
    path = Path(path)
    path.write_text(json.dumps(doc) + "\n")
    return path
