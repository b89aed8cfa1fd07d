"""Independent checks the test suite compares the engine against: a generic
quadratic solve for the damped step, its diagonal projection form, central
finite differences, byte fingerprints of frozen state, the version 2 and 3
checkpoint writers, the JSON-lines audit writer and the version 1 task
exporter, and the contrastive loss
and routing as first written, with NumPy's convenience wrappers and fresh
temporaries; plus the name of the BLAS kernel.  The kernel keys the one table
of pinned digests, `tools/identity.json` (see `tests/pinned.py`), and
`for_kernel` reads it, naming the `tools/identity.py record` command when
the running kernel has no table.  None of this is used by the engine
itself."""

from __future__ import annotations

import base64
import ctypes
import functools
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from submoe.adapter import RoutingDistribution, top_k_select
from submoe.checkpoint import bank_to_payload, model_to_payload
from submoe.errors import DimensionError, LabelError, NumericError
from submoe.numerics import as_matrix, require_finite
from submoe.optim import OptimConfig, step_scale


@functools.cache
def blas_kernel() -> str:
    """The CPU kernel NumPy's bundled OpenBLAS chose when it loaded
    (`Haswell`, `SkylakeX`, ...), or `unknown`.  A pinned digest of float64
    results holds for one BLAS build and kernel, so its failure names it."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def record_command() -> str:
    """The command that records the running kernel's table of digests."""
    return f"OPENBLAS_CORETYPE={blas_kernel()} python3 tools/identity.py record"


def for_kernel(table: dict):
    """The entry of `table`, a dict keyed by BLAS kernel name, recorded under
    the kernel this process loaded.  A kernel with no entry fails, naming it
    and the command that records it: its digests have to be recorded, not
    skipped."""
    kernel = blas_kernel()
    if kernel not in table:
        raise AssertionError(f"no pinned digests for BLAS kernel {kernel}; "
                             f"tables exist for {sorted(table)}; record them with: "
                             f"{record_command()}")
    return table[kernel]


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


def _map_arrays(node, convert):
    """`node` with every ndarray in it replaced by `convert` of it."""
    if isinstance(node, np.ndarray):
        return convert(node)
    if isinstance(node, dict):
        return {key: _map_arrays(value, convert) for key, value in node.items()}
    if isinstance(node, list):
        return [_map_arrays(value, convert) for value in node]
    return node


def save_checkpoint_v2(path, model, bank=None, meta=None) -> Path:
    """Write (model, bank, meta) as a version 2 checkpoint, the format before
    version 3: the version 4 document with every float64 array as nested
    lists of shortest-repr numbers, and no router `top_k`, since every
    router of a layer used the layer's.  `tools/upgrade.py` must keep
    converting these files, and re-serialising a converted version 3 file
    this way must give the bytes the version 2 writer gave."""
    payload = model_to_payload(model)
    for layer in payload["adapters"]:
        ks = {r.pop("top_k") for r in layer["routers"]}
        if ks - {layer["top_k"]}:
            raise ValueError(f"layer {layer['layer_index']}: version 2 has one top_k per "
                             f"layer, its routers use {sorted(ks)}")
    doc = {"format": "submoe-checkpoint", "version": 2, "model": payload,
           "bank": None if bank is None else bank_to_payload(bank), "meta": meta or {}}
    path = Path(path)
    path.write_text(json.dumps(_map_arrays(doc, np.ndarray.tolist)) + "\n")
    return path


def encode_array(a: np.ndarray) -> dict:
    """The version 3 form of a float64 array, which `decode_array` of
    `tools/upgrade.py` reads: its shape and the base64 of its little-endian
    C-order bytes."""
    data = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape), "f64": base64.b64encode(data).decode("ascii")}


def save_checkpoint_v3(path, model, bank=None, meta=None) -> Path:
    """Write (model, bank, meta) as a version 3 checkpoint, the format before
    the container: one line of JSON, the version 4 document with each array
    as `encode_array` of it.  `tools/upgrade.py` must keep converting these
    files, and re-serialising a loaded version 4 file this way must give the
    bytes the version 3 writer gave."""
    doc = {"format": "submoe-checkpoint", "version": 3, "model": model_to_payload(model),
           "bank": None if bank is None else bank_to_payload(bank), "meta": meta or {}}
    path = Path(path)
    path.write_text(json.dumps(_map_arrays(doc, encode_array)) + "\n")
    return path


def save_audit_jsonl(path, records) -> Path:
    """Write an audit's `{"true_task", "distance"}` records as
    `ifer_audit.jsonl`, the form before the container: a line each, keys
    sorted, the distance as `encode_array` of it.  `tools/upgrade.py` must
    keep converting these files, and re-serialising an `ifer_audit.bin` this
    way must give the bytes the JSON-lines writer gave."""
    path = Path(path)
    path.write_text("".join(json.dumps(_map_arrays(rec, encode_array), sort_keys=True) + "\n"
                            for rec in records))
    return path


def export_task_v1(data, directory, stem: str | None = None) -> Path:
    """Write a task as the export before the container (version 1) wrote it:
    `<stem>.bin` (the magic `SUBMOE01`, six little-endian int64s: version,
    classes, dim, train rows, eval rows, task id; then the float64 arrays
    and the int64 labels) plus a `<stem>.json` manifest naming it.  Returns
    the manifest path.  `tools/upgrade.py` must keep converting these
    files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = stem or f"task_{data.task_id}"
    bin_path = directory / f"{stem}.bin"
    with open(bin_path, "wb") as fh:
        fh.write(b"SUBMOE01")
        fh.write(struct.pack("<6q", 1, data.classes, data.dim, data.train_x.shape[0],
                             data.eval_x.shape[0], data.task_id))
        for arr in (data.train_x, data.eval_x, data.text_emb, data.prototypes):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        for arr in (data.train_y, data.eval_y):
            fh.write(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    manifest = {"format": "submoe-task", "version": 1, "task_id": data.task_id,
                "classes": data.classes, "dim": data.dim,
                "n_train": int(data.train_x.shape[0]), "n_eval": int(data.eval_x.shape[0]),
                "file": bin_path.name}
    manifest_path = directory / f"{stem}.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def reference_contrastive_loss(img_emb, txt_emb, labels, temperature: float):
    """`numerics.contrastive_loss` as first written, with its checks in the
    order of the one form: a check that there is an image row, then the
    label rows', the labels' and the image rows', each with the same
    message, `np.linalg.norm`, and a fresh array per operation.  The engine
    must match it bit for bit."""
    img = as_matrix(img_emb)
    if img.shape[0] == 0:
        raise DimensionError("contrastive loss needs at least one image and one label row")
    txt = as_matrix(txt_emb)
    if txt.shape[0] == 0:
        raise DimensionError("contrastive loss needs at least one image and one label row")
    if img.shape[1] != txt.shape[1]:
        raise DimensionError(
            f"embedding widths differ: image {img.shape[1]} vs text {txt.shape[1]}"
        )
    if not np.isfinite(temperature) or temperature <= 0.0:
        raise NumericError(f"temperature must be positive, got {temperature}")
    require_finite("text embeddings", txt)
    txt_norm = np.linalg.norm(txt, axis=1)
    if np.any(txt_norm == 0.0):
        raise NumericError("zero-norm text embedding row")
    y = np.asarray(labels, dtype=np.int64).ravel()
    if y.shape[0] != img.shape[0]:
        raise DimensionError(f"{img.shape[0]} image rows but {y.shape[0]} labels")
    if y.min(initial=0) < 0 or y.max(initial=-1) >= txt.shape[0]:
        raise LabelError(f"labels must lie in [0, {txt.shape[0]})")
    require_finite("image embeddings", img)
    img_norm = np.linalg.norm(img, axis=1)
    if np.any(img_norm == 0.0):
        raise NumericError("zero-norm image embedding row")

    ih = img / img_norm[:, None]
    th = txt / txt_norm[:, None]

    logits = ih @ th.T / temperature
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    logp = logits - lse
    b = img.shape[0]
    rows = np.arange(b)
    loss = float(-logp[rows, y].mean())

    ds = np.exp(logp)
    ds[rows, y] -= 1.0
    ds /= b
    dih = ds @ th / temperature
    proj = (dih * ih).sum(axis=1, keepdims=True)
    grad = (dih - proj * ih) / img_norm[:, None]
    return loss, grad


def reference_route(weight: np.ndarray, top_k: int, x) -> RoutingDistribution:
    """A router's distribution as first written: a fresh-array softmax, and
    the top-k mask applied with `np.where` whatever `top_k` is."""
    logits = as_matrix(x) @ weight.T
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    masked = np.where(top_k_select(probs, top_k), probs, 0.0)
    return RoutingDistribution(probs=probs, weights=masked / masked.sum(axis=1, keepdims=True))
