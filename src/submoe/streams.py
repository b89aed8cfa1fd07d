"""Synthetic task streams: Gaussian class clusters with controllable overlap
between tasks, plus a flat binary export format.

Alignment modes relate a task's class prototypes to earlier tasks:
  orthogonal  - prototypes drawn in the orthogonal complement of every prior
                task's prototype span
  reuse       - prototypes of a named source task, displaced by a fixed-norm
                perturbation (zero perturbation copies them exactly)
  mixed       - interpolation between a source prototype and a fresh
                orthogonal direction
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .numerics import _row_norms

_MODES = ("orthogonal", "reuse", "mixed")
_MAGIC = b"SUBMOE01"
_VERSION = 1


@dataclass(frozen=True)
class Alignment:
    mode: str = "orthogonal"
    source: int | None = None
    perturbation: float = 0.0
    fraction: float = 0.5

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"alignment.mode: unknown mode {self.mode!r}")
        if self.mode in ("reuse", "mixed") and self.source is None:
            raise ConfigError(f"alignment.source: required for mode {self.mode!r}")
        if self.perturbation < 0.0:
            raise ConfigError(f"alignment.perturbation: must be >= 0, got {self.perturbation}")
        if not (0.0 <= self.fraction <= 1.0):
            raise ConfigError(f"alignment.fraction: must lie in [0, 1], got {self.fraction}")


@dataclass(frozen=True)
class TaskSpec:
    task_id: int
    classes: int
    samples_per_class: int
    eval_per_class: int = 16
    seed: int = 0
    noise: float = 0.1
    alignment: Alignment = field(default_factory=Alignment)
    data_path: str | None = None

    def __post_init__(self):
        if self.task_id < 0:
            raise ConfigError(f"stream.task_id: must be >= 0, got {self.task_id}")
        if self.seed < 0:
            raise ConfigError(f"stream.seed: must be >= 0, got {self.seed}")
        if self.classes < 2:
            raise ConfigError(f"stream.classes: need at least 2 classes, got {self.classes}")
        if self.samples_per_class < 1:
            raise ConfigError(f"stream.samples_per_class: must be >= 1, got {self.samples_per_class}")
        if self.eval_per_class < 1:
            raise ConfigError(f"stream.eval_per_class: must be >= 1, got {self.eval_per_class}")
        if self.noise < 0.0:
            raise ConfigError(f"stream.noise: must be >= 0, got {self.noise}")


@dataclass
class TaskData:
    task_id: int
    train_x: np.ndarray   # [n_train, dim]
    train_y: np.ndarray   # [n_train] int64, local class ids
    eval_x: np.ndarray
    eval_y: np.ndarray
    text_emb: np.ndarray  # [classes, dim] frozen label embeddings
    prototypes: np.ndarray  # [classes, dim]

    @property
    def classes(self) -> int:
        return self.text_emb.shape[0]

    @property
    def dim(self) -> int:
        return self.train_x.shape[1]


def _orthonormal_complement_draw(rng: np.random.Generator, dim: int, count: int,
                                 prior: np.ndarray | None) -> np.ndarray:
    """Orthonormal rows orthogonal to the row span of `prior` (may be None)."""
    used = 0 if prior is None or prior.size == 0 else np.linalg.matrix_rank(prior)
    if used + count > dim:
        raise DataError(
            f"no orthogonal room left: need {count} fresh directions, "
            f"{dim - used} of {dim} remain"
        )
    raw = rng.standard_normal((dim, count))
    if prior is not None and prior.size:
        if used == prior.shape[0]:
            q, _ = np.linalg.qr(prior.T)  # columns span the prior space
        else:  # repeated rows (a reuse task): QR would add spurious columns
            q = np.linalg.svd(prior, full_matrices=False)[2][:used].T
        raw = raw - q @ (q.T @ raw)
    q2, r2 = np.linalg.qr(raw)
    # fix the sign convention so the draw is deterministic under QR variants
    signs = np.sign(np.diag(r2))
    signs[signs == 0.0] = 1.0
    return (q2 * signs).T


def generate_task(spec: TaskSpec, dim: int, prior_prototypes: list[np.ndarray],
                  prototype_scale: float = 1.0,
                  prior_text: list[np.ndarray] | None = None) -> TaskData:
    """Build one task's data.  `prior_prototypes` lists the prototype matrices
    of every earlier task in stream order (used by all three modes);
    `prior_text` lists their label embeddings so reuse/mixed tasks keep the
    source task's label set instead of drawing a fresh one."""
    if spec.data_path is not None:
        data = load_task(spec.data_path)
        if data.task_id != spec.task_id:
            raise DataError(f"stream task {spec.task_id}: {spec.data_path} holds task "
                            f"{data.task_id}")
        return data
    rng = np.random.default_rng(np.random.SeedSequence([7, spec.seed]))
    align = spec.alignment

    if align.mode == "orthogonal":
        prior = np.vstack(prior_prototypes) if prior_prototypes else None
        protos = _orthonormal_complement_draw(rng, dim, spec.classes, prior) * prototype_scale
    else:
        if align.source is None or align.source >= len(prior_prototypes):
            raise ConfigError(
                f"alignment.source: task {spec.task_id} references unknown task {align.source}"
            )
        src = prior_prototypes[align.source]
        if src.shape[0] != spec.classes:
            raise DataError(
                f"source task has {src.shape[0]} classes, spec asks for {spec.classes}"
            )
        if align.mode == "reuse":
            if align.perturbation == 0.0:
                protos = src.copy()
            else:
                bump = rng.standard_normal(src.shape)
                bump /= _row_norms(bump)[:, None]
                protos = src + align.perturbation * bump
        else:  # mixed
            prior = np.vstack(prior_prototypes)
            fresh = _orthonormal_complement_draw(rng, dim, spec.classes, prior) * prototype_scale
            protos = (1.0 - align.fraction) * src + align.fraction * fresh

    def draw(per_class: int):
        xs, ys = [], []
        for c in range(spec.classes):
            pts = protos[c] + spec.noise * rng.standard_normal((per_class, dim))
            xs.append(pts)
            ys.append(np.full(per_class, c, dtype=np.int64))
        return np.vstack(xs), np.concatenate(ys)

    train_x, train_y = draw(spec.samples_per_class)
    eval_x, eval_y = draw(spec.eval_per_class)

    if align.mode != "orthogonal" and prior_text is not None:
        # same label set as the source task: its experts can serve this one
        text = prior_text[align.source].copy()
    else:
        text = rng.standard_normal((spec.classes, dim))
        text /= _row_norms(text)[:, None]

    return TaskData(
        task_id=spec.task_id,
        train_x=train_x, train_y=train_y,
        eval_x=eval_x, eval_y=eval_y,
        text_emb=text, prototypes=protos,
    )


def generate_stream(specs: list[TaskSpec], dim: int,
                    prototype_scale: float = 1.0) -> list[TaskData]:
    if not specs:
        raise ConfigError("stream: empty task stream")
    seen = set()
    for pos, spec in enumerate(specs):
        if spec.task_id in seen:
            raise ConfigError(f"stream[{pos}].task_id: duplicate task id {spec.task_id}")
        seen.add(spec.task_id)
        if spec.alignment.mode in ("reuse", "mixed") and not (
            spec.alignment.source is not None and 0 <= spec.alignment.source < pos
        ):
            raise ConfigError(
                f"stream[{pos}].alignment.source: must name an earlier stream position, "
                f"got {spec.alignment.source}"
            )
    out: list[TaskData] = []
    priors: list[np.ndarray] = []
    prior_text: list[np.ndarray] = []
    for spec in specs:
        data = generate_task(spec, dim, priors, prototype_scale, prior_text=prior_text)
        if data.dim != dim:
            raise DimensionError(f"task {spec.task_id} has dim {data.dim}, stream wants {dim}")
        out.append(data)
        priors.append(data.prototypes)
        prior_text.append(data.text_emb)
    return out


def export_task(data: TaskData, directory: str | Path, stem: str | None = None) -> Path:
    """Write a task as <stem>.bin (header + little-endian float64 body) plus
    <stem>.json manifest.  Returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = stem or f"task_{data.task_id}"
    bin_path = directory / f"{stem}.bin"
    dim = data.dim
    with open(bin_path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack(
            "<6q", _VERSION, data.classes, dim,
            data.train_x.shape[0], data.eval_x.shape[0], data.task_id,
        ))
        for arr in (data.train_x, data.eval_x, data.text_emb, data.prototypes):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        for arr in (data.train_y, data.eval_y):
            fh.write(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    manifest = {
        "format": "submoe-task",
        "version": _VERSION,
        "task_id": data.task_id,
        "classes": data.classes,
        "dim": dim,
        "n_train": int(data.train_x.shape[0]),
        "n_eval": int(data.eval_x.shape[0]),
        "file": bin_path.name,
    }
    manifest_path = directory / f"{stem}.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def load_task(manifest_path: str | Path) -> TaskData:
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read task manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != "submoe-task":
        raise DataError(f"{manifest_path} is not a task manifest")
    name = manifest.get("file")
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise DataError(
            f"{manifest_path}: 'file' must name a file in the manifest's directory, got {name!r}"
        )
    bin_path = manifest_path.parent / name
    try:
        raw = bin_path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read task data {bin_path}: {exc}") from exc
    if len(raw) < 56:
        raise DataError(f"{bin_path}: truncated header ({len(raw)} bytes)")
    if raw[:8] != _MAGIC:
        raise DataError(f"{bin_path}: bad magic")
    version, classes, dim, n_train, n_eval, task_id = struct.unpack("<6q", raw[8:56])
    if version != _VERSION:
        raise DataError(f"{bin_path}: unsupported version {version}")
    if min(classes, dim, n_train, n_eval) < 0:
        raise DataError(f"{bin_path}: negative count in header")
    expected = 56 + 8 * ((n_train + n_eval + 2 * classes) * dim + n_train + n_eval)
    if len(raw) != expected:
        raise DataError(
            f"{bin_path}: trailing or missing bytes ({len(raw)} vs {expected} expected)"
        )
    off = 56

    def take_f(rows, cols):
        nonlocal off
        count = rows * cols
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(rows, cols)
        off += count * 8
        return arr.astype(np.float64)

    def take_i(rows):
        nonlocal off
        arr = np.frombuffer(raw, dtype="<i8", count=rows, offset=off)
        off += rows * 8
        return arr.astype(np.int64)

    train_x = take_f(n_train, dim)
    eval_x = take_f(n_eval, dim)
    text = take_f(classes, dim)
    protos = take_f(classes, dim)
    train_y = take_i(n_train)
    eval_y = take_i(n_eval)
    for field_name, arr in (("train_x", train_x), ("eval_x", eval_x),
                            ("text_emb", text), ("prototypes", protos)):
        if not np.isfinite(arr).all():
            raise DataError(f"{bin_path}: {field_name} has non-finite entries")
    for field_name, labels in (("train_y", train_y), ("eval_y", eval_y)):
        if labels.size and (labels.min() < 0 or labels.max() >= classes):
            raise DataError(f"{bin_path}: {field_name} has labels outside [0, {classes})")
    return TaskData(
        task_id=task_id, train_x=train_x, train_y=train_y,
        eval_x=eval_x, eval_y=eval_y, text_emb=text, prototypes=protos,
    )
