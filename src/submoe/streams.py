"""Synthetic task streams: Gaussian class clusters with controllable overlap
between tasks, plus the export of a task as a container file
(`checkpoint.write_container`), which a stream entry's `data_path` reads
back.

Alignment modes relate a task's class prototypes to earlier tasks:
  orthogonal  - prototypes drawn in the orthogonal complement of every prior
                task's prototype span
  reuse       - prototypes of a named source task, displaced by a fixed-norm
                perturbation (zero perturbation copies them exactly)
  mixed       - interpolation between a source prototype and a fresh
                orthogonal direction
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import _is_int, read_container, write_container
from .errors import ConfigError, DataError, DimensionError
from .numerics import _row_norms

_MODES = ("orthogonal", "reuse", "mixed")


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


TASK_FORMAT = "submoe-task"
TASK_VERSION = 2
_ARRAYS = ("train_x", "eval_x", "text_emb", "prototypes")  # body order


def export_task(data: TaskData, directory: str | Path) -> Path:
    """Write `data` to `directory/task_<id>.bin` as a container
    (`checkpoint.write_container`) of format `submoe-task`, version 2: the
    task id and the int labels in the header, the four float64 arrays in the
    body.  Returns the path."""
    return write_container(Path(directory) / f"task_{data.task_id}.bin", {
        "format": TASK_FORMAT, "version": TASK_VERSION, "task_id": data.task_id,
        "train_y": data.train_y.tolist(), "eval_y": data.eval_y.tolist(),
        **{name: getattr(data, name) for name in _ARRAYS},
    })


def load_task(path: str | Path) -> TaskData:
    """The task that `export_task` wrote to `path`.  Beyond the checks of
    `checkpoint.read_container`, the task id and the labels must be ints,
    each label in [0, classes), each array finite, and the shapes must fit
    together: `text_emb` and `prototypes` [classes, dim], `train_x` and
    `eval_x` [rows, dim] with a label per row.  A fault raises `DataError`
    naming the file and the field.  A task manifest of the export before
    the container (version 1, `.json`) is refused with the command that
    converts it."""
    path = Path(path)
    try:
        doc = read_container(path)
    except DataError:
        if path.suffix == ".json" and path.is_file():
            raise DataError(f"{path}: a task manifest from before the container; convert it "
                            f"with: python3 tools/upgrade.py {path.parent}") from None
        raise
    if doc.get("format") != TASK_FORMAT or doc.get("version") != TASK_VERSION:
        raise DataError(f"{path} is not a task file of format {TASK_FORMAT!r}, "
                        f"version {TASK_VERSION}")

    def refuse(name: str, what: str):
        raise DataError(f"{path}: {name} {what}")

    if not _is_int(doc.get("task_id")):
        refuse("task_id", f"is not an int: {doc.get('task_id')!r}")
    arrays = {name: doc.get(name) for name in _ARRAYS}
    for name, a in arrays.items():
        if not isinstance(a, np.ndarray) or a.ndim != 2:
            refuse(name, "is not a 2-d array")
        if not np.isfinite(a).all():
            refuse(name, "has non-finite entries")
    classes, dim = arrays["text_emb"].shape
    labels = {}
    for name, rows in (("train_y", "train_x"), ("eval_y", "eval_x")):
        values = doc.get(name)
        if not isinstance(values, list) or not all(_is_int(v) for v in values):
            refuse(name, "is not a list of ints")
        if not all(0 <= v < classes for v in values):
            refuse(name, f"has labels outside [0, {classes})")
        labels[name] = np.array(values, dtype=np.int64)
        if arrays[rows].shape != (len(values), dim):
            refuse(rows, f"has shape {arrays[rows].shape}, expected {(len(values), dim)}")
    if arrays["prototypes"].shape != (classes, dim):
        refuse("prototypes", f"has shape {arrays['prototypes'].shape}, expected {(classes, dim)}")
    return TaskData(task_id=doc["task_id"], **arrays, **labels)
