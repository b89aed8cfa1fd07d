"""Task-free routing: match queries to enrolled tasks by nearest fused
embedding.

A task's signature is the concatenation of its mean frozen image embedding
and its mean label-text embedding.  Queries are built the same way and
matched under a distance threshold; anything unmatched falls back to the
bare backbone.  The bank holds no trainable parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, StateError
from .numerics import as_matrix, require_finite

_METRICS = ("manhattan", "euclidean")


@dataclass
class MatchResult:
    matched: bool
    task: int | None
    distance: float


def _checked_embeddings(img_emb, txt_emb) -> tuple[np.ndarray, np.ndarray]:
    img = as_matrix(img_emb)
    txt = as_matrix(txt_emb)
    if img.shape[0] == 0 or txt.shape[0] == 0:
        raise DimensionError("fused embedding needs at least one image and one text row")
    require_finite("image embeddings", img)
    require_finite("text embeddings", txt)
    return img, txt


def fused_embedding(img_emb, txt_emb) -> np.ndarray:
    """Concat(mean image embedding, mean text embedding)."""
    img, txt = _checked_embeddings(img_emb, txt_emb)
    return np.concatenate([img.mean(axis=0), txt.mean(axis=0)])


def window_queries(img_emb, txt_emb, window: int) -> np.ndarray:
    """One fused query per `window` consecutive image rows (the last window
    may be shorter), all sharing the text mean: [windows, 2 * dim].

    Row w equals `fused_embedding(img[w * window:(w + 1) * window], txt)`
    bit for bit; the reshaped mean adds each window's rows in the same order
    (`np.add.reduceat` does not, for windows of 3 or more rows).
    """
    if window < 1:
        raise DimensionError(f"query window must be >= 1, got {window}")
    img, txt = _checked_embeddings(img_emb, txt_emb)
    n, dim = img.shape
    full = n - n % window
    means = [img[:full].reshape(-1, window, dim).mean(axis=1)]
    if full < n:
        means.append(img[full:].mean(axis=0, keepdims=True))
    img_means = np.vstack(means)
    txt_mean = np.broadcast_to(txt.mean(axis=0), (img_means.shape[0], txt.shape[1]))
    return np.hstack([img_means, txt_mean])


@dataclass
class TaskBank:
    threshold: float
    metric: str = "manhattan"
    entries: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.threshold) or self.threshold < 0.0:
            raise ConfigError(f"task_bank.match_threshold: must be >= 0, got {self.threshold}")
        if self.metric not in _METRICS:
            raise ConfigError(f"task_bank.metric: unknown metric {self.metric!r}")

    def _distances(self, queries: np.ndarray, signatures: np.ndarray) -> np.ndarray:
        """[queries, signatures] distances; each entry equals the 1-d
        `np.abs(q - s).sum()` or `np.linalg.norm(q - s)` bit for bit."""
        diff = queries[:, None, :] - signatures[None, :, :]
        if self.metric == "manhattan":
            return np.abs(diff, out=diff).sum(axis=2)
        return np.sqrt(np.vecdot(diff, diff))

    def enroll(self, task: int, img_emb, txt_emb) -> np.ndarray:
        """Store (or deterministically overwrite) the task's signature."""
        f = fused_embedding(img_emb, txt_emb)
        if self.entries:
            width = next(iter(self.entries.values())).shape[0]
            if f.shape[0] != width:
                raise DimensionError(
                    f"signature width {f.shape[0]} does not match bank width {width}"
                )
        self.entries[task] = f
        return f

    def match(self, queries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest enrolled task of every row of a [windows, 2 * dim] query
        matrix; a row is matched iff its distance is <= threshold, and ties
        go to the lower task id.

        Returns (tasks, distances, matched), one entry per row; `tasks` holds
        the nearest id even where the row is unmatched.
        """
        if not self.entries:
            raise StateError("task bank is empty; enroll at least one task first")
        q = as_matrix(queries)
        ids = sorted(self.entries)
        signatures = np.stack([self.entries[t] for t in ids])
        if q.shape[1] != signatures.shape[1]:
            raise DimensionError(
                f"query width {q.shape[1]} does not match bank width {signatures.shape[1]}"
            )
        dist = self._distances(q, signatures)
        # argmin keeps the first minimum, i.e. the lowest id in sorted order
        best = dist.argmin(axis=1)
        best_dist = dist[np.arange(q.shape[0]), best]
        return np.asarray(ids, dtype=np.int64)[best], best_dist, best_dist <= self.threshold

    def rematch(self, queries: np.ndarray, tasks: np.ndarray, distances: np.ndarray,
                task: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`match` of `queries` after enrolling `task`, from (tasks, distances)
        of a `match` made before: only the new signature is measured.  A row
        moves to `task` when it is nearer, or as near with a lower id, which
        is `match`'s argmin rule; each distance equals its column of `match`'s
        distance matrix bit for bit.  Returns new arrays, as `match` does.
        """
        dist = self._distances(queries, self.entries[task][None])[:, 0]
        moved = (dist < distances) | ((dist == distances) & (task < tasks))
        best_dist = np.where(moved, dist, distances)
        return np.where(moved, task, tasks), best_dist, best_dist <= self.threshold

    def identify(self, img_emb, txt_emb) -> MatchResult:
        """Nearest enrolled task of one query window (see `match`)."""
        tasks, dist, matched = self.match(fused_embedding(img_emb, txt_emb)[None])
        task = int(tasks[0]) if matched[0] else None
        return MatchResult(matched=bool(matched[0]), task=task, distance=float(dist[0]))
