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


def fused_embedding(img_emb, txt_emb) -> np.ndarray:
    """Concat(mean image embedding, mean text embedding): one window of all rows."""
    return fused_queries(*window_means(img_emb, txt_emb, len(img_emb)))[0]


def window_means(img_emb, txt_emb, window: int) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of the fused query of every `window` consecutive image
    rows (the last window may be shorter): the window image means
    [windows, dim] and the text mean [dim] they all share.

    Row w of their `fused_queries` equals
    `fused_embedding(img[w * window:(w + 1) * window], txt)` bit for bit; the
    reshaped mean adds each window's rows in the same order
    (`np.add.reduceat` does not, for windows of 3 or more rows).
    """
    img = as_matrix(img_emb)
    txt = as_matrix(txt_emb)
    if img.shape[0] == 0 or txt.shape[0] == 0:
        raise DimensionError("fused embedding needs at least one image and one text row")
    require_finite("image embeddings", img)
    require_finite("text embeddings", txt)
    if window < 1:
        raise DimensionError(f"query window must be >= 1, got {window}")
    n, dim = img.shape
    full = n - n % window
    means = [img[:full].reshape(-1, window, dim).mean(axis=1)]
    if full < n:
        means.append(img[full:].mean(axis=0, keepdims=True))
    return np.vstack(means), txt.mean(axis=0)


def fused_queries(img_means: np.ndarray, txt_mean: np.ndarray) -> np.ndarray:
    """The [windows, 2 * dim] query matrix of `window_means`' halves: each
    window's image mean beside the shared text mean."""
    txt = np.broadcast_to(txt_mean, (img_means.shape[0], txt_mean.shape[0]))
    return np.hstack([img_means, txt])


def nearest(ids: np.ndarray, dist: np.ndarray, threshold: float
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bank's rule on a [windows, tasks] distance matrix whose columns
    are `ids` ascending: each row's nearest task, the first minimum so the
    lower id wins ties, matched iff its distance is <= threshold.

    Returns (tasks, distances, matched), one entry per row; `tasks` holds
    the nearest id even where the row is unmatched.
    """
    best = dist.argmin(axis=1)
    best_dist = dist[np.arange(dist.shape[0]), best]
    return ids[best], best_dist, best_dist <= threshold


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

    def _distances(self, queries: np.ndarray, signatures) -> np.ndarray:
        """[queries, signatures] distances of a [windows, width] query matrix
        to each 1-d signature in `signatures`, measured one signature at a
        time through one [windows, width] buffer; each entry equals the 1-d
        `np.abs(q - s).sum()` or `np.linalg.norm(q - s)` bit for bit."""
        if queries.shape[1] != signatures[0].shape[0]:
            raise DimensionError(
                f"query width {queries.shape[1]} does not match bank width {signatures[0].shape[0]}"
            )
        out = np.empty((queries.shape[0], len(signatures)))
        diff = np.empty(queries.shape)
        for k, signature in enumerate(signatures):
            np.subtract(queries, signature, out=diff)
            if self.metric == "manhattan":
                out[:, k] = np.abs(diff, out=diff).sum(axis=1)
            else:
                out[:, k] = np.sqrt(np.vecdot(diff, diff))
        return out

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

    def distances(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """(ids, dist): the enrolled ids ascending, and the distance of every
        row of a [windows, 2 * dim] query matrix to each of their signatures,
        [windows, tasks].  Column k equals `rematch`'s measure of signature
        `ids[k]` alone, bit for bit."""
        if not self.entries:
            raise StateError("task bank is empty; enroll at least one task first")
        q = as_matrix(queries)
        ids = sorted(self.entries)
        return np.asarray(ids, dtype=np.int64), self._distances(
            q, [self.entries[t] for t in ids])

    def rematch(self, queries: np.ndarray, tasks: np.ndarray, distances: np.ndarray,
                task: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`nearest(*self.distances(queries), self.threshold)` after enrolling
        `task`, from (tasks, distances) of that rule applied before: only the
        new signature is measured.  A row moves to `task` when it is nearer,
        or as near with a lower id, which is `nearest`'s argmin rule; each
        distance equals its column of `distances` bit for bit.  Returns new
        arrays, as `nearest` does.
        """
        if task not in self.entries:
            raise StateError(f"task {task} is not enrolled in the bank")
        dist = self._distances(queries, [self.entries[task]])[:, 0]
        moved = (dist < distances) | ((dist == distances) & (task < tasks))
        best_dist = np.where(moved, dist, distances)
        return np.where(moved, task, tasks), best_dist, best_dist <= self.threshold

    def identify(self, img_emb, txt_emb) -> MatchResult:
        """Nearest enrolled task of one query window (see `nearest`)."""
        tasks, dist, matched = nearest(*self.distances(fused_embedding(img_emb, txt_emb)[None]),
                                       self.threshold)
        task = int(tasks[0]) if matched[0] else None
        return MatchResult(matched=bool(matched[0]), task=task, distance=float(dist[0]))
