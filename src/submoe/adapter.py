"""Mixture-of-low-rank-experts adapter layer with task-owned routers.

Each layer keeps an ordered expert list and one router per task.  A router
only ever sees the experts that existed when it was created, and mixes its
own `top_k` of them, so inference for an old task replays exactly the
computation it was trained with.  The backward pass is hand-derived and
returns gradients only for the visible experts the routed task owns (the
only ones a learning step updates) plus, on request, the router.

The layer packs its experts' arrays into `down_all [E, rank, dim]` and
`up_all [E, dim, rank]`, whose slices are the experts' `down` and `up`, so a
pass makes one stacked product per stage over a chunk of experts.  A stacked
product makes, per expert, the BLAS call of that expert's 2-d product, and
the weighted outputs are summed in expert order, so every value is bit for
bit that of a loop over the experts, whatever the chunk size.  A chunk holds
up to `CHUNK_BYTES` of outputs (42 experts at 48 rows and dim 64), so a
training pass over a few dozen experts makes one stacked product per stage,
and every layer writes its chunks to the one workspace of the process.
Training and inference share one forward pass: it mixes each chunk's outputs
into the layer's output and drops them, and its cache keeps only the down
activations.  backward() recomputes each chunk's outputs from them with the
forward's own products, so a cache stays small and a learning step does not
hold every expert's outputs between its forward and its backward.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from operator import attrgetter, is_

import numpy as np

from .errors import DimensionError, MissingRouterError, StateError
from .numerics import MatMul, as_matrix, require_finite, softmax_rows

_DOWN, _UP = attrgetter("down"), attrgetter("up")

# No stacked temporary of a pass exceeds this many bytes: a chunk holds as
# many experts as fit, and at least one.
CHUNK_BYTES = 1024 * 1024

# The workspace of every layer's passes (see `_scratch`), made once per process
_work = np.empty(CHUNK_BYTES // 8)


@dataclass
class LoraExpert:
    """Rank-r residual map x -> up @ (down @ x); `up` starts at zero so a
    fresh expert is exactly the zero map.  In a layer, `down` and `up` are
    views of the layer's packed arrays; an array bound in their place is
    copied into a new pack at the layer's next pass."""

    down: np.ndarray  # [rank, dim]
    up: np.ndarray    # [dim, rank]
    owner_task: int
    expert_id: int

    def params(self) -> list[np.ndarray]:
        return [self.down, self.up]


def new_expert(dim: int, rank: int, owner_task: int, expert_id: int,
               rng: np.random.Generator) -> LoraExpert:
    bound = 1.0 / np.sqrt(dim)
    down = rng.uniform(-bound, bound, size=(rank, dim))
    up = np.zeros((dim, rank))
    return LoraExpert(down=down, up=up, owner_task=owner_task, expert_id=expert_id)


@dataclass
class Router:
    """Linear scorer over the experts visible at its creation time; each row
    mixes its `top_k` highest-scoring experts."""

    weight: np.ndarray  # [n_visible, dim]
    top_k: int

    @property
    def n_visible(self) -> int:
        return self.weight.shape[0]


@dataclass
class RoutingDistribution:
    """Per-row full softmax plus the renormalised mixture weights actually
    used to combine expert outputs."""

    probs: np.ndarray    # [B, n_visible]
    weights: np.ndarray  # [B, n_visible], zero outside the top k, rows sum to 1

    # np.add.reduce over the rows divided by their count is what np.mean
    # computes, without its Python wrapper
    def mean_weights(self) -> np.ndarray:
        return np.add.reduce(self.weights, axis=0) / len(self.weights)

    def mean_probs(self) -> np.ndarray:
        return np.add.reduce(self.probs, axis=0) / len(self.probs)


@dataclass
class ForwardCache:
    """Everything backward() needs; `version` pins the cache to the layer
    structure it was computed against.  It keeps the down activations and
    the forward's `matmul`, not the expert outputs: backward() recomputes
    them with the forward's own calls on the same operands, bit for bit."""

    x: np.ndarray
    task: int
    dist: RoutingDistribution
    down_acts: np.ndarray  # [n_visible, B, rank]
    n_visible: int
    version: int
    matmul: MatMul = np.matmul


def _mix(acc: np.ndarray, w: np.ndarray, terms: np.ndarray) -> None:
    """acc += w[:, 0:1] * terms[0] + w[:, 1:2] * terms[1] + ..., bit for bit
    as a loop of `acc += w[:, j:j + 1] * terms[j]`: the first weighted term
    takes `acc` in (float addition commutes exactly), and `np.add.reduce`
    over the leading axis adds the others in order.  The terms are weighted
    in place."""
    np.multiply(w.T[:, :, None], terms, out=terms)
    terms[0] += acc
    np.add.reduce(terms, axis=0, out=acc)


@functools.lru_cache(maxsize=1024)
def _chunk_slices(n: int, rows: int, width: int) -> tuple[slice, ...]:
    """Consecutive slices of the first `n` experts, each small enough that a
    stacked [experts, rows, width] array fits in `CHUNK_BYTES`.  A learning
    phase asks for the same few shapes at every step, so they are kept."""
    per = max(1, CHUNK_BYTES // max(1, 8 * rows * width))
    return tuple(slice(s, min(s + per, n)) for s in range(0, n, per))


def _scratch(slices: tuple[slice, ...], rows: int, dim: int) -> np.ndarray:
    """The process's workspace as the largest chunk's [experts, rows, dim].
    Every pass of every layer writes its chunks' outputs and temporaries
    there, and no cache refers to it, so a pass needs it only while it runs
    (passes in one process must not run concurrently).  It is made at import
    at `CHUNK_BYTES`, which holds any chunk but one expert wider than that,
    and grows for such a one: a new array per pass would be freed at the top
    of the heap, which malloc then trims and faults in again at the next
    learning step."""
    global _work
    per = slices[0].stop if slices else 0
    if _work.size < per * rows * dim:
        _work = np.empty(per * rows * dim)
    return _work[:per * rows * dim].reshape(per, rows, dim)


def top_k_select(probs: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k largest entries per row, ties broken toward the
    lower expert index."""
    n = probs.shape[1]
    if k >= n:
        return np.ones(probs.shape, dtype=bool)
    # stable sort on the negated probs keeps the lower index first among ties
    order = np.argsort(-probs, axis=1, kind="stable")
    mask = np.zeros(probs.shape, dtype=bool)
    rows = np.arange(probs.shape[0])[:, None]
    mask[rows, order[:, :k]] = True
    return mask


@dataclass
class MixtureAdapterLayer:
    layer_index: int
    dim: int
    rank: int
    top_k: int  # the k of a router added without one
    experts: list[LoraExpert] = field(default_factory=list)
    routers: dict[int, Router] = field(default_factory=dict)
    version: int = 0
    next_expert_id: int = 0
    down_all: np.ndarray = field(init=False, repr=False, compare=False)  # [E, rank, dim]
    up_all: np.ndarray = field(init=False, repr=False, compare=False)    # [E, dim, rank]
    _packed: tuple = field(init=False, repr=False, compare=False)  # the slots' views

    def __post_init__(self):
        self._repack()

    def _repack(self) -> None:
        """Copy every expert's arrays into fresh `down_all`/`up_all` and make
        them views of their slots."""
        n = len(self.experts)
        self.down_all = np.empty((n, self.rank, self.dim))
        self.up_all = np.empty((n, self.dim, self.rank))
        for i, e in enumerate(self.experts):
            self.down_all[i], self.up_all[i] = e.down, e.up
            e.down, e.up = self.down_all[i], self.up_all[i]
        self._packed = (list(map(_DOWN, self.experts)), list(map(_UP, self.experts)))

    def packed(self, visible: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(down_all, up_all), repacked first if the expert count changed or
        an array of the first `visible` experts (default: all) is no longer
        its slot (a checkpoint load or an `e.up = ...` rebinds it)."""
        experts = self.experts if visible is None else self.experts[:visible]
        downs, ups = self._packed
        if not (len(self.experts) == len(downs)
                and all(map(is_, map(_DOWN, experts), downs))
                and all(map(is_, map(_UP, experts), ups))):
            self._repack()
        return self.down_all, self.up_all

    def _chunks(self, n: int, rows: int) -> tuple[slice, ...]:
        return _chunk_slices(n, rows, max(self.dim, self.rank))

    def router_for(self, task: int) -> Router:
        try:
            return self.routers[task]
        except KeyError:
            raise MissingRouterError(f"layer {self.layer_index} has no router for task {task}")

    def add_router(self, task: int, top_k: int | None = None) -> Router:
        """A zero router for `task` over every current expert, mixing `top_k`
        of them (default: the layer's `top_k`)."""
        if task in self.routers:
            raise StateError(f"layer {self.layer_index} already has a router for task {task}")
        router = Router(weight=np.zeros((len(self.experts), self.dim)),
                        top_k=self.top_k if top_k is None else top_k)
        self.routers[task] = router
        self.version += 1
        return router

    def add_expert(self, owner_task: int, rng: np.random.Generator) -> LoraExpert:
        expert = new_expert(self.dim, self.rank, owner_task, self.next_expert_id, rng)
        self.next_expert_id += 1
        self.experts.append(expert)
        self._repack()
        self.version += 1
        return expert

    def candidates(self, task: int) -> list[LoraExpert]:
        return [e for e in self.experts if e.owner_task == task]

    def candidate_indices(self, task: int) -> list[int]:
        return [i for i, e in enumerate(self.experts) if e.owner_task == task]

    def remove_experts(self, expert_ids: set[int], task: int) -> None:
        """Drop the given experts (must belong to `task` and be visible to no
        other task's router) and the matching rows of that task's router.
        A refused removal raises `StateError` and changes nothing."""
        if not expert_ids:
            return
        router = self.router_for(task)
        doomed = [i for i, e in enumerate(self.experts) if e.expert_id in expert_ids]
        if len(doomed) != len(expert_ids):
            raise StateError("some expert ids to remove were not found")
        for i in doomed:
            e = self.experts[i]
            if e.owner_task != task:
                raise StateError(
                    f"expert {e.expert_id} belongs to task {e.owner_task}, not {task}"
                )
        for other, r in self.routers.items():
            if other != task and r.n_visible > doomed[0]:
                raise StateError(
                    f"expert {self.experts[doomed[0]].expert_id} is visible to "
                    f"task {other}'s router"
                )
        gone = set(doomed)
        keep_rows = [i for i in range(router.n_visible) if i not in gone]
        self.experts = [e for i, e in enumerate(self.experts) if i not in gone]
        self._repack()
        router.weight = router.weight[keep_rows, :]
        self.version += 1

    def route(self, task: int, x, matmul: MatMul = np.matmul) -> RoutingDistribution:
        xm = as_matrix(x)
        if xm.shape[1] != self.dim:
            raise DimensionError(f"layer dim {self.dim}, input width {xm.shape[1]}")
        require_finite("adapter input", xm)
        router = self.router_for(task)
        if router.n_visible == 0:
            # every candidate was pruned; the layer degenerates to identity
            empty = np.zeros((xm.shape[0], 0))
            return RoutingDistribution(probs=empty, weights=empty.copy())
        probs = softmax_rows(matmul(xm, router.weight.T))
        # a router that mixes every visible expert masks nothing
        masked = probs if router.top_k >= router.n_visible else np.where(
            top_k_select(probs, router.top_k), probs, 0.0)
        weights = masked / np.add.reduce(masked, axis=1, keepdims=True)
        return RoutingDistribution(probs=probs, weights=weights)

    def forward(self, task: int, x, matmul: MatMul = np.matmul):
        """Residual mixture: y = x + sum_j w_j(x) * up_j @ down_j @ x over the
        top-k experts, every product done by `matmul` (one stacked call per
        chunk of experts).  Returns (y, dist, cache).  Each chunk's outputs
        go to the process's workspace and are mixed into `y` there; the cache
        keeps the down activations, from which backward() recomputes them."""
        xm = as_matrix(x)
        dist = self.route(task, xm, matmul)
        w = dist.weights
        n_vis = w.shape[1]
        down_all, up_all = self.packed(n_vis)
        acts = np.empty((n_vis, xm.shape[0], self.rank))
        y = xm.copy()
        slices = self._chunks(n_vis, xm.shape[0])
        buf = _scratch(slices, xm.shape[0], self.dim)
        for s in slices:
            a = matmul(xm, down_all[s].transpose(0, 2, 1), out=acts[s])
            _mix(y, w[:, s], matmul(a, up_all[s].transpose(0, 2, 1), out=buf[:s.stop - s.start]))
        cache = ForwardCache(x=xm, task=task, dist=dist, down_acts=acts,
                             n_visible=n_vis, version=self.version, matmul=matmul)
        return y, dist, cache

    def backward(self, cache: ForwardCache, grad_y, input_grad: bool = True,
                 router_grad: bool = True):
        """Analytic backward through forward().

        Returns (grad_x, expert_grads, router_grad).  expert_grads[j] is
        (grad_down, grad_up) for visible expert j when `cache.task` owns it,
        and None for every other visible expert: experts of other tasks are
        frozen, so nothing would apply their gradients.  The routing gradient
        goes through the softmax Jacobian restricted to the top-k support;
        the discrete top-k selection itself is treated as constant.  With
        `input_grad` false, grad_x is None and is not computed (the lowest
        adapter layer has nothing trainable below it); with `router_grad`
        false, the router gradient is None and is not computed (a frozen
        router).  Neither flag changes the values that are returned.
        """
        if cache.version != self.version:
            raise StateError("forward cache is stale: layer structure changed since forward()")
        w = cache.dist.weights
        x = cache.x
        acts = cache.down_acts
        if getattr(acts, "shape", None) != (cache.n_visible, x.shape[0], self.rank):
            raise StateError("forward cache's down activations are not "
                             "[n_visible, rows, rank]: a foreign cache")
        g = as_matrix(grad_y)
        if g.shape != x.shape:
            raise DimensionError(f"grad shape {g.shape} does not match input {x.shape}")
        require_finite("upstream gradient", g)
        down_all, up_all = self.packed(cache.n_visible)

        expert_grads: list[tuple[np.ndarray, np.ndarray] | None] = [None] * cache.n_visible
        for j, e in enumerate(self.experts[:cache.n_visible]):
            if e.owner_task == cache.task:
                wg = g * w[:, j:j + 1]
                grad_up = wg.T @ acts[j]
                grad_down = (wg @ e.up).T @ x
                expert_grads[j] = (grad_down, grad_up)
        if not (input_grad or router_grad):
            return None, expert_grads, None
        slices = self._chunks(cache.n_visible, x.shape[0])
        buf = _scratch(slices, x.shape[0], self.dim)
        grad_x = g.copy() if input_grad else None
        dmix = np.empty_like(w)
        for s in slices:
            t = buf[:s.stop - s.start]
            if input_grad:
                np.matmul(g @ up_all[s], down_all[s], out=t)
                _mix(grad_x, w[:, s], t)
            # the chunk's outputs, by the forward's own call on its operands
            cache.matmul(acts[s], up_all[s].transpose(0, 2, 1), out=t)
            np.multiply(g, t, out=t)
            dmix[:, s] = np.add.reduce(t, axis=2).T
        # softmax Jacobian on the renormalised support: rows outside the
        # top-k have w == 0 and so receive exactly zero.  dz is
        # w * (dmix - sum(w * dmix)), formed in dmix.
        dmix -= np.add.reduce(w * dmix, axis=1, keepdims=True)
        dz = np.multiply(dmix, w, out=dmix)
        if input_grad:
            grad_x += dz @ self.router_for(cache.task).weight
        return grad_x, expert_grads, dz.T @ x if router_grad else None
