"""Mixture-of-low-rank-experts adapter layer with task-owned routers.

Each layer keeps an ordered expert list and one router per task.  A router
only ever sees the experts that existed when it was created, and mixes its
own `top_k` of them, so inference for an old task replays exactly the
computation it was trained with.  The backward pass is hand-derived and
returns gradients only for the visible experts the routed task owns (the
only ones a learning step updates) plus, on request, the router.

The layer keeps its experts' arrays only in `down_all [E, rank, dim]` and
`up_all [E, dim, rank]`: an expert's `down` and `up` are views of its slot,
assigning one writes into the slot, and only a change of the expert list
rebuilds the packs, so a pass reads them as they are and makes one stacked
product per stage over a chunk of experts.  A stacked product makes, per
expert, the BLAS call of that expert's 2-d product, and the weighted outputs
are summed in expert order, so every value is bit for bit that of a loop
over the experts, whatever the chunk size.  A chunk holds up to
`CHUNK_BYTES` of outputs (42 experts at 48 rows and dim 64), so a training
pass over a few dozen experts makes one stacked product per stage, and
every layer writes its chunks to the one workspace of the process.
Training and inference share one forward pass: it mixes each chunk's outputs
into the layer's output and drops them, and its cache keeps only the down
activations.  backward() recomputes each chunk's outputs from them with the
forward's own products, so a cache stays small and a learning step does not
hold every expert's outputs between its forward and its backward.  While a
router and the experts before its task's first stay frozen, a forward can
start from a `FrozenMix`, their mix made once for fixed rows, and run only
the task's experts.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, MissingRouterError, StateError
from .numerics import MatMul, as_matrix, by_row_blocks, require_finite, softmax_rows

# No stacked temporary of a pass exceeds this many bytes: a chunk holds as
# many experts as fit, and at least one.
CHUNK_BYTES = 1024 * 1024

# The workspace of every layer's passes (see `_scratch`), made once per process
_work = np.empty(CHUNK_BYTES // 8)


@dataclass
class LoraExpert:
    """Rank-r residual map x -> up @ (down @ x); `up` starts at zero so a
    fresh expert is exactly the zero map.  Once in a layer, `down` and `up`
    are views of the expert's slot in the layer's packs, and assigning one
    writes the values into the slot (`e.up = X` and `e.down += 1.0` both
    update the layer); the shape must be the slot's."""

    down: np.ndarray  # [rank, dim]
    up: np.ndarray    # [dim, rank]
    owner_task: int
    expert_id: int
    _slotted: bool = field(default=False, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        slot = self.__dict__.get(name) if self._slotted and name in ("down", "up") else None
        if slot is None:
            object.__setattr__(self, name, value)
        elif np.shape(value) != slot.shape:
            raise DimensionError(f"expert {self.expert_id} {name}: shape {np.shape(value)}, "
                                 f"slot {slot.shape}")
        else:
            slot[...] = value

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
    down_acts: np.ndarray  # [n_visible - first, B, rank]
    n_visible: int
    version: int
    matmul: MatMul = np.matmul
    first: int = 0  # the experts before it came mixed in a `FrozenMix`


@dataclass
class FrozenMix:
    """What a frozen router makes of fixed rows, for a forward that runs
    only the routed task's experts: each row's routing and the mix
    `x + sum_j w_j * up_j @ down_j @ x` over the visible experts before
    `start`, the task's first (later experts are all the task's).  A
    learning phase with frozen routers makes it once at its lowest adapter
    layer, whose inputs are fixed, and gathers each step's rows from it."""

    dist: RoutingDistribution
    partial: np.ndarray  # [B, dim]
    start: int
    version: int  # the layer structure it was made against

    def take(self, idx: np.ndarray) -> FrozenMix:
        """The same for the rows `idx`, gathered."""
        return FrozenMix(RoutingDistribution(self.dist.probs[idx], self.dist.weights[idx]),
                         self.partial[idx], self.start, self.version)


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
def _chunk_slices(lo: int, hi: int, rows: int, width: int) -> tuple[slice, ...]:
    """Consecutive slices of experts `lo` to `hi - 1`, each small enough that
    a stacked [experts, rows, width] array fits in `CHUNK_BYTES`.  A learning
    phase asks for the same few shapes at every step, so they are kept."""
    per = max(1, CHUNK_BYTES // max(1, 8 * rows * width))
    return tuple(slice(s, min(s + per, hi)) for s in range(lo, hi, per))


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
    per = slices[0].stop - slices[0].start if slices else 0
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
    experts: tuple[LoraExpert, ...] = ()  # only the layer replaces it
    routers: dict[int, Router] = field(default_factory=dict)
    version: int = 0
    next_expert_id: int = 0
    down_all: np.ndarray = field(init=False, repr=False, compare=False)  # [E, rank, dim]
    up_all: np.ndarray = field(init=False, repr=False, compare=False)    # [E, dim, rank]

    def __post_init__(self):
        if any(e._slotted for e in self.experts):
            raise StateError("an expert already in a layer cannot join another")
        self._pack(self.experts)

    def __copy__(self) -> MixtureAdapterLayer:
        # a shallow copy would share the experts, which are views of one
        # layer's packs, and the routers, whose rows follow those experts
        return copy.deepcopy(self)

    def __setstate__(self, state: dict) -> None:
        # unpickled or deep-copied experts hold copies of their slots
        self.__dict__.update(state)
        self._pack(self.experts)

    def _pack(self, experts) -> None:
        """Make `experts` the layer's experts: copy their arrays into fresh
        `down_all`/`up_all` and bind each expert's `down` and `up` to its
        slot.  An array of the wrong shape raises `DimensionError` first."""
        want = (self.rank, self.dim), (self.dim, self.rank)
        for e in experts:
            if (e.down.shape, e.up.shape) != want:
                raise DimensionError(f"layer {self.layer_index} expert {e.expert_id}: down "
                                     f"{e.down.shape}, up {e.up.shape}, expected {want}")
        down_all, up_all = np.empty((len(experts), *want[0])), np.empty((len(experts), *want[1]))
        for i, e in enumerate(experts):
            down_all[i], up_all[i] = e.down, e.up
            e.__dict__.update(down=down_all[i], up=up_all[i], _slotted=True)
        self.experts, self.down_all, self.up_all = tuple(experts), down_all, up_all

    def _chunks(self, lo: int, hi: int, rows: int) -> tuple[slice, ...]:
        return _chunk_slices(lo, hi, rows, max(self.dim, self.rank))

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
        self._pack(self.experts + (expert,))
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
        self._pack([e for i, e in enumerate(self.experts) if i not in gone])
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

    def _mix_experts(self, y: np.ndarray, x: np.ndarray, w: np.ndarray, lo: int, hi: int,
                     matmul: MatMul) -> np.ndarray:
        """y += w_j * up_j @ down_j @ x for experts j = lo .. hi - 1 in order,
        one stacked product per chunk; returns their down activations
        [hi - lo, rows, rank].  Each chunk's outputs go to the process's
        workspace and are mixed into `y` there."""
        rows = x.shape[0]
        down_all, up_all = self.down_all, self.up_all
        acts = np.empty((hi - lo, rows, self.rank))
        slices = self._chunks(lo, hi, rows)
        buf = _scratch(slices, rows, self.dim)
        for s in slices:
            a = matmul(x, down_all[s].transpose(0, 2, 1), out=acts[s.start - lo:s.stop - lo])
            _mix(y, w[:, s], matmul(a, up_all[s].transpose(0, 2, 1), out=buf[:s.stop - s.start]))
        return acts

    def forward(self, task: int, x, matmul: MatMul = np.matmul,
                frozen: FrozenMix | None = None):
        """Residual mixture: y = x + sum_j w_j(x) * up_j @ down_j @ x over the
        top-k experts, every product done by `matmul` (one stacked call per
        chunk of experts).  Returns (y, dist, cache); the cache keeps the
        down activations, from which backward() recomputes the outputs.

        With `frozen`, from `frozen_mix` on the rows `x`, the routing and the
        mix of the experts before `frozen.start` come from it and only the
        experts from there on run: the same values, since the mix adds the
        experts in order either way."""
        xm = as_matrix(x)
        if frozen is None:
            dist, y, first = self.route(task, xm, matmul), xm.copy(), 0
        else:
            if frozen.version != self.version:
                raise StateError("frozen mix is stale: layer structure changed since frozen_mix()")
            dist, y, first = frozen.dist, frozen.partial.copy(), frozen.start
        n_vis = dist.weights.shape[1]
        acts = self._mix_experts(y, xm, dist.weights, first, n_vis, matmul)
        cache = ForwardCache(x=xm, task=task, dist=dist, down_acts=acts, n_visible=n_vis,
                             version=self.version, matmul=matmul, first=first)
        return y, dist, cache

    def frozen_mix(self, task: int, x, block: int, matmul: MatMul = np.matmul) -> FrozenMix:
        """`task`'s routing of the rows `x` and the mix of the visible experts
        before its first (all of them if it owns none), which forward()
        continues from while the router and those experts stay frozen.  Both
        are computed in blocks of `block` rows (see `numerics.by_row_blocks`)."""
        xm = as_matrix(x)
        n_vis = self.router_for(task).n_visible
        owned = self.candidate_indices(task)
        start = min(owned[0], n_vis) if owned else n_vis

        def mix(rows: slice):
            xb = xm[rows]
            dist = self.route(task, xb, matmul)
            partial = xb.copy()
            self._mix_experts(partial, xb, dist.weights, 0, start, matmul)
            return dist.probs, dist.weights, partial

        probs, weights, partial = by_row_blocks(mix, xm.shape[0], block)
        return FrozenMix(RoutingDistribution(probs, weights), partial, start, self.version)

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
        router).  Neither flag changes the values that are returned.  A
        cache of a forward from a `FrozenMix` (`first` > 0) holds the
        activations of the experts from `first` on only: it gives their
        gradients, and neither flag may be set.
        """
        if cache.version != self.version:
            raise StateError("forward cache is stale: layer structure changed since forward()")
        w = cache.dist.weights
        x = cache.x
        acts, first = cache.down_acts, cache.first
        if getattr(acts, "shape", None) != (cache.n_visible - first, x.shape[0], self.rank):
            raise StateError("forward cache's down activations are not "
                             "[n_visible - first, rows, rank]: a foreign cache")
        g = as_matrix(grad_y)
        if g.shape != x.shape:
            raise DimensionError(f"grad shape {g.shape} does not match input {x.shape}")
        require_finite("upstream gradient", g)
        down_all, up_all = self.down_all, self.up_all

        expert_grads: list[tuple[np.ndarray, np.ndarray] | None] = [None] * cache.n_visible
        for j in range(first, cache.n_visible):
            e = self.experts[j]
            if e.owner_task == cache.task:
                wg = g * w[:, j:j + 1]
                grad_up = wg.T @ acts[j - first]
                grad_down = (wg @ e.up).T @ x
                expert_grads[j] = (grad_down, grad_up)
        if not (input_grad or router_grad):
            return None, expert_grads, None
        if first:
            raise StateError("a forward from a frozen mix keeps no activations of the "
                             "experts mixed in it: it has no input or router gradient")
        slices = self._chunks(0, cache.n_visible, x.shape[0])
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
