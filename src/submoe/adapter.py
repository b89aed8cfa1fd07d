"""Mixture-of-low-rank-experts adapter layer with task-owned routers.

Each layer keeps an ordered expert list and one router per task.  A router
only ever sees the experts that existed when it was created, so inference
for an old task replays exactly the computation it was trained with.  The
backward pass is hand-derived and returns gradients only for the visible
experts the routed task owns (the only ones a learning step updates) plus
the router.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, MissingRouterError, StateError
from .numerics import MatMul, as_matrix, require_finite, softmax_rows


@dataclass
class LoraExpert:
    """Rank-r residual map x -> up @ (down @ x); `up` starts at zero so a
    fresh expert is exactly the zero map."""

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
    """Linear scorer over the experts visible at its creation time."""

    weight: np.ndarray  # [n_visible, dim]

    @property
    def n_visible(self) -> int:
        return self.weight.shape[0]


@dataclass
class RoutingDistribution:
    """Per-row full softmax plus the top-k mask and the renormalised mixture
    weights actually used to combine expert outputs."""

    probs: np.ndarray       # [B, n_visible]
    top_k_mask: np.ndarray  # [B, n_visible] bool
    weights: np.ndarray     # [B, n_visible], zero outside the mask, rows sum to 1

    def mean_weights(self) -> np.ndarray:
        return self.weights.mean(axis=0)

    def mean_probs(self) -> np.ndarray:
        return self.probs.mean(axis=0)


@dataclass
class ForwardCache:
    """Everything backward() needs; `version` pins the cache to the layer
    structure it was computed against."""

    x: np.ndarray
    task: int
    dist: RoutingDistribution
    down_acts: list[np.ndarray]  # per expert, [B, rank]
    outputs: list[np.ndarray]    # per expert, [B, dim]
    n_visible: int
    version: int


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
    top_k: int
    experts: list[LoraExpert] = field(default_factory=list)
    routers: dict[int, Router] = field(default_factory=dict)
    version: int = 0
    next_expert_id: int = 0

    def router_for(self, task: int) -> Router:
        try:
            return self.routers[task]
        except KeyError:
            raise MissingRouterError(f"layer {self.layer_index} has no router for task {task}")

    def add_router(self, task: int) -> Router:
        if task in self.routers:
            raise StateError(f"layer {self.layer_index} already has a router for task {task}")
        router = Router(weight=np.zeros((len(self.experts), self.dim)))
        self.routers[task] = router
        self.version += 1
        return router

    def add_expert(self, owner_task: int, rng: np.random.Generator) -> LoraExpert:
        expert = new_expert(self.dim, self.rank, owner_task, self.next_expert_id, rng)
        self.next_expert_id += 1
        self.experts.append(expert)
        self.version += 1
        return expert

    def candidates(self, task: int) -> list[LoraExpert]:
        return [e for e in self.experts if e.owner_task == task]

    def candidate_indices(self, task: int) -> list[int]:
        return [i for i, e in enumerate(self.experts) if e.owner_task == task]

    def remove_experts(self, expert_ids: set[int], task: int) -> None:
        """Drop the given experts (must belong to `task`) and the matching
        rows of that task's router."""
        if not expert_ids:
            return
        router = self.router_for(task)
        keep_rows = []
        kept = []
        for i, e in enumerate(self.experts):
            if e.expert_id in expert_ids:
                if e.owner_task != task:
                    raise StateError(
                        f"expert {e.expert_id} belongs to task {e.owner_task}, not {task}"
                    )
                continue
            kept.append(e)
            if i < router.n_visible:
                keep_rows.append(i)
        removed = len(self.experts) - len(kept)
        if removed != len(expert_ids):
            raise StateError("some expert ids to remove were not found")
        self.experts = kept
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
            return RoutingDistribution(
                probs=empty, top_k_mask=empty.astype(bool), weights=empty.copy()
            )
        logits = matmul(xm, router.weight.T)
        probs = softmax_rows(logits)
        mask = top_k_select(probs, self.top_k)
        masked = np.where(mask, probs, 0.0)
        weights = masked / masked.sum(axis=1, keepdims=True)
        return RoutingDistribution(probs=probs, top_k_mask=mask, weights=weights)

    def forward(self, task: int, x, matmul: MatMul = np.matmul):
        """Residual mixture: y = x + sum_j w_j(x) * up_j @ down_j @ x over the
        top-k experts, every product done by `matmul`.  Returns (y, dist,
        cache)."""
        xm = as_matrix(x)
        dist = self.route(task, xm, matmul)
        router = self.router_for(task)
        n_vis = router.n_visible
        down_acts = []
        outputs = []
        y = xm.copy()
        for j in range(n_vis):
            e = self.experts[j]
            a = matmul(xm, e.down.T)
            u = matmul(a, e.up.T)
            down_acts.append(a)
            outputs.append(u)
            y += dist.weights[:, j:j + 1] * u
        cache = ForwardCache(
            x=xm, task=task, dist=dist, down_acts=down_acts, outputs=outputs,
            n_visible=n_vis, version=self.version,
        )
        return y, dist, cache

    def backward(self, cache: ForwardCache, grad_y, input_grad: bool = True):
        """Analytic backward through forward().

        Returns (grad_x, expert_grads, router_grad).  expert_grads[j] is
        (grad_down, grad_up) for visible expert j when `cache.task` owns it,
        and None for every other visible expert: experts of other tasks are
        frozen, so nothing would apply their gradients.  The routing gradient
        goes through the softmax Jacobian restricted to the top-k support;
        the discrete top-k selection itself is treated as constant.  With
        `input_grad` false, grad_x is None and is not computed (the lowest
        adapter layer has nothing trainable below it).
        """
        if cache.version != self.version:
            raise StateError("forward cache is stale: layer structure changed since forward()")
        g = as_matrix(grad_y)
        if g.shape != cache.x.shape:
            raise DimensionError(f"grad shape {g.shape} does not match input {cache.x.shape}")
        require_finite("upstream gradient", g)
        router = self.router_for(cache.task)
        w = cache.dist.weights
        x = cache.x

        grad_x = g.copy() if input_grad else None
        expert_grads = []
        dmix = np.empty_like(w)
        for j in range(cache.n_visible):
            e = self.experts[j]
            if e.owner_task == cache.task:
                wg = g * w[:, j:j + 1]
                grad_up = wg.T @ cache.down_acts[j]
                grad_down = (wg @ e.up).T @ x
                expert_grads.append((grad_down, grad_up))
            else:
                expert_grads.append(None)
            if input_grad:
                grad_x += w[:, j:j + 1] * (g @ e.up @ e.down)
            dmix[:, j] = (g * cache.outputs[j]).sum(axis=1)
        # softmax Jacobian on the renormalised support: rows outside the
        # top-k have w == 0 and so receive exactly zero
        dz = w * (dmix - (w * dmix).sum(axis=1, keepdims=True))
        router_grad = dz.T @ x
        if input_grad:
            grad_x += dz @ router.weight
        return grad_x, expert_grads, router_grad


def layer_to_payload(layer: MixtureAdapterLayer) -> dict:
    return {
        "layer_index": layer.layer_index,
        "dim": layer.dim,
        "rank": layer.rank,
        "top_k": layer.top_k,
        "version": layer.version,
        "next_expert_id": layer.next_expert_id,
        "experts": [
            {
                "down": e.down.tolist(),
                "up": e.up.tolist(),
                "owner_task": e.owner_task,
                "expert_id": e.expert_id,
            }
            for e in layer.experts
        ],
        "routers": [
            {"task": task, "weight": r.weight.tolist()}
            for task, r in layer.routers.items()
        ],
    }


def layer_from_payload(payload: dict) -> MixtureAdapterLayer:
    """Inverse of `layer_to_payload`; ignores the `frozen` keys that version 1
    checkpoints carry."""
    layer = MixtureAdapterLayer(
        layer_index=payload["layer_index"],
        dim=payload["dim"],
        rank=payload["rank"],
        top_k=payload["top_k"],
        version=payload["version"],
        next_expert_id=payload["next_expert_id"],
    )
    for e in payload["experts"]:
        layer.experts.append(LoraExpert(
            down=np.asarray(e["down"], dtype=np.float64),
            up=np.asarray(e["up"], dtype=np.float64),
            owner_task=e["owner_task"],
            expert_id=e["expert_id"],
        ))
    for r in payload["routers"]:
        weight = np.asarray(r["weight"], dtype=np.float64)
        if weight.shape == (0,):  # a router with no rows saves as []
            weight = weight.reshape(0, layer.dim)
        layer.routers[r["task"]] = Router(weight=weight)
    return layer
