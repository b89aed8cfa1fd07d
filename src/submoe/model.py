"""Frozen random backbone with mixture-adapter layers spliced in.

The image tower is a stack of frozen affine+tanh layers; selected layers get
a residual mixture adapter appended.  Text embeddings are frozen per-task
label tables carried with the data.  `task=None` routes nothing and replays
the bare backbone (the fallback path for unrecognised inputs).

A learning step (`loss_and_grads`) reads `StepRows`: what every step of a
phase shares, made once for the phase's training rows.  The frozen layers
up to the lowest adapter layer give each row the same input at every step,
the label table stays the same, and with frozen routers so do the lowest
adapter layer's routing and its mix of the experts before the task's
(`adapter.FrozenMix`).  A step gathers its batch's rows of these and runs
the rest.  Each is computed in blocks of the step's own row count, so a
row's value comes from a product of the step's own shape.  It is the value
the step would compute wherever the BLAS kernel rounds a row of a product
the same whichever rows share the product with it, which
`tests/test_kernel_guard.py` checks at the batch sizes the configs use.  An
odd batch (47 rows, say) can put a row in a partial tile of the kernel,
whose rounding depends on the row's position: there a run can differ from
one that recomputes every step in the last ulp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapter import ForwardCache, FrozenMix, MixtureAdapterLayer, RoutingDistribution
from .errors import ConfigError, DimensionError
from .numerics import (
    MatMul, _row_norms, as_matrix, by_row_blocks, contrastive_loss, label_ids, label_table,
    require_finite, table_loss,
)


@dataclass
class FrozenBackbone:
    weights: list[np.ndarray]  # per layer, [dim, dim]
    biases: list[np.ndarray]   # per layer, [dim]

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.weights[0].shape[1]

    def layer_forward(self, i: int, x: np.ndarray, matmul: MatMul = np.matmul) -> np.ndarray:
        return np.tanh(matmul(x, self.weights[i].T) + self.biases[i])


def build_backbone(dim: int, depth: int, seed: int) -> FrozenBackbone:
    """Orthogonal frozen layers keep activation norms stable through tanh."""
    if dim < 1 or depth < 1:
        raise ConfigError(f"model.feature_dim/depth: must be >= 1, got {dim}/{depth}")
    rng = np.random.default_rng(np.random.SeedSequence([11, seed]))
    weights, biases = [], []
    for _ in range(depth):
        raw = rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(raw)
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        weights.append(q * signs)
        biases.append(0.1 * rng.standard_normal(dim))
    return FrozenBackbone(weights=weights, biases=biases)


def cosine_logits(emb: np.ndarray, text_emb, matmul: MatMul = np.matmul) -> np.ndarray:
    """Cosine similarities of embedding rows against label rows: the
    classification step after `AdapterModel.embed`, row by row."""
    txt = as_matrix(text_emb)
    e = emb / _row_norms(emb)[:, None]
    t = txt / _row_norms(txt)[:, None]
    return matmul(e, t.T)


@dataclass
class LayerGrads:
    layer_index: int
    expert_grads: list[tuple[np.ndarray, np.ndarray] | None]  # None: not the task's
    router_grad: np.ndarray | None  # None: not requested (a frozen router)
    dist: RoutingDistribution


@dataclass
class StepRows:
    """What the learning steps of a phase share, per training row; see
    `AdapterModel.step_rows`."""

    task: int
    inputs: np.ndarray  # [n, dim]: each row's input to the lowest adapter layer
    labels: np.ndarray  # [n] int64 label ids, in range of `table`
    table: np.ndarray   # [classes, dim] the label rows, checked and of unit norm
    frozen: FrozenMix | None  # frozen routers: the lowest adapter layer's mix


@dataclass
class AdapterModel:
    backbone: FrozenBackbone
    adapters: dict[int, MixtureAdapterLayer]
    temperature: float
    learned_tasks: list[int] = field(default_factory=list)
    phase: dict[int, str] = field(default_factory=dict)
    current_task: int | None = None

    @property
    def dim(self) -> int:
        return self.backbone.dim

    def adapter_layers(self) -> list[MixtureAdapterLayer]:
        return [self.adapters[i] for i in sorted(self.adapters)]

    def _input(self, x) -> np.ndarray:
        h = as_matrix(x)
        if h.shape[1] != self.dim:
            raise DimensionError(f"input width {h.shape[1]}, backbone dim {self.dim}")
        require_finite("model input", h)
        return h

    def _forward(self, x, task: int | None, keep_tape: bool, matmul: MatMul = np.matmul,
                 dists: list[RoutingDistribution] | None = None):
        """(embeddings, tape) of the model input `x`; see `_layers`."""
        t = self.backbone.layer_forward(0, self._input(x), matmul)
        return self._layers(0, t, task, keep_tape, matmul, dists)

    def _layers(self, start: int, t: np.ndarray, task: int | None, keep_tape: bool,
                matmul: MatMul = np.matmul, dists: list[RoutingDistribution] | None = None,
                frozen: FrozenMix | None = None):
        """(embeddings, tape) of the layers from `start` on, given `t`, the
        output of backbone layer `start`.  With `keep_tape`, the tape holds
        per layer its pre-adapter activations and the adapter's cache (None
        where no adapter ran) for backward; otherwise it is None.  Each
        adapter's routing distribution is appended to `dists` when given.
        `frozen` is the mix the adapter at `start` continues from."""
        tape = [] if keep_tape else None
        for i in range(start, self.backbone.depth):
            if i > start:
                t = self.backbone.layer_forward(i, h, matmul)
            cache: ForwardCache | None = None
            if task is not None and i in self.adapters:
                h, dist, cache = self.adapters[i].forward(
                    task, t, matmul, frozen if i == start else None)
                if dists is not None:
                    dists.append(dist)
            else:
                h = t
            if keep_tape:
                tape.append((t, cache))
        return h, tape

    def embed(self, x, task: int | None, matmul: MatMul = np.matmul) -> np.ndarray:
        """Image embeddings routed through `task`'s adapters.  `matmul` does
        every product (see `numerics.rowwise_matmul` for the row-exact one)."""
        emb, _ = self._forward(x, task, keep_tape=False, matmul=matmul)
        return emb

    def logits(self, x, text_emb, task: int | None) -> np.ndarray:
        """Cosine similarities of embeddings against label rows."""
        return cosine_logits(self.embed(x, task), text_emb)

    def predict(self, x, text_emb, task: int | None) -> np.ndarray:
        return self.logits(x, text_emb, task).argmax(axis=1)

    def step_rows(self, x, labels, text_emb, task: int, block: int,
                  router_grad: bool) -> StepRows:
        """What learning steps over batches of `block` of the rows `x` (with
        `labels`, against the label rows `text_emb`) share while nothing
        below the lowest adapter layer trains, nor, unless `router_grad`,
        any router.  It checks, over every row, what a step would check of
        its batch's rows: `x` is finite and as wide as the backbone, the
        label rows are finite and none has zero norm, every label indexes
        one.  Every value is computed in blocks of `block` rows (see
        `numerics.by_row_blocks`)."""
        h = self._input(x)
        table = label_table(text_emb, self.dim, self.temperature)
        y = label_ids(labels, h.shape[0], table.shape[0])
        lowest = min(self.adapters)

        def prefix(rows: slice):
            t = h[rows]
            for i in range(lowest + 1):
                t = self.backbone.layer_forward(i, t)
            return (t,)

        (inputs,) = by_row_blocks(prefix, h.shape[0], block)
        frozen = None if router_grad else self.adapters[lowest].frozen_mix(task, inputs, block)
        return StepRows(task=task, inputs=inputs, labels=y, table=table, frozen=frozen)

    def loss_and_grads(self, rows: StepRows, idx: np.ndarray):
        """Contrastive loss plus analytic gradients for every adapter layer:
        one learning step over the batch `idx` (row indices) of a phase's
        `rows`.  To step on rows of its own, a caller makes them with
        `step_rows(x, labels, text_emb, task, len(x), router_grad)` and
        passes `np.arange(len(x))`.

        Returns (loss, grads) with one LayerGrads per adapter layer in layer
        order.  Each holds the router gradient (None when `rows` were made
        with frozen routers) and, per visible expert, the (down, up)
        gradient if `rows.task` owns that expert or None if it is frozen.
        The backward pass stops at the lowest adapter layer: nothing below
        it trains.
        """
        frozen = None if rows.frozen is None else rows.frozen.take(idx)
        lowest = min(self.adapters)
        emb, tape = self._layers(lowest, rows.inputs[idx], rows.task, True, frozen=frozen)
        loss, g = table_loss(emb, rows.table, rows.labels[idx], self.temperature)
        per_layer: dict[int, LayerGrads] = {}
        for i in range(self.backbone.depth - 1, lowest - 1, -1):
            t, cache = tape[i - lowest]
            if cache is not None:
                layer = self.adapters[i]
                g, expert_grads, rgrad = layer.backward(
                    cache, g, input_grad=i > lowest, router_grad=frozen is None)
                per_layer[i] = LayerGrads(
                    layer_index=i, expert_grads=expert_grads,
                    router_grad=rgrad, dist=cache.dist,
                )
            if i > lowest:
                g = (g * (1.0 - t * t)) @ self.backbone.weights[i]
        return loss, [per_layer[i] for i in sorted(per_layer)]

    def routing_snapshot(self, x, labels, text_emb, task: int):
        """Eval-batch loss plus per-adapter-layer mean routing distributions."""
        dists: list[RoutingDistribution] = []
        emb, _ = self._forward(x, task, keep_tape=False, dists=dists)
        loss, _ = contrastive_loss(emb, text_emb, labels, self.temperature)
        return loss, [d.mean_weights() for d in dists], [d.mean_probs() for d in dists]

    def expert_counts(self) -> dict[int, int]:
        return {i: len(self.adapters[i].experts) for i in sorted(self.adapters)}


def build_model(dim: int, depth: int, adapter_layers: list[int], rank: int,
                top_k: int, temperature: float, seed: int) -> AdapterModel:
    if not adapter_layers:
        raise ConfigError("model.adapter_layers: need at least one adapter position")
    for i in adapter_layers:
        if not (0 <= i < depth):
            raise ConfigError(f"model.adapter_layers: index {i} outside [0, {depth})")
    if len(set(adapter_layers)) != len(adapter_layers):
        raise ConfigError("model.adapter_layers: duplicate layer index")
    if rank < 1:
        raise ConfigError(f"model.rank: must be >= 1, got {rank}")
    if top_k < 1:
        raise ConfigError(f"schedule.top_k: must be >= 1, got {top_k}")
    if temperature <= 0.0:
        raise ConfigError(f"contrastive.temperature: must be positive, got {temperature}")
    backbone = build_backbone(dim, depth, seed)
    adapters = {
        i: MixtureAdapterLayer(layer_index=i, dim=dim, rank=rank, top_k=top_k)
        for i in adapter_layers
    }
    return AdapterModel(backbone=backbone, adapters=adapters, temperature=temperature)


def trainable_stage1_params(model: AdapterModel, task: int) -> int:
    """Parameter count optimised while fitting routing for `task`: candidate
    experts plus the task's routers."""
    total = 0
    for layer in model.adapter_layers():
        for i in layer.candidate_indices(task):
            total += layer.down_all[i].size + layer.up_all[i].size
        total += layer.router_for(task).weight.size
    return total
