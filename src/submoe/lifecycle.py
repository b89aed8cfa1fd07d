"""Two-phase task learning.

Phase 1 (routing fit): append fresh candidate experts and a new router per
adapter layer, then train router + candidates under the displacement-damped
step while logging routing snapshots.  Between phases, candidates whose mean
routing mass stayed below the threshold are removed along with their router
rows.  Phase 2 (expert fit): router frozen, damping off, only the surviving
candidates train.  Everything learned earlier stays bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .adapter import MixtureAdapterLayer
from .errors import ConfigError, DataError, NumericError, StateError
from .model import AdapterModel, trainable_stage1_params
from .numerics import kl_divergence
from .optim import (
    AdamWState, OptimConfig, PenaltyState, apply_step, init_adamw_state,
    init_penalty_state,
)
# Nothing here calls it, but `perfbench/spans.py` wraps the step's functions
# where this module looks them up (`lifecycle.__dict__`), this one included.
from .optim import penalty_value  # noqa: F401
from .streams import TaskData


@dataclass(frozen=True)
class PhaseSchedule:
    identify_steps: int
    finetune_steps: int
    prune_threshold: float = 0.1
    num_candidates: int = 1
    top_k: int = 2
    batch_size: int = 64
    eval_batch_size: int = 256
    snapshot_interval: int = 10
    kl_plateau_stop: float | None = None

    def __post_init__(self):
        if self.identify_steps < 1:
            raise ConfigError(f"schedule.identify_steps: must be >= 1, got {self.identify_steps}")
        if self.finetune_steps < 0:
            raise ConfigError(f"schedule.finetune_steps: must be >= 0, got {self.finetune_steps}")
        if not (0.0 <= self.prune_threshold < 1.0):
            raise ConfigError(
                f"schedule.prune_threshold: must lie in [0, 1), got {self.prune_threshold}"
            )
        if self.num_candidates < 1:
            raise ConfigError(
                f"schedule.num_candidates: must be >= 1, got {self.num_candidates}"
            )
        if self.top_k < 1:
            raise ConfigError(f"schedule.top_k: must be >= 1, got {self.top_k}")
        if self.batch_size < 1:
            raise ConfigError(f"schedule.batch_size: must be >= 1, got {self.batch_size}")
        if self.eval_batch_size < 1:
            raise ConfigError(f"schedule.eval_batch_size: must be >= 1, got {self.eval_batch_size}")
        if self.snapshot_interval < 1:
            raise ConfigError(
                f"schedule.snapshot_interval: must be >= 1, got {self.snapshot_interval}"
            )
        if self.kl_plateau_stop is not None and self.kl_plateau_stop <= 0.0:
            raise ConfigError("schedule.kl_plateau_stop: must be positive when set")


@dataclass
class RoutingSnapshot:
    step: int
    layer_weights: list[np.ndarray]  # mean renormalised routing per adapter layer
    layer_probs: list[np.ndarray]    # mean full softmax per adapter layer
    loss: float                      # contrastive loss on the eval batch


@dataclass
class RoutingTrace:
    task: int
    snapshots: list[RoutingSnapshot]

    def __post_init__(self):
        steps = [s.step for s in self.snapshots]
        if steps != sorted(set(steps)):
            raise StateError("snapshot steps must be strictly increasing")


@dataclass
class LayerPruneRecord:
    layer_index: int
    candidate_ids: list[int]
    mean_weights: list[float]
    pruned_ids: list[int]
    kept_ids: list[int]

    @property
    def removed(self) -> int:
        return len(self.pruned_ids)


@dataclass
class PruneReport:
    task: int
    threshold: float
    layers: list[LayerPruneRecord]
    stage1_trainable_params: int  # counted before pruning: what phase 1 trained

    @property
    def removed_total(self) -> int:
        return sum(rec.removed for rec in self.layers)


def begin_task(model: AdapterModel, task: int, schedule: PhaseSchedule,
               rng: np.random.Generator) -> None:
    """Give every adapter layer `num_candidates` fresh zero-output experts and
    a new router for `task` that mixes `schedule.top_k` experts.  Everything
    learned so far stays frozen: a step only updates the experts and router
    the task being learned owns."""
    if task in model.learned_tasks or task in model.phase:
        raise StateError(f"task {task} was already started")
    if model.current_task is not None:
        raise StateError(f"task {model.current_task} is still in progress")
    for layer in model.adapter_layers():
        for _ in range(schedule.num_candidates):
            layer.add_expert(task, rng)
        layer.add_router(task, schedule.top_k)
    model.current_task = task
    model.phase[task] = "expanded"


def _eval_batch(data: TaskData, schedule: PhaseSchedule, task: int):
    n = data.eval_x.shape[0]
    take = min(schedule.eval_batch_size, n)
    # fixed permutation so the batch mixes classes but stays deterministic
    perm = np.random.default_rng(np.random.SeedSequence([13, task])).permutation(n)
    idx = perm[:take]
    return data.eval_x[idx], data.eval_y[idx]


class _BatchCursor:
    """Epoch-shuffled minibatch index stream."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        if n < 1:
            raise DataError("task has no training rows")
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = rng
        self.order = rng.permutation(n)
        self.pos = 0

    def next(self) -> np.ndarray:
        if self.pos + self.batch_size > self.n:
            self.order = self.rng.permutation(self.n)
            self.pos = 0
        out = self.order[self.pos:self.pos + self.batch_size]
        self.pos += self.batch_size
        return out


@dataclass
class _LayerStep:
    """What a phase's steps share in one adapter layer.  Nothing adds or
    removes an expert or a router row within a phase, so the candidates'
    positions and the router's weight stay fixed; the experts' arrays are
    read at each step, since a pass may repack them (after a checkpoint
    load, for one)."""

    layer: MixtureAdapterLayer
    cand_idx: list[int]      # the task's candidates among the layer's experts
    plain: list[np.ndarray]  # the router's weight when it trains
    penalty: PenaltyState
    adam: AdamWState | None  # moments of the candidates' arrays, then of plain

    def cand_params(self) -> list[list[np.ndarray]]:
        return [self.layer.experts[j].params() for j in self.cand_idx]


_StepStates = dict[int, _LayerStep]


def _step_states(model: AdapterModel, task: int, cfg: OptimConfig,
                 router_trainable: bool) -> _StepStates:
    """Per adapter layer, the task's candidates, the arrays a phase steps
    (candidates, then the router when it trains), the penalty state of the
    candidates and, for AdamW, the moments of every stepped array."""
    states: _StepStates = {}
    for layer in model.adapter_layers():
        cand_idx = layer.candidate_indices(task)
        cand_params = [layer.experts[j].params() for j in cand_idx]
        plain = [layer.router_for(task).weight] if router_trainable else []
        adam = None
        if cfg.method == "adamw":
            adam = init_adamw_state([p for group in cand_params for p in group] + plain)
        states[layer.layer_index] = _LayerStep(
            layer, cand_idx, plain, init_penalty_state(cand_params), adam)
    return states


def _phase_step(model: AdapterModel, task: int, data: TaskData, idx: np.ndarray,
                cfg: OptimConfig, router_trainable: bool, states: _StepStates,
                step_no: int) -> float:
    """One optimisation step over the batch `idx`; returns the contrastive
    loss."""
    loss, grads = model.loss_and_grads(
        data.train_x[idx], data.train_y[idx], data.text_emb, task, router_trainable
    )
    if not np.isfinite(loss):
        raise NumericError(f"step {step_no}: training loss became non-finite")
    for lg in grads:
        st = states[lg.layer_index]
        mean_w = lg.dist.mean_weights().tolist()
        pis = [mean_w[j] for j in st.cand_idx]
        cand_params = st.cand_params()
        cand_grads = [lg.expert_grads[j] for j in st.cand_idx]
        plain_grads = [lg.router_grad] if router_trainable else []
        apply_step(cand_params, cand_grads, pis, st.plain, plain_grads, st.penalty, cfg, st.adam)
    return loss


def fit_routing(model: AdapterModel, task: int, data: TaskData,
                schedule: PhaseSchedule, cfg: OptimConfig,
                rng: np.random.Generator) -> RoutingTrace:
    """Phase 1: train the task's routers plus candidate experts under the
    damped step, recording routing snapshots on a fixed eval batch: at step
    0, every `snapshot_interval` steps and at the step where it stops."""
    if model.phase.get(task) != "expanded":
        raise StateError(f"task {task}: routing fit requires begin_task first")
    if data.train_x.shape[0] == 0:
        raise DataError(f"task {task}: empty training set")
    eval_x, eval_y = _eval_batch(data, schedule, task)
    cursor = _BatchCursor(data.train_x.shape[0], schedule.batch_size, rng)

    states = _step_states(model, task, cfg, router_trainable=True)
    snapshots: list[RoutingSnapshot] = []

    def snap(step: int):
        loss, lw, lp = model.routing_snapshot(eval_x, eval_y, data.text_emb, task)
        snapshots.append(RoutingSnapshot(step=step, layer_weights=lw, layer_probs=lp, loss=loss))

    snap(0)
    plateau_hits = 0
    for s in range(1, schedule.identify_steps + 1):
        idx = cursor.next()
        _phase_step(model, task, data, idx, cfg, True, states, s)
        if s % schedule.snapshot_interval == 0 or s == schedule.identify_steps:
            snap(s)
            if schedule.kl_plateau_stop is not None and len(snapshots) >= 2:
                prev, cur = snapshots[-2], snapshots[-1]
                drift = _mean_layer_kl(cur, prev)
                plateau_hits = plateau_hits + 1 if drift < schedule.kl_plateau_stop else 0
                if plateau_hits >= 2 and s < schedule.identify_steps:
                    break
    model.phase[task] = "identified"
    return RoutingTrace(task=task, snapshots=snapshots)


def _mean_layer_kl(p: RoutingSnapshot, q: RoutingSnapshot) -> float:
    """KL(p || q) of the mean routing weights, averaged over adapter layers."""
    return float(np.mean([kl_divergence(pw, qw)
                          for pw, qw in zip(p.layer_weights, q.layer_weights)]))


def kl_to_final(trace: RoutingTrace) -> list[tuple[int, float]]:
    """Per snapshot, KL(final || snapshot) averaged over adapter layers."""
    if len(trace.snapshots) < 2:
        raise StateError("need at least two snapshots for a convergence curve")
    final = trace.snapshots[-1]
    return [(snap.step, _mean_layer_kl(final, snap)) for snap in trace.snapshots]


def prune_candidates(model: AdapterModel, task: int, trace: RoutingTrace,
                     threshold: float) -> PruneReport:
    """Remove candidates whose mean routing mass on the final snapshot is
    strictly below `threshold`, dropping their router rows with them."""
    if model.phase.get(task) != "identified":
        raise StateError(f"task {task}: prune requires a completed routing fit")
    if trace.task != task:
        raise StateError(f"trace belongs to task {trace.task}, not {task}")
    final = trace.snapshots[-1]
    layers = model.adapter_layers()
    if len(final.layer_weights) != len(layers):
        raise StateError("trace layer count does not match the model")
    trained = trainable_stage1_params(model, task)
    records = []
    for pos, layer in enumerate(layers):
        weights = final.layer_weights[pos]
        if weights.size != layer.router_for(task).n_visible:
            raise StateError(
                f"layer {layer.layer_index}: trace has {weights.size} experts, "
                f"router sees {layer.router_for(task).n_visible}"
            )
        cand_idx = layer.candidate_indices(task)
        cand_ids = [layer.experts[j].expert_id for j in cand_idx]
        mass = [float(weights[j]) for j in cand_idx]
        pruned = [cid for cid, m in zip(cand_ids, mass) if m < threshold]
        kept = [cid for cid in cand_ids if cid not in pruned]
        layer.remove_experts(set(pruned), task)
        records.append(LayerPruneRecord(
            layer_index=layer.layer_index, candidate_ids=cand_ids,
            mean_weights=mass, pruned_ids=pruned, kept_ids=kept,
        ))
    model.phase[task] = "pruned"
    return PruneReport(task=task, threshold=threshold, layers=records,
                       stage1_trainable_params=trained)


def finetune_experts(model: AdapterModel, task: int, data: TaskData,
                     schedule: PhaseSchedule, cfg: OptimConfig,
                     rng: np.random.Generator) -> None:
    """Phase 2: freeze the task's routers, drop the damping, and train only
    the surviving candidates.  A task with no survivors is a no-op."""
    if model.phase.get(task) != "pruned":
        raise StateError(f"task {task}: fine-tune requires prune_candidates first")
    plain_cfg = replace(cfg, penalty=0.0)
    cursor = _BatchCursor(data.train_x.shape[0], schedule.batch_size, rng)
    states = _step_states(model, task, cfg, router_trainable=False)
    for s in range(1, schedule.finetune_steps + 1):
        idx = cursor.next()
        _phase_step(model, task, data, idx, plain_cfg, False, states, s)
    model.phase[task] = "done"
    model.learned_tasks.append(task)
    model.current_task = None


def learn_task(model: AdapterModel, task: int, data: TaskData,
               schedule: PhaseSchedule, cfg: OptimConfig,
               rng: np.random.Generator) -> tuple[PruneReport, RoutingTrace]:
    """Full per-task pipeline: expand, fit routing, prune, fine-tune."""
    begin_task(model, task, schedule, rng)
    trace = fit_routing(model, task, data, schedule, cfg, rng)
    report = prune_candidates(model, task, trace, schedule.prune_threshold)
    finetune_experts(model, task, data, schedule, cfg, rng)
    return report, trace


def trace_records(trace: RoutingTrace) -> list[dict]:
    """Flatten a trace to JSON-serialisable per-snapshot-per-layer records."""
    out = []
    for snap in trace.snapshots:
        for pos in range(len(snap.layer_weights)):
            out.append({
                "task": trace.task,
                "step": snap.step,
                "layer": pos,
                "mean_weights": [float(v) for v in snap.layer_weights[pos]],
                "mean_probs": [float(v) for v in snap.layer_probs[pos]],
                "eval_loss": float(snap.loss),
            })
    return out


def prune_records(report: PruneReport) -> list[dict]:
    out = []
    for rec in report.layers:
        out.append({
            "task": report.task,
            "layer": rec.layer_index,
            "threshold": report.threshold,
            "candidate_ids": rec.candidate_ids,
            "mean_weights": rec.mean_weights,
            "pruned_ids": rec.pruned_ids,
            "kept_ids": rec.kept_ids,
        })
    return out
