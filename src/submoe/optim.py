"""Training-step machinery.

Newly added ("candidate") experts take a damped SGD step

    delta_w = -lr * g / (1 + 2 * lr * penalty * n * pi)

where pi is the expert's routing mass on the batch and n counts the
candidates actually changing this step.  That scalar damping is the exact
minimiser of the local quadratic model with a routing-weighted displacement
penalty (the test suite checks it against a generic quadratic solve).
Routers and any other plain block take an undamped step.

The damping factors form a diagonal soft projection of the concatenated
gradient: identity on old blocks, 1/(1 + 2*lr*penalty*n*pi_j) on new block
j.  With penalty == 0 every factor is exactly 1.0 and the step is plain SGD
bit for bit.

`apply_step` also runs an AdamW rule (`method: "adamw"`) that multiplies each
block's step by the same damping factor; the equivalence claims above are
only asserted for SGD.

The step applies the penalty only through that closed form: it never
evaluates the penalty and keeps no snapshot of the candidates.
`penalty_value` evaluates it, as a pure function of the values it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

_METHODS = ("sgd", "adamw")


@dataclass(frozen=True)
class OptimConfig:
    learning_rate: float
    penalty: float = 0.0
    method: str = "sgd"
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0.0:
            raise ConfigError(f"optimizer.learning_rate: must be positive, got {self.learning_rate}")
        if not np.isfinite(self.penalty) or self.penalty < 0.0:
            raise ConfigError(f"optimizer.penalty: must be >= 0, got {self.penalty}")
        if self.method not in _METHODS:
            raise ConfigError(f"optimizer.method: unknown method {self.method!r}")
        if not np.isfinite(self.weight_decay) or self.weight_decay < 0.0:
            raise ConfigError(f"optimizer.weight_decay: must be >= 0, got {self.weight_decay}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("optimizer.beta1/beta2: must lie in [0, 1)")
        if not self.eps > 0.0:
            raise ConfigError(f"optimizer.eps: must be positive, got {self.eps}")


def step_scale(pi: float, n: int, cfg: OptimConfig) -> float:
    """Damping factor applied to a candidate block's step; lies in (0, 1]."""
    if pi < 0.0 or pi > 1.0 + 1e-12:
        raise NumericError(f"routing mass must lie in [0, 1], got {pi}")
    if n < 0:
        raise NumericError(f"change count must be >= 0, got {n}")
    return 1.0 / (1.0 + 2.0 * cfg.learning_rate * cfg.penalty * n * pi)


def penalty_value(pis, live: list[list[np.ndarray]], prev: list[list[np.ndarray]],
                  change_count: int) -> float:
    """Displacement penalty n * sum_j pi_j * ||w_j - w_j_prev||^2 for one
    layer, with n = `change_count` and `prev` the candidates' earlier values."""
    if len(live) != len(prev) or len(live) != len(pis):
        raise DimensionError("candidate count mismatch between live params, prev, and pis")
    total = 0.0
    for pi, group, prev_group in zip(pis, live, prev):
        sq = 0.0
        for p, q in zip(group, prev_group):
            d = p - q
            sq += float((d * d).sum())
        total += float(pi) * sq
    return change_count * total


@dataclass
class StepReport:
    change_count: int
    scales: list[float]


def _any_nonzero(grads: list[np.ndarray]) -> bool:
    return any(g.any() for g in grads)


@dataclass
class AdamWState:
    """First/second moments per parameter array, keyed by array identity order."""

    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    t: int = 0


def init_adamw_state(params: list[np.ndarray]) -> AdamWState:
    return AdamWState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def _adamw_update(params: list[np.ndarray], grads: list[np.ndarray],
                  scales: list[float], state: AdamWState, cfg: OptimConfig) -> None:
    """AdamW with decoupled weight decay; each block's step is additionally
    multiplied by its damping scale (1.0 for plain blocks)."""
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for p, g, s, m, v in zip(params, grads, scales, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        step = (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        p -= cfg.learning_rate * s * step
        if cfg.weight_decay > 0.0:
            p -= cfg.learning_rate * cfg.weight_decay * p


def apply_step(candidates: list[list[np.ndarray]],
               candidate_grads: list[list[np.ndarray]],
               pis,
               plain: list[np.ndarray],
               plain_grads: list[np.ndarray],
               cfg: OptimConfig,
               adam: AdamWState | None = None) -> StepReport:
    """One step, in place, by the rule `cfg.method` names: damped on
    candidate blocks, plain elsewhere.

    The change count n is established before any update: a candidate counts
    as changing when it carries routing mass and a nonzero gradient.  AdamW
    takes its moments from `adam`, which holds one entry per candidate array
    and then per plain array, in order.  The step keeps no copy of any
    array.
    """
    if len(candidates) != len(candidate_grads) or len(candidates) != len(pis):
        raise DimensionError("candidate params, grads, and pis must align")
    if len(plain) != len(plain_grads):
        raise DimensionError("plain params and grads must align")
    n = sum(
        1 for pi, grads in zip(pis, candidate_grads)
        if pi > 0.0 and _any_nonzero(grads)
    )
    scales = [step_scale(float(pi), n, cfg) for pi in pis]
    if cfg.method == "sgd":
        for s, group, grads in zip(scales, candidates, candidate_grads):
            coef = cfg.learning_rate * s
            for p, g in zip(group, grads):
                p -= coef * g
        for p, g in zip(plain, plain_grads):
            p -= cfg.learning_rate * g
    else:
        params = [p for group in candidates for p in group] + list(plain)
        grads = [g for group in candidate_grads for g in group] + list(plain_grads)
        block_scales = [s for s, group in zip(scales, candidates) for _ in group]
        block_scales += [1.0] * len(plain)
        if adam is None or len(adam.m) != len(params):
            raise DimensionError("AdamW needs one moment pair per stepped array")
        _adamw_update(params, grads, block_scales, adam, cfg)
    return StepReport(change_count=n, scales=scales)
