"""Continual learning with mixtures of low-rank adapter experts.

Two-phase task learning on a frozen backbone: fit a task's routing while
damping the new experts' updates, prune the candidates nobody routes to,
then fine-tune the survivors with the routing frozen.  A task bank of fused
frozen embeddings routes queries without task ids at inference time.
"""

from .adapter import (
    LoraExpert, MixtureAdapterLayer, Router, RoutingDistribution, new_expert,
    top_k_select,
)
from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError, DataError, DimensionError, DomainError, LabelError,
    MissingRouterError, NumericError, StateError, SubmoeError,
)
from .evaluation import (
    average_score, cil_scores, last_score, task_accuracy, transfer_score,
)
from .lifecycle import (
    PhaseSchedule, PruneReport, RoutingTrace, begin_task, finetune_experts,
    fit_routing, kl_to_final, learn_task, prune_candidates,
)
from .model import AdapterModel, FrozenBackbone, build_backbone, build_model
from .numerics import contrastive_loss, kl_divergence, softmax, softmax_rows
from .optim import OptimConfig, apply_step, penalty_value, step_scale
from .streams import Alignment, TaskData, TaskSpec, generate_stream, generate_task
from .task_bank import MatchResult, TaskBank, fused_embedding

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
