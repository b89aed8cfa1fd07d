"""In-memory span tracing of the engine's layers, installed from outside.

`traced()` wraps the public functions of each `submoe` module where their
caller looks the name up (for example `submoe.lifecycle.apply_step`, which
`lifecycle` calls through its own module globals), records one span per call
into compact `array`s, and puts every original back on exit.  Each
span keeps its parent, so self time is derived after the run; nothing is
written while the traced run is in progress.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from submoe import adapter, experiment, lifecycle, model, task_bank


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: defaultdict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a span called `name`; `count(counts, args, result)`
        runs after the span closes, so its cost lands in the parent."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count is not None:
                count(counts, args, out)
            return out

        return wrapper

    def table(self) -> dict[str, dict]:
        """Per span name: call count, inclusive seconds, self seconds (the
        inclusive time minus that of its direct children)."""
        names = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=dur - child, minlength=k)
        return {
            n: {"calls": int(calls[i]), "total_s": float(incl[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(self.names)
        }


def _count_predict(counts, args, out):
    counts["model.predict_rows"] += len(out)


def _count_forward(counts, args, out):
    counts["adapter.expert_visits"] += out[2].n_visible


def _count_identify(counts, args, out):
    counts["task_bank.distance_evals"] += len(args[0].entries)
    counts["task_bank.matched"] += out.matched


def _count_prune(counts, args, out):
    for rec in out.layers:
        counts["lifecycle.candidates_added"] += len(rec.candidate_ids)
        counts["lifecycle.candidates_kept"] += len(rec.kept_ids)


def _count_eval_rows(counts, args, out):
    counts["evaluation.rows_classified"] += sum(t.eval_x.shape[0] for t in args[2])


def _count_checkpoint(counts, args, out):
    counts["checkpoint.bytes"] += out.stat().st_size


# (owner, attribute, span name, counter); owner is where the caller looks the
# name up, so a wrapper on the defining module alone would never run.
TARGETS = (
    (experiment, "run_experiment", "experiment.run", None),
    (experiment, "generate_stream", "streams.generate", None),
    (experiment, "evaluate_row", "evaluation.row", _count_eval_rows),
    (experiment, "pooled_accuracy", "evaluation.cil", _count_eval_rows),
    (experiment, "save_checkpoint", "checkpoint.save", _count_checkpoint),
    (lifecycle, "begin_task", "lifecycle.expand", None),
    (lifecycle, "fit_routing", "lifecycle.identify", None),
    (lifecycle, "prune_candidates", "lifecycle.prune", _count_prune),
    (lifecycle, "finetune_experts", "lifecycle.finetune", None),
    (lifecycle, "apply_step", "optim.apply_step", None),
    (lifecycle, "penalty_value", "optim.penalty_value", None),
    (model, "contrastive_loss", "numerics.contrastive_loss", None),
    (model.AdapterModel, "loss_and_grads", "model.loss_and_grads", None),
    (model.AdapterModel, "routing_snapshot", "model.routing_snapshot", None),
    (model.AdapterModel, "embed", "model.embed", None),
    (model.AdapterModel, "predict", "model.predict", _count_predict),
    (adapter.MixtureAdapterLayer, "forward", "adapter.forward", _count_forward),
    (adapter.MixtureAdapterLayer, "backward", "adapter.backward", None),
    (task_bank.TaskBank, "enroll", "task_bank.enroll", None),
    (task_bank.TaskBank, "identify", "task_bank.identify", _count_identify),
)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install a span wrapper on every target for the duration of the block."""
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
    try:
        for owner, attr, name, count in TARGETS:
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], count))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer, run_dir) -> dict[str, float]:
    """The per-layer metrics of one traced `run_experiment` call."""
    tab = tracer.table()
    c = tracer.counts

    def total(name):
        return tab.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return tab.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = calls("model.loss_and_grads")
    audit = run_dir / experiment.AUDIT_FILE
    return {
        "lifecycle.expand_s": total("lifecycle.expand"),
        "lifecycle.identify_s": total("lifecycle.identify"),
        "lifecycle.prune_s": total("lifecycle.prune"),
        "lifecycle.finetune_s": total("lifecycle.finetune"),
        "lifecycle.steps": steps,
        "lifecycle.step_ms": ratio(
            total("lifecycle.identify") + total("lifecycle.finetune"), steps) * 1e3,
        "lifecycle.kept_frac": ratio(
            c["lifecycle.candidates_kept"], c["lifecycle.candidates_added"]),
        "model.loss_and_grads_s": total("model.loss_and_grads"),
        "model.routing_snapshot_s": total("model.routing_snapshot"),
        "model.embed_s": total("model.embed"),
        "model.embed_calls": calls("model.embed"),
        "model.predict_s": total("model.predict"),
        "model.predict_calls": calls("model.predict"),
        "model.rows_per_predict": ratio(c["model.predict_rows"], calls("model.predict")),
        "adapter.forward_s": total("adapter.forward"),
        "adapter.forward_calls": calls("adapter.forward"),
        "adapter.expert_visits": c["adapter.expert_visits"],
        "adapter.us_per_visit": ratio(total("adapter.forward"), c["adapter.expert_visits"]) * 1e6,
        "adapter.backward_s": total("adapter.backward"),
        "adapter.backward_calls": calls("adapter.backward"),
        "numerics.contrastive_loss_s": total("numerics.contrastive_loss"),
        "numerics.contrastive_loss_calls": calls("numerics.contrastive_loss"),
        "optim.apply_step_s": total("optim.apply_step"),
        "optim.penalty_value_s": total("optim.penalty_value"),
        "task_bank.enroll_s": total("task_bank.enroll"),
        "task_bank.identify_s": total("task_bank.identify"),
        "task_bank.identify_calls": calls("task_bank.identify"),
        "task_bank.distance_evals": c["task_bank.distance_evals"],
        "task_bank.match_frac": ratio(c["task_bank.matched"], calls("task_bank.identify")),
        "evaluation.row_s": total("evaluation.row"),
        "evaluation.cil_s": total("evaluation.cil"),
        "evaluation.rows_classified": c["evaluation.rows_classified"],
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.bytes": c["checkpoint.bytes"],
        "streams.generate_s": total("streams.generate"),
        "experiment.self_s": tab["experiment.run"]["self_s"],
        "experiment.audit_bytes": audit.stat().st_size if audit.exists() else 0,
    }
