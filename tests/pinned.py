"""The computations whose digests the test suite pins, defined once for the
tests and for `tools/identity.py`, which records them in
`tools/identity.json` next to its 19 configurations, one table per BLAS
kernel.

Each entry is a name and the sha256 of every file it makes:

- a run entry (`RUNS`) runs its config into `<out>/run`.  It keeps every
  file of the run directory and the files re-serialised from it into
  `<out>/derived`: the checkpoint as version 2 (`checkpoint_v2.json`) and as
  version 3 (`checkpoint.json`), and under `id_free` the audit as JSON lines
  (`ifer_audit.jsonl`) and as its dense records, a line each
  (`ifer_audit_dense.jsonl`).  All but the dense records are the inputs of
  the converter, `tools/upgrade.py`, which `tests/test_upgrade.py` checks
  turns each back into the run's own `checkpoint.bin` and `ifer_audit.bin`;
- `ADAMW_ENTRY` learns two AdamW tasks and keeps one `fingerprint`: the
  sha256 over every expert's (down, up) and every router's weight bytes.

The tests compare with `oracles.for_kernel(recorded())[entry]`.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from submoe.checkpoint import load_checkpoint, read_container
from submoe.cli import _file_digests
from submoe.config import config_from_dict
from submoe.experiment import (
    AUDIT_FILE, CHECKPOINT_FILE, JSON_CHECKPOINT_FILE, JSONL_AUDIT_FILE, RunResult, read_audit,
    run_experiment,
)
from submoe.lifecycle import PhaseSchedule, learn_task
from submoe.model import AdapterModel, build_model
from submoe.optim import OptimConfig
from submoe.streams import Alignment, TaskSpec, generate_stream

from oracles import save_audit_jsonl, save_checkpoint_v2, save_checkpoint_v3

IDENTITY = Path(__file__).resolve().parent.parent / "tools" / "identity.json"
V2_CHECKPOINT_FILE = "checkpoint_v2.json"
DENSE_AUDIT_FILE = "ifer_audit_dense.jsonl"


def pinned_raw(protocol: str, cil: bool, window: int) -> dict:
    """Three tasks with non-monotonic ids, a reuse task (duplicate pooled label
    rows) and a threshold that leaves some windows on the fallback."""
    return {
        "seed": 5,
        "output_dir": "runs/pinned",
        "model": {"feature_dim": 8, "depth": 3, "adapter_layers": [1, 2], "rank": 2},
        "schedule": {"identify_steps": 8, "finetune_steps": 4, "num_candidates": 2,
                     "batch_size": 8, "snapshot_interval": 4},
        "optimizer": {"learning_rate": 0.5, "penalty": 0.01},
        "contrastive": {"temperature": 0.2},
        "task_bank": {"match_threshold": 1.3, "enroll_batch": 16, "query_window": window},
        "evaluation": {"protocol": protocol, "cil": cil},
        "stream": [
            {"task_id": 2, "classes": 3, "samples_per_class": 8, "eval_per_class": 5,
             "seed": 2},
            {"task_id": 0, "classes": 3, "samples_per_class": 8, "eval_per_class": 5,
             "seed": 0},
            {"task_id": 1, "classes": 3, "samples_per_class": 8, "eval_per_class": 5,
             "seed": 1, "alignment": {"mode": "reuse", "source": 0, "perturbation": 0.3}},
        ],
    }


def dim64_raw() -> dict:
    """Dim 64, three orthogonal tasks of three candidates per layer and
    task-free evaluation in windows of 3.  Under the default chunk budget
    every pass (48 to 192 rows) stacks all its visible experts, nine at most,
    in one chunk; under `ONE_EXPERT_AT_48_ROWS` a chunk holds one expert, so
    every pass crosses a chunk boundary at each expert."""
    return {
        "seed": 7,
        "output_dir": "runs/pinned64",
        "model": {"feature_dim": 64, "depth": 3, "adapter_layers": [1, 2], "rank": 2},
        "schedule": {"identify_steps": 6, "finetune_steps": 3, "num_candidates": 3,
                     "batch_size": 48, "snapshot_interval": 3, "top_k": 64},
        "optimizer": {"learning_rate": 5.0, "penalty": 0.01},
        "contrastive": {"temperature": 0.4},
        "task_bank": {"match_threshold": 8.0, "enroll_batch": 32, "query_window": 3},
        "evaluation": {"protocol": "id_free", "cil": True},
        "stream": [{"task_id": i, "classes": 3, "samples_per_class": 16, "eval_per_class": 64,
                    "seed": i, "alignment": {"mode": "orthogonal"}} for i in range(3)],
    }


# entry name -> raw config of a run entry
RUNS = {
    "tier1:pinned[id_free]": pinned_raw("id_free", True, 3),
    "tier1:pinned[id_given]": pinned_raw("id_given", False, 1),
    "tier1:pinned[id_free,window=1]": pinned_raw("id_free", True, 1),
    "tier1:dim64": dim64_raw(),
}
ADAMW_ENTRY = "tier1:adamw_two_task"
ENTRIES = (*RUNS, ADAMW_ENTRY)


def run_entry(name: str, out: Path) -> tuple[RunResult, dict[str, str]]:
    """Run entry `name` into `out`: the run's result, and the sha256 of every
    file of its run directory and of the files re-serialised from it."""
    run_dir, derived = out / "run", out / "derived"
    result = run_experiment(config_from_dict(RUNS[name]), run_dir)
    derived.mkdir(parents=True)
    model, bank, meta = load_checkpoint(run_dir / CHECKPOINT_FILE)
    save_checkpoint_v2(derived / V2_CHECKPOINT_FILE, model, bank, meta)
    save_checkpoint_v3(derived / JSON_CHECKPOINT_FILE, model, bank, meta)
    if (run_dir / AUDIT_FILE).exists():
        save_audit_jsonl(derived / JSONL_AUDIT_FILE,
                         read_container(run_dir / AUDIT_FILE)["tasks"])
        (derived / DENSE_AUDIT_FILE).write_bytes("".join(
            json.dumps(rec, sort_keys=True) + "\n" for rec in read_audit(run_dir)).encode())
    return result, {**_file_digests(run_dir), **_file_digests(derived)}


def adamw_two_task() -> tuple[AdapterModel, dict[str, str]]:
    """Two tasks learned with AdamW and weight decay at dim 8: the model,
    and the sha256 over every expert's (down, up) and every router's weight
    bytes as its `fingerprint`."""
    model = build_model(dim=8, depth=3, adapter_layers=[1, 2], rank=2, top_k=2,
                        temperature=0.5, seed=0)
    stream = generate_stream([
        TaskSpec(task_id=0, classes=3, samples_per_class=16, eval_per_class=8, seed=0),
        TaskSpec(task_id=1, classes=3, samples_per_class=16, eval_per_class=8, seed=1,
                 alignment=Alignment(mode="orthogonal")),
    ], 8)
    schedule = PhaseSchedule(identify_steps=20, finetune_steps=10, num_candidates=2,
                             batch_size=16, snapshot_interval=5)
    cfg = OptimConfig(learning_rate=0.5, penalty=0.01, method="adamw", weight_decay=0.05)
    for t in (0, 1):
        learn_task(model, t, stream[t], schedule, cfg, np.random.default_rng(40 + t))
    h = hashlib.sha256()
    for layer in model.adapter_layers():
        for e in layer.experts:
            h.update(e.down.tobytes())
            h.update(e.up.tobytes())
        for t in sorted(layer.routers):
            h.update(layer.routers[t].weight.tobytes())
    return model, {"fingerprint": h.hexdigest()}


def entry_digests(out: Path) -> dict[str, dict[str, str]]:
    """Every entry's digests, each run entry made under `out / name`."""
    table = {name: run_entry(name, out / name)[1] for name in RUNS}
    table[ADAMW_ENTRY] = adamw_two_task()[1]
    return table


@functools.cache
def recorded() -> dict[str, dict[str, dict[str, str]]]:
    """`tools/identity.json`: kernel -> entry -> file -> sha256."""
    return json.loads(IDENTITY.read_text())
