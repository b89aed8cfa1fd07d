"""The benchmark's workloads: fixed configs, seed shifting and golden values.

Each workload is `configs/demo.json` of the repository with a few overrides;
the resulting configs live in `perfbench/configs/` so that the benchmark
carries its own inputs:

- `demo_free_cil`: `evaluation = {protocol: id_free, cil: true}`.  Evaluation
  dominates (one-row bank identification and one-row forwards); learning is
  small (6 tasks, at most 12 experts per layer).
- `ortho20_given`: `model.feature_dim = 64` and 20 orthogonal 3-class tasks
  with task identity given.  Learning dominates (1,600 steps while the pool
  grows to 57 experts); the bank only enrolls and evaluation is batched.
- `ortho20_free`: the same stream with `protocol: id_free`; the long
  task-free headline run, where evaluation grows superlinearly.

Seed 0 is the configs as written and is checked against the golden values in
`perfbench/golden/`, recorded from the engine that defined the benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE / "configs"
GOLDEN_DIR = HERE / "golden"

WORKLOADS = ("demo_free_cil", "ortho20_given", "ortho20_free")
DEFAULT_SEED = 0


def workload_config(name: str, seed: int) -> dict:
    """The workload's raw config with `seed` added to the config seed and to
    every task seed.  Seed 0 returns the config unchanged."""
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw["seed"] = raw.get("seed", 0) + seed
    for task in raw["stream"]:
        task["seed"] += seed
    return raw


def golden_path(name: str, seed: int) -> Path | None:
    """File of the golden outcome of the default seed; other seeds have none
    and are checked for rerun byte-identity only."""
    return GOLDEN_DIR / f"{name}.json" if seed == DEFAULT_SEED else None
