"""Trace retained-expert count against the candidate step penalty.

Repeats the demo stream once per penalty value and tabulates how many
experts survive pruning, plus final average accuracy.  Stronger damping
should push replayed tasks onto existing experts instead of new ones, so
the count shrinks as the penalty grows.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from submoe.config import load_config
from submoe.evaluation import task_accuracy
from submoe.lifecycle import learn_task
from submoe.model import build_model
from submoe.streams import generate_stream

DEFAULT_GRID = (0.0, 0.005, 0.01, 0.015, 0.02, 0.025)


def run_once(cfg, penalty: float):
    optim = dataclasses.replace(cfg.optimizer, penalty=penalty)
    stream = generate_stream(cfg.stream, cfg.model.feature_dim,
                             cfg.model.prototype_scale)
    model = build_model(
        dim=cfg.model.feature_dim, depth=cfg.model.depth,
        adapter_layers=list(cfg.model.adapter_layers), rank=cfg.model.rank,
        top_k=cfg.schedule.top_k, temperature=cfg.contrastive.temperature,
        seed=cfg.seed,
    )
    for data in stream:
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 17, data.task_id]))
        learn_task(model, data.task_id, data, cfg.schedule, optim, rng)
    accs = [task_accuracy(model, d, route_task=d.task_id) for d in stream]
    total = sum(len(layer.experts) for layer in model.adapter_layers())
    return total, float(np.mean(accs))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default="configs/demo.json")
    ap.add_argument("--grid", default=",".join(str(v) for v in DEFAULT_GRID),
                    help="comma-separated penalty values")
    ap.add_argument("--csv", default=None, help="optional output CSV path")
    args = ap.parse_args()

    cfg = load_config(args.config)
    grid = [float(v) for v in args.grid.split(",") if v]
    print(f"{'penalty':>8}  {'experts':>7}  {'avg_acc':>7}")
    rows = []
    for lam in grid:
        total, avg = run_once(cfg, lam)
        print(f"{lam:>8.4f}  {total:>7d}  {avg:>7.3f}")
        rows.append({"penalty": lam, "experts": total, "avg_acc": avg})

    if args.csv:
        path = Path(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["penalty", "experts", "avg_acc"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
