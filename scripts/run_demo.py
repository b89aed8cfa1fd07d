"""Walk a six-task stream through the library API and narrate what happens.

The stream interleaves three fresh-subspace tasks with three perturbed
replays of them.  Watch the per-task prune decisions: replays should shed
their spare candidates and route onto the source task's experts, while the
fresh tasks keep what they grew.
"""

from __future__ import annotations

import argparse
import dataclasses

import numpy as np

from submoe.config import load_config
from submoe.evaluation import task_accuracy
from submoe.lifecycle import learn_task
from submoe.model import build_model
from submoe.streams import generate_stream


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default="configs/demo.json")
    ap.add_argument("--penalty", type=float, default=None,
                    help="override optimizer.penalty from the config")
    args = ap.parse_args()

    cfg = load_config(args.config)
    optim = cfg.optimizer
    if args.penalty is not None:
        optim = dataclasses.replace(optim, penalty=args.penalty)

    stream = generate_stream(cfg.stream, cfg.model.feature_dim,
                             cfg.model.prototype_scale)
    model = build_model(
        dim=cfg.model.feature_dim, depth=cfg.model.depth,
        adapter_layers=list(cfg.model.adapter_layers), rank=cfg.model.rank,
        top_k=cfg.schedule.top_k, temperature=cfg.contrastive.temperature,
        seed=cfg.seed,
    )

    print(f"penalty={optim.penalty}  prune_threshold={cfg.schedule.prune_threshold}")
    for spec, data in zip(cfg.stream, stream):
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 17, data.task_id]))
        report, _ = learn_task(model, data.task_id, data, cfg.schedule,
                               optim, rng)
        mode = spec.alignment.mode
        src = spec.alignment.source
        tag = f"{mode}<-{src}" if mode != "orthogonal" else "fresh"
        kept = [len(rec.kept_ids) for rec in report.layers]
        pruned = [len(rec.pruned_ids) for rec in report.layers]
        acc = task_accuracy(model, data, route_task=data.task_id)
        print(f"task {data.task_id} ({tag:>9}): kept {kept} pruned {pruned} "
              f"per layer, accuracy {acc:.3f}")

    print("\nfinal accuracy per task (task identity given):")
    for data in stream:
        acc = task_accuracy(model, data, route_task=data.task_id)
        print(f"  task {data.task_id}: {acc:.3f}")
    totals = [len(layer.experts) for layer in model.adapter_layers()]
    print(f"experts per adapter layer: {totals} (total {sum(totals)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
