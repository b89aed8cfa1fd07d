"""Run a six-task stream with `run_experiment` and narrate what happens.

The stream interleaves three fresh-subspace tasks with three perturbed
replays of them.  Watch the per-task prune decisions: replays should shed
their spare candidates and route onto the source task's experts, while the
fresh tasks keep what they grew.  The run directory is written like
`submoe run` writes it (under SUBMOE_OUTPUT_ROOT when that is set); its
path goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from submoe.config import load_config
from submoe.experiment import run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default="configs/demo.json")
    ap.add_argument("--penalty", type=float, default=None,
                    help="override optimizer.penalty from the config")
    args = ap.parse_args()

    cfg = load_config(args.config)
    if args.penalty is not None:
        cfg = dataclasses.replace(
            cfg, optimizer=dataclasses.replace(cfg.optimizer, penalty=args.penalty))
    result = run_experiment(cfg)
    matrix = result.matrix

    print(f"penalty={cfg.optimizer.penalty}  prune_threshold={cfg.schedule.prune_threshold}")
    for i, (spec, report) in enumerate(zip(cfg.stream, result.reports)):
        mode = spec.alignment.mode
        tag = f"{mode}<-{spec.alignment.source}" if mode != "orthogonal" else "fresh"
        kept = [len(rec.kept_ids) for rec in report.layers]
        pruned = [len(rec.pruned_ids) for rec in report.layers]
        print(f"task {spec.task_id} ({tag:>9}): kept {kept} pruned {pruned} "
              f"per layer, accuracy {matrix[i, i]:.3f}")

    given = cfg.evaluation.protocol == "id_given"
    print(f"\nfinal accuracy per task ({'task identity given' if given else 'task-free'}):")
    for spec, acc in zip(cfg.stream, matrix[-1]):
        print(f"  task {spec.task_id}: {acc:.3f}")
    totals = [len(layer.experts) for layer in result.model.adapter_layers()]
    print(f"experts per adapter layer: {totals} (total {sum(totals)})")
    print(f"run directory: {result.out_dir}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
