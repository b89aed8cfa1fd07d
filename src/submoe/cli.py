"""Command-line entry points.

  submoe run <config.json>                 learn the stream, write artifacts
  submoe report <dir> [<dir2>]             summarise one run (metrics, what
                                           each task kept of its candidates,
                                           the final experts per layer, the
                                           adapter and phase-1 parameters), or
                                           diff two: metrics, then the files
                                           whose bytes differ (sha256 per file)
  submoe sweep <config.json> --param K --values a,b,c
                                           one run per value, plus a summary

Exit codes: 0 success, 1 configuration error, 2 runtime failure.  The env
var SUBMOE_OUTPUT_ROOT, when set, re-roots every run directory under it and
refuses an output_dir that is absolute or has a '..' part (exit 1).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

from .config import config_from_dict, config_to_dict, load_config
from .errors import ConfigError, DataError, SubmoeError
from .experiment import (
    CONFIG_FILE, MATRIX_FILE, METRIC_KEYS, METRICS_FILE, SUMMARY_FILE, _run_prepared,
    prepare_run, resolve_output_dir, run_experiment,
)

SUMMARY_KEYS = ("final_expert_total", "bank_id_accuracy")


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    result = run_experiment(cfg)
    print(f"run complete: {result.out_dir}")
    _print_metrics(result.metrics, result.summary)
    return 0


def _print_metrics(metrics: dict, summary: dict) -> None:
    """The metrics block of `run` and `report`; the experts need a summary."""
    for key in METRIC_KEYS:
        print(f"  {key:>9}: {_fmt(metrics.get(key))}")
    if summary:
        print(f"  experts  : {summary.get('final_expert_total')}")


def _read_run(directory: Path) -> tuple[dict, dict]:
    metrics_path = directory / METRICS_FILE
    if not metrics_path.is_file():
        raise ConfigError(f"{directory} does not look like a run directory "
                          f"(missing {METRICS_FILE})")
    metrics = _read_object(metrics_path, METRIC_KEYS)
    summary_path = directory / SUMMARY_FILE
    summary = _read_object(summary_path, SUMMARY_KEYS) if summary_path.is_file() else {}
    return metrics, summary


def _read_object(path: Path, numbers: tuple[str, ...]) -> dict:
    """The JSON object in `path`, whose `numbers` keys, where present, hold a
    number or null (a bool is not a number)."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object")
    for key in numbers:
        val = payload.get(key)
        if val is not None and (isinstance(val, bool) or not isinstance(val, (int, float))):
            raise DataError(f"{path}: {key} must be a number or null, got {val!r}")
    return payload


def _count(val) -> int:
    if isinstance(val, bool) or not isinstance(val, int) or val < 0:
        raise ValueError(f"{val!r} is not a count")
    return val


def _layer_counts(row: dict) -> list[tuple[int, int]]:
    """(layer index, expert count) of an `expert_counts` row, by index."""
    layers = sorted((int(key.removeprefix("layer_")), _count(val))
                    for key, val in row.items() if key.startswith("layer_"))
    if not layers:
        raise ValueError("no layer counts")
    return layers


def _story(directory: Path, summary: dict, config: dict) -> list[str]:
    """What each task kept of its candidates, the final experts per adapter
    layer, the final adapter parameters as experts + routers and the mean
    phase-1 trainable parameters per task, from `summary` and `config`.  An
    expert holds 2·rank·dim parameters, and task t's router a row of dim
    weights for each expert of t's `expert_counts` row (after t's pruning)."""
    try:
        lines, trained = [], []
        for rec in summary["tasks"]:
            added, pruned = _count(rec["candidates_added"]), _count(rec["candidates_pruned"])
            if pruned > added:
                raise ValueError(f"{pruned} of {added} candidates pruned")
            lines.append(f"  task {_count(rec['task_id'])}: kept {added - pruned} of "
                         f"{added} candidates")
            trained.append(_count(rec["stage1_trainable_params"]))
        if not trained:
            raise ValueError("no tasks")
        counts = [_layer_counts(row) for row in summary["expert_counts"]]
        final = counts[-1]
        dim, rank = _count(config["model"]["feature_dim"]), _count(config["model"]["rank"])
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{directory}: malformed tasks, expert_counts or model size in "
                        f"{SUMMARY_FILE} or {CONFIG_FILE}: {exc!r}") from None
    rows = [sum(n for _, n in layers) for layers in counts]
    experts, routers = 2 * rank * dim * rows[-1], dim * sum(rows)
    per_layer = ", ".join(f"layer {k}: {n}" for k, n in final)
    return lines + [
        f"final experts per adapter layer: {per_layer} (total {rows[-1]})",
        f"adapter parameters: experts {experts:,} + routers {routers:,} = "
        f"{experts + routers:,}",
        f"phase-1 trainable parameters per task: mean {sum(trained) / len(trained):,.1f}"]


def _fmt(val) -> str:
    return "-" if val is None else f"{val:.4f}"


def _file_digests(directory: Path) -> dict[str, str]:
    """sha256 of every file under `directory`, keyed by relative path."""
    out = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        try:
            with open(path, "rb") as fh:
                out[path.relative_to(directory).as_posix()] = hashlib.file_digest(
                    fh, "sha256").hexdigest()
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
    return out


def _print_file_diff(first: Path, second: Path) -> None:
    da, db = _file_digests(first), _file_digests(second)
    names = da.keys() | db.keys()
    differ = sorted(name for name in names if da.get(name) != db.get(name))
    if not differ:
        print(f"files: all {len(names)} byte-identical (sha256)")
        return
    print(f"files whose bytes differ (sha256), {len(differ)} of {len(names)}:")
    for name in differ:
        print(f"  {name}  A {da.get(name, 'absent')}  B {db.get(name, 'absent')}")


def _cmd_report(args) -> int:
    if len(args.dirs) > 2:
        raise ConfigError("report takes one or two run directories")
    first = Path(args.dirs[0])
    metrics, summary = _read_run(first)
    if len(args.dirs) == 1:
        matrix_path = first / MATRIX_FILE
        matrix = None
        if matrix_path.is_file():
            try:
                matrix = matrix_path.read_text().rstrip()
            except (OSError, UnicodeDecodeError) as exc:
                raise DataError(f"cannot read {matrix_path}: {exc}") from exc
        print(f"run: {first}")
        _print_metrics(metrics, summary)
        if summary:
            bank_acc = summary.get("bank_id_accuracy")
            if bank_acc is not None:
                print(f"  bank id  : {bank_acc:.4f}")
            config = _read_object(first / CONFIG_FILE, ())
            print("\n".join(_story(first, summary, config)))
        if matrix is not None:
            print("accuracy matrix:")
            print(matrix)
        return 0
    second = Path(args.dirs[1])
    metrics2, summary2 = _read_run(second)
    print(f"delta report: {first}  vs  {second}")
    header = f"  {'metric':>9}  {'A':>10}  {'B':>10}  {'B-A':>10}"
    print(header)
    for key in METRIC_KEYS:
        a, b = metrics.get(key), metrics2.get(key)
        delta = "-" if a is None or b is None else f"{b - a:+.4f}"
        print(f"  {key:>9}  {_fmt(a):>10}  {_fmt(b):>10}  {delta:>10}")
    ea = summary.get("final_expert_total")
    eb = summary2.get("final_expert_total")
    if ea is not None and eb is not None:
        print(f"  {'experts':>9}  {ea:>10}  {eb:>10}  {eb - ea:>+10}")
    _print_file_diff(first, second)
    return 0


def _set_by_path(raw: dict, dotted: str, value) -> None:
    """Set the key `dotted` names, making the sections on its way that do not
    exist (the config parser refuses those).  A path through a list or a
    value is refused, naming the part that holds it."""
    parts = dotted.split(".")
    node = raw
    for i, part in enumerate(parts[:-1]):
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--param {dotted}: {'.'.join(parts[:i + 1])} is not a section "
                              f"of keys (it holds a value of type {type(node).__name__})")
    node[parts[-1]] = value


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_sweep(args) -> int:
    base_cfg = load_config(args.config)
    values = [v for v in args.values.split(",") if v != ""]
    if not values:
        raise ConfigError("--values: need at least one value")
    base_raw = config_to_dict(base_cfg)
    base_out = resolve_output_dir(base_cfg)
    outs = [Path(base_cfg.output_dir) / f"{args.param}={text.replace('/', '_')}"
            for text in values]
    for i, out in enumerate(outs):
        if out in outs[:i]:
            raise ConfigError(f"--values: {values[outs.index(out)]!r} and {values[i]!r} "
                              f"share the run directory {out}")
    cfgs = []  # every value is parsed before the first run
    for text, out in zip(values, outs):
        raw = json.loads(json.dumps(base_raw))  # deep copy
        _set_by_path(raw, args.param, _parse_value(text))
        raw["output_dir"] = str(out)
        cfgs.append(config_from_dict(raw))
    # and prepared, so that no value is refused after a run; each runs on its own
    prepared = [prepare_run(cfg) for cfg in cfgs]
    rows = []
    for text, cfg, inputs in zip(values, cfgs, prepared):
        result = _run_prepared(cfg, inputs, resolve_output_dir(cfg))
        row = {"value": text, "dir": str(result.out_dir),
               "final_expert_total": result.summary["final_expert_total"]}
        for key in METRIC_KEYS:
            row[key] = result.metrics.get(key)
        rows.append(row)
        print(f"{args.param}={text}: experts={row['final_expert_total']} "
              f"last={_fmt(row['last'])}")
    summary_path = base_out / "sweep_summary.csv"
    try:
        base_out.mkdir(parents=True, exist_ok=True)
        with open(summary_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise DataError(f"sweep directory {base_out}: cannot write "
                        f"{exc.filename or summary_path} ({exc.strerror or exc})") from exc
    print(f"sweep summary: {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submoe",
        description="Continual learning with mixtures of low-rank adapter experts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment config")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("report", help="summarise a run directory (two dirs: diff "
                                          "the metrics and the file bytes)")
    p_rep.add_argument("dirs", nargs="+", help="one or two run directories")
    p_rep.set_defaults(func=_cmd_report)

    p_sweep = sub.add_parser("sweep", help="repeat a run over a grid of one parameter")
    p_sweep.add_argument("config", help="path to the base config")
    p_sweep.add_argument("--param", required=True,
                         help="dotted config path, e.g. optimizer.penalty")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values (JSON literals where possible)")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SubmoeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected failure path
        print(f"unexpected error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
