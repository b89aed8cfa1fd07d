"""The byte-identity matrix: run 19 fixed configurations and the test
suite's pinned computations, and compare the sha256 of every file they make
with a recorded table.

    python3 tools/identity.py check
    python3 tools/identity.py record

The configurations are the benchmark's workloads (`perfbench/workloads.py`,
read and not changed) with overrides:

- all three workloads at seeds 0 and 3;
- `demo_free_cil` and `ortho20_free` at `query_window` 3, 7 and 100, at
  `metric: euclidean` and at `match_threshold` 2.0;
- `configs/demo.json` at `top_k` 2;
- `demo_free_cil` with AdamW at `top_k` 3;
- the first six `ortho20_given` tasks at `top_k` 5.

Each keeps every file of its run directory.  The pinned computations are
the entries of `tests/pinned.py`, named `tier1:...`, which the tests
compare with the same table: the two `pinned_raw` runs, the query-window-1
run and the dim-64 run, each with its run directory and the files
re-serialised from it (the version 2 and 3 checkpoints, the JSON-lines and
the dense audit), and the fingerprint of two AdamW tasks.  The version 2
and 3 checkpoints and the JSON-lines audit are the inputs of the converter,
`tools/upgrade.py`, which the tests check against the run's own files.

A float64 digest holds for one BLAS build and kernel, so `identity.json`
keeps one table per kernel, keyed by `tests/oracles.py::blas_kernel()`
(`OPENBLAS_CORETYPE` forces one).  `check` fails when a file differs, is
missing or is new, and when the running kernel has no table, naming it.
`record` rewrites the running kernel's table only, after printing the lines
of `check` between the old table and the new one: use it when a change
moves artifacts on purpose, and say which files moved.  The matrix takes
about 16 s on 2 vCPU, so it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from oracles import blas_kernel, record_command  # noqa: E402
from pinned import ENTRIES, IDENTITY, entry_digests  # noqa: E402
from submoe.cli import _file_digests  # noqa: E402
from submoe.config import config_from_dict  # noqa: E402
from submoe.experiment import run_experiment  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402


def _with(raw: dict, **sections) -> dict:
    """`raw` with the given keys of its sections replaced."""
    out = copy.deepcopy(raw)
    for section, values in sections.items():
        out[section].update(values)
    return out


def configurations() -> dict[str, dict]:
    """Name -> raw config, in run order."""
    cfgs = {f"{w}@seed{s}": workload_config(w, s) for w in WORKLOADS for s in (0, 3)}
    for w in ("demo_free_cil", "ortho20_free"):
        base = workload_config(w, 0)
        for window in (3, 7, 100):
            cfgs[f"{w}@query_window={window}"] = _with(base, task_bank={"query_window": window})
        cfgs[f"{w}@metric=euclidean"] = _with(base, task_bank={"metric": "euclidean"})
        cfgs[f"{w}@match_threshold=2.0"] = _with(base, task_bank={"match_threshold": 2.0})
    demo = json.loads((ROOT / "configs" / "demo.json").read_text())
    cfgs["demo@top_k=2"] = _with(demo, schedule={"top_k": 2})
    cfgs["demo_free_cil@adamw,top_k=3"] = _with(
        workload_config("demo_free_cil", 0), schedule={"top_k": 3},
        optimizer={"method": "adamw", "learning_rate": 0.05, "weight_decay": 0.01})
    six = _with(workload_config("ortho20_given", 0), schedule={"top_k": 5})
    six["stream"] = six["stream"][:6]
    cfgs["ortho20_given[:6]@top_k=5"] = six
    return cfgs


def entry_names() -> list[str]:
    """The names of a kernel's table: the configurations, then the tests'
    pinned entries."""
    return [*configurations(), *ENTRIES]


def run_matrix(out: Path) -> dict[str, dict[str, str]]:
    table = {}
    for name, raw in configurations().items():
        run_experiment(config_from_dict(raw), out / name)
        table[name] = _file_digests(out / name)  # what `submoe report A B` compares
        print(f"{name}: {len(table[name])} files", flush=True)
    table.update(entry_digests(out / "tier1"))
    print(f"tier1: {sum(len(table[name]) for name in ENTRIES)} files", flush=True)
    return table


def compare(want: dict, got: dict) -> list[str]:
    """One line per file, named `configuration/file`, that differs or that
    only one of the tables has."""
    def flat(table: dict) -> dict[str, str]:
        return {f"{name}/{f}": d for name, files in table.items() for f, d in files.items()}
    want, got = flat(want), flat(got)
    return [f"{k}: {'missing' if k not in got else 'new' if k not in want else 'differs'}"
            for k in sorted(want.keys() | got.keys()) if want.get(k) != got.get(k)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("check", "record"))
    args = parser.parse_args(argv)

    kernel = blas_kernel()
    tables = json.loads(IDENTITY.read_text()) if IDENTITY.exists() else {}
    if args.mode == "check" and kernel not in tables:
        print(f"identity: no table for BLAS kernel {kernel}; tables exist for "
              f"{sorted(tables)}; record it with: {record_command()}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        got = run_matrix(Path(tmp))
    files = sum(map(len, got.values()))
    if args.mode == "record":
        for line in compare(tables.get(kernel, {}), got):
            print(f"identity: {line}")
        tables[kernel] = got
        IDENTITY.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
        print(f"identity: recorded {files} files of {len(got)} entries "
              f"for BLAS kernel {kernel}")
        return 0
    problems = compare(tables[kernel], got)
    for line in problems:
        print(f"identity: {line}", file=sys.stderr)
    if problems:
        return 1
    print(f"identity: all {files} files of {len(got)} entries equal "
          f"under BLAS kernel {kernel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
