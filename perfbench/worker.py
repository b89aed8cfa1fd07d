"""One fresh benchmark process: warm up, time the workload, gate every run.

    python3 perfbench/worker.py --config CFG --scratch DIR --seconds S --trace 0|1 [--golden FILE]

`perfbench/run.py` starts it with `src/` on `PYTHONPATH` and the BLAS thread
pin in its environment.  It warms up on the workload's first two tasks, then
times whole `run_experiment` calls with tracing off, each between two runs of
the calibration kernel (`calibration.py`), until `--seconds` have passed and
at least two calls ran, so reruns can be compared byte for byte.  With
`--trace 1` it needs one untraced call, then makes one traced call and the op
sweeps.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from submoe import experiment
from submoe.config import load_config

import calibration
import spans
import sweeps

# Wall-clock timings are outside the byte-identity contract of a run directory.
NONDETERMINISTIC = frozenset({"timings.json"})
GOLDEN_SUMMARY_KEYS = ("final_expert_total", "expert_counts", "bank_id_accuracy")
BLAS_PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def outcome(run_dir: Path) -> dict:
    """The gated results of a run, read back from its artifacts."""
    summary = json.loads((run_dir / experiment.SUMMARY_FILE).read_text())
    return {
        "metrics": json.loads((run_dir / experiment.METRICS_FILE).read_text()),
        **{key: summary[key] for key in GOLDEN_SUMMARY_KEYS},
    }


def digests(run_dir: Path) -> dict[str, str]:
    out = {}
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        if path.name in NONDETERMINISTIC:
            continue
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[str(path.relative_to(run_dir))] = h.hexdigest()
    return out


def dir_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())


class Gate:
    """Correctness of every timed run: the golden outcome when there is one,
    and byte-identical deterministic artifacts against the first run."""

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, cfg, run_dir: Path):
        """Time one `run_experiment` call and gate it.  Returns (seconds,
        result); result is None when the call raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = experiment.run_experiment(cfg, run_dir)
        except Exception:
            elapsed = perf_counter() - t0
            traceback.print_exc()
            self._fail(f"{run_dir.name}: run_experiment raised")
            return elapsed, None
        elapsed = perf_counter() - t0
        got = outcome(run_dir)
        if self.golden is not None and got != self.golden:
            self._fail(f"{run_dir.name}: outcome differs from golden: {json.dumps(got)}")
        digest = digests(run_dir)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            changed = sorted(k for k in digest.keys() | self.reference.keys()
                             if digest.get(k) != self.reference.get(k))
            self._fail(f"{run_dir.name}: artifacts differ from the first run: {changed}")
        return elapsed, result

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"perfbench: {message}", file=sys.stderr)


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_pin": {var: os.environ.get(var) for var in BLAS_PIN_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--golden", type=Path)
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    cfg = load_config(args.config)
    golden = json.loads(args.golden.read_text()) if args.golden else None
    experiment.run_experiment(dataclasses.replace(cfg, stream=cfg.stream[:2]),
                              args.scratch / "warmup")

    gate = Gate(golden)
    min_runs = 1 if args.trace else 2
    samples = []
    kernel = [calibration.kernel_seconds()]
    deadline = perf_counter() + args.seconds
    while gate.attempted < min_runs or perf_counter() < deadline:
        elapsed, _ = gate.run(cfg, args.scratch / f"run{gate.attempted}")
        samples.append(elapsed)
        kernel.append(calibration.kernel_seconds())
    report = {
        "wall_s_samples": samples,
        "kernel_s_samples": kernel,
        "run_s_samples": [calibration.calibrated(wall, (before + after) / 2)
                          for wall, before, after in zip(samples, kernel, kernel[1:])],
        "artifact_bytes": dir_bytes(args.scratch / "run0"),
        "machine": machine_facts(),
    }

    if args.trace:
        tracer = spans.Tracer()
        traced_dir = args.scratch / "traced"
        with spans.traced(tracer):
            traced_s, result = gate.run(cfg, traced_dir)
        layers = spans.layer_metrics(tracer, traced_dir)
        if result is not None:
            layers.update(sweeps.op_sweeps(result.model, result.bank, args.scratch))
        layers["trace.run_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - statistics.median(samples)
        layers["failed_frac"] = gate.failed / gate.attempted
        report["layers"] = layers
        report["spans"] = tracer.table()
    else:
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report.update(attempted=gate.attempted, failed=gate.failed, problems=gate.problems)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
