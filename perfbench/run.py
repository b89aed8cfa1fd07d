"""Benchmark of the submoe engine: `run_experiment` on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it finds `src/` next to `perfbench/`.  The load is a
closed loop with one client: one `run_experiment` call at a time, in one
fresh process, with no extra threads and the BLAS pinned to one thread
through the environment (unpinned OpenBLAS on 2 vCPUs ran `demo_free_cil`
about 1.7x slower with identical results).

`--trace 0` prints the end-to-end metrics, measured untraced:
  run_s          median time of one call, after a warm-up run
  setup_s        median, over fresh interpreters, of the time to import
                 submoe, run `load_config` and run `generate_stream`
  peak_rss_mb    `ru_maxrss` of the process that ran the workload
  artifact_bytes size of one run directory (exact)
`run_s` and `setup_s` are calibrated (`calibration.py`): each wall time is
divided by the time of a fixed kernel run next to it (for a call, the mean of
the runs just before and after) and multiplied by the kernel's time at full
host speed, because this kind of shared host changes speed by up to ~1.8x for
tens of seconds at a time.  The raw wall times are in the details line.
`--trace 1` prints the per-layer metrics of a traced call (see `spans.py`),
the op sweeps (see `sweeps.py`), `trace.overhead_s` and `failed_frac`.

Every timed run is gated (see `worker.py`); the result line counts runs that
raised or failed the gate in `failed`.  Run directories go to a temporary
directory under `.perfbench_tmp/` that is removed on exit.  The line before
the result holds the details: samples, quartiles, machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import calibration
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9
WORKER_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child(script: str, args: list[str], timeout: float) -> str:
    """Run a perfbench script in a fresh interpreter; returns its last stdout line."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), *args], env=child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited with code {proc.returncode}")
    return lines[-1]


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure(raw_cfg: dict, golden: Path | None, seconds: float, trace: bool,
            scratch: Path) -> tuple[dict, dict]:
    """Run one benchmark measurement of the config `raw_cfg`.  Returns
    (report, metrics): the worker's report plus set-up samples, and the
    metrics BENCHMARK.json declares, each as {"value": ..., "unit": ...}."""
    cfg_path = scratch / "config.json"
    cfg_path.write_text(json.dumps(raw_cfg, indent=2))
    # The traced pass times one untraced call, then the traced one and the sweeps.
    args = ["--config", str(cfg_path), "--scratch", str(scratch),
            "--seconds", str(0 if trace else seconds), "--trace", str(int(trace))]
    if golden is not None:
        args += ["--golden", str(golden)]

    probes = [] if trace else [_child("setup_probe.py", [str(cfg_path)], 60).split()
                               for _ in range(SETUP_PROBES)]
    setup = [calibration.calibrated(float(wall), float(kernel)) for wall, kernel in probes]
    report = json.loads(_child("worker.py", args, WORKER_TIMEOUT_S))
    report["setup_wall_s_samples"] = [float(wall) for wall, _ in probes]
    report["setup_s_samples"] = setup
    report["run_s_quartiles"] = quartiles(report["run_s_samples"])
    if trace:
        values = report.pop("layers")
    else:
        values = {
            "run_s": statistics.median(report["run_s_samples"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": report["peak_rss_mb"],
            "artifact_bytes": report["artifact_bytes"],
        }
    units = declared_units("per_layer" if trace else "end_to_end")
    if values.keys() != units.keys():
        mismatch = sorted(values.keys() ^ units.keys())
        raise BenchError(f"metrics differ from those BENCHMARK.json declares: {mismatch}")
    return report, {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def declared_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares in `section`."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark submoe's run_experiment.")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "submoe").is_dir():
        print(f"perfbench: no submoe sources at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        print("perfbench: --seed and --seconds must be >= 0", file=sys.stderr)
        return 2

    TMP_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        report, metrics = measure(
            workloads.workload_config(args.workload, args.seed),
            workloads.golden_path(args.workload, args.seed),
            args.seconds, bool(args.trace), scratch)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    report.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
