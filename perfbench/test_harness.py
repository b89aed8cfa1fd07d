"""Smoke test of the benchmark harness on a tiny two-task config.

    PYTHONPATH=src python -m pytest -q perfbench/test_harness.py
"""

import json
from pathlib import Path

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_config() -> dict:
    raw = workloads.workload_config("demo_free_cil", 0)
    raw["stream"] = raw["stream"][:2]
    raw["schedule"].update(identify_steps=6, finetune_steps=3, snapshot_interval=3)
    return raw


def test_both_passes_report_every_named_metric(tmp_path: Path):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        scratch = tmp_path / section
        scratch.mkdir()
        report, metrics = run.measure(tiny_config(), None, 0, trace, scratch)
        assert report["failed"] == 0 and report["attempted"] >= 1
        assert list(metrics) == [m["name"] for m in BENCHMARK[section]]
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())


def test_gate_counts_a_run_that_misses_its_golden(tmp_path: Path):
    wrong = tmp_path / "golden.json"
    wrong.write_text(json.dumps({"metrics": {}, "final_expert_total": -1,
                                 "expert_counts": [], "bank_id_accuracy": None}))
    report, _ = run.measure(tiny_config(), wrong, 0, False, tmp_path)
    assert report["attempted"] == 2 and report["failed"] == 2


def test_workload_seed_shifts_every_seed():
    base = workloads.workload_config("demo_free_cil", 0)
    shifted = workloads.workload_config("demo_free_cil", 5)
    assert shifted["seed"] == base["seed"] + 5
    assert [t["seed"] for t in shifted["stream"]] == [t["seed"] + 5 for t in base["stream"]]
    assert workloads.golden_path("demo_free_cil", 5) is None
