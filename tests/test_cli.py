"""CLI behaviour: subcommands, exit codes, artifact layout."""

from __future__ import annotations

import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import submoe
from submoe import cli, experiment
from submoe.cli import main
from submoe.checkpoint import load_checkpoint
from submoe.config import load_config
from submoe.errors import DataError
from submoe.streams import generate_stream
from submoe.experiment import (
    CHECKPOINT_FILE, CONFIG_FILE, METRICS_FILE, OUTPUT_ROOT_ENV, STREAM_DIR, SUMMARY_FILE,
)


def write_config(tmp_path, name="cfg.json", **overrides):
    raw = {
        "seed": 5,
        "output_dir": "runs/cli",
        "model": {"feature_dim": 8, "depth": 3, "adapter_layers": [1, 2], "rank": 2},
        "schedule": {"identify_steps": 10, "finetune_steps": 5, "num_candidates": 2,
                     "batch_size": 8, "snapshot_interval": 5},
        "optimizer": {"learning_rate": 0.5, "penalty": 0.01},
        "contrastive": {"temperature": 0.2},
        "task_bank": {"match_threshold": 50.0, "enroll_batch": 16},
        "evaluation": {"protocol": "id_free", "cil": False},
        "stream": [
            {"task_id": i, "classes": 3, "samples_per_class": 8, "eval_per_class": 4,
             "seed": i}
            for i in range(2)
        ],
    }
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture()
def rooted(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "out"))
    return tmp_path


def test_run_success(rooted, capsys):
    cfg = write_config(rooted)
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "run complete" in out and "transfer" in out and "experts" in out
    assert (rooted / "out" / "runs" / "cli" / METRICS_FILE).is_file()


def test_run_missing_config_exits_1(rooted, capsys):
    assert main(["run", str(rooted / "nope.json")]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_invalid_json_exits_1(rooted, capsys):
    bad = rooted / "bad.json"
    bad.write_text("{oops")
    assert main(["run", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_run_bad_field_exits_1(rooted, capsys):
    cfg = write_config(rooted, optimizer={"learning_rate": -1.0})
    assert main(["run", str(cfg)]) == 1
    assert "learning_rate" in capsys.readouterr().err


def test_runtime_failure_exits_2(rooted, capsys):
    # dim 4 cannot host two orthogonal 3-class tasks: fails after parsing
    cfg = write_config(rooted, model={"feature_dim": 4, "depth": 3,
                                      "adapter_layers": [1, 2], "rank": 2})
    assert main(["run", str(cfg)]) == 2
    assert "error" in capsys.readouterr().err


def test_report_single_run(rooted, capsys):
    cfg = write_config(rooted)
    main(["run", str(cfg)])
    capsys.readouterr()
    run_dir = rooted / "out" / "runs" / "cli"
    assert main(["report", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "accuracy matrix" in out and "transfer" in out


def test_report_on_an_accuracy_matrix_that_is_not_utf8_exits_2(rooted, capsys):
    main(["run", str(write_config(rooted))])
    capsys.readouterr()
    run_dir = rooted / "out" / "runs" / "cli"
    matrix = run_dir / "accuracy_matrix.csv"
    matrix.write_bytes(b"\xff\xfe" + matrix.read_bytes()[2:])
    assert main(["report", str(run_dir)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot read") and "accuracy_matrix.csv" in err
    assert out == ""


def test_report_two_runs_prints_delta(rooted, capsys):
    cfg_a = write_config(rooted, name="a.json", output_dir="runs/a")
    cfg_b = write_config(rooted, name="b.json", output_dir="runs/b", seed=6)
    main(["run", str(cfg_a)])
    main(["run", str(cfg_b)])
    capsys.readouterr()
    code = main(["report", str(rooted / "out" / "runs" / "a"),
                 str(rooted / "out" / "runs" / "b")])
    assert code == 0
    out = capsys.readouterr().out
    assert "delta report" in out and "B-A" in out


def test_report_non_run_dir_exits_1(rooted, capsys):
    assert main(["report", str(rooted)]) == 1
    assert "run directory" in capsys.readouterr().err


def test_report_on_a_failed_rerun_exits_1(rooted, capsys):
    assert main(["run", str(write_config(rooted))]) == 0
    diverging = write_config(rooted, name="diverging.json",
                             optimizer={"learning_rate": 1e300, "penalty": 0.01})
    with np.errstate(all="ignore"):
        assert main(["run", str(diverging)]) == 2
    capsys.readouterr()
    assert main(["report", str(rooted / "out" / "runs" / "cli")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"missing {METRICS_FILE}" in err


def test_report_three_dirs_exits_1(rooted, capsys):
    assert main(["report", "x", "y", "z"]) == 1
    assert "one or two" in capsys.readouterr().err


def test_cli_runs_are_deterministic(rooted, capsys, monkeypatch):
    cfg = write_config(rooted)
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(rooted / "r1"))
    main(["run", str(cfg)])
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(rooted / "r2"))
    main(["run", str(cfg)])
    capsys.readouterr()
    a = (rooted / "r1" / "runs" / "cli" / METRICS_FILE).read_bytes()
    b = (rooted / "r2" / "runs" / "cli" / METRICS_FILE).read_bytes()
    assert a == b


def test_sweep_runs_grid_and_writes_summary(rooted, capsys):
    cfg = write_config(rooted)
    code = main(["sweep", str(cfg), "--param", "schedule.num_candidates",
                 "--values", "1,2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "schedule.num_candidates=1" in out and "sweep summary" in out
    base = rooted / "out" / "runs" / "cli"
    summary = (base / "sweep_summary.csv").read_text().splitlines()
    assert summary[0].startswith("value,dir,final_expert_total")
    assert len(summary) == 3
    for v in ("1", "2"):
        assert (base / f"schedule.num_candidates={v}" / METRICS_FILE).is_file()


def test_sweep_prepares_each_value_once(rooted, capsys, monkeypatch):
    # the check before the first run prepares each value; its run uses that
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return generate_stream(*args, **kwargs)

    monkeypatch.setattr(experiment, "generate_stream", counting)
    cfg = write_config(rooted)
    assert main(["sweep", str(cfg), "--param", "seed", "--values", "1,2"]) == 0
    assert len(calls) == 2
    base = rooted / "out" / "runs" / "cli"
    for seed in (1, 2):
        assert (base / f"seed={seed}" / METRICS_FILE).is_file()
        assert load_config(base / f"seed={seed}" / CONFIG_FILE).seed == seed


def test_sweep_takes_a_value_that_is_not_json_as_text(rooted, capsys):
    cfg = write_config(rooted)
    assert main(["sweep", str(cfg), "--param", "task_bank.metric",
                 "--values", "manhattan,euclidean"]) == 0
    base = rooted / "out" / "runs" / "cli"
    for metric in ("manhattan", "euclidean"):
        run = base / f"task_bank.metric={metric}"
        assert load_config(run / CONFIG_FILE).task_bank.metric == metric
        _, bank, _ = load_checkpoint(run / CHECKPOINT_FILE)
        assert bank.metric == metric
    rows = (base / "sweep_summary.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["manhattan", "euclidean"]


def test_sweep_empty_values_exits_1(rooted, capsys):
    cfg = write_config(rooted)
    assert main(["sweep", str(cfg), "--param", "optimizer.penalty",
                 "--values", ""]) == 1
    assert "--values" in capsys.readouterr().err


NEGATIVE = {
    "seed": ("seed", -1, "seed: must be >= 0, got -1"),
    "task seed": ("stream", {"seed": -3}, "stream[0].seed: must be >= 0, got -3"),
    "task id": ("stream", {"task_id": -1}, "stream[0].task_id: must be >= 0, got -1"),
}


def _with_negative(key: str, value) -> dict:
    if key == "seed":
        return {"seed": value}
    return {"stream": [{"task_id": i, "classes": 3, "samples_per_class": 8, "eval_per_class": 4,
                        "seed": i, **(value if i == 0 else {})} for i in range(2)]}


@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "optimizer.penalty",
                                               "--values", "0.01"]])
@pytest.mark.parametrize("key,value,message", NEGATIVE.values(), ids=NEGATIVE.keys())
def test_a_negative_seed_or_task_id_exits_1_naming_the_field(rooted, capsys, command, key,
                                                             value, message):
    cfg = write_config(rooted, **_with_negative(key, value))
    assert main([command[0], str(cfg), *command[1:]]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (rooted / "out").exists()


@pytest.mark.parametrize("values", ["-1,0", "0,-1"])
def test_sweep_refuses_a_negative_seed_value_before_any_run_exits_1(rooted, capsys, values):
    cfg = write_config(rooted)
    assert main(["sweep", str(cfg), "--param", "seed", f"--values={values}"]) == 1
    assert capsys.readouterr().err == "config error: seed: must be >= 0, got -1\n"
    assert not (rooted / "out").exists()


def _stream(*specs: dict) -> list[dict]:
    return [{"task_id": i, "classes": 3, "samples_per_class": 8, "eval_per_class": 4,
             "seed": i, **spec} for i, spec in enumerate(specs)]


MODEL = {"feature_dim": 8, "depth": 3, "adapter_layers": [1, 2], "rank": 2}
# configurations the parser accepts and the stream, the model or the bank refuses
REFUSED = {
    "rank 0": ({"model": {**MODEL, "rank": 0}}, "model.rank"),
    "no adapter layer": ({"model": {**MODEL, "adapter_layers": []}}, "model.adapter_layers"),
    "a layer twice": ({"model": {**MODEL, "adapter_layers": [1, 1]}}, "model.adapter_layers"),
    "cosine metric": ({"task_bank": {"metric": "cosine"}}, "task_bank.metric"),
    "negative threshold": ({"task_bank": {"match_threshold": -1.0}},
                           "task_bank.match_threshold"),
    "duplicate task id": ({"stream": _stream({}, {"task_id": 0})}, "duplicate task id"),
    "source not earlier": ({"stream": _stream({}, {"alignment": {"mode": "reuse", "source": 1}})},
                           "stream[1].alignment.source"),
    "empty stream": ({"stream": []}, "stream: empty task stream"),
}


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("overrides,message", REFUSED.values(), ids=REFUSED.keys())
def test_a_refused_configuration_exits_1_and_touches_no_run_directory(rooted, capsys,
                                                                      overrides, message):
    bad = write_config(rooted, "bad.json", **overrides)
    for command in (["run"], ["sweep", "--param", "optimizer.penalty", "--values", "0.01,0.02"]):
        assert main([command[0], str(bad), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (rooted / "out").exists()
    # over an existing run, every file stays as it was
    assert main(["run", str(write_config(rooted))]) == 0
    before = _tree(rooted / "out")
    assert main(["run", str(bad)]) == 1
    assert _tree(rooted / "out") == before


def test_sweep_refuses_a_bad_value_before_running_the_good_one(rooted, capsys):
    cfg = write_config(rooted)
    assert main(["sweep", str(cfg), "--param", "model.rank", "--values", "2,0"]) == 1
    assert "model.rank" in capsys.readouterr().err
    assert not (rooted / "out").exists()


@pytest.mark.parametrize("values,first,second", [("0.01,0.02,0.01", "0.01", "0.01"),
                                                  ("a/b,a_b", "a/b", "a_b")])
def test_sweep_refuses_values_that_share_a_run_directory_exits_1(rooted, capsys, values,
                                                                 first, second):
    cfg = write_config(rooted)
    assert main(["sweep", str(cfg), "--param", "optimizer.penalty", f"--values={values}"]) == 1
    out = Path("runs/cli") / f"optimizer.penalty={second.replace('/', '_')}"
    assert capsys.readouterr().err == (f"config error: --values: {first!r} and {second!r} "
                                       f"share the run directory {out}\n")
    assert not (rooted / "out").exists()


@pytest.mark.parametrize("param,held,kind", [("stream.0.noise", "stream", "list"),
                                             ("model.rank.x", "model.rank", "int")])
def test_sweep_refuses_a_param_through_a_list_or_a_value_exits_1(rooted, capsys, param, held,
                                                                 kind):
    cfg = write_config(rooted)
    assert main(["sweep", str(cfg), "--param", param, "--values", "1"]) == 1
    assert capsys.readouterr().err == (f"config error: --param {param}: {held} is not a "
                                       f"section of keys (it holds a value of type {kind})\n")
    assert not (rooted / "out").exists()


@pytest.mark.parametrize("escape", ["abs", "../../escape"])
@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "seed", "--values", "1"]])
def test_output_root_refuses_an_escaping_output_dir_exits_1(rooted, capsys, escape, command):
    output_dir = str(rooted / "abs_run") if escape == "abs" else escape
    cfg = write_config(rooted, output_dir=output_dir)
    assert main([command[0], str(cfg), *command[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: output_dir") and OUTPUT_ROOT_ENV in err
    assert not (rooted / "abs_run").exists() and not (rooted.parent / "escape").exists()
    assert not (rooted / "out").exists()


def test_run_into_a_file_exits_2_naming_the_directory(rooted, capsys):
    target = rooted / "out" / "runs" / "cli"
    target.parent.mkdir(parents=True)
    target.write_text("a file, not a run directory")
    assert main(["run", str(write_config(rooted))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: run directory {target}") and "unexpected" not in err


# a file where the run directory needs a directory, or a directory where it
# writes or removes a file: (name in the run directory, how to make it)
RUN_DIR_FAULTS = {
    "stream is a file": (STREAM_DIR, lambda path: path.write_text("not a directory")),
    "summary is a directory": (SUMMARY_FILE, Path.mkdir),
    "metrics is a directory": (METRICS_FILE, Path.mkdir),
}


@pytest.mark.parametrize("fault", list(RUN_DIR_FAULTS))
def test_a_run_directory_fault_exits_2_naming_the_path(rooted, capsys, fault):
    name, make = RUN_DIR_FAULTS[fault]
    target = rooted / "out" / "runs" / "cli"
    target.mkdir(parents=True)
    make(target / name)
    assert main(["run", str(write_config(rooted))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: run directory {target}: ") and str(target / name) in err
    assert (target / name).is_dir() != (name == STREAM_DIR)  # left as it was


def test_a_sweep_summary_that_is_a_directory_exits_2_naming_it(rooted, capsys):
    base = rooted / "out" / "runs" / "cli"
    (base / "sweep_summary.csv").mkdir(parents=True)
    assert main(["sweep", str(write_config(rooted)), "--param", "seed", "--values", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sweep directory {base}: ")
    assert str(base / "sweep_summary.csv") in err


def child_env(output_root: Path) -> dict:
    """Environment for a child Python process.

    The child must import the same submoe as this process, installed or not,
    so its PYTHONPATH starts at the directory holding that package and keeps
    the caller's entries (made absolute, as the child runs elsewhere).
    Everything else is left out so that the output root comes from the one
    variable set here, not from the caller's environment.
    """
    pythonpath = [str(Path(submoe.__file__).resolve().parents[1])]
    pythonpath += [os.path.abspath(p)
                   for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(pythonpath),
            OUTPUT_ROOT_ENV: str(output_root)}


def test_console_entry_point(rooted):
    cfg = write_config(rooted)
    proc = subprocess.run(
        [sys.executable, "-c", "import submoe.cli, sys; sys.exit(submoe.cli.main())",
         "run", str(cfg)],
        capture_output=True, text=True, cwd=rooted, env=child_env(rooted / "sub"),
    )
    # argv[1:] of the -c invocation are the CLI args
    assert proc.returncode == 0, proc.stderr
    assert "run complete" in proc.stdout
    assert (rooted / "sub" / "runs" / "cli" / METRICS_FILE).is_file()


REPO = Path(__file__).resolve().parents[1]
DEMO_CONFIG = REPO / "configs" / "demo.json"


def test_readme_demo_commands_tell_each_task_and_layer_as_the_summary_does(tmp_path):
    # `submoe run configs/demo.json && submoe report runs/demo`, from a
    # directory where runs/demo is where the run lands
    cli = [sys.executable, "-m", "submoe.cli"]
    for args in (["run", str(DEMO_CONFIG)], ["report", "runs/demo"]):
        proc = subprocess.run(cli + args, capture_output=True, text=True, cwd=tmp_path,
                              env=child_env(tmp_path))
        assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "runs" / "demo" / SUMMARY_FILE).read_text())
    lines = proc.stdout.splitlines()
    told = [line.strip() for line in lines if line.startswith("  task ")]
    assert told == [f"task {t['task_id']}: kept "
                    f"{t['candidates_added'] - t['candidates_pruned']} of "
                    f"{t['candidates_added']} candidates" for t in summary["tasks"]]
    final = summary["expert_counts"][-1]
    assert (f"final experts per adapter layer: layer 1: {final['layer_1']}, "
            f"layer 2: {final['layer_2']} (total {final['total']})") in lines
    # the demo's story: only the replay of task 0 sheds candidates
    assert told[3] == "task 3: kept 2 of 4 candidates"
    assert sum("kept 4 of 4" in line for line in told) == 5
    assert (final["layer_1"], final["layer_2"]) == (12, 10)


def test_run_config_with_an_epoch_key_exits_1(rooted, capsys):
    cfg = write_config(rooted, schedule={"identify_epochs": 3})
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err == "config error: schedule.identify_epochs: unknown field\n"
    assert not (rooted / "out").exists()


def test_run_config_that_is_not_utf8_exits_1(rooted, capsys):
    bad = rooted / "latin1.json"
    bad.write_bytes(b'{"output_dir": "caf\xe9"}')
    assert main(["run", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


STORY = {"tasks": [{"task_id": 0, "stage1_trainable_params": 41, "candidates_added": 4,
                    "candidates_pruned": 1}],
         "expert_counts": [{"after_task": 0, "layer_1": 2, "layer_2": 1, "total": 3}]}
CONFIG = {"model": {"feature_dim": 8, "rank": 2}}


def _story(**fields) -> str:
    return json.dumps({**STORY, **fields})


def _config(**model) -> str:
    return json.dumps({"model": {**CONFIG["model"], **model}})


@pytest.mark.parametrize("metrics, summary, config", [
    *(pair + (json.dumps(CONFIG),) for pair in [
        ("{", None), ("[1]", None), ("{}", "{"), ("{}", "[1]"),
        ("{}", _story(tasks=3)), ("{}", _story(tasks=[{"task_id": 0}])),
        ("{}", _story(tasks=[{**STORY["tasks"][0], "candidates_pruned": "1"}])),
        ("{}", _story(tasks=[{**STORY["tasks"][0], "candidates_pruned": 5}])),
        ("{}", _story(expert_counts=[])), ("{}", _story(expert_counts=[{"total": 3}])),
        ("{}", _story(expert_counts=[{"layer_1": True}])),
        ("{}", _story(expert_counts=[{"layer_x": 2}])), ("{}", _story(expert_counts=None)),
        ("{}", _story(tasks=[])),
        ("{}", _story(tasks=[{**STORY["tasks"][0], "stage1_trainable_params": 4.5}])),
        ("{}", _story(expert_counts=[{"layer_1": -1}, STORY["expert_counts"][0]])),
    ]),
    ("{}", _story(), None), ("{}", _story(), "{"), ("{}", _story(), "[1]"),
    ("{}", _story(), "{}"), ("{}", _story(), _config(rank="2")),
    ("{}", _story(), _config(feature_dim=None)),
], ids=["metrics malformed", "metrics a list", "summary malformed", "summary a list",
        "tasks a number", "task without counts", "pruned a string",
        "more pruned than added", "expert counts empty", "no layer counts",
        "layer count a bool", "layer without index", "expert counts null", "no tasks",
        "phase-1 parameters a float", "earlier layer count negative", "config missing",
        "config malformed", "config a list", "config without model", "rank a string",
        "dim null"])
def test_report_on_a_malformed_run_file_exits_2(rooted, capsys, metrics, summary, config):
    run_dir = rooted / "run"
    run_dir.mkdir()
    (run_dir / METRICS_FILE).write_text(metrics)
    if summary is not None:
        (run_dir / SUMMARY_FILE).write_text(summary)
    if config is not None:
        (run_dir / CONFIG_FILE).write_text(config)
    assert main(["report", str(run_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _fake_run(root, name, metrics, summary):
    run_dir = root / name
    run_dir.mkdir()
    (run_dir / METRICS_FILE).write_text(json.dumps(metrics))
    (run_dir / SUMMARY_FILE).write_text(json.dumps(summary))
    (run_dir / CONFIG_FILE).write_text(json.dumps(CONFIG))
    return str(run_dir)


GOOD_SUMMARY = {"final_expert_total": 4, "bank_id_accuracy": 0.5, **STORY}


@pytest.mark.parametrize("metrics, summary", [
    ({"transfer": "x"}, GOOD_SUMMARY),
    ({"last": True}, GOOD_SUMMARY),
    ({"avg": [0.5]}, GOOD_SUMMARY),
    ({}, {"final_expert_total": 4, "bank_id_accuracy": "y"}),
    ({}, {"final_expert_total": "4", "bank_id_accuracy": 0.5}),
    ({}, {"final_expert_total": False}),
], ids=["metric a string", "metric a bool", "metric a list", "bank id a string",
        "experts a string", "experts a bool"])
@pytest.mark.parametrize("diff", [False, True], ids=["one run", "two runs"])
def test_report_rejects_a_printed_value_that_is_not_a_number(rooted, capsys, metrics,
                                                             summary, diff):
    bad = _fake_run(rooted, "bad", metrics, summary)
    dirs = [_fake_run(rooted, "good", {"transfer": 0.5, "last": None}, GOOD_SUMMARY),
            bad] if diff else [bad]
    assert main(["report", *dirs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be a number or null" in err


def test_report_prints_numbers_and_nulls(rooted, capsys):
    metrics = {"transfer": 0.25, "avg": 1, "last": None}
    a = _fake_run(rooted, "a", metrics, GOOD_SUMMARY)
    b = _fake_run(rooted, "b", metrics, {"final_expert_total": 6, "bank_id_accuracy": None})
    assert main(["report", a]) == 0
    out = capsys.readouterr().out
    assert "0.2500" in out and "1.0000" in out and "bank id  : 0.5000" in out
    assert "  task 0: kept 3 of 4 candidates\n" in out
    assert "final experts per adapter layer: layer 1: 2, layer 2: 1 (total 3)\n" in out
    # three experts of 2 * 2 * 8 and a router row of 8 for each of them
    assert "adapter parameters: experts 96 + routers 24 = 120\n" in out
    assert "phase-1 trainable parameters per task: mean 41.0\n" in out
    assert main(["report", a, b]) == 0
    assert "+2" in capsys.readouterr().out


def test_report_counts_the_parameters_the_checkpoint_holds(rooted, capsys):
    assert main(["run", str(write_config(rooted))]) == 0
    run_dir = rooted / "out" / "runs" / "cli"
    capsys.readouterr()
    assert main(["report", str(run_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    model = load_checkpoint(run_dir / CHECKPOINT_FILE)[0]
    layers = model.adapter_layers()
    experts = sum(e.down.size + e.up.size for layer in layers for e in layer.experts)
    routers = sum(r.weight.size for layer in layers for r in layer.routers.values())
    assert (f"adapter parameters: experts {experts:,} + routers {routers:,} = "
            f"{experts + routers:,}") in lines
    trained = [t["stage1_trainable_params"]
               for t in json.loads((run_dir / SUMMARY_FILE).read_text())["tasks"]]
    assert (f"phase-1 trainable parameters per task: mean "
            f"{sum(trained) / len(trained):,.1f}") in lines


def test_report_two_runs_lists_the_files_whose_bytes_differ(rooted, capsys, monkeypatch):
    cfg = write_config(rooted)
    for root in ("r1", "r2"):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(rooted / root))
        main(["run", str(cfg)])
    a, b = (rooted / root / "runs" / "cli" for root in ("r1", "r2"))
    n_files = len(list(a.iterdir()))
    capsys.readouterr()
    assert main(["report", str(a), str(b)]) == 0
    assert f"files: all {n_files} byte-identical (sha256)" in capsys.readouterr().out

    matrix = bytearray((b / "accuracy_matrix.csv").read_bytes())
    matrix[0] ^= 1  # one byte flipped
    (b / "accuracy_matrix.csv").write_bytes(bytes(matrix))
    assert main(["report", str(a), str(b)]) == 0
    out = capsys.readouterr().out.split(f"files whose bytes differ (sha256), 1 of {n_files}:\n")
    listed = [line.split() for line in out[1].splitlines()]
    assert [line[0] for line in listed] == ["accuracy_matrix.csv"]
    assert listed[0][2] != listed[0][4]

    (b / "extra.txt").write_text("x")  # a file only one run has
    assert main(["report", str(a), str(b)]) == 0
    out = capsys.readouterr().out.split("files whose bytes differ (sha256), 2 of")
    listed = [line.split() for line in out[1].splitlines()[1:]]
    assert [(line[0], line[2]) for line in listed][1] == ("extra.txt", "absent")


def test_file_digests_names_a_file_it_cannot_read(tmp_path, monkeypatch):
    path = tmp_path / STREAM_DIR / "task_0.bin"
    path.parent.mkdir()
    path.write_bytes(b"task")

    def unreadable(fh, digest):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(cli.hashlib, "file_digest", unreadable)
    with pytest.raises(DataError, match=re.escape(
            f"cannot read {path}: [Errno {errno.EIO}] Input/output error")):
        cli._file_digests(tmp_path)
