"""End-to-end run driver: artifacts, determinism, and metric wiring."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from submoe.checkpoint import load_checkpoint
from submoe.config import config_from_dict
from submoe.errors import DataError
from submoe.evaluation import EvalState, WindowDecisions, evaluate_row
from submoe.experiment import (
    AUDIT_FILE, CHECKPOINT_FILE, CONFIG_FILE, COUNTS_FILE, KL_FILE, MATRIX_FILE,
    METRICS_FILE, OUTPUT_ROOT_ENV, PRUNE_FILE, SUMMARY_FILE, TRACE_FILE,
    audit_changes, audit_lines, compute_metrics, read_audit, resolve_output_dir,
    run_experiment,
)
from submoe.streams import generate_stream, load_task

from oracles import save_checkpoint_v2


def base_raw(n_tasks=2, protocol="id_free", cil=True) -> dict:
    return {
        "seed": 3,
        "output_dir": "runs/test",
        "model": {"feature_dim": 8, "depth": 3, "adapter_layers": [1, 2], "rank": 2},
        "schedule": {"identify_steps": 10, "finetune_steps": 5, "num_candidates": 2,
                     "batch_size": 8, "snapshot_interval": 5},
        "optimizer": {"learning_rate": 0.5, "penalty": 0.01},
        "contrastive": {"temperature": 0.2},
        "task_bank": {"match_threshold": 50.0, "enroll_batch": 16},
        "evaluation": {"protocol": protocol, "cil": cil},
        "stream": [
            {"task_id": i, "classes": 3, "samples_per_class": 8, "eval_per_class": 4,
             "seed": i}
            for i in range(n_tasks)
        ],
    }


ARTIFACTS = (METRICS_FILE, MATRIX_FILE, SUMMARY_FILE, CONFIG_FILE, TRACE_FILE,
             PRUNE_FILE, KL_FILE, COUNTS_FILE, CHECKPOINT_FILE)


def test_run_writes_every_artifact(tmp_path):
    cfg = config_from_dict(base_raw())
    result = run_experiment(cfg, tmp_path / "run")
    for name in ARTIFACTS + (AUDIT_FILE,):
        assert (tmp_path / "run" / name).is_file(), name

    assert result.matrix.shape == (2, 2)
    assert np.isfinite(result.matrix).all()
    assert set(result.metrics) == {"transfer", "avg", "last", "cil_last", "cil_avg"}
    assert result.metrics["transfer"] is not None
    assert result.metrics["cil_last"] is not None
    assert len(result.summary["cil_trace"]) == 2
    assert result.summary["final_expert_total"] >= 0
    assert result.summary["bank_queries"] > 0


def test_summary_counts_stage1_params_before_pruning(tmp_path):
    raw = base_raw(protocol="id_given", cil=False)
    raw["schedule"]["prune_threshold"] = 0.9
    result = run_experiment(config_from_dict(raw), tmp_path / "run")
    dim, rank, cands = 8, 2, 2
    before = {"layer_1": 0, "layer_2": 0}
    tasks = result.summary["tasks"]
    for rec, counts in zip(tasks, result.summary["expert_counts"]):
        # per layer: the candidates plus a router row for every visible expert
        expected = sum(cands * 2 * rank * dim + (n + cands) * dim for n in before.values())
        assert rec["stage1_trainable_params"] == expected
        before = {k: counts[k] for k in before}
    assert sum(rec["candidates_pruned"] for rec in tasks) > 0


def test_runs_are_byte_identical(tmp_path):
    cfg = config_from_dict(base_raw())
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    for name in ARTIFACTS + (AUDIT_FILE,):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_audit_enrollment_annotation(tmp_path):
    cfg = config_from_dict(base_raw())
    run_experiment(cfg, tmp_path / "run")
    for rec in read_audit(tmp_path / "run"):
        # a task is enrolled in the bank iff it has already been learned
        assert rec["enrolled"] == (rec["true_task"] <= rec["after_task"])


@pytest.mark.parametrize("window", [1, 3])
def test_summary_bank_counts_equal_the_audit(tmp_path, window):
    result = run_experiment(config_from_dict(pinned_raw("id_free", True, window)),
                            tmp_path / "run")
    audits = read_audit(tmp_path / "run")
    known = [a for a in audits if a["enrolled"]]
    hits = sum(a["routed_task"] == a["true_task"] for a in known)
    assert 0 < hits < len(known)
    summary = json.loads((tmp_path / "run" / SUMMARY_FILE).read_text())
    assert summary == result.summary
    assert summary["bank_queries"] == len(audits)
    assert summary["bank_id_accuracy"] == hits / len(known)


def test_audit_lines_equal_json_dumps_of_each_record():
    d = WindowDecisions(
        task_id=-4, window=3, nearest=np.array([7, -4, 0, 2], dtype=np.int64),
        distance=np.array([0.1 + 0.2, 0.0, np.inf, 1e300 * 10.0 / 7.0]),
        matched=np.array([True, True, False, True]),
    )
    for enrolled in (True, False):
        want = "".join(json.dumps({
            "after_task": 11, "enrolled": enrolled, "true_task": -4,
            "window_start": 3 * w, "matched": bool(m),
            "routed_task": int(t) if m else None, "distance": float(dist),
        }, sort_keys=True) + "\n" for w, (t, dist, m) in enumerate(
            zip(d.nearest, d.distance, d.matched)))
        assert audit_lines(11, enrolled, d) == want
        mask = np.array([False, True, False, True])
        want = "".join(line for line, keep in zip(want.splitlines(True), mask) if keep)
        assert audit_lines(11, enrolled, d, mask) == want


def test_audit_changes_writes_the_windows_whose_record_changed():
    audited: dict = {}
    d = WindowDecisions(
        task_id=1, window=2, nearest=np.array([0, 0, 0, 0, 0]),
        distance=np.array([0.5, 0.5, 0.5, 0.5, 0.0]),
        matched=np.array([True, True, False, False, True]),
    )
    assert audit_changes(audited, 0, True, d) == audit_lines(0, True, d)
    # window 1 is routed elsewhere at an equal distance; window 2 stays
    # unmatched, so its record is unchanged though its nearest task moved;
    # window 3 becomes matched; window 4's distance differs only in its sign
    e = WindowDecisions(
        task_id=1, window=2, nearest=np.array([0, 3, 3, 0, 0]),
        distance=np.array([0.5, 0.5, 0.5, 0.5, -0.0]),
        matched=np.array([True, True, False, True, True]),
    )
    want = audit_lines(4, True, e, np.array([False, True, False, True, True]))
    assert audit_changes(audited, 4, True, e) == want
    assert len(want.splitlines()) == 3


def test_read_audit_rejects_a_malformed_line(tmp_path):
    run_experiment(config_from_dict(base_raw()), tmp_path / "run")
    with open(tmp_path / "run" / AUDIT_FILE, "a") as fh:
        fh.write('{"after_task": 1}\n')
    with pytest.raises(DataError, match="cannot read the audit"):
        read_audit(tmp_path / "run")


def test_read_audit_rejects_an_unfinished_or_foreign_audit(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    run_experiment(config_from_dict(pinned_raw("id_free", True, 3)), run_dir)
    audit = (run_dir / AUDIT_FILE).read_text()
    summary = (run_dir / SUMMARY_FILE).read_text()
    assert len(read_audit(run_dir)) == json.loads(summary)["bank_queries"]

    def rejected(audit_text: str, summary_text: str | None, match: str) -> None:
        (run_dir / AUDIT_FILE).write_text(audit_text)
        (run_dir / SUMMARY_FILE).unlink(missing_ok=True)
        if summary_text is not None:
            (run_dir / SUMMARY_FILE).write_text(summary_text)
        with pytest.raises(DataError, match=match):
            read_audit(run_dir)

    # no summary: the loop never finished
    rejected(audit, None, "summary.json")
    # lines cut from the first row leave fewer records than bank queries
    rejected("".join(audit.splitlines(True)[1:]), summary, "bank queries")
    # a row that is not in the stream
    line = json.loads(audit.splitlines()[0])
    rejected(audit + json.dumps({**line, "after_task": 99}, sort_keys=True) + "\n",
             summary, "not in the stream")

    # a run that raises after its first row, into the directory of a finished
    # run, leaves a partial audit and no summary to vouch for it
    (run_dir / AUDIT_FILE).write_text(audit)
    calls = []

    def fail_second_row(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("stop")
        return evaluate_row(*args, **kwargs)

    monkeypatch.setattr("submoe.experiment.evaluate_row", fail_second_row)
    with pytest.raises(RuntimeError, match="stop"):
        run_experiment(config_from_dict(pinned_raw("id_free", True, 3)), run_dir)
    assert (run_dir / AUDIT_FILE).read_text()
    with pytest.raises(DataError, match="summary.json"):
        read_audit(run_dir)


@pytest.mark.parametrize("window", [1, 3])
def test_no_audit_line_repeats_its_window(tmp_path, window):
    raw = pinned_raw("id_free", True, window)
    run_experiment(config_from_dict(raw), tmp_path / "run")
    first_row = raw["stream"][0]["task_id"]
    last: dict[tuple[int, int], dict] = {}
    for line in (tmp_path / "run" / AUDIT_FILE).read_text().splitlines():
        rec = json.loads(line)
        after = rec.pop("after_task")
        key = rec["true_task"], rec["window_start"]
        # a window's first line is in the first row, and each later one changes
        assert key in last or after == first_row
        assert last.get(key) != rec
        last[key] = rec
    assert len(last) == 3 * -(-15 // window)


def test_audit_changes_skips_equal_decisions_of_a_replaced_bank_entry(tmp_path):
    cfg = config_from_dict(pinned_raw("id_free", True, 3))
    result = run_experiment(cfg, tmp_path / "run")
    tasks = generate_stream(cfg.stream, cfg.model.feature_dim, cfg.model.prototype_scale)
    learned = {t.task_id for t in tasks}
    state = EvalState()
    audited: dict = {}
    _, first = evaluate_row(result.model, result.bank, tasks, learned, "id_free", 3,
                            state=state)
    assert "".join(audit_changes(audited, 2, True, d) for d in first) == "".join(
        audit_lines(2, True, d) for d in first)
    # the same decisions: nothing written
    _, same = evaluate_row(result.model, result.bank, tasks, learned, "id_free", 3,
                           state=state)
    assert [audit_changes(audited, 0, True, d) for d in same] == [""] * 3
    # an equal signature under the same id: every window is matched again into
    # new arrays with equal values, and still nothing is written
    result.bank.entries[0] = result.bank.entries[0].copy()
    _, replaced = evaluate_row(result.model, result.bank, tasks, learned, "id_free", 3,
                               state=state)
    for a, b in zip(same, replaced):
        assert a.distance is not b.distance and a.matched is not b.matched
        assert a.distance.tolist() == b.distance.tolist()
    assert [audit_changes(audited, 1, True, d) for d in replaced] == [""] * 3
    # a flipped `enrolled` flag writes every window again
    assert audit_changes(audited, 1, False, replaced[0]) == audit_lines(
        1, False, replaced[0])


def test_id_given_protocol_has_no_audits(tmp_path):
    cfg = config_from_dict(base_raw(protocol="id_given", cil=False))
    result = run_experiment(cfg, tmp_path / "run")
    assert not (tmp_path / "run" / AUDIT_FILE).exists()
    with pytest.raises(DataError, match="cannot read the audit"):
        read_audit(tmp_path / "run")
    assert result.summary["bank_queries"] == 0
    assert result.summary["bank_id_accuracy"] is None
    assert result.metrics["cil_last"] is None


def test_export_stream_round_trips(tmp_path):
    raw = base_raw()
    raw["export_stream"] = True
    result = run_experiment(config_from_dict(raw), tmp_path / "run")
    for i in range(2):
        data = load_task(tmp_path / "run" / "stream" / f"task_{i}.json")
        assert data.task_id == i and data.dim == 8
    assert result.out_dir == tmp_path / "run"


def test_single_task_stream_has_no_transfer(tmp_path):
    cfg = config_from_dict(base_raw(n_tasks=1))
    result = run_experiment(cfg, tmp_path / "run")
    assert result.metrics["transfer"] is None
    assert result.matrix.shape == (1, 1)


def test_empty_stream_is_rejected(tmp_path):
    cfg = config_from_dict({})
    with pytest.raises(DataError, match="empty task stream"):
        run_experiment(cfg, tmp_path / "run")


def test_output_root_env_reroots_runs(tmp_path, monkeypatch):
    cfg = config_from_dict(base_raw())
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "root"))
    assert resolve_output_dir(cfg) == tmp_path / "root" / "runs" / "test"
    monkeypatch.delenv(OUTPUT_ROOT_ENV)
    assert str(resolve_output_dir(cfg)) == "runs/test"


def test_matrix_csv_parses_back_to_exact_floats(tmp_path):
    cfg = config_from_dict(base_raw())
    result = run_experiment(cfg, tmp_path / "run")
    lines = (tmp_path / "run" / MATRIX_FILE).read_text().splitlines()
    assert lines[0].split(",")[0] == "after_task"
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == i
        parsed = [float(c) for c in cells[1:]]
        np.testing.assert_array_equal(parsed, result.matrix[i])


def test_compute_metrics_shapes():
    m = np.array([[0.5]])
    out = compute_metrics(m, [])
    assert out["transfer"] is None and out["avg"] == 0.5 and out["last"] == 0.5
    out2 = compute_metrics(np.array([[0.9, 0.4], [0.8, 0.88]]), [0.9, 0.7])
    assert out2["transfer"] == pytest.approx(0.4)
    assert out2["cil_last"] == pytest.approx(0.7)
    assert out2["cil_avg"] == pytest.approx(0.8)


def pinned_raw(protocol: str, cil: bool, window: int) -> dict:
    """Three tasks with non-monotonic ids, a reuse task (duplicate pooled label
    rows) and a threshold that leaves some windows on the fallback."""
    return {
        "seed": 5,
        "output_dir": "runs/pinned",
        "model": {"feature_dim": 8, "depth": 3, "adapter_layers": [1, 2], "rank": 2},
        "schedule": {"identify_steps": 8, "finetune_steps": 4, "num_candidates": 2,
                     "batch_size": 8, "snapshot_interval": 4},
        "optimizer": {"learning_rate": 0.5, "penalty": 0.01},
        "contrastive": {"temperature": 0.2},
        "task_bank": {"match_threshold": 1.3, "enroll_batch": 16, "query_window": window},
        "evaluation": {"protocol": protocol, "cil": cil},
        "stream": [
            {"task_id": 2, "classes": 3, "samples_per_class": 8, "eval_per_class": 5,
             "seed": 2},
            {"task_id": 0, "classes": 3, "samples_per_class": 8, "eval_per_class": 5,
             "seed": 0},
            {"task_id": 1, "classes": 3, "samples_per_class": 8, "eval_per_class": 5,
             "seed": 1, "alignment": {"mode": "reuse", "source": 0, "perturbation": 0.3}},
        ],
    }


# sha256 of every run-directory file, recorded before stream evaluation became
# incremental; the evaluation rewrite must not move a byte.  The audit file is
# change-only since; its dense records, re-serialised a line each, keep the
# digest of the full per-row file (DENSE_AUDIT_DIGEST).  The checkpoint is
# version 3 since; the loaded file, re-serialised as version 2, keeps the
# digest of the version 2 file (V2_CHECKPOINT_DIGEST).
SHARED_DIGESTS = {
    CHECKPOINT_FILE: "a2384523874049ad655a3fe06f31119b5bf8eef1a7bc9f98d3ddc2481f088ffe",
    COUNTS_FILE: "3dfd1d0078c0d3b6dd0d131b5a23da7fb6a3c676a8630e3df526fe664ef03809",
    KL_FILE: "a08cfc5009c9f8187197f6139332359b6d9332a7cad6831921dd6b6c7a2679b6",
    TRACE_FILE: "b4570c6eba7cc334d9d3da5cd117268371e6a1134b29b219673cc162231b5252",
    PRUNE_FILE: "78c560c2f5285ca9b0b26a4078a1cb1e41b05de24848e5098da61ede3d6ef566",
}
PINNED_DIGESTS = {
    "id_free": {
        **SHARED_DIGESTS,
        MATRIX_FILE: "d08cbaf35968585767d6a3f64361c48e9e105de571d7c02334fdc0f4a947a5a1",
        CONFIG_FILE: "1cfb31def31fb50bb09e12a1da3b8321cbe9d57f0c3a6bbf76373675ca87f0de",
        AUDIT_FILE: "254c5e596783e7c940f4d13aeda3c4466f47cf274d32ed37b7894c6ff7e3170f",
        METRICS_FILE: "ffdb1433d423ab2d54854a3a93ec8737e1263dba28126b5c4452d985dd50c690",
        SUMMARY_FILE: "6a0e9401880bc03b3c50b2319fb74e7543e91c4392225adcf3036eead24b745b",
    },
    "id_given": {
        **SHARED_DIGESTS,
        MATRIX_FILE: "6f04daca2601d82141b75bb69295f740aa5edf7dcd577e5127ec8946c93d335d",
        CONFIG_FILE: "4767ad704106d312c0ad892235fa746208bfa32626fcf3ff8b27e70cb92a7801",
        METRICS_FILE: "3154225ba8af9e4d1be8360fe1a66df776f6675cb79b52a6e591fd766ba68e76",
        SUMMARY_FILE: "7ffb0c2623d51460da9a34d88236133f121a002d6952d6be8d399ffec125816e",
    },
}

DENSE_AUDIT_DIGEST = "4ab074f75aae1b101cde7ac8fcd6a040e9f270764bf688bbfdd750c3337e964a"
V2_CHECKPOINT_DIGEST = "64365dafbdb3bc05bb94f1135052b277b401ae552c20e365e3ab4fd8e0716761"


@pytest.mark.parametrize("protocol,cil,window", [("id_free", True, 3), ("id_given", False, 1)])
def test_run_directory_is_pinned(tmp_path, protocol, cil, window):
    run_experiment(config_from_dict(pinned_raw(protocol, cil, window)), tmp_path / "run")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (tmp_path / "run").iterdir()}
    assert got == PINNED_DIGESTS[protocol]
    model, bank, meta = load_checkpoint(tmp_path / "run" / CHECKPOINT_FILE)
    v2 = save_checkpoint_v2(tmp_path / "v2.json", model, bank, meta)
    assert hashlib.sha256(v2.read_bytes()).hexdigest() == V2_CHECKPOINT_DIGEST
    if protocol == "id_free":
        dense = "".join(json.dumps(rec, sort_keys=True) + "\n"
                        for rec in read_audit(tmp_path / "run"))
        assert hashlib.sha256(dense.encode()).hexdigest() == DENSE_AUDIT_DIGEST
