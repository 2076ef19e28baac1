"""End-to-end command line tests, run in-process via cli.main()."""

import csv
import json
import shutil
import subprocess
import sys
from dataclasses import fields

import pytest

from subnet_unlearn import checkpoint as ckpt
from subnet_unlearn import cli
from subnet_unlearn.metrics import MetricReport

FAST_RUN = ["--tasks", "2", "--unlearns", "1", "--input-dim", "4",
            "--train-per-class", "8", "--test-per-class", "8",
            "--epochs", "1", "--batch-size", "8", "--hidden", "8",
            "--buffer-total", "8", "--n-retrain", "2", "--master-seed", "7"]


def run_cli(*argv):
    return cli.main(list(argv))


# ------------------------------------------------------------ gen-scenario --

def test_gen_scenario_writes_valid_file(tmp_path, capsys):
    path = tmp_path / "sc.txt"
    rc = run_cli("gen-scenario", "--seed", "3", "--tasks", "4", "--unlearns", "2",
                 "-o", str(path))
    assert rc == 0
    assert "4 tasks, 2 unlearns, sequence valid" in capsys.readouterr().out
    text = path.read_text()
    assert "tasks = 4" in text and text.count("learn") >= 4


def test_gen_scenario_regeneration_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        assert run_cli("gen-scenario", "--seed", "9", "--tasks", "5",
                       "--unlearns", "3", "-o", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_scenario_stdout_default(capsys):
    assert run_cli("gen-scenario", "--seed", "1", "--tasks", "2",
                   "--unlearns", "0") == 0
    assert "sequence" in capsys.readouterr().out


def test_gen_scenario_rejects_too_many_unlearns(capsys):
    rc = run_cli("gen-scenario", "--seed", "1", "--tasks", "5", "--unlearns", "6")
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_gen_scenario_requires_counts():
    with pytest.raises(SystemExit) as e:
        run_cli("gen-scenario", "--seed", "1")
    assert e.value.code == 2


# -------------------------------------------------------------------- run --

def test_run_writes_results_trace_and_timings(tmp_path, capsys):
    rc = run_cli("run", "--method", "subnet", "--seeds", "2",
                 "--outdir", str(tmp_path), *FAST_RUN)
    assert rc == 0
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli.CSV_COLUMNS
    assert len(rows) == 3  # header + one row per seed
    assert {r[0] for r in rows[1:]} == {"subnet"}
    assert [r[3] for r in rows[1:]] == [r[3] for r in rows[1:]]  # seed column filled
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    assert head == {"schema": cli.TRACE_SCHEMA, "method": "subnet"}
    body = [json.loads(l) for l in lines[1:]]
    assert all(set(d) == {"seed", "index", "request", "omega", "acc"} for d in body)
    with open(tmp_path / "timings.csv", newline="") as fh:
        timing_rows = list(csv.reader(fh))
    assert timing_rows[0] == ["seed", "runtime_s"] and len(timing_rows) == 3
    assert "A_l" in capsys.readouterr().out


def test_metric_report_fields_are_in_csv_column_order():
    # cmd_run writes astuple(report) under CSV_COLUMNS, so reordering the
    # report's fields would silently swap CSV columns.
    assert [f.name for f in fields(MetricReport)] == [
        "method", "task_count", "unlearn_count", "seed", "acc_learned",
        "acc_unlearned", "forget_learned", "forget_unlearned",
        "forget_unlearned_max", "model_size_bytes", "retrain_ratio",
        "retrain_mean_abs_diff"]
    assert len(fields(MetricReport)) == len(cli.CSV_COLUMNS)


def test_run_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        assert run_cli("run", "--method", "derpp", "--seeds", "2",
                       "--outdir", str(out), *FAST_RUN) == 0
    for name in ("results.csv", "trace.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_from_scenario_file(tmp_path):
    path = tmp_path / "sc.txt"
    assert run_cli("gen-scenario", "--seed", "5", "--tasks", "2", "--unlearns", "1",
                   "--input-dim", "4", "--train-per-class", "8",
                   "--test-per-class", "8", "-o", str(path)) == 0
    rc = run_cli("run", "--method", "sequential", "--scenario", str(path),
                 "--epochs", "1", "--hidden", "8", "--outdir", str(tmp_path))
    assert rc == 0


def test_run_missing_scenario_file_is_exit_2(tmp_path, capsys):
    rc = run_cli("run", "--method", "subnet", "--scenario",
                 str(tmp_path / "nope.txt"), "--outdir", str(tmp_path))
    assert rc == 2
    assert "cannot read scenario" in capsys.readouterr().err


def test_run_scenario_and_inline_flags_conflict(tmp_path):
    assert run_cli("run", "--method", "subnet", "--scenario", "x", "--tasks", "2",
                   "--outdir", str(tmp_path)) == 2


def test_run_capacity_exhaustion_is_exit_3(tmp_path, capsys):
    rc = run_cli("run", "--method", "static_sparse", "--alpha", "0.9",
                 "--outdir", str(tmp_path), *FAST_RUN)
    assert rc == 3
    assert "capacity" in capsys.readouterr().err


def test_run_audit_failure_is_exit_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.eng, "audit_learner",
                        lambda learner: ["task 1: residue"])
    rc = run_cli("run", "--method", "subnet", "--outdir", str(tmp_path), *FAST_RUN)
    assert rc == 4
    assert "audit: task 1: residue" in capsys.readouterr().err


@pytest.mark.parametrize("seed, error", [(43, "ValueError: non-finite logits"),
                                         (44, "FloatingPointError: non-finite gradient")])
def test_run_divergence_is_exit_5(seed, error, tmp_path, capsys):
    rc = run_cli("run", "--method", "derpp", "--tasks", "5", "--unlearns", "3",
                 "--master-seed", str(seed), "--outdir", str(tmp_path))
    assert rc == 5
    assert capsys.readouterr().err == f"seed {seed}: {error}\n"


def test_run_checkpoint_round_trips(tmp_path):
    assert run_cli("run", "--method", "independent", "--checkpoint",
                   "--outdir", str(tmp_path), *FAST_RUN) == 0
    path = tmp_path / "checkpoint_independent_7.bin"
    assert path.exists()
    learner = ckpt.load_checkpoint(path)
    assert learner.method == "independent" and learner.omega == [1]


def test_run_bad_hidden_is_exit_2(tmp_path):
    # After FAST_RUN so the bad value is the one argparse keeps (last wins).
    assert run_cli("run", "--method", "subnet", "--outdir", str(tmp_path),
                   *FAST_RUN, "--hidden", "64,x") == 2


def test_run_bad_hyperparams_is_exit_2(tmp_path):
    assert run_cli("run", "--method", "subnet", "--outdir", str(tmp_path),
                   *FAST_RUN, "--epochs", "0") == 2


@pytest.mark.parametrize("method,flags,message", [
    ("subnet", ("--tasks", "5", "--buffer-total", "2"),
     "--buffer-total: budget 2 leaves no slot per task for 5 tasks"),
    ("er", ("--buffer-total", "-5"), "buffer_total must be >= 0"),
    ("subnet", ("--hidden", "0"), "bad --hidden '0', expected e.g. 64,64"),
    ("sequential", ("--hidden", ","), "bad --hidden ',', expected e.g. 64,64"),
], ids=["budget-below-tasks", "negative-budget", "zero-width-hidden", "empty-hidden"])
def test_run_invalid_flag_is_one_line_exit_2(method, flags, message, tmp_path, capsys):
    assert run_cli("run", "--method", method, "--outdir", str(tmp_path),
                   *FAST_RUN, *flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_run_budget_is_not_checked_for_methods_without_buffers(tmp_path):
    # static_sparse keeps no replay buffer, so a budget below --tasks is moot.
    assert run_cli("run", "--method", "static_sparse", "--outdir", str(tmp_path),
                   *FAST_RUN, "--buffer-total", "1") == 0


def test_run_unknown_method_is_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as e:
        run_cli("run", "--method", "mystery", "--outdir", str(tmp_path), *FAST_RUN)
    assert e.value.code == 2


# ----------------------------------------------------------------- report --

def test_report_merges_and_writes_csv(tmp_path, capsys):
    for method, sub in (("subnet", "a"), ("er", "b")):
        assert run_cli("run", "--method", method, "--seeds", "2",
                       "--outdir", str(tmp_path / sub), *FAST_RUN) == 0
    capsys.readouterr()
    agg_path = tmp_path / "agg.csv"
    rc = run_cli("report", str(tmp_path / "a" / "results.csv"),
                 str(tmp_path / "b" / "results.csv"), "--output", str(agg_path))
    assert rc == 0
    out = capsys.readouterr().out
    assert "A_l[%]" in out and "subnet" in out and "er" in out
    with open(agg_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} == {"er", "subnet"}
    assert all(r["seeds"] == "2" for r in rows)
    for r in rows:
        assert 0.0 <= float(r["A_l_mean"]) <= 100.0
        assert float(r["A_l_min"]) <= float(r["A_l_mean"])


def test_report_rejects_malformed_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("method,T\nx,1\n")
    assert run_cli("report", str(bad)) == 2
    assert "unexpected columns" in capsys.readouterr().err


def test_report_missing_file_is_exit_2(tmp_path):
    assert run_cli("report", str(tmp_path / "absent.csv")) == 2


# -------------------------------------------------------------- selfcheck --

def test_selfcheck_filtered_passes(capsys):
    assert run_cli("selfcheck", "--filter", "topk") == 0
    out = capsys.readouterr().out
    assert "ok   topk_ties" in out and "1 checks passed" in out


def test_selfcheck_failure_is_exit_1(capsys, monkeypatch):
    from subnet_unlearn import selfcheck

    def boom():
        raise AssertionError("synthetic breakage")

    monkeypatch.setattr(selfcheck, "CHECKS", [("boom", boom)])
    assert run_cli("selfcheck") == 1
    captured = capsys.readouterr()
    assert "selfcheck failed: boom: synthetic breakage" in captured.err


# ------------------------------------------------------------- entrypoint --

def test_console_help_via_subprocess():
    exe = shutil.which("subnet-unlearn")
    argv = [exe, "--help"] if exe else [sys.executable, "-m", "subnet_unlearn.cli",
                                        "--help"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-scenario" in proc.stdout and "selfcheck" in proc.stdout
