"""Checks of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from subnet_unlearn import cli, engine  # noqa: E402

# Small and failure-free: every method completes every request at seeds 5 and 6.
# derpp is left out because it diverges at the default learning rate.
SMALL = bench.Workload("small", tuple(m for m in engine.METHODS if m != "derpp"),
                       dict(tasks=4, unlearns=2),
                       dict(hidden=(16, 16), epochs=2, n_retrain=20), plan=2)
SMALL_FLAGS = ["--tasks", "4", "--unlearns", "2", "--hidden", "16,16", "--epochs", "2",
               "--n-retrain", "20"]
SEEDS = (5, 6)


def _inputs(wl, seeds):
    """Units as ``subnet-unlearn run`` would make them: one seed for everything."""
    sc = wl.make_scenario()
    return [(s, sc.suite_for_seed(s), sc.sequence_for_seed(s)) for s in seeds]


def _outputs(wl, inputs):
    out = bench.Outputs(wl.methods)
    for seed, suite, sequence in inputs:
        out.add(bench.run_unit(wl, seed, suite, sequence))
    return out


@pytest.fixture(scope="module")
def small_inputs():
    return _inputs(SMALL, SEEDS)


@pytest.fixture(scope="module")
def pkg():
    return run.import_package()


def test_hashed_outputs_equal_cli_run_files(small_inputs, tmp_path):
    out = _outputs(SMALL, small_inputs)
    assert out.failures == []
    for method in SMALL.methods:
        outdir = tmp_path / method
        code = cli.main(["run", "--method", method, "--master-seed", str(SEEDS[0]),
                         "--seeds", str(len(SEEDS)), "--outdir", str(outdir)] + SMALL_FLAGS)
        assert code == 0
        assert (outdir / "results.csv").read_bytes() == out.results_csv(method)
        assert (outdir / "trace.jsonl").read_bytes() == out.trace_jsonl(method)


def test_tracing_keeps_outputs_and_unwraps(small_inputs, pkg):
    targets = tracer_mod.package_targets(**pkg)
    before = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    plain = _outputs(SMALL, small_inputs).digest()
    t = tracer_mod.Tracer(targets)
    with t:
        assert len(t.leftover_wrappers()) == len(targets)
        traced = _outputs(SMALL, small_inputs).digest()
    assert traced == plain
    assert t.leftover_wrappers() == []
    assert [owner.__dict__[attr] for owner, attr, _, _ in targets] == before
    assert t.calls[tracer_mod.REQUEST] == sum(
        len(seq) for _, _, seq in small_inputs) * len(SMALL.methods)


def test_self_times_cover_request_time(pkg):
    sc = SMALL.make_scenario()
    inputs = [bench.unit_inputs(sc, s) for s in SEEDS]
    values, check, _ = run.measure_traced(bench, tracer_mod, pkg, SMALL, inputs, 1e9)
    assert check["units"] == len(SEEDS)
    assert check["digest_mismatch_seeds"] == [] and check["leftover_wrappers"] == []
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert set(names) <= set(values)
    # Every listed layer runs in this workload, so none may read zero.
    assert all(values[n] > 0 for n in names if n.endswith(".self_s"))
    # The listed self times leave only process_request's own bookkeeping.
    assert 0 <= values["trace.residue_frac"] < 0.02


def test_failure_fails_rest_of_sequence():
    wl = bench.WORKLOADS["dense-baselines"]
    [(seed, suite, sequence)] = _inputs(wl, [bench.VERIFY_SEED])
    r = bench.run_method(wl, "derpp", seed, suite, sequence)
    [f] = r.failures
    assert f["error"] in ("ValueError", "FloatingPointError")
    assert r.failed == len(sequence) - f["index"] > 0
    assert len(r.learn_s) + len(r.unlearn_s) == f["index"]
    assert r.row is None
    tally = bench.Tally()
    tally.add([r])
    assert (tally.attempted, tally.failed) == (len(sequence), r.failed)


def test_audit_problem_fails_whole_sequence(small_inputs, monkeypatch):
    monkeypatch.setattr(engine, "audit_learner", lambda learner: ["planted problem"])
    seed, suite, sequence = small_inputs[0]
    r = bench.run_method(SMALL, "subnet", seed, suite, sequence)
    assert r.audit_failed and r.failed == r.attempted == len(sequence)
    tally = bench.Tally()
    tally.add([r])
    assert tally.steps == 0 and tally.learn_s == [] and tally.failed == len(sequence)


def _run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_result_line_lists_every_end_to_end_metric():
    proc = _run_cli(ROOT, "--workload", "unlearn-heavy", "--seed", "3", "--seconds", "0",
                    "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_digest_mismatch_fails_the_run(capsys):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    args = argparse.Namespace(workload="unlearn-heavy", seed=3, seconds=0, trace=0)
    assert run.run_workload(args, spec, {"unlearn-heavy": "0" * 64}) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "wide-learn", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
