"""The pinned unit of every benchmark workload still produces the output
digest recorded in perfbench/digests.json: the results.csv rows, the trace
lines and the failure records, byte for byte."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import bench  # noqa: E402

RECORDED = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_pinned_unit_reproduces_recorded_digest(name):
    wl = bench.WORKLOADS[name]
    sc = wl.make_scenario()
    seed = bench.VERIFY_SEED
    outputs = bench.Outputs(wl.methods)
    outputs.add(bench.run_unit(wl, seed, sc.suite_for_seed(seed), sc.sequence_for_seed(seed)))
    assert outputs.digest() == RECORDED[name]
