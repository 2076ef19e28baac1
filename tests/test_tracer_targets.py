"""Every function the benchmark tracer (perfbench/tracer.py) wraps still
exists under the name it wraps, so a rename or a moved lookup in the
package fails here and not only inside `perfbench --trace 1`."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
from subnet_unlearn import engine, metrics, net, rehearsal, rng, scenario  # noqa: E402


def test_every_tracer_target_is_an_attribute_of_its_owner():
    targets = tracer.package_targets(engine, net, rehearsal, rng, scenario, metrics)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
               if not callable(owner.__dict__.get(attr))]
    assert targets and missing == []
