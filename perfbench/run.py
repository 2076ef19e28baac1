"""Request-level benchmark of subnet-unlearn's learn and unlearn requests.

Usage, from the repository root:

    python3 perfbench/run.py --workload wide-learn --seed 1 --seconds 28 --trace 0

``--workload`` is one of ``bench.WORKLOADS`` or ``all`` (each workload in
turn, each in its own child process so that peak RSS stays per workload).
The run sets up its inputs, checks the outputs of the pinned unit
``bench.VERIFY_SEED`` against ``digests.json``, then measures units at seeds
``seed, seed+1, ...`` for ``--seconds`` seconds (longer if a percentile
still lacks samples).  ``--trace 0`` runs the units in two passes, keeps
the lower of each request's two timings and reports the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` runs every unit once plain and once traced,
checks that both give the same digest, and reports the per-layer metrics.
The last line of standard output is the result as one JSON object; the
exit code is 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# Timed in a fresh interpreter, so every set-up repeat pays the full import.
IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import subnet_unlearn.cli, subnet_unlearn.engine, subnet_unlearn.metrics, subnet_unlearn.scenario
print(time.perf_counter() - t0)
"""


def import_package():
    """The package modules, imported from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import subnet_unlearn
        from subnet_unlearn import engine, metrics, net, rehearsal, rng, scenario
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import subnet_unlearn from {SRC}: {e}")
    if Path(subnet_unlearn.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: subnet_unlearn was loaded from {subnet_unlearn.__file__}, "
                         f"not from {SRC}")
    return dict(engine=engine, net=net, rehearsal=rehearsal, rng=rng,
                scenario=scenario, metrics=metrics)


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(np, seeds) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_threads": blas_threads(),
            "blas_env": {v: os.environ[v] for v in BLAS_THREAD_VARS}, "seeds": seeds}


def set_up(bench, wl, seed):
    """Median over repeats of (package import in a fresh interpreter +
    suite and sequence generation for every planned unit); returns it with
    the inputs of the last repeat."""
    samples = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True, timeout=120)
        inputs = None  # keep one copy of the inputs alive, not two
        t0 = time.perf_counter()
        sc = wl.make_scenario()
        inputs = [bench.unit_inputs(sc, seed + k) for k in range(wl.plan)]
        samples.append(float(probe.stdout) + time.perf_counter() - t0)
    return statistics.median(samples), inputs


def percentile_needs(names) -> dict:
    """Highest percentile per request kind that the reported metrics need."""
    needs: dict = {}
    for name in names:
        m = re.fullmatch(r"(learn|unlearn)_ms\.p(\d+)", name)
        if m:
            needs[m[1]] = max(needs.get(m[1], 0), int(m[2]))
    return needs


def unit_digest(bench, wl, runs) -> str:
    out = bench.Outputs(wl.methods)
    out.add(runs)
    return out.digest()


def measure(bench, wl, inputs, seconds, needs):
    """Two passes over the same units, each about half of ``seconds``; a
    request's time is the lower of its two timings.  The passes lie half a
    run apart, so a slowdown that another tenant of the machine causes for a
    few seconds rarely hits both timings of one request."""
    first = []
    tally = bench.Tally()
    start = time.perf_counter()
    for seed, suite, sequence in inputs:
        if time.perf_counter() - start >= seconds / 2 and tally.has_floor(needs):
            break
        first.append(bench.run_unit(wl, seed, suite, sequence))
        tally.add(first[-1])
    if not tally.has_floor(needs):
        raise SystemExit(f"perfbench: {wl.plan} planned units gave too few requests "
                         f"for percentiles {needs}")
    tally = bench.Tally()
    outputs = bench.Outputs(wl.methods)
    repeat_mismatch = []
    for (seed, suite, sequence), runs in zip(inputs, first):
        again = bench.run_unit(wl, seed, suite, sequence)
        if unit_digest(bench, wl, again) != unit_digest(bench, wl, runs):
            repeat_mismatch.append(seed)
        tally.add(bench.best_of(runs, again))
        outputs.add(runs)
    audit_failed = any(r.audit_failed for runs in first for r in runs)
    return tally, outputs, audit_failed, repeat_mismatch


def end_to_end(bench, tally, setup_s) -> dict:
    values = {"setup_s": setup_s}
    for kind in ("learn", "unlearn"):
        for q in bench.PERCENTILE_FLOOR:
            v = tally.percentile_ms(kind, q)
            if v is not None:
                values[f"{kind}_ms.p{q}"] = v
    values["steps_per_s"] = tally.steps / tally.request_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["failed_frac"] = tally.failed / tally.attempted
    values["completed_frac"] = 1.0 - values["failed_frac"]
    return values


def measure_traced(bench, tracer_mod, pkg, wl, inputs, seconds):
    """Run each unit plain and traced, alternating which goes first."""
    tracer = tracer_mod.Tracer(tracer_mod.package_targets(**pkg))
    plain_s = traced_s = 0.0
    retrain_steps = reset = shared = units = attempted = failed = 0
    mismatched = []
    audit_failed = False
    start = time.perf_counter()
    for k, unit in enumerate(inputs):
        if time.perf_counter() - start >= seconds and units:
            break

        def plain():
            return bench.run_unit(wl, *unit)

        def traced():
            # Regenerated under the tracer, so that set-up work gets spans too.
            with tracer:
                return bench.run_unit(wl, *bench.unit_inputs(wl.make_scenario(), unit[0]))

        order = (plain, traced) if k % 2 == 0 else (traced, plain)
        got = {f: f() for f in order}
        if unit_digest(bench, wl, got[plain]) != unit_digest(bench, wl, got[traced]):
            mismatched.append(unit[0])
        plain_s += sum(sum(r.learn_s) + sum(r.unlearn_s) for r in got[plain])
        traced_s += sum(sum(r.learn_s) + sum(r.unlearn_s) for r in got[traced])
        for r in got[traced]:
            attempted += r.attempted
            failed += r.failed
            retrain_steps += r.retrain_steps
            reset += r.reset_entries
            shared += r.shared_entries
            audit_failed |= r.audit_failed
        units += 1

    values = {f"{g}.self_s": s / units for g, s in tracer.self_s.items()}
    values.update({f"{g}.calls": c / units for g, c in tracer.calls.items()})
    values.update({name: c / units for name, c in tracer.counts.items()})
    values["masking.shared_per_reset"] = shared / reset if reset else 0.0
    values["masking.reset_entries"] = reset / units
    values["engine.retrain_steps"] = retrain_steps / units
    # What no listed self time covers: process_request's own bookkeeping.
    listed = sum(s for g, s in tracer.self_s.items() if g not in tracer_mod.ROOTS)
    values["trace.request_s"] = tracer.request_s / units
    values["trace.residue_frac"] = (tracer.request_s - listed) / tracer.request_s
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    check = {"units": units, "attempted": attempted, "failed": failed,
             "spans": tracer.span_count, "digest_mismatch_seeds": mismatched,
             "leftover_wrappers": tracer.leftover_wrappers(), "audit_failed": audit_failed}
    return values, check, tracer


def run_workload(args, spec, recorded) -> int:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    pkg = import_package()
    import numpy as np

    import bench
    import tracer as tracer_mod

    wl = bench.WORKLOADS[args.workload]
    setup_s, inputs = set_up(bench, wl, args.seed)

    sc = wl.make_scenario()
    verify_runs = bench.run_unit(wl, bench.VERIFY_SEED, sc.suite_for_seed(bench.VERIFY_SEED),
                                 sc.sequence_for_seed(bench.VERIFY_SEED))
    checks = {"verify_seed": bench.VERIFY_SEED,
              "verify_digest": unit_digest(bench, wl, verify_runs),
              "recorded_digest": recorded.get(wl.name),
              "verify_failures": [f for r in verify_runs for f in r.failures],
              "verify_audit_failed": any(r.audit_failed for r in verify_runs)}
    correct = (checks["verify_digest"] == checks["recorded_digest"]
               and not checks["verify_audit_failed"])

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, traced_check, tracer = measure_traced(bench, tracer_mod, pkg, wl, inputs,
                                                      args.seconds)
        checks.update(traced_check)
        correct &= not (traced_check["digest_mismatch_seeds"] or traced_check["leftover_wrappers"]
                        or traced_check["audit_failed"])
        tracer.write_spans(OUT / f"spans-{stem}.npz")
        wanted = spec["per_layer"]
        attempted, failed = traced_check["attempted"], traced_check["failed"]
        units_run = traced_check["units"]
    else:
        tally, outputs, audit_failed, repeat_mismatch = measure(
            bench, wl, inputs, args.seconds,
            percentile_needs(m["name"] for m in spec["end_to_end"]))
        values = end_to_end(bench, tally, setup_s)
        checks.update(units=tally.units, learns=len(tally.learn_s),
                      unlearns=len(tally.unlearn_s), run_digest=outputs.digest(),
                      failures=outputs.failures, measured_audit_failed=audit_failed,
                      digest_mismatch_seeds=repeat_mismatch)
        correct &= not (audit_failed or repeat_mismatch)
        wanted = spec["end_to_end"]
        attempted, failed = tally.attempted, tally.failed
        units_run = tally.units

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: no value for {missing}")
    unit_of = {m["name"]: m["unit"] for m in wanted}
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, v in sorted(values.items()):
        print(f"  {name:<36} {v:>14.6g} {unit_of.get(name, '')}")
    for key in ("verify_digest", "recorded_digest", "units", "learns", "unlearns", "spans",
                "digest_mismatch_seeds", "leftover_wrappers"):
        if key in checks:
            print(f"  {key}: {checks[key]}")
    for f in checks.get("failures", []) + checks["verify_failures"]:
        print(f"  failure: {json.dumps(f, sort_keys=True)}")
    env = environment(np, [seed for seed, _, _ in inputs[:units_run]])
    print("env: " + json.dumps(env, sort_keys=True))
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    with open(OUT / f"result-{stem}.json", "w") as fh:
        json.dump(dict(result, env=env, checks=checks, all_values=values), fh,
                  indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args, names) -> int:
    """Each workload in a child process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if not lines or proc.returncode not in (0, 1):
            merged["correct"] = False
            continue
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(HERE / "digests.json") as fh:
        recorded = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        p.error(f"--workload must be one of {names} or all")
    return run_workload(args, spec, recorded)


if __name__ == "__main__":
    sys.exit(main())
