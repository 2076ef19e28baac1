"""Workloads, the unit of work the benchmark times, and the outputs it checks.

A unit is one seed's request sequence run by every method of a workload.
Each request is one ``engine.process_request`` call, timed on its own, so a
request time includes that request's accuracy row.  A request that raises
one of ``FAILURES`` fails together with every later request of its
sequence; an exact method whose unlearning audit finds a problem fails its
whole sequence.  Completed sequences yield the ``results.csv`` row and the
``trace.jsonl`` lines that ``subnet-unlearn run`` writes for that seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from subnet_unlearn import cli, engine, metrics, scenario
from subnet_unlearn.masking import CapacityError

FAILURES = (ValueError, FloatingPointError, CapacityError)

# Seed of the request sequence every measured unit replays.
SEQUENCE_SEED = 0

# Seed of the unit whose output digest digests.json records.  At this seed
# the derpp sequence of dense-baselines raises, so that digest also covers
# a failure record.
VERIFY_SEED = 43


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]
    scenario: dict  # Scenario fields other than the seed
    hyper: dict     # Hyperparams fields that differ from the defaults
    plan: int       # units generated at set-up; a run measures at most this many

    def make_scenario(self) -> scenario.Scenario:
        # The seed field is unused: suites and sequences come from
        # suite_for_seed and sequence_for_seed, as in cmd_run.
        return scenario.Scenario(0, **self.scenario)

    def hyperparams(self) -> engine.Hyperparams:
        return engine.Hyperparams(**self.hyper)


WORKLOADS = {w.name: w for w in (
    Workload("wide-learn", ("subnet",),
             dict(tasks=10, unlearns=3, input_dim=32, train_per_class=64),
             dict(hidden=(256, 256), epochs=1), plan=24),
    Workload("unlearn-heavy", ("subnet",),
             dict(tasks=10, unlearns=8),
             dict(epochs=2, n_retrain=200, buffer_total=2000), plan=48),
    Workload("dense-baselines",
             ("independent", "static_sparse", "dynamic_sparse", "sequential", "er", "derpp"),
             dict(tasks=5, unlearns=3), {}, plan=24),
)}


@dataclass
class MethodRun:
    """One method's pass over one seed's sequence."""

    method: str
    seed: int
    attempted: int
    failed: int = 0
    learn_s: list = field(default_factory=list)    # completed learn request times
    unlearn_s: list = field(default_factory=list)  # completed unlearn request times
    steps: int = 0          # optimizer steps of completed requests, from inputs
    retrain_steps: int = 0  # the part of ``steps`` spent by unlearn requests
    reset_entries: int = 0  # sum of RetrainEvent.reset_count
    shared_entries: int = 0  # sum of RetrainEvent.shared_count
    row: list | None = None  # results.csv row; None when the sequence failed
    trace_lines: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    audit_failed: bool = False


def _unlearn_steps(learner, hp: engine.Hyperparams) -> int:
    if learner.method in ("er", "derpp"):
        return hp.n_retrain
    if isinstance(learner, engine.MaskedLearner):
        return learner.retrain_events[-1].steps
    return 0


def _fail(run: MethodRun, index, request, error: str, **extra) -> MethodRun:
    run.failures.append(dict(method=run.method, seed=run.seed, index=index,
                             request=request, error=error, **extra))
    return run


def run_method(wl: Workload, method: str, seed: int, suite, sequence) -> MethodRun:
    hp = wl.hyperparams()
    run = MethodRun(method, seed, attempted=len(sequence))
    learner = engine.make_learner(method, suite, hp, seed)
    matrix = metrics.AccuracyMatrix()
    matrix.append(None, [], {})  # pre-run row, as run_sequence writes it
    learn_steps_per_epoch = {t: math.ceil(d.x_train.shape[0] / hp.batch_size)
                             for t, d in suite.tasks.items()}
    for i, request in enumerate(sequence):
        t0 = time.perf_counter()
        try:
            engine.process_request(learner, request, suite, matrix)
        except FAILURES as e:
            run.failed = len(sequence) - i
            return _fail(run, i, str(request), type(e).__name__)
        dt = time.perf_counter() - t0
        if request.kind == "learn":
            run.learn_s.append(dt)
            run.steps += hp.epochs * learn_steps_per_epoch[request.task]
        else:
            run.unlearn_s.append(dt)
            steps = _unlearn_steps(learner, hp)
            run.steps += steps
            run.retrain_steps += steps
    if method in engine.EXACT_METHODS:
        problems = engine.audit_learner(learner)
        if problems:
            run.failed = len(sequence)
            run.audit_failed = True
            return _fail(run, None, None, "audit", problems=problems)
    run.reset_entries = sum(e.reset_count for e in learner.retrain_events)
    run.shared_entries = sum(e.shared_count for e in learner.retrain_events)
    mask_count = (len(learner.registry.masks)
                  if isinstance(learner, engine.MaskedLearner) else 0)
    report = metrics.build_report(
        method, seed, wl.scenario["tasks"], wl.scenario["unlearns"], matrix,
        learner.retrain_events, learner.arch.d, mask_count, len(learner.omega))
    run.row = [report.method, report.task_count, report.unlearn_count, seed,
               report.acc_learned, report.acc_unlearned, report.forget_learned,
               report.forget_unlearned, report.forget_unlearned_max,
               report.model_size_bytes, report.retrain_ratio,
               report.retrain_mean_abs_diff]
    run.trace_lines = [json.dumps(
        {"seed": seed, "index": i,
         "request": str(row.request) if row.request else None,
         "omega": row.omega,
         "acc": {str(t): list(c) for t, c in sorted(row.acc.items())}},
        sort_keys=True) for i, row in enumerate(matrix.rows)]
    return run


def unit_inputs(sc: scenario.Scenario, seed: int):
    """Inputs of the unit at ``seed``: its suite and learner draws come from
    the seed, its request sequence from SEQUENCE_SEED.  Every unit thus
    replays the same learn/unlearn positions, whose costs differ by an order
    of magnitude (an unlearn retrains over every later task's buffer), so a
    percentile does not depend on how many units a run manages."""
    return seed, sc.suite_for_seed(seed), sc.sequence_for_seed(SEQUENCE_SEED)


def run_unit(wl: Workload, seed: int, suite, sequence) -> list[MethodRun]:
    return [run_method(wl, m, seed, suite, sequence) for m in wl.methods]


def best_of(first: list[MethodRun], second: list[MethodRun]) -> list[MethodRun]:
    """The runs of ``first`` with each request time replaced by the lower of
    its two timings.  Both lists must come from the same unit."""
    return [replace(a, learn_s=list(map(min, a.learn_s, b.learn_s)),
                    unlearn_s=list(map(min, a.unlearn_s, b.unlearn_s)))
            for a, b in zip(first, second, strict=True)]


def _fmt(v) -> str:
    """A results.csv cell, formatted as cmd_run formats it."""
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


class Outputs:
    """Per method, the results.csv and trace.jsonl of the units added so far,
    plus the failure records; the digest hashes all three."""

    def __init__(self, methods):
        self.methods = tuple(methods)
        self.rows = {m: [] for m in self.methods}
        self.trace = {m: [json.dumps({"schema": cli.TRACE_SCHEMA, "method": m},
                                     sort_keys=True)] for m in self.methods}
        self.failures: list[dict] = []

    def add(self, runs) -> None:
        for run in runs:
            if run.row is not None:
                self.rows[run.method].append(run.row)
                self.trace[run.method].extend(run.trace_lines)
            self.failures.extend(run.failures)

    def results_csv(self, method: str) -> bytes:
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(cli.CSV_COLUMNS)
        for row in self.rows[method]:
            w.writerow([_fmt(v) for v in row])
        return buf.getvalue().encode()

    def trace_jsonl(self, method: str) -> bytes:
        return ("\n".join(self.trace[method]) + "\n").encode()

    def digest(self) -> str:
        h = hashlib.sha256()
        for m in self.methods:
            h.update(self.results_csv(m))
            h.update(self.trace_jsonl(m))
        for f in self.failures:
            h.update(json.dumps(f, sort_keys=True).encode() + b"\n")
        return h.hexdigest()


# Fewest samples a percentile is computed from: ten beyond it.
PERCENTILE_FLOOR = {50: 20, 90: 100}


@dataclass
class Tally:
    """Request times, steps and failures summed over measured units."""

    units: int = 0
    attempted: int = 0
    failed: int = 0
    steps: int = 0
    learn_s: list = field(default_factory=list)
    unlearn_s: list = field(default_factory=list)

    def add(self, runs) -> None:
        self.units += 1
        for r in runs:
            self.attempted += r.attempted
            self.failed += r.failed
            if not r.audit_failed:
                self.steps += r.steps
                self.learn_s += r.learn_s
                self.unlearn_s += r.unlearn_s

    @property
    def request_s(self) -> float:
        return sum(self.learn_s) + sum(self.unlearn_s)

    def has_floor(self, needs: dict) -> bool:
        """needs maps 'learn'/'unlearn' to a percentile that must be computable."""
        return all(len(getattr(self, f"{kind}_s")) >= PERCENTILE_FLOOR[q]
                   for kind, q in needs.items())

    def percentile_ms(self, kind: str, q: int) -> float | None:
        samples = getattr(self, f"{kind}_s")
        if len(samples) < PERCENTILE_FLOOR[q]:
            return None
        return 1000.0 * float(np.percentile(samples, q))
