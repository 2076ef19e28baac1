"""Accuracy bookkeeping and the evaluation measures derived from it.

Accuracies are stored as exact integer fractions (correct, total) so a
metric recomputed from a saved trace is bit-stable.  Reported metrics are
percentage points:

* ``acc_learned``   - final mean accuracy over still-learned tasks
* ``acc_unlearned`` - final mean accuracy over unlearned tasks
* ``forget_learned``   - per learning request after the first, the mean
  accuracy drop of previously learned tasks, averaged over those requests
* ``forget_unlearned`` - per unlearning request, the mean drop of the tasks
  that remain learned, averaged over unlearning requests
* ``forget_unlearned_max`` - worst single remaining-task drop at any
  unlearning request
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import Request


@dataclass
class MatrixRow:
    request: Request | None          # None for the pre-run row
    omega: list[int]                 # learned set right after the request
    acc: dict[int, tuple[int, int]]  # task -> (correct, total); absent = never seen


class AccuracyMatrix:
    """One row per request (row 0 is the pre-run state)."""

    def __init__(self):
        self.rows: list[MatrixRow] = []

    def append(self, request, omega, acc) -> None:
        self.rows.append(MatrixRow(request, list(omega), dict(acc)))

    def value(self, row: int, task: int) -> float | None:
        pair = self.rows[row].acc.get(task)
        if pair is None:
            return None
        correct, total = pair
        return correct / total


@dataclass
class MetricReport:
    """Per-run metrics, accuracies in percentage points."""

    method: str
    task_count: int
    unlearn_count: int
    seed: int
    acc_learned: float | None
    acc_unlearned: float | None
    forget_learned: float
    forget_unlearned: float | None
    forget_unlearned_max: float | None
    model_size_bytes: int
    retrain_ratio: float
    retrain_mean_abs_diff: float


def final_accuracies(matrix: AccuracyMatrix):
    """(mean over still-learned, mean over unlearned) at the last row, as
    percentage points; a mean over an empty set is None."""
    last = matrix.rows[-1]
    learned = [matrix.value(-1, t) for t in last.omega]
    seen = set(last.acc)
    unlearned = [matrix.value(-1, t) for t in sorted(seen - set(last.omega))]
    mean = lambda vals: 100.0 * sum(vals) / len(vals) if vals else None
    return mean(learned), mean(unlearned)


def forgetting(matrix: AccuracyMatrix):
    """(learning forgetting, unlearning forgetting) in percentage points.

    Learning: for each learning request after the first, the mean drop
    a(before) - a(after) over tasks learned before it, summed and divided by
    (learning request count - 1); 0.0 when only one task is ever learned.
    Unlearning: the same mean drop over the tasks remaining after each
    unlearning request, averaged over those requests; None without any.
    """
    learn_rows = [i for i, r in enumerate(matrix.rows) if r.request and r.request.kind == "learn"]
    unlearn_rows = [i for i, r in enumerate(matrix.rows) if r.request and r.request.kind == "unlearn"]

    def mean_drop(i: int, tasks) -> float:
        drops = [matrix.value(i - 1, t) - matrix.value(i, t) for t in tasks]
        return sum(drops) / len(drops) if drops else 0.0

    forget_learn = 0.0
    if len(learn_rows) > 1:
        total = sum(mean_drop(i, matrix.rows[i - 1].omega) for i in learn_rows[1:])
        forget_learn = 100.0 * total / (len(learn_rows) - 1)
    forget_unlearn = None
    if unlearn_rows:
        total = sum(mean_drop(i, matrix.rows[i].omega) for i in unlearn_rows)
        forget_unlearn = 100.0 * total / len(unlearn_rows)
    return forget_learn, forget_unlearn


def max_unlearn_drop(matrix: AccuracyMatrix) -> float | None:
    """Worst remaining-task accuracy drop across unlearning requests, in
    percentage points; None when nothing was unlearned or no task remained."""
    drops = []
    for i, row in enumerate(matrix.rows):
        if row.request and row.request.kind == "unlearn":
            drops.extend(matrix.value(i - 1, t) - matrix.value(i, t) for t in row.omega)
    return 100.0 * max(drops) if drops else None


def model_size_bytes(method: str, d: int, learned_count: int, mask_count: int) -> int:
    """Deployed size under a 32-bit-weight convention.

    Dense single-model methods: 4d.  Masked methods add one packed bit per
    parameter per stored mask.  Independent keeps a full model per task.
    """
    if method == "independent":
        return 4 * d * learned_count
    if method in ("subnet", "static_sparse", "dynamic_sparse"):
        return 4 * d + mask_count * int(np.ceil(d / 8))
    return 4 * d


def mib(size_bytes: int) -> float:
    return size_bytes / (1024.0 * 1024.0)


def table_size_mib(method: str, d: int, learned_count: int, mask_count: int) -> float:
    """Size in binary megabytes, rounded the way published model-size tables
    are: one model's MiB rounded to two decimals first, then scaled by the
    stored-model count.  (Multiplying exact bytes first can differ in the
    last digit; e.g. 5 models of 42.59 MiB report 212.95, not 212.94.)"""
    per_model = round(mib(4 * d), 2)
    if method == "independent":
        return round(per_model * learned_count, 2)
    return round(per_model + mib(model_size_bytes(method, d, 1, mask_count) - 4 * d), 2)


def retrain_stats(events, d: int):
    """(mean shared-fraction, mean |after-reset| over events with shared
    entries) across unlearn events; (0.0, 0.0) without any."""
    if not events:
        return 0.0, 0.0
    ratio = sum(e.shared_count / d for e in events) / len(events)
    diffs = [e.mean_abs_diff for e in events if e.shared_count]
    return ratio, (sum(diffs) / len(diffs) if diffs else 0.0)


@dataclass
class Aggregate:
    """Across-seed summary of one metric column."""

    mean: float
    min: float
    max: float
    n: int


def aggregate(values) -> Aggregate | None:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    return Aggregate(sum(vals) / len(vals), min(vals), max(vals), len(vals))


def build_report(method: str, seed: int, task_count: int, unlearn_count: int,
                 matrix: AccuracyMatrix, retrain_events, d: int,
                 mask_count: int, learned_count: int) -> MetricReport:
    acc_l, acc_u = final_accuracies(matrix)
    f_l, f_u = forgetting(matrix)
    ratio, diff = retrain_stats(retrain_events, d)
    return MetricReport(
        method=method, task_count=task_count, unlearn_count=unlearn_count,
        seed=seed, acc_learned=acc_l, acc_unlearned=acc_u,
        forget_learned=f_l, forget_unlearned=f_u,
        forget_unlearned_max=max_unlearn_drop(matrix),
        model_size_bytes=model_size_bytes(method, d, learned_count, mask_count),
        retrain_ratio=ratio, retrain_mean_abs_diff=diff)
