"""Metric arithmetic against hand-computed matrices, memory accounting
goldens, retraining statistics, and cross-seed aggregation."""

import pytest

from subnet_unlearn.engine import Hyperparams, RetrainEvent, run_sequence
from subnet_unlearn.metrics import (AccuracyMatrix, aggregate, build_report,
                                    final_accuracies, forgetting,
                                    max_unlearn_drop, mib, model_size_bytes,
                                    retrain_stats, table_size_mib)
from subnet_unlearn.scenario import Request

L = lambda t: Request("learn", t)
U = lambda t: Request("unlearn", t)


def matrix_of(*rows):
    m = AccuracyMatrix()
    m.append(None, [], {})
    for request, omega, acc in rows:
        m.append(request, omega, acc)
    return m


# Matrix 1: two learns, a drop of 10 points on task 1 at the second learn.
M1 = matrix_of(
    (L(1), [1], {1: (9, 10)}),
    (L(2), [1, 2], {1: (8, 10), 2: (6, 10)}),
)

# Matrix 2: learn, learn, unlearn; the unlearn costs task 1 five points.
M2 = matrix_of(
    (L(1), [1], {1: (10, 10)}),
    (L(2), [1, 2], {1: (9, 10), 2: (8, 10)}),
    (U(2), [1], {1: (17, 20), 2: (10, 20)}),
)

# Matrix 3: three clean learns, then two unlearns with max drops 2 and 5.
M3 = matrix_of(
    (L(1), [1], {1: (100, 100)}),
    (L(2), [1, 2], {1: (100, 100), 2: (100, 100)}),
    (L(3), [1, 2, 3], {1: (100, 100), 2: (100, 100), 3: (100, 100)}),
    (U(2), [1, 3], {1: (98, 100), 2: (50, 100), 3: (100, 100)}),
    (U(1), [3], {1: (50, 100), 2: (50, 100), 3: (95, 100)}),
)


def test_final_accuracies_hand_values():
    a_l, a_u = final_accuracies(M1)
    assert a_l == pytest.approx(70.0, abs=1e-12)
    assert a_u is None
    a_l, a_u = final_accuracies(M2)
    assert a_l == pytest.approx(85.0, abs=1e-12)
    assert a_u == pytest.approx(50.0, abs=1e-12)
    a_l, a_u = final_accuracies(M3)
    assert a_l == pytest.approx(95.0, abs=1e-12)
    assert a_u == pytest.approx(50.0, abs=1e-12)


def test_forgetting_hand_values():
    f_l, f_u = forgetting(M1)
    assert f_l == pytest.approx(10.0, abs=1e-12)
    assert f_u is None
    f_l, f_u = forgetting(M2)
    assert f_l == pytest.approx(10.0, abs=1e-12)  # only the second learn counts
    assert f_u == pytest.approx(5.0, abs=1e-12)   # drop over omega after removal
    f_l, f_u = forgetting(M3)
    assert f_l == pytest.approx(0.0, abs=1e-12)
    # First unlearn: mean drop over {1, 3} = (2 + 0) / 2 = 1.
    # Second unlearn: drop over {3} = 5. Mean: 3.
    assert f_u == pytest.approx(3.0, abs=1e-12)


def test_forgetting_single_learn_convention():
    m = matrix_of((L(1), [1], {1: (7, 10)}))
    f_l, f_u = forgetting(m)
    assert f_l == 0.0
    assert f_u is None


def test_max_unlearn_drop_hand_values():
    assert max_unlearn_drop(M1) is None
    assert max_unlearn_drop(M2) == pytest.approx(5.0, abs=1e-12)
    assert max_unlearn_drop(M3) == pytest.approx(5.0, abs=1e-12)
    # Max dominates the mean.
    assert max_unlearn_drop(M3) >= forgetting(M3)[1]


def test_fractions_are_exact():
    assert M2.value(3, 1) == pytest.approx(17 / 20, abs=0)
    assert M2.value(0, 1) is None
    assert M1.value(1, 2) is None


# ------------------------------------------------------------ model size --

def test_model_size_bytes_formulas():
    d = 1000
    assert model_size_bytes("sequential", d, 3, 0) == 4000
    assert model_size_bytes("er", d, 3, 0) == 4000
    assert model_size_bytes("derpp", d, 3, 0) == 4000
    assert model_size_bytes("subnet", d, 3, 3) == 4000 + 3 * 125
    assert model_size_bytes("static_sparse", d, 2, 2) == 4000 + 2 * 125
    assert model_size_bytes("dynamic_sparse", 1001, 1, 1) == 4004 + 126  # ceil
    assert model_size_bytes("independent", d, 3, 0) == 12000


def test_published_size_figures():
    d = 11_164_352
    assert table_size_mib("sequential", d, 1, 0) == 42.59
    assert table_size_mib("subnet", d, 5, 5) == 49.24
    assert table_size_mib("independent", d, 5, 0) == 212.95
    assert mib(model_size_bytes("sequential", d, 1, 0)) == pytest.approx(
        4 * d / 2**20, abs=0)
    # Exact arithmetic ends in ...44; the published 212.95 comes from
    # rounding one model to 42.59 before scaling by the five stored models.
    assert round(mib(model_size_bytes("independent", d, 5, 0)), 2) == 212.94


# ---------------------------------------------------------- retrain stats --

def test_retrain_stats_hand_values():
    events = [
        RetrainEvent(task=2, reset_count=10, shared_count=0, steps=0,
                     mean_abs_diff=0.0),
        RetrainEvent(task=1, reset_count=10, shared_count=50, steps=5,
                     mean_abs_diff=0.25),
    ]
    ratio, diff = retrain_stats(events, d=1000)
    assert ratio == pytest.approx((0 / 1000 + 50 / 1000) / 2, abs=1e-15)
    assert diff == pytest.approx(0.25, abs=1e-15)  # only events with shares
    assert retrain_stats([], d=10) == (0.0, 0.0)


# -------------------------------------------------------------- aggregate --

def test_aggregate_mean_min_max():
    agg = aggregate([0.8, 0.9])
    assert (agg.mean, agg.min, agg.max) == (pytest.approx(0.85), 0.8, 0.9)
    one = aggregate([0.5])
    assert one.mean == one.min == one.max == 0.5
    assert aggregate([]) is None
    assert aggregate([None, 0.25, None]).mean == 0.25


def test_build_report_end_to_end(tiny_suite):
    hp = Hyperparams(epochs=2, batch_size=6, hidden=(8,), buffer_total=12,
                     n_retrain=3)
    learner, matrix = run_sequence(
        "subnet", tiny_suite, hp, 5, [L(1), L(2), U(1), L(3)])
    report = build_report("subnet", 5, 3, 1, matrix, learner.retrain_events,
                          learner.arch.d, len(learner.registry.masks),
                          len(learner.omega))
    assert report.method == "subnet"
    assert report.task_count == 3 and report.unlearn_count == 1
    assert 0.0 <= report.acc_learned <= 100.0
    assert report.model_size_bytes == model_size_bytes("subnet", learner.arch.d,
                                                       2, 2)
    assert report.forget_learned == pytest.approx(
        forgetting(matrix)[0], abs=1e-15)
