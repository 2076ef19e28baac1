"""Learner behavior: freezing, cleanliness, capacity, head isolation,
unlearning bookkeeping, the audit, checkpoints, and the rewind comparison."""

import copy

import numpy as np
import pytest

from conftest import tiny_scenario
from subnet_unlearn import net
from subnet_unlearn.checkpoint import load_checkpoint, save_checkpoint
from subnet_unlearn.engine import (EXACT_METHODS, METHODS, Hyperparams,
                                   RequestError, SubnetLearner, UnknownTaskError,
                                   audit_learner, make_learner, process_request,
                                   run_sequence, state_diffs)
from subnet_unlearn.masking import CapacityError
from subnet_unlearn.metrics import AccuracyMatrix
from subnet_unlearn.rng import RngStream
from subnet_unlearn.scenario import Request, Scenario

L = lambda t: Request("learn", t)
U = lambda t: Request("unlearn", t)

TINY_HP = Hyperparams(epochs=2, batch_size=6, hidden=(8,), buffer_total=12,
                      n_retrain=5)


def tiny_run(method, seq, seed=11, tasks=3, hp=TINY_HP, **scenario_kw):
    sc = tiny_scenario(seed, tasks=tasks, **scenario_kw)
    suite = sc.suite_for_seed(seed)
    return suite, *run_sequence(method, suite, hp, seed, seq)


# ----------------------------------------------------------- bookkeeping --

def test_method_registry_is_complete():
    assert set(EXACT_METHODS) <= set(METHODS)
    assert set(METHODS) == {"subnet", "sequential", "independent", "er",
                            "derpp", "static_sparse", "dynamic_sparse"}


@pytest.mark.parametrize("method", METHODS)
def test_omega_and_matrix_bookkeeping(method):
    suite, learner, matrix = tiny_run(method, [L(1), L(2), U(2), L(3)])
    assert learner.omega == [1, 3]
    assert learner.ever_learned == {1, 2, 3}
    assert learner.unlearned == {2}
    assert len(matrix.rows) == 5          # pre-run row + one per request
    assert matrix.rows[0].acc == {}
    assert sorted(matrix.rows[-1].acc) == [1, 2, 3]


def test_request_errors():
    sc = tiny_scenario(1)
    suite = sc.suite_for_seed(1)
    learner = make_learner("subnet", suite, TINY_HP, 1)
    learner.learn(1, suite.tasks[1])
    with pytest.raises(RequestError):
        learner.learn(1, suite.tasks[1])
    with pytest.raises(RequestError):
        learner.unlearn(2)
    with pytest.raises(UnknownTaskError):
        learner.predict(2, suite.tasks[2].x_test)
    with pytest.raises(RequestError):
        run_sequence("subnet", suite, TINY_HP, 1, [U(1)])
    with pytest.raises(ValueError):
        make_learner("mystery", suite, TINY_HP, 1)


def test_hyperparams_validation():
    for bad in (dict(alpha=0.0), dict(alpha=1.5), dict(epochs=0),
                dict(batch_size=0), dict(n_retrain=-1), dict(beta=-0.1),
                dict(optimizer="rmsprop")):
        with pytest.raises(ValueError):
            Hyperparams(**bad).validate()


# -------------------------------------------------------------- freezing --

def test_learned_subnetwork_is_frozen_bit_exactly():
    sc = tiny_scenario(21)
    suite = sc.suite_for_seed(21)
    learner = make_learner("subnet", suite, TINY_HP, 21)
    learner.learn(1, suite.tasks[1])
    m1 = learner.registry.get(1).copy()
    frozen = learner.params.values[m1].copy()
    preds = learner.predict(1, suite.tasks[1].x_test).copy()
    learner.learn(2, suite.tasks[2])
    learner.learn(3, suite.tasks[3])
    np.testing.assert_array_equal(learner.registry.get(1), m1)
    np.testing.assert_array_equal(learner.params.values[m1], frozen)
    np.testing.assert_array_equal(learner.predict(1, suite.tasks[1].x_test), preds)


def test_unowned_params_hold_no_trained_signal_after_learn():
    # Everything outside the mask union must equal fresh draws from the
    # task's reinit stream: replaying that stream is a no-op.
    sc = tiny_scenario(8)
    suite = sc.suite_for_seed(8)
    learner = make_learner("subnet", suite, TINY_HP, 8)
    learner.learn(1, suite.tasks[1])
    free = ~learner.registry.union()
    replay = net.ParamStore(learner.arch, learner.params.values.copy())
    net.resample(replay, free, RngStream(8, 1, "reinit_unused"))
    np.testing.assert_array_equal(replay.values, learner.params.values)


def test_head_isolation_for_dense_methods():
    sc = tiny_scenario(14)
    suite = sc.suite_for_seed(14)
    hp = Hyperparams(epochs=2, batch_size=6, hidden=(8,), buffer_total=12,
                     n_retrain=4)
    for method in ("sequential", "er", "derpp"):
        learner = make_learner(method, suite, hp, 14)
        learner.learn(1, suite.tasks[1])
        arch = learner.arch
        h1 = learner.params.values[arch.head_bits(1)].copy()
        h3 = learner.params.values[arch.head_bits(3)].copy()
        learner.learn(2, suite.tasks[2])
        np.testing.assert_array_equal(learner.params.values[arch.head_bits(1)], h1)
        np.testing.assert_array_equal(learner.params.values[arch.head_bits(3)], h3)
        if method != "sequential":
            learner.unlearn(2)  # finetune steps must stay off other heads
            np.testing.assert_array_equal(
                learner.params.values[arch.head_bits(1)], h1)
            np.testing.assert_array_equal(
                learner.params.values[arch.head_bits(3)], h3)


# -------------------------------------------------------------- capacity --

def test_disjoint_methods_reject_alpha_above_budget():
    sc = tiny_scenario(2)
    suite = sc.suite_for_seed(2)
    hp = Hyperparams(epochs=1, hidden=(8,), alpha=0.5, buffer_total=12)
    for method in ("static_sparse", "dynamic_sparse"):
        with pytest.raises(CapacityError):
            make_learner(method, suite, hp, 2)
    # Overlapping subnetworks have no such limit.
    suite2, learner, _ = tiny_run("subnet", [L(1), L(2), L(3)],
                                  hp=Hyperparams(epochs=1, hidden=(8,),
                                                 alpha=0.5, buffer_total=12))
    assert learner.omega == [1, 2, 3]


@pytest.mark.parametrize("method", ["static_sparse", "dynamic_sparse"])
def test_layer_pool_exhaustion_raises_mid_run(method):
    # Pool of 35 at alpha = 1/3: budget 12 per task, but task 3 finds only 11.
    hp = Hyperparams(epochs=1, batch_size=6, hidden=(7,), buffer_total=12)
    with pytest.raises(CapacityError):
        tiny_run(method, [L(1), L(2), L(3)], hp=hp)


def test_disjoint_masks_partition_exactly():
    # Pool of 30 at alpha = 1/3 tiles exactly: 10 + 10 + 10.
    hp = Hyperparams(epochs=1, batch_size=6, hidden=(6,), buffer_total=12)
    for method in ("static_sparse", "dynamic_sparse"):
        suite, learner, _ = tiny_run(method, [L(1), L(2), L(3)], hp=hp)
        maskable = learner.arch.maskable_bits()
        masks = [learner.registry.get(t) & maskable for t in (1, 2, 3)]
        assert all(m.sum() == 10 for m in masks)
        assert not (masks[0] & masks[1]).any()
        assert not (masks[0] & masks[2]).any()
        assert not (masks[1] & masks[2]).any()


# ------------------------------------------------------------- unlearning --

def test_canonical_sequence_bookkeeping_and_audit():
    seq = [L(1), L(2), L(3), U(2), L(4), U(3), L(5), U(1)]
    suite, learner, matrix = tiny_run("subnet", seq, seed=578, tasks=5,
                                      unlearns=3)
    assert learner.omega == [4, 5]
    assert learner.unlearned == {1, 2, 3}
    assert sorted(learner.registry.masks) == [4, 5]
    assert sorted(learner.buffers) == [4, 5]
    assert audit_learner(learner) == []
    assert len(learner.retrain_events) == 3


def test_unlearned_exact_method_answers_at_chance():
    suite, learner, _ = tiny_run("subnet", [L(1), L(2), U(2)],
                                 test_per_class=200)
    x = suite.tasks[2].x_test
    preds = learner.predict(2, x)
    assert set(np.unique(preds)) <= {0, 1}
    acc = (preds == suite.tasks[2].y_test).mean()
    assert 0.35 <= acc <= 0.65
    # Learned-task predictions are pure functions of the model.
    p1 = learner.predict(1, suite.tasks[1].x_test)
    np.testing.assert_array_equal(p1, learner.predict(1, suite.tasks[1].x_test))


def test_sequential_unlearn_is_bookkeeping_only():
    suite, learner, _ = tiny_run("sequential", [L(1), L(2), U(1)])
    assert learner.omega == [2]
    before = learner.params.values.copy()
    # The model itself is untouched by the unlearn request...
    p = learner.predict(1, suite.tasks[1].x_test)
    np.testing.assert_array_equal(p, learner.predict(1, suite.tasks[1].x_test))
    np.testing.assert_array_equal(learner.params.values, before)


def test_replay_unlearn_finetunes_and_drops_buffer():
    suite, learner, _ = tiny_run("derpp", [L(1), L(2)])
    before = learner.params.values.copy()
    learner.unlearn(1)
    assert 1 not in learner.buffers and 2 in learner.buffers
    assert not np.array_equal(learner.params.values, before)


def test_retrain_event_records_shared_work():
    hp = Hyperparams(epochs=2, batch_size=6, hidden=(8,), alpha=0.75,
                     buffer_total=12, n_retrain=5)
    # Unlearning the newest task: nothing shared, no retraining steps.
    _, learner, _ = tiny_run("subnet", [L(1), L(2), U(2)], hp=hp)
    event = learner.retrain_events[-1]
    assert event.task == 2 and event.shared_count == 0 and event.steps == 0
    assert event.reset_count > 0
    # Unlearning under overlap: shared entries exist and retraining ran.
    _, learner, _ = tiny_run("subnet", [L(1), L(2), U(1)], hp=hp)
    event = learner.retrain_events[-1]
    assert event.task == 1 and event.shared_count > 0 and event.steps == 5
    assert audit_learner(learner) == []


def test_independent_unlearn_deletes_the_model():
    suite, learner, _ = tiny_run("independent", [L(1), L(2), U(1)])
    assert sorted(learner.stores) == [2]
    assert audit_learner(learner) == []
    acc = (learner.predict(1, suite.tasks[1].x_test)
           == suite.tasks[1].y_test).mean()
    assert 0.2 <= acc <= 0.8


@pytest.mark.parametrize("seq", [
    [L(1), L(2), L(3), U(1), U(3)], [L(1), L(2), L(3), U(1), U(2)], [L(2), L(1), U(2)],
    [L(1), L(2), L(3), L(4), U(2), U(1), U(4)]])
def test_unlearn_leaves_reset_entries_owned_only_where_retrained(seq):
    """After unlearning t, retained tasks own t's former entries exactly where
    they were retrained: the shared entries if retraining ran, else none."""
    suite = Scenario(seed=42, tasks=4, unlearns=0).suite_for_seed(42)
    learner = make_learner("subnet", suite, Hyperparams(alpha=0.3, epochs=3), 42)
    matrix = AccuracyMatrix()
    for request in seq:
        owned = learner.ledger.owned(request.task)
        process_request(learner, request, suite, matrix)
        if request.kind == "unlearn":
            held = np.zeros(learner.arch.d, dtype=bool)
            for tau in learner.omega:
                held |= learner.ledger.owned(tau) & owned
            event = learner.retrain_events[-1]
            assert np.count_nonzero(held) == (event.shared_count if event.steps else 0)


def test_er_first_task_matches_sequential_bit_for_bit():
    sc = tiny_scenario(33)
    suite = sc.suite_for_seed(33)
    a = make_learner("er", suite, TINY_HP, 33)
    b = make_learner("sequential", suite, TINY_HP, 33)
    a.learn(1, suite.tasks[1])
    b.learn(1, suite.tasks[1])
    np.testing.assert_array_equal(a.params.values, b.params.values)


def test_beta_wiring():
    sc = tiny_scenario(3)
    suite = sc.suite_for_seed(3)
    hp = Hyperparams(beta=0.7, hidden=(8,), epochs=1, buffer_total=12)
    assert make_learner("er", suite, hp, 0).beta == 0.0
    assert make_learner("derpp", suite, hp, 0).beta == 0.7


def test_buffers_respect_per_task_capacity():
    suite, learner, _ = tiny_run("subnet", [L(1)])
    assert len(learner.buffers[1].y) == 4  # 12 total across 3 tasks


# ------------------------------------------------------------------ audit --

def test_audit_passes_on_clean_state():
    _, learner, _ = tiny_run("subnet", [L(1), L(2), U(1)])
    assert audit_learner(learner) == []


def test_audit_reports_each_violation_kind():
    _, learner, _ = tiny_run("subnet", [L(1), L(2), U(1)])
    d = learner.arch.d
    residues = {"ledger": lambda: learner.ledger.record(1, np.arange(d) < 1),
                "buffers": lambda: learner.buffers.update({1: learner.buffers[2]}),
                "masks": lambda: learner.registry.add(1, np.zeros(d, dtype=bool))}
    for name, plant in residues.items():
        plant()
        problems = audit_learner(learner)
        assert len(problems) == 1
        assert "task 1" in problems[0] and repr(name) in problems[0]
        del learner.sections()[name][1]
    # All three at once, all named.
    for plant in residues.values():
        plant()
    assert len(audit_learner(learner)) == 3


def test_audit_reports_an_unlearned_tasks_empty_ledger_entry():
    _, learner, _ = tiny_run("subnet", [L(1), L(2), U(1)])
    learner.ledger.trained_by[1] = np.zeros(learner.arch.d, dtype=bool)
    assert audit_learner(learner) == ["task 1: section 'ledger' still holds it"]


class NotingLearner(SubnetLearner):
    """Keeps a per-task note in a section of its own that unlearning leaves."""

    def __init__(self, suite, hp, master_seed):
        super().__init__(suite, hp, master_seed)
        self.notes: dict[int, np.ndarray] = {}

    def _learn(self, task, data):
        super()._learn(task, data)
        self.notes[task] = np.zeros(1)

    def sections(self):
        return {**super().sections(), "notes": self.notes}


def test_audit_reports_a_subclass_section_that_keeps_the_task():
    suite = tiny_scenario(11).suite_for_seed(11)
    learner = NotingLearner(suite, TINY_HP, 11)
    for t in (1, 2):
        learner.learn(t, suite.tasks[t])
    learner.unlearn(1)
    assert audit_learner(learner) == ["task 1: section 'notes' still holds it"]


# ------------------------------------------------------------ checkpoints --

ROUND_TRIP = tiny_scenario(13, tasks=4, unlearns=2)


@pytest.mark.parametrize("method", METHODS)
def test_checkpoint_round_trip_preserves_behavior(method, tmp_path):
    # At every split point: save, load, finish the sequence from the loaded
    # learner.  The result must equal one uninterrupted run, bit for bit.
    suite = ROUND_TRIP.suite_for_seed(13)
    seq = ROUND_TRIP.sequence_for_seed(13)
    assert len({r.kind for r in seq}) == 2
    whole, _ = run_sequence(method, suite, TINY_HP, 13, seq)
    save_checkpoint(tmp_path / "whole.bin", whole)
    expected = (tmp_path / "whole.bin").read_bytes()
    for split in range(len(seq) + 1):
        learner = make_learner(method, suite, TINY_HP, 13)
        for request in seq[:split]:
            process_request(learner, request, suite, AccuracyMatrix())
        save_checkpoint(tmp_path / "split.bin", learner)
        restored = load_checkpoint(tmp_path / "split.bin")
        for request in seq[split:]:
            process_request(restored, request, suite, AccuracyMatrix())
        assert state_diffs(whole, restored, suite) == [], split
        save_checkpoint(tmp_path / "end.bin", restored)
        assert (tmp_path / "end.bin").read_bytes() == expected, split


def test_checkpoint_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(ValueError):
        load_checkpoint(bad)


# ----------------------------------------------------------------- rewind --

def test_state_diffs_detects_injected_perturbation():
    sc = tiny_scenario(17)
    suite = sc.suite_for_seed(17)
    a = make_learner("subnet", suite, TINY_HP, 17)
    b = make_learner("subnet", suite, TINY_HP, 17)
    for l in (a, b):
        l.learn(1, suite.tasks[1])
    assert state_diffs(a, b, suite) == []
    j = int(np.flatnonzero(b.registry.get(1))[0])
    b.params.values[j] += 1e-9
    assert any("parameters" in d for d in state_diffs(a, b, suite))
    b.ledger.trained_by[1] = b.ledger.trained_by[1].copy()
    b.ledger.trained_by[1][j] = False
    assert "ledger for task 1 differ" in state_diffs(a, b, suite)


@pytest.mark.parametrize("method", METHODS)
def test_state_diffs_sees_learn_order(method):
    suite, a, _ = tiny_run(method, [L(1), L(2)])
    b = copy.deepcopy(a)
    b.omega.reverse()
    assert state_diffs(a, b, suite) != []


@pytest.mark.xfail(strict=True, reason=(
    "an unlearn retrains only the masks of tasks with a larger id, and re-records "
    "the retrained entries to all of them, so entries a retained mask uses can be "
    "reset without retraining"))
@pytest.mark.parametrize("seq", [[L(2), L(1), U(2)], [L(1), L(2), L(3), U(1), U(3)]],
                         ids=["learned-later-smaller-id", "re-recorded-to-two-tasks"])
def test_unlearn_retrains_every_reset_entry_a_retained_mask_uses(seq):
    suite = Scenario(seed=42, tasks=4, unlearns=0).suite_for_seed(42)
    learner = make_learner("subnet", suite, Hyperparams(alpha=0.3, epochs=3), 42)
    matrix = AccuracyMatrix()
    for request in seq:
        expected = None
        if request.kind == "unlearn":
            retained = np.zeros(learner.arch.d, dtype=bool)
            for t in learner.omega:
                if t != request.task:
                    retained |= learner.registry.get(t)
            expected = int(np.count_nonzero(learner.ledger.owned(request.task)
                                            & retained))
        process_request(learner, request, suite, matrix)
        if expected is not None:
            assert learner.retrain_events[-1].shared_count == expected
