"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

The terminal summary prints one PASS/FAIL line per criterion (see conftest).
Numbered to match the package's guarantee list in the README.
"""

from __future__ import annotations

import csv
import json
import random

import numpy as np
import pytest

from subnet_unlearn import cli
from subnet_unlearn import engine as eng
from subnet_unlearn import metrics, net, rehearsal, scenario
from subnet_unlearn.masking import init_scores, ste_score_grad, topk_mask
from subnet_unlearn.rng import RngStream
from subnet_unlearn.scenario import Request

L = lambda t: Request("learn", t)
U = lambda t: Request("unlearn", t)

# Structural suite used by criteria 1 and 4: five 2-class tasks in 8
# dimensions under an 8-64-64-heads MLP, three unlearns, twenty seeds.
BATTERY_SEEDS = 20
BATTERY = scenario.Scenario(seed=0, tasks=5, unlearns=3, input_dim=8,
                            classes_per_task=2, train_per_class=60,
                            test_per_class=60, spread=10.0, noise=1.0)
BATTERY_HP = eng.Hyperparams(epochs=5, batch_size=32, hidden=(64, 64),
                             buffer_total=100, n_retrain=10)


@pytest.fixture(scope="module")
def exact_battery():
    """Per exact method and seed: (F_l, A_u, learn-rows-bit-stable).

    Bit stability means: across every learning request, the predictions of
    each already-learned task are identical arrays before and after.  That is
    the strongest form of the zero-forgetting claim; F_l == 0.0 follows.
    """
    results = {}
    for method in eng.EXACT_METHODS:
        rows = []
        for seed in range(BATTERY_SEEDS):
            suite = BATTERY.suite_for_seed(seed)
            sequence = BATTERY.sequence_for_seed(seed)
            learner = eng.make_learner(method, suite, BATTERY_HP, seed)
            matrix = metrics.AccuracyMatrix()
            matrix.append(None, [], {})
            stable = True
            for request in sequence:
                retained = {} if request.kind != "learn" else {
                    t: learner.predict(t, suite.tasks[t].x_test)
                    for t in learner.omega}
                eng.process_request(learner, request, suite, matrix)
                for t, before in retained.items():
                    after = learner.predict(t, suite.tasks[t].x_test)
                    stable = stable and np.array_equal(before, after)
            f_l, _ = metrics.forgetting(matrix)
            _, a_u = metrics.final_accuracies(matrix)
            rows.append((f_l, a_u, stable))
        results[method] = rows
    return results


def test_criterion_01_zero_forgetting_for_exact_methods(exact_battery):
    """Every exact method reports F_l = 0.0 exactly over 20 seeds with three
    unlearns, backed by bit-level prediction equality across learn requests."""
    for method, rows in exact_battery.items():
        assert all(stable for _, _, stable in rows), \
            f"{method}: retained-task predictions changed during a learn"
        assert all(f_l == 0.0 for f_l, _, _ in rows), \
            f"{method}: nonzero F_l {[f for f, _, _ in rows]}"


def test_criterion_02_unlearning_audit_fuzz():
    """The provenance audit passes after every unlearn across 1000 fuzzed
    scenarios (T <= 10, N_u <= T) and catches injected violations."""
    plan = random.Random(20260819)
    hp_cache: dict[int, eng.Hyperparams] = {}
    audits = 0
    for i in range(1000):
        tasks = plan.randint(1, 10)
        unlearns = plan.randint(1, tasks)
        sc = scenario.build_scenario(i, tasks, unlearns, input_dim=4,
                                     classes_per_task=2, train_per_class=8,
                                     test_per_class=8, spread=10.0, noise=1.0)
        method = eng.EXACT_METHODS[i % len(eng.EXACT_METHODS)]
        if tasks not in hp_cache:
            hp_cache[tasks] = eng.Hyperparams(
                alpha=0.5 / tasks, epochs=1, batch_size=16, hidden=(10,),
                buffer_total=20, n_retrain=2)
        suite = sc.suite_for_seed(i)
        learner = eng.make_learner(method, suite, hp_cache[tasks], i)
        matrix = metrics.AccuracyMatrix()
        matrix.append(None, [], {})
        for request in sc.sequence:
            eng.process_request(learner, request, suite, matrix)
            if request.kind == "unlearn":
                problems = eng.audit_learner(learner)
                assert problems == [], \
                    f"scenario {i} ({method}): audit failed after {request}: {problems}"
                audits += 1
    assert audits >= 1000  # every scenario had at least one unlearn

    # Negative controls: each kind of leftover state must be reported.
    sc = scenario.build_scenario(77, 3, 1, input_dim=4, train_per_class=8,
                                 test_per_class=8)
    suite = sc.suite_for_seed(77)
    hp = eng.Hyperparams(epochs=1, batch_size=16, hidden=(10,), buffer_total=20,
                         n_retrain=2)
    learner, _ = eng.run_sequence("subnet", suite, hp, 77, sc.sequence)
    gone = next(iter(learner.unlearned))
    assert eng.audit_learner(learner) == []

    learner.ledger.record(gone, np.arange(learner.arch.d) < 1)
    assert any("task" in p for p in eng.audit_learner(learner))
    learner.ledger.clear(gone)

    learner.buffers[gone] = object()
    assert any("buffer" in p for p in eng.audit_learner(learner))
    del learner.buffers[gone]

    learner.registry.add(gone, np.zeros(learner.arch.d, dtype=bool))
    assert any("mask" in p for p in eng.audit_learner(learner))
    learner.registry.remove(gone)
    assert eng.audit_learner(learner) == []

    indep, _ = eng.run_sequence("independent", suite, hp, 77, sc.sequence)
    gone = next(iter(indep.unlearned))
    indep.stores[gone] = indep.stores[indep.omega[0]]
    assert any("'stores'" in p for p in eng.audit_learner(indep))


REWIND_HP = eng.Hyperparams(epochs=2, batch_size=6, hidden=(8,),
                            buffer_total=12, n_retrain=5)


def test_criterion_03_rewind_equivalence():
    """Learning then immediately unlearning a task is bit-equal to never
    having seen it: [L1,L2,U2] == [L1] and [L1,L2,U2,L3] == [L1,L3], checked
    over masks, parameters under the union, buffers, and predictions; 10
    seeds each."""
    for seed in range(10):
        sc = scenario.Scenario(seed=seed, tasks=3, unlearns=0, input_dim=4,
                               train_per_class=12, test_per_class=12)
        suite = sc.suite_for_seed(seed)
        short = eng.rewind_oracle("subnet", suite, REWIND_HP, seed,
                                  [L(1), L(2), U(2)], pair_task=2)
        assert short == [], f"seed {seed}: {short}"
        longer = eng.rewind_oracle("subnet", suite, REWIND_HP, seed,
                                   [L(1), L(2), U(2), L(3)], pair_task=2)
        assert longer == [], f"seed {seed}: {longer}"


def test_criterion_04_unlearned_tasks_answer_at_chance(exact_battery):
    """After unlearning, exact methods answer the task at chance:
    |mean A_u - 50| <= 5 points over 20 seeds of balanced 2-class tasks."""
    for method, rows in exact_battery.items():
        a_u = [a for _, a, _ in rows if a is not None]
        assert len(a_u) == BATTERY_SEEDS
        mean = sum(a_u) / len(a_u)
        assert abs(mean - 50.0) <= 5.0, f"{method}: mean A_u {mean:.2f}"


def test_criterion_05_gradient_correctness():
    """Masked backprop matches central finite differences and the score
    surrogate matches the manual chain rule, both at relative error < 1e-6,
    on a 52-parameter net."""
    arch = net.build_mlp(3, (6,), 2, 2)
    assert arch.d <= 200
    params = net.init_params(arch, RngStream(7, 0, "param_init"))
    # Half the weights on, every bias on (a unit with all inputs masked would
    # sit exactly on the relu kink, where finite differences disagree with
    # the one-sided convention), plus the active head.
    mask = np.zeros(arch.d, dtype=bool)
    maskable = arch.maskable_bits()
    weight_idx = np.flatnonzero(maskable)
    mask[weight_idx[::2]] = True
    for layer in arch.maskable_layers():
        mask[layer.weight_stop : layer.stop] = True
    mask |= arch.head_bits(1)
    x = RngStream(7, 1, "scenario").normal(12).reshape(4, 3)
    y = np.array([0, 1, 0, 1])

    def loss_at(values: np.ndarray, bits: np.ndarray) -> float:
        probe = net.ParamStore(arch, values)
        return net.cross_entropy(net.forward(probe, bits, 1, x), y)

    logits, trace = net.forward_trace(params, mask, 1, x)
    _, dlogits = net.cross_entropy_grad(logits, y)
    g = net.backward(trace, dlogits)

    h = 1e-6
    worst = 0.0
    for i in np.flatnonzero(mask):
        up, down = params.values.copy(), params.values.copy()
        up[i] += h
        down[i] -= h
        fd = (loss_at(up, mask) - loss_at(down, mask)) / (2 * h)
        denom = max(abs(g.params[i]), abs(fd))
        if denom > 1e-8:
            worst = max(worst, abs(g.params[i] - fd) / denom)
        else:
            assert abs(g.params[i] - fd) < 1e-9
    assert worst < 1e-6, f"worst masked-gradient relative error {worst:.3g}"

    # Score surrogate: gradient of the loss in the slot's effective value
    # (the masked forward contribution), scaled by the raw weight.
    sg = ste_score_grad(g.effective, params, maskable)
    worst = 0.0
    for i in weight_idx:
        probe_mask = mask.copy()
        probe_mask[i] = True
        base = params.values[i] if mask[i] else 0.0
        up, down = params.values.copy(), params.values.copy()
        up[i] = base + h
        down[i] = base - h
        fd_eff = (loss_at(up, probe_mask) - loss_at(down, probe_mask)) / (2 * h)
        expected = fd_eff * params.values[i]
        denom = max(abs(sg[i]), abs(expected))
        if denom > 1e-8:
            worst = max(worst, abs(sg[i] - expected) / denom)
        else:
            assert abs(sg[i] - expected) < 1e-9
    assert worst < 1e-6, f"worst score-surrogate relative error {worst:.3g}"


def test_criterion_06_replay_loss_decomposition():
    """replay_loss(beta) = replay_loss(0) + beta * logit-distance term to
    1e-12 for beta in {0, 0.5, 1.0}; the beta = 0 value equals a cross-entropy
    computation written out independently here."""
    sc = scenario.Scenario(seed=3, tasks=2, unlearns=0, input_dim=4,
                           train_per_class=12, test_per_class=12)
    suite = sc.suite_for_seed(3)
    arch = net.build_mlp(4, (8,), 2, 2)
    params = net.init_params(arch, RngStream(3, 0, "param_init"))
    masks: dict[int, None] = {1: None, 2: None}
    buffers = {
        t: rehearsal.fill_buffer(d.x_train, d.y_train, params, None, t, 6,
                                 RngStream(3, t, "buffer_sample"))
        for t, d in suite.tasks.items()}
    # Drift the weights after storage so the stored-logit distance is nonzero
    # and the decomposition check is not vacuous.
    params.values += 0.05 * RngStream(3, 9, "scenario").normal(arch.d)
    fresh = lambda t: RngStream(50, t, "retrain_order")

    base = rehearsal.replay_loss(params, buffers, masks, 0.0, 4, fresh)
    _, dist = rehearsal.replay_terms(params, masks,
                                     rehearsal.draw_replay_batches(
                                         buffers, buffers.keys(), 4, fresh))
    assert dist > 0.0
    for beta in (0.0, 0.5, 1.0):
        combined = rehearsal.replay_loss(params, buffers, masks, beta, 4, fresh)
        assert combined == pytest.approx(base + beta * dist, abs=1e-12)

    # Independent reference for the beta = 0 term.
    manual = 0.0
    for t in sorted(buffers):
        xb, yb, _ = rehearsal.sample_batch(buffers[t], 4, fresh(t))
        manual += net.cross_entropy(net.forward(params, None, t, xb), yb)
    assert base == pytest.approx(manual, abs=1e-12)


def test_criterion_07_retraining_recovers_accuracy():
    """On a two-task suite where unlearning task 1 with no retraining costs
    task 2 at least 2 points on average, 50 retraining steps cut that
    degradation at least in half (10 seeds)."""
    def degradations(n_retrain: int) -> list[float]:
        hp = eng.Hyperparams(alpha=0.75, epochs=10, batch_size=32, hidden=(16,),
                             buffer_total=100, n_retrain=n_retrain)
        out = []
        for seed in range(10):
            sc = scenario.Scenario(seed=seed, tasks=2, unlearns=1, input_dim=8,
                                   train_per_class=100, test_per_class=100,
                                   spread=3.0, noise=1.0)
            suite = sc.suite_for_seed(seed)
            _, matrix = eng.run_sequence("subnet", suite, hp, seed,
                                         [L(1), L(2), U(1)])
            out.append(100.0 * (matrix.value(2, 2) - matrix.value(3, 2)))
        return out

    without = degradations(0)
    with_retrain = degradations(50)
    mean_without = sum(without) / len(without)
    mean_with = sum(with_retrain) / len(with_retrain)
    assert mean_without >= 2.0, f"mean degradation only {mean_without:.2f} points"
    assert mean_with <= 0.5 * mean_without, \
        f"retraining left {mean_with:.2f} of {mean_without:.2f} points"


def test_criterion_08_memory_accounting():
    """Published-table size figures reproduce exactly from d = 11,164,352 and
    five tasks: 42.59 / 49.24 / 212.95 MiB."""
    d = 11_164_352
    assert metrics.table_size_mib("sequential", d, 1, 0) == 42.59
    assert metrics.table_size_mib("subnet", d, 5, 5) == 49.24
    assert metrics.table_size_mib("independent", d, 5, 0) == 212.95


def test_criterion_09_metric_arithmetic():
    """Accuracy/forgetting metrics match hand-computed values on three fixed
    matrices to 1e-12."""
    def matrix_of(*rows):
        m = metrics.AccuracyMatrix()
        m.append(None, [], {})
        for request, omega, acc in rows:
            m.append(request, omega, acc)
        return m

    m1 = matrix_of((L(1), [1], {1: (9, 10)}),
                   (L(2), [1, 2], {1: (8, 10), 2: (6, 10)}))
    assert metrics.forgetting(m1)[0] == pytest.approx(10.0, abs=1e-12)
    assert metrics.final_accuracies(m1)[0] == pytest.approx(70.0, abs=1e-12)
    assert metrics.max_unlearn_drop(m1) is None

    m2 = matrix_of((L(1), [1], {1: (10, 10)}),
                   (L(2), [1, 2], {1: (9, 10), 2: (8, 10)}),
                   (U(2), [1], {1: (17, 20), 2: (10, 20)}))
    f_l, f_u = metrics.forgetting(m2)
    a_l, a_u = metrics.final_accuracies(m2)
    assert f_l == pytest.approx(10.0, abs=1e-12)
    assert f_u == pytest.approx(5.0, abs=1e-12)
    assert metrics.max_unlearn_drop(m2) == pytest.approx(5.0, abs=1e-12)
    assert (a_l, a_u) == (pytest.approx(85.0, abs=1e-12),
                          pytest.approx(50.0, abs=1e-12))

    m3 = matrix_of(
        (L(1), [1], {1: (100, 100)}),
        (L(2), [1, 2], {1: (100, 100), 2: (100, 100)}),
        (L(3), [1, 2, 3], {1: (100, 100), 2: (100, 100), 3: (100, 100)}),
        (U(2), [1, 3], {1: (98, 100), 2: (50, 100), 3: (100, 100)}),
        (U(1), [3], {1: (50, 100), 2: (50, 100), 3: (95, 100)}))
    f_l, f_u = metrics.forgetting(m3)
    a_l, a_u = metrics.final_accuracies(m3)
    assert f_l == pytest.approx(0.0, abs=1e-12)
    assert f_u == pytest.approx(3.0, abs=1e-12)
    assert metrics.max_unlearn_drop(m3) == pytest.approx(5.0, abs=1e-12)
    assert (a_l, a_u) == (pytest.approx(95.0, abs=1e-12),
                          pytest.approx(50.0, abs=1e-12))


def related_xor_suite(seed: int, tasks: int = 10) -> scenario.TaskSuite:
    """Ten related two-class tasks: an exclusive-or cluster layout in the
    first two of eight dimensions, with per-task center jitter.

    This family gives sharing something to transfer (all tasks need the same
    nonlinear structure) and punishes random connectivity (only two of the
    eight input dimensions are informative).  Independent random blobs do
    neither: any random projection separates them, so a fixed random mask is
    already enough and transfer cannot show up.
    """
    dim, margin, jitter, noise, per_cluster = 8, 3.0, 0.15, 1.0, 50
    stream = RngStream(seed, 90, "scenario")
    base = np.zeros((4, dim))
    base[0, :2] = (+margin, +margin)
    base[1, :2] = (-margin, -margin)
    base[2, :2] = (+margin, -margin)
    base[3, :2] = (-margin, +margin)
    out = {}
    for t in range(1, tasks + 1):
        centers = base + jitter * stream.normal(4 * dim).reshape(4, dim)
        xs_tr, ys_tr, xs_te, ys_te = [], [], [], []
        for ci, label in ((0, 0), (1, 0), (2, 1), (3, 1)):
            block = noise * stream.normal(2 * per_cluster * dim).reshape(-1, dim)
            block += centers[ci]
            xs_tr.append(block[:per_cluster])
            xs_te.append(block[per_cluster:])
            ys_tr.append(np.full(per_cluster, label, dtype=np.int64))
            ys_te.append(np.full(per_cluster, label, dtype=np.int64))
        out[t] = scenario.TaskData(t, np.vstack(xs_tr), np.concatenate(ys_tr),
                                   np.vstack(xs_te), np.concatenate(ys_te))
    return scenario.TaskSuite(dim, 2, out)


def test_criterion_10_sharing_beats_isolated_subnetworks():
    """With tiny per-task budgets (alpha = 1/T, T = 10, narrow MLP) on ten
    structurally related tasks, score-trained shared subnetworks reach at
    least the mean final accuracy of random isolated ones, over 20 seeds."""
    hp = eng.Hyperparams(alpha=0.1, epochs=120, batch_size=32, hidden=(30, 30),
                         buffer_total=100, n_retrain=0)
    sequence = [L(t) for t in range(1, 11)]
    means = {}
    for method in ("subnet", "static_sparse"):
        finals = []
        for seed in range(20):
            suite = related_xor_suite(seed)
            _, matrix = eng.run_sequence(method, suite, hp, seed, sequence)
            finals.append(metrics.final_accuracies(matrix)[0])
        means[method] = sum(finals) / len(finals)
    assert means["subnet"] >= means["static_sparse"], \
        (f"shared subnetworks {means['subnet']:.2f} < "
         f"isolated {means['static_sparse']:.2f}")


def test_criterion_11_run_determinism(tmp_path):
    """Two cmd_run executions with identical flags produce byte-identical
    results and trace files."""
    flags = ["run", "--method", "subnet", "--seeds", "2", "--tasks", "3",
             "--unlearns", "1", "--input-dim", "4", "--train-per-class", "8",
             "--test-per-class", "8", "--epochs", "2", "--batch-size", "8",
             "--hidden", "8", "--buffer-total", "12", "--n-retrain", "3",
             "--master-seed", "13"]
    outs = (tmp_path / "first", tmp_path / "second")
    for out in outs:
        assert cli.main(flags + ["--outdir", str(out)]) == 0
    for name in ("results.csv", "trace.jsonl"):
        first, second = (out / name for out in outs)
        assert first.read_bytes() == second.read_bytes(), f"{name} differs"
    with open(outs[0] / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == cli.CSV_COLUMNS and len(rows) == 3
    head = json.loads((outs[0] / "trace.jsonl").read_text().splitlines()[0])
    assert head["schema"] == cli.TRACE_SCHEMA
