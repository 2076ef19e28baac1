"""Request grammar, sequence validity and generation, synthetic task suites,
scenario file round-trips, and the CSV dataset loader."""

import numpy as np
import pytest

from conftest import tiny_scenario
from subnet_unlearn.rng import RngStream
from subnet_unlearn.scenario import (Request, Scenario, build_scenario,
                                     generate_sequence, load_csv_tasks,
                                     make_synthetic_tasks, parse_request,
                                     read_scenario, scenario_from_text,
                                     scenario_to_text, seed_plan,
                                     validate_sequence, write_scenario)


# -------------------------------------------------------------- requests --

def test_request_text_round_trip():
    r = parse_request("unlearn 3")
    assert r == Request("unlearn", 3)
    assert str(r) == "unlearn 3"
    for bad in ("learn", "learn x", "study 1", "learn 1 2"):
        with pytest.raises(ValueError):
            parse_request(bad)


def test_validate_sequence_reports_first_violation():
    L, U = (lambda t: Request("learn", t)), (lambda t: Request("unlearn", t))
    assert validate_sequence([U(1), L(1)]) == (0, "unlearn of task 1 which is "
                                                  "not currently learned")
    assert validate_sequence([L(1), L(1)])[0] == 1
    assert validate_sequence([L(1), U(1), U(1)])[0] == 2
    assert validate_sequence([L(1), L(2), U(1), U(2)]) is None
    assert validate_sequence([]) is None


def test_generate_sequence_canonical_interleaving():
    # Frozen: seed 578 produces the fully interleaved 5-task/3-unlearn shape.
    seq = tiny_scenario(578, tasks=5, unlearns=3).sequence_for_seed(578)
    assert [str(r) for r in seq] == [
        "learn 1", "learn 2", "learn 3", "unlearn 2",
        "learn 4", "unlearn 3", "learn 5", "unlearn 1"]


def test_generate_sequence_fuzz_always_valid():
    for seed in range(120):
        tasks = 1 + seed % 8
        unlearns = seed % (tasks + 1)
        seq = generate_sequence(tasks, unlearns, RngStream(seed, 1, "scenario"))
        assert validate_sequence(seq) is None
        learns = [r.task for r in seq if r.kind == "learn"]
        assert learns == list(range(1, tasks + 1))
        assert sum(r.kind == "unlearn" for r in seq) == unlearns
    with pytest.raises(ValueError):
        generate_sequence(3, 4, RngStream(0, 1, "scenario"))


# ----------------------------------------------------------------- suite --

def test_synthetic_tasks_shapes_balance_and_determinism():
    suite = make_synthetic_tasks(3, 2, 5, 20, 10, 10.0, 1.0,
                                 RngStream(6, 0, "scenario"))
    assert sorted(suite.tasks) == [1, 2, 3]
    for t, data in suite.tasks.items():
        assert data.x_train.shape == (40, 5)
        assert data.x_test.shape == (20, 5)
        assert np.bincount(data.y_train, minlength=2).tolist() == [20, 20]
        assert set(np.unique(data.y_test)) <= {0, 1}
    again = make_synthetic_tasks(3, 2, 5, 20, 10, 10.0, 1.0,
                                 RngStream(6, 0, "scenario"))
    np.testing.assert_array_equal(suite.tasks[2].x_train, again.tasks[2].x_train)
    assert not np.array_equal(suite.tasks[1].x_train, suite.tasks[2].x_train)


def _least_squares_accuracy(data):
    """Independent oracle: closed-form linear regression onto one-hot labels."""
    x = np.hstack([data.x_train, np.ones((len(data.x_train), 1))])
    onehot = np.eye(2)[data.y_train]
    w, *_ = np.linalg.lstsq(x, onehot, rcond=None)
    xt = np.hstack([data.x_test, np.ones((len(data.x_test), 1))])
    pred = (xt @ w).argmax(axis=1)
    return (pred == data.y_test).mean()


def test_suite_is_linearly_learnable():
    # Well-separated blobs: a closed-form linear model scores >= 99%.
    sc = Scenario(seed=3, tasks=5, unlearns=0, input_dim=8, classes_per_task=2,
                  train_per_class=200, test_per_class=200, spread=10.0, noise=1.0)
    suite = sc.suite_for_seed(3)
    accs = [_least_squares_accuracy(suite.tasks[t]) for t in suite.tasks]
    assert min(accs) >= 0.99


def test_seed_plan_is_offset_and_distinct():
    plan = seed_plan(41, 5)
    assert plan == [41, 42, 43, 44, 45]
    assert len(set(plan)) == 5


# ----------------------------------------------------------------- files --

def test_scenario_text_round_trip_is_stable():
    sc = build_scenario(578, 5, 3, input_dim=6, train_per_class=30)
    text = scenario_to_text(sc)
    back = scenario_from_text(text)
    assert back == sc
    assert scenario_to_text(back) == text


def test_scenario_file_round_trip(tmp_path):
    sc = build_scenario(9, 3, 2)
    path = tmp_path / "s.cfg"
    write_scenario(path, sc)
    assert read_scenario(path) == sc
    write_scenario(path, sc)
    assert read_scenario(path) == sc


def test_scenario_text_rejects_tampering():
    sc = build_scenario(7, 3, 1)
    text = scenario_to_text(sc)
    with pytest.raises(ValueError):
        scenario_from_text(text.replace("tasks = 3", "tasks = 3\nbogus = 1"))
    with pytest.raises(ValueError):
        scenario_from_text(text.replace("learn 1", "learn 9"))
    with pytest.raises(ValueError):  # count no longer matches the sequence
        scenario_from_text(text.replace("unlearns = 1", "unlearns = 2"))
    with pytest.raises(ValueError):
        scenario_from_text("just junk")


def test_scenario_text_rejects_repeated_key_with_its_line():
    text = scenario_to_text(build_scenario(7, 3, 1))
    lineno = text.splitlines().index("tasks = 3") + 2
    with pytest.raises(ValueError, match=f"line {lineno}: key 'tasks' given twice"):
        scenario_from_text(text.replace("tasks = 3", "tasks = 3\ntasks = 3"))


def test_scenario_rejects_bad_params():
    with pytest.raises(ValueError):
        build_scenario(0, 0, 0)
    with pytest.raises(ValueError):
        build_scenario(0, 3, 5)


# ------------------------------------------------------------------- csv --

def _write_csv(path, rows, dim=3):
    header = ",".join(f"f{i}" for i in range(dim)) + ",label,task\n"
    path.write_text(header + "\n".join(rows) + "\n")


def test_load_csv_tasks_remaps_labels(tmp_path):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    rows = ["0.0,0.0,1.0,5,1", "0.1,0.0,1.0,7,1",
            "1.0,2.0,3.0,2,2", "1.1,2.0,3.0,4,2"]
    _write_csv(train, rows)
    _write_csv(test, rows)
    suite = load_csv_tasks(train, test)
    assert sorted(suite.tasks) == [1, 2]
    assert suite.classes_per_task == 2
    assert suite.input_dim == 3
    # Labels 5/7 and 2/4 both remap to local 0/1 in sorted order.
    assert suite.tasks[1].y_train.tolist() == [0, 1]
    assert suite.tasks[2].y_train.tolist() == [0, 1]


def test_load_csv_tasks_rejects_malformed(tmp_path):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    _write_csv(train, ["0.0,0.0,1.0,0,1", "0.1,0.0,1.0,1,1"])
    _write_csv(test, ["0.0,0.0,1.0,0,1", "0.1,0.0,1.0,1,2"])  # unknown task
    with pytest.raises(ValueError):
        load_csv_tasks(train, test)
    _write_csv(test, ["0.0,oops,1.0,0,1"])
    with pytest.raises(ValueError):
        load_csv_tasks(train, test)
    # Unequal class counts across tasks.
    _write_csv(train, ["0,0,1,0,1", "0,0,1,1,1", "1,2,3,0,2", "1,2,3,1,2",
                       "1,2,3,2,2"])
    _write_csv(test, ["0,0,1,0,1", "1,2,3,0,2"])
    with pytest.raises(ValueError):
        load_csv_tasks(train, test)


def test_load_csv_tasks_rejects_ids_other_than_one_to_t(tmp_path):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    for ids in ((7, 9), (0, 1), (1, 3), (2,)):
        rows = [f"{t}.0,0.0,1.0,{c},{t}" for t in ids for c in (0, 1)]
        _write_csv(train, rows)
        _write_csv(test, rows)
        with pytest.raises(ValueError, match="not exactly 1.."):
            load_csv_tasks(train, test)
