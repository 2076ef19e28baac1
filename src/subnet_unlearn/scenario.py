"""Request sequences and synthetic task suites.

A scenario is a sequence of learn/unlearn requests over tasks 1..T plus the
dataset they run on.  Each task is learned at most once, in any order
(generated sequences learn in id order); an unlearn may only target a
currently learned task.  Synthetic tasks are
Gaussian blobs: each class gets a center drawn at scale ``spread`` and
samples scattered around it at scale ``noise``, with globally disjoint
label spaces across tasks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .rng import RngStream

# Stream domains used under the "scenario" purpose.
SUITE_STREAM_SLOT = 0
SEQUENCE_STREAM_SLOT = 1


@dataclass(frozen=True)
class Request:
    kind: str  # "learn" | "unlearn"
    task: int

    def __post_init__(self):
        if self.kind not in ("learn", "unlearn"):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.task < 1:
            raise ValueError("task ids start at 1")

    def __str__(self) -> str:
        return f"{self.kind} {self.task}"


def parse_request(text: str) -> Request:
    parts = text.split()
    if len(parts) != 2 or not parts[1].isdigit():
        raise ValueError(f"bad request line {text!r}")
    return Request(parts[0], int(parts[1]))


def validate_sequence(requests) -> tuple[int, str] | None:
    """First violation as (index, reason), or None when the sequence is valid."""
    learned: set[int] = set()
    active: set[int] = set()
    for i, r in enumerate(requests):
        if r.kind == "learn":
            if r.task in learned:
                return i, f"task {r.task} learned twice"
            learned.add(r.task)
            active.add(r.task)
        else:
            if r.task not in active:
                return i, f"unlearn of task {r.task} which is not currently learned"
            active.remove(r.task)
    return None


def generate_sequence(tasks: int, unlearns: int, stream: RngStream) -> list[Request]:
    """Learns 1..T in order; N_u distinct unlearn targets at random valid slots.

    Targets are drawn uniformly without replacement; each unlearn request is
    then inserted, in draw order, at a position chosen uniformly among the
    slots after its learn request.
    """
    if not 0 <= unlearns <= tasks:
        raise ValueError("unlearn count must be between 0 and the task count")
    seq = [Request("learn", t) for t in range(1, tasks + 1)]
    if unlearns:
        targets = (stream.subset(tasks, unlearns) + 1).tolist()
        for t in targets:
            learn_at = next(i for i, r in enumerate(seq) if r.kind == "learn" and r.task == t)
            slot = learn_at + 1 + int(stream.randints(1, len(seq) - learn_at)[0])
            seq.insert(slot, Request("unlearn", t))
    bad = validate_sequence(seq)
    assert bad is None, bad
    return seq


@dataclass(frozen=True)
class TaskData:
    task: int
    x_train: np.ndarray
    y_train: np.ndarray  # labels local to the task, 0..classes-1
    x_test: np.ndarray
    y_test: np.ndarray


@dataclass(frozen=True)
class TaskSuite:
    input_dim: int
    classes_per_task: int
    tasks: dict[int, TaskData]

    @property
    def task_count(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class SuiteSpec:
    """Shape of a suite without its data; enough to rebuild a learner."""

    input_dim: int
    classes_per_task: int
    task_count: int


def make_synthetic_tasks(tasks: int, classes_per_task: int, dim: int,
                         train_per_class: int, test_per_class: int,
                         spread: float, noise: float, stream: RngStream) -> TaskSuite:
    """Gaussian blob suite; all draws come from the given stream."""
    total_classes = tasks * classes_per_task
    centers = spread * stream.normal(total_classes * dim).reshape(total_classes, dim)
    data: dict[int, TaskData] = {}
    for t in range(1, tasks + 1):
        xs_train, ys_train, xs_test, ys_test = [], [], [], []
        for c in range(classes_per_task):
            center = centers[(t - 1) * classes_per_task + c]
            block = stream.normal((train_per_class + test_per_class) * dim)
            block = noise * block.reshape(-1, dim) + center
            xs_train.append(block[:train_per_class])
            xs_test.append(block[train_per_class:])
            ys_train.append(np.full(train_per_class, c, dtype=np.int64))
            ys_test.append(np.full(test_per_class, c, dtype=np.int64))
        data[t] = TaskData(t, np.vstack(xs_train), np.concatenate(ys_train),
                           np.vstack(xs_test), np.concatenate(ys_test))
    return TaskSuite(dim, classes_per_task, data)


def seed_plan(master_seed: int, runs: int) -> list[int]:
    """Derived seeds for repeated runs: master, master+1, ..."""
    return [master_seed + i for i in range(runs)]


@dataclass
class Scenario:
    """Everything a run needs: generation parameters plus a rendered sequence."""

    seed: int
    tasks: int
    unlearns: int
    input_dim: int = 8
    classes_per_task: int = 2
    train_per_class: int = 200
    test_per_class: int = 200
    spread: float = 10.0
    noise: float = 1.0
    sequence: list[Request] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.tasks < 1:
            raise ValueError("need at least one task")
        if not 0 <= self.unlearns <= self.tasks:
            raise ValueError("unlearn count must be between 0 and the task count")
        if self.input_dim < 1 or self.classes_per_task < 2:
            raise ValueError("need input_dim >= 1 and classes_per_task >= 2")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ValueError("need at least one sample per class")
        if self.spread < 0.0 or self.noise < 0.0:
            raise ValueError("spread and noise must be non-negative")

    def suite_for_seed(self, seed: int) -> TaskSuite:
        stream = RngStream(seed, SUITE_STREAM_SLOT, "scenario")
        return make_synthetic_tasks(self.tasks, self.classes_per_task, self.input_dim,
                                    self.train_per_class, self.test_per_class,
                                    self.spread, self.noise, stream)

    def sequence_for_seed(self, seed: int) -> list[Request]:
        stream = RngStream(seed, SEQUENCE_STREAM_SLOT, "scenario")
        return generate_sequence(self.tasks, self.unlearns, stream)


def build_scenario(seed: int, tasks: int, unlearns: int, **dataset_params) -> Scenario:
    s = Scenario(seed, tasks, unlearns, **dataset_params)
    s.sequence = s.sequence_for_seed(seed)
    return s


_INT_KEYS = ("seed", "tasks", "unlearns", "input_dim", "classes_per_task",
             "train_per_class", "test_per_class")
_FLOAT_KEYS = ("spread", "noise")


def scenario_to_text(s: Scenario) -> str:
    lines = ["[params]"]
    for k in _INT_KEYS:
        lines.append(f"{k} = {getattr(s, k)}")
    for k in _FLOAT_KEYS:
        lines.append(f"{k} = {getattr(s, k)!r}")
    lines.append("[sequence]")
    lines.extend(str(r) for r in s.sequence)
    return "\n".join(lines) + "\n"


def scenario_from_text(text: str) -> Scenario:
    params: dict = {}
    sequence: list[Request] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("[params]", "[sequence]"):
            section = line
            continue
        if section == "[params]":
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            k, v = (p.strip() for p in line.split("=", 1))
            if k in params:
                raise ValueError(f"line {lineno}: key {k!r} given twice")
            if k in _INT_KEYS:
                params[k] = int(v)
            elif k in _FLOAT_KEYS:
                params[k] = float(v)
            else:
                raise ValueError(f"line {lineno}: unknown key {k!r}")
        elif section == "[sequence]":
            sequence.append(parse_request(line))
        else:
            raise ValueError(f"line {lineno}: content before any section")
    missing = [k for k in _INT_KEYS if k not in params]
    if missing:
        raise ValueError(f"scenario file missing keys: {missing}")
    s = Scenario(**params)
    s.sequence = sequence
    bad = validate_sequence(sequence)
    if bad is not None:
        raise ValueError(f"invalid sequence at request {bad[0]}: {bad[1]}")
    if any(not 1 <= r.task <= s.tasks for r in sequence):
        raise ValueError("sequence refers to a task outside 1..tasks")
    if sum(1 for r in sequence if r.kind == "learn") != s.tasks:
        raise ValueError("sequence does not learn every task exactly once")
    if sum(1 for r in sequence if r.kind == "unlearn") != s.unlearns:
        raise ValueError("sequence unlearn count does not match the header")
    return s


def write_scenario(path, s: Scenario) -> None:
    with open(path, "w") as fh:
        fh.write(scenario_to_text(s))


def read_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_text(fh.read())


def load_csv_tasks(train_path, test_path) -> TaskSuite:
    """Suite from two CSV files with columns f0..f{k-1}, label, task.

    Labels are remapped, per task, to 0..classes-1 in sorted order; every
    task must expose the same number of classes and appear in both files,
    and the task ids must be exactly 1..T.
    """
    def read(path):
        rows: dict[int, list] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[-2:] != ["label", "task"] or len(header) < 3:
                raise ValueError(f"{path}: expected feature columns then 'label,task'")
            dim = len(header) - 2
            for lineno, row in enumerate(reader, 2):
                if len(row) != len(header):
                    raise ValueError(f"{path}:{lineno}: wrong column count")
                try:
                    feats = [float(v) for v in row[:dim]]
                    label, task = int(row[dim]), int(row[dim + 1])
                except ValueError as e:
                    raise ValueError(f"{path}:{lineno}: {e}") from None
                rows.setdefault(task, []).append((feats, label))
        return dim, rows

    dim, train_rows = read(train_path)
    dim2, test_rows = read(test_path)
    if dim != dim2:
        raise ValueError("train and test files have different feature counts")
    if set(train_rows) != set(test_rows):
        raise ValueError("train and test files cover different tasks")
    if set(train_rows) != set(range(1, len(train_rows) + 1)):
        raise ValueError(f"task ids {sorted(train_rows)} are not exactly "
                         f"1..{len(train_rows)}")
    label_maps = {t: {lab: i for i, lab in enumerate(sorted({lab for _, lab in rows}))}
                  for t, rows in train_rows.items()}
    counts = {len(m) for m in label_maps.values()}
    if len(counts) != 1:
        raise ValueError("tasks have differing class counts")
    tasks: dict[int, TaskData] = {}
    for t in sorted(train_rows):
        def split(rows):
            x = np.array([f for f, _ in rows], dtype=np.float64)
            y = np.array([label_maps[t][lab] for _, lab in rows], dtype=np.int64)
            return x, y
        xtr, ytr = split(train_rows[t])
        xte, yte = split(test_rows[t])
        tasks[t] = TaskData(t, xtr, ytr, xte, yte)
    return TaskSuite(dim, counts.pop(), tasks)
