"""Learners for task-incremental learning with per-task unlearning.

Shared-subnetwork methods ("subnet", "static_sparse", "dynamic_sparse")
train one parameter vector under per-task bit masks and unlearn exactly:
every parameter a task's data wrote is reset to a fresh init draw, and for
the subnet method the entries shared with later tasks are then retrained
from the remaining replay buffers.  "sequential", "er"/"derpp" and
"independent" are reference baselines.

Determinism contract: every random draw is keyed by (master seed, task,
purpose), never by request position, so dropping a learn/unlearn pair from
a sequence leaves all other tasks' draws unchanged.  On top of that, each
learn starts by redrawing all unfrozen parameters from the incoming task's
init stream.  Both together make rewinding exact: running
[... learn t, unlearn t, suffix ...] leaves every retained mask, buffer,
and masked parameter bit-identical to the run without the pair.

Each learner names its state in ``sections()``, read by checkpoints and
``state_diffs``: the flat parameters, or per-task arrays or replay buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import net, rehearsal
from .masking import (CapacityError, MaskRegistry, ProvenanceLedger, affected_params,
                      init_scores, later_tasks, layer_budget, ste_score_grad, topk_mask)
from .metrics import AccuracyMatrix
from .net import MlpArch, ParamStore, build_mlp
from .optim import apply_update, make_optimizer
from .rng import StreamSet
from .scenario import Request, TaskSuite, validate_sequence


class RequestError(ValueError):
    """A request that the current learner state cannot accept."""


class UnknownTaskError(KeyError):
    """Prediction asked for a task this learner has never seen."""


@dataclass
class Hyperparams:
    alpha: float | None = None  # mask density; None means 1 / task_count
    epochs: int = 20
    batch_size: int = 32
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    optimizer: str = "sgd_momentum"
    n_retrain: int = 50
    beta: float = 0.5
    buffer_total: int = 500
    hidden: tuple = (64, 64)

    def validate(self) -> None:
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.n_retrain < 0:
            raise ValueError("n_retrain must be >= 0")
        if self.beta < 0.0:
            raise ValueError("beta must be >= 0")
        if self.optimizer not in ("sgd_momentum", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.buffer_total < 0:
            raise ValueError("buffer_total must be >= 0")


@dataclass
class RetrainEvent:
    """Bookkeeping for one unlearn request."""

    task: int
    reset_count: int    # entries reset to fresh draws
    shared_count: int   # entries shared with later tasks and retrained
    steps: int
    mean_abs_diff: float  # mean |after - reset| over the shared entries


class BaseLearner:
    method = "base"
    keeps_masks = False   # exact methods answer unlearned tasks at random
    uses_buffers = False  # keeps a replay buffer per learned task

    def __init__(self, suite: TaskSuite, hp: Hyperparams, master_seed: int):
        hp.validate()
        self.hp = hp
        self.task_count = suite.task_count
        self.alpha = hp.alpha if hp.alpha is not None else 1.0 / self.task_count
        self.arch: MlpArch = build_mlp(suite.input_dim, tuple(hp.hidden),
                                       suite.classes_per_task, self.task_count)
        self.master_seed = int(master_seed)
        self.streams = StreamSet(master_seed)
        self.omega: list[int] = []       # currently learned, in learn order
        self.ever_learned: set[int] = set()
        self.retrain_events: list[RetrainEvent] = []
        if self.uses_buffers:
            self.buffer_capacity = rehearsal.per_task_capacity(hp.buffer_total,
                                                               self.task_count)

    # -- request surface ---------------------------------------------------
    def learn(self, task: int, data) -> None:
        if task in self.ever_learned:
            raise RequestError(f"task {task} was already learned once")
        if not 1 <= task <= self.task_count:
            raise RequestError(f"task {task} outside 1..{self.task_count}")
        self._learn(task, data)
        self.omega.append(task)
        self.ever_learned.add(task)

    def unlearn(self, task: int) -> None:
        if task not in self.omega:
            raise RequestError(f"task {task} is not currently learned")
        self._unlearn(task)
        self.omega.remove(task)

    @property
    def unlearned(self) -> set[int]:
        return self.ever_learned - set(self.omega)

    def stream(self, task: int, purpose: str):
        return self.streams.stream(task, purpose)

    # -- prediction ---------------------------------------------------------
    def predict(self, task: int, x: np.ndarray) -> np.ndarray:
        if task not in self.ever_learned:
            raise UnknownTaskError(f"task {task} was never learned")
        if self.keeps_masks and task not in self.omega:
            # Exact methods hold nothing about an unlearned task: answer at
            # chance from a dedicated evaluation stream.
            n = np.atleast_2d(np.asarray(x)).shape[0]
            return self.stream(task, "eval").randints(n, self.arch.classes_per_task)
        return self._predict(task, x)

    def eval_task(self, task: int, x: np.ndarray, y: np.ndarray):
        labels = self.predict(task, x)
        return int((labels == np.asarray(y)).sum()), int(len(y))

    def evaluate_suite(self, suite: TaskSuite) -> dict:
        return {t: self.eval_task(t, d.x_test, d.y_test)
                for t, d in sorted(suite.tasks.items()) if t in self.ever_learned}

    # -- shared training loop pieces -----------------------------------------
    def _dense_update_bits(self, task: int) -> np.ndarray:
        """Hidden layers plus the active task's head; other heads stay frozen."""
        bits = self.arch.maskable_bits()
        bits |= self.arch.head_bits(task)
        return bits

    def _make_opt(self, decay: float | None = None):
        wd = self.hp.weight_decay if decay is None else decay
        return make_optimizer(self.hp.optimizer, self.arch.d, self.hp.lr,
                              self.hp.momentum, wd)

    def _train(self, task: int, data, params: ParamStore, update_bits: np.ndarray,
               mask=None, after_step=None) -> np.ndarray | None:
        """The training loop of every learner: per epoch, shuffled minibatches
        of the task's data.  A step backpropagates cross-entropy through
        ``mask`` (bits, None for dense, or a callable giving the step's
        bits), updates ``params`` where ``update_bits`` is set with
        ``_step_grads`` of the result, then calls ``after_step`` with it.
        Returns the mask after the last step."""
        opt = self._make_opt()
        n, size = data.x_train.shape[0], self.hp.batch_size
        for _ in range(self.hp.epochs):
            order = self.stream(task, "data_order").permutation(n)
            for idx in (order[i : i + size] for i in range(0, n, size)):
                bits = mask() if callable(mask) else mask
                logits, trace = net.forward_trace(params, bits, task, data.x_train[idx])
                _, dlogits = net.cross_entropy_grad(logits, data.y_train[idx])
                g = net.backward(trace, dlogits)
                apply_update(params.values, self._step_grads(g), opt, update_bits)
                if after_step is not None:
                    after_step(g)
        return mask() if callable(mask) else mask

    def _step_grads(self, g: net.GradBuffer) -> np.ndarray:
        """The gradient a training step applies; replay learners add theirs."""
        return g.params

    def _replay_grad(self, tasks, masks: dict, beta: float, grad: np.ndarray,
                     work: net.GradBuffer) -> np.ndarray:
        """Replay gradient, into ``grad``, over a fresh batch from each of
        ``tasks``' buffers (learners that keep ``buffers`` only)."""
        batches = rehearsal.draw_replay_batches(
            self.buffers, tasks, self.hp.batch_size,
            lambda t: self.stream(t, "retrain_order"))
        return rehearsal.replay_grad(self.params, masks, batches, beta, grad, work)[2]


class MaskedLearner(BaseLearner):
    """Single shared store plus per-task masks and provenance tracking."""

    keeps_masks = True

    def __init__(self, suite, hp, master_seed):
        super().__init__(suite, hp, master_seed)
        self.params = net.init_params(self.arch, self.stream(0, "param_init"))
        self.registry = MaskRegistry(self.arch.d)
        self.ledger = ProvenanceLedger(self.arch.d)
        self.buffers: dict[int, rehearsal.ReplayBuffer] = {}

    def _learn(self, task: int, data) -> None:
        free = ~self.registry.union()
        net.resample(self.params, free, self.stream(task, "param_init"))
        mask = self._train_subnetwork(task, data, free)
        self.registry.add(task, mask)
        self.ledger.record(task, mask & free)
        if self.uses_buffers:
            self.buffers[task] = rehearsal.fill_buffer(
                data.x_train, data.y_train, self.params, mask, task,
                self.buffer_capacity, self.stream(task, "buffer_sample"))
        net.resample(self.params, ~self.registry.union(), self.stream(task, "reinit_unused"))

    def _unlearn(self, task: int) -> None:
        if self.uses_buffers:
            rehearsal.delete_buffer(self.buffers, task)
        owned = self.ledger.owned(task)
        net.resample(self.params, owned, self.stream(task, "unlearn_reset"))
        later = later_tasks(self.omega, task)
        shared = affected_params(self.registry, self.ledger, task, later)
        steps = 0
        diff = 0.0
        if shared.any():
            reset_vals = self.params.values[shared]
            if self.uses_buffers and self.hp.n_retrain > 0:
                steps = self.hp.n_retrain
                self._retrain_shared(later, shared)
            diff = float(np.abs(self.params.values[shared] - reset_vals).mean())
        self.ledger.erase(owned)
        self.ledger.clear(task)
        if steps:
            for tau in later:
                self.ledger.record(tau, shared & self.registry.get(tau))
        self.registry.remove(task)
        self.retrain_events.append(RetrainEvent(
            task, int(np.count_nonzero(owned)), int(np.count_nonzero(shared)), steps, diff))

    def _retrain_shared(self, later: list[int], shared: np.ndarray) -> None:
        """Recover later tasks' use of the reset entries from their buffers."""
        masks = {t: self.registry.get(t) for t in later}
        opt = self._make_opt()
        grad = np.zeros(self.arch.d, dtype=np.float64)
        work = net.GradBuffer.zeros(self.arch.d)
        for _ in range(self.hp.n_retrain):
            self._replay_grad(later, masks, self.hp.beta, grad, work)
            apply_update(self.params.values, grad, opt, shared)

    def _score_train(self, task: int, data, free: np.ndarray,
                     eligible: np.ndarray | None) -> np.ndarray:
        """Optimize selection scores jointly with unfrozen weights."""
        scores = init_scores(self.arch, self.stream(task, "score_init"))
        score_bits = self.arch.maskable_bits() if eligible is None else eligible
        opt_s = self._make_opt(decay=0.0)

        def select() -> np.ndarray:
            return topk_mask(scores, self.alpha, self.arch, task, eligible)

        def update_scores(g: net.GradBuffer) -> None:
            sg = ste_score_grad(g.effective, self.params, score_bits)
            apply_update(scores, sg, opt_s, score_bits)

        return self._train(task, data, self.params, free, select, update_scores)

    def sections(self) -> dict:
        return {"params": self.params.values, "masks": self.registry.masks,
                "ledger": self.ledger.trained_by, "buffers": self.buffers}

    def _predict(self, task: int, x: np.ndarray) -> np.ndarray:
        logits = net.forward(self.params, self.registry.get(task), task, x)
        return np.argmax(logits, axis=1)


class SubnetLearner(MaskedLearner):
    """Top-k subnetworks that may reuse frozen weights; replay-based repair."""

    method = "subnet"
    uses_buffers = True

    def _train_subnetwork(self, task, data, free):
        return self._score_train(task, data, free, eligible=None)


class DisjointLearner(MaskedLearner):
    """Masks drawn only from still-free entries, so no two tasks share one."""

    def __init__(self, suite, hp, master_seed):
        super().__init__(suite, hp, master_seed)
        if self.alpha > 1.0 / self.task_count + 1e-12:
            raise CapacityError(
                f"alpha {self.alpha:g} cannot fit {self.task_count} disjoint masks; "
                "need alpha <= 1/task_count")


class DynamicSparseLearner(DisjointLearner):
    """Score-chosen subnetworks restricted to still-free entries (disjoint)."""

    method = "dynamic_sparse"

    def _train_subnetwork(self, task, data, free):
        eligible = free & self.arch.maskable_bits()
        return self._score_train(task, data, free, eligible)


class StaticSparseLearner(DisjointLearner):
    """Random fixed disjoint subnetwork per task."""

    method = "static_sparse"

    def _train_subnetwork(self, task, data, free):
        bits = np.zeros(self.arch.d, dtype=bool)
        stream = self.stream(task, "score_init")
        for layer in self.arch.maskable_layers():
            k = layer_budget(self.alpha, layer.size)
            pool = np.arange(layer.start, layer.stop)[free[layer.start : layer.stop]]
            if pool.size < k:
                raise CapacityError(
                    f"layer {layer.name}: need {k} free entries, only {pool.size} left")
            bits[pool[stream.subset(pool.size, k)]] = True
        bits[self.arch.head_bits(task)] = True
        return self._train(task, data, self.params, bits, bits)


class SequentialLearner(BaseLearner):
    """One dense model trained task after task; unlearning only edits the books."""

    method = "sequential"

    def __init__(self, suite, hp, master_seed):
        super().__init__(suite, hp, master_seed)
        self.params = net.init_params(self.arch, self.stream(0, "param_init"))

    def _learn(self, task, data) -> None:
        self._train(task, data, self.params, self._dense_update_bits(task))

    def _unlearn(self, task) -> None:
        pass  # parameters keep whatever they learned

    def sections(self) -> dict:
        return {"params": self.params.values}

    def _predict(self, task, x):
        return np.argmax(net.forward(self.params, None, task, x), axis=1)


class ReplayLearner(SequentialLearner):
    """Dense model with replay buffers; ``distills`` adds the stored-logit
    term at weight beta."""

    method = "er"
    uses_buffers = True
    distills = False

    def __init__(self, suite, hp, master_seed):
        super().__init__(suite, hp, master_seed)
        self.beta = hp.beta if self.distills else 0.0
        self.buffers: dict[int, rehearsal.ReplayBuffer] = {}
        # Replay gradient and backward workspace, overwritten by every step.
        self._grad = np.zeros(self.arch.d, dtype=np.float64)
        self._work = net.GradBuffer.zeros(self.arch.d)

    def sections(self) -> dict:
        return {"params": self.params.values, "buffers": self.buffers}

    def _step_grads(self, g: net.GradBuffer, exclude: int | None = None) -> np.ndarray:
        """The step's own gradient plus replay over every other buffered task."""
        tasks = [t for t in self.buffers if t != exclude]
        grad = self._replay_grad(tasks, {}, self.beta, self._grad, self._work)
        grad += g.params
        return grad

    def _learn(self, task, data) -> None:
        super()._learn(task, data)
        self.buffers[task] = rehearsal.fill_buffer(
            data.x_train, data.y_train, self.params, None, task,
            self.buffer_capacity, self.stream(task, "buffer_sample"))

    def _unlearn(self, task) -> None:
        # Finetune toward chance on the departing task's buffer while replaying
        # the others, then drop that buffer.
        update_bits = self._dense_update_bits(task)
        opt = self._make_opt()
        for _ in range(self.hp.n_retrain):
            xb, _, _ = rehearsal.sample_batch(self.buffers[task], self.hp.batch_size,
                                              self.stream(task, "retrain_order"))
            logits, trace = net.forward_trace(self.params, None, task, xb)
            _, dlogits = net.uniform_cross_entropy_grad(logits)
            g = net.backward(trace, dlogits)
            apply_update(self.params.values, self._step_grads(g, exclude=task), opt,
                         update_bits)
        rehearsal.delete_buffer(self.buffers, task)


class DistillingReplayLearner(ReplayLearner):
    """Replay with the stored-logit distillation term switched on."""

    method = "derpp"
    distills = True


class IndependentLearner(BaseLearner):
    """A fresh model per task; unlearning deletes the model outright."""

    method = "independent"
    keeps_masks = True  # holds nothing for unlearned tasks, answers at chance

    def __init__(self, suite, hp, master_seed):
        super().__init__(suite, hp, master_seed)
        self.stores: dict[int, np.ndarray] = {}  # task -> its model's values

    def _learn(self, task, data) -> None:
        params = net.init_params(self.arch, self.stream(task, "param_init"))
        self._train(task, data, params, self._dense_update_bits(task))
        self.stores[task] = params.values

    def _unlearn(self, task) -> None:
        del self.stores[task]

    def sections(self) -> dict:
        return {"stores": self.stores}

    def _predict(self, task, x):
        return np.argmax(net.forward(ParamStore(self.arch, self.stores[task]), None, task, x), axis=1)


LEARNERS = {cls.method: cls for cls in (
    SubnetLearner, SequentialLearner, IndependentLearner, ReplayLearner,
    DistillingReplayLearner, StaticSparseLearner, DynamicSparseLearner)}
METHODS = tuple(LEARNERS)
EXACT_METHODS = tuple(m for m, cls in LEARNERS.items() if cls.keeps_masks)


def make_learner(method: str, suite: TaskSuite, hp: Hyperparams,
                 master_seed: int) -> BaseLearner:
    if method not in LEARNERS:
        raise ValueError(f"unknown method {method!r}; pick one of {METHODS}")
    return LEARNERS[method](suite, hp, master_seed)


def process_request(learner: BaseLearner, request: Request, suite: TaskSuite,
                    matrix: AccuracyMatrix) -> None:
    """Apply one request, then score every ever-seen task's test set."""
    if request.kind == "learn":
        learner.learn(request.task, suite.tasks[request.task])
    else:
        learner.unlearn(request.task)
    matrix.append(request, list(learner.omega), learner.evaluate_suite(suite))


def run_sequence(method: str, suite: TaskSuite, hp: Hyperparams, master_seed: int,
                 sequence) -> tuple[BaseLearner, AccuracyMatrix]:
    bad = validate_sequence(sequence)
    if bad is not None:
        raise RequestError(f"invalid sequence at request {bad[0]}: {bad[1]}")
    learner = make_learner(method, suite, hp, master_seed)
    matrix = AccuracyMatrix()
    matrix.append(None, [], {})  # pre-run row
    for request in sequence:
        process_request(learner, request, suite, matrix)
    return learner, matrix


def audit_learner(learner: BaseLearner) -> list[str]:
    """The exact-unlearning audit: for each unlearned task, every state
    section other than the parameters that still holds it is one problem."""
    sections = learner.sections().items()
    return [f"task {t}: section {name!r} still holds it" for t in sorted(learner.unlearned)
            for name, sec in sections if name != "params" and t in sec]


def _bit_equal(u, v) -> bool:
    """Bit-equality of two arrays, or of two replay buffers' x, y and z."""
    if isinstance(u, rehearsal.ReplayBuffer):
        return all(np.array_equal(getattr(u, f), getattr(v, f)) for f in "xyz")
    return np.array_equal(u, v)


def state_diffs(a: BaseLearner, b: BaseLearner, suite: TaskSuite) -> list[str]:
    """Differences between two learners' visible state; empty means bit-equal.

    Compares every state section of two same-method learners and the
    predictions for every task still learned.  A masked learner's parameters
    count only under the mask union: outside it they hold unused draws.
    """
    if a.omega != b.omega:
        return [f"learned sets differ: {a.omega} vs {b.omega}"]
    diffs: list[str] = []
    theirs = b.sections()
    for name, sec in a.sections().items():
        other = theirs[name]
        if name == "params":
            keep = a.registry.union() if isinstance(a, MaskedLearner) else slice(None)
            if not np.array_equal(sec[keep], other[keep]):
                diffs.append("parameters differ")
        elif sorted(sec) != sorted(other):
            diffs.append(f"{name} cover different tasks: {sorted(sec)} vs {sorted(other)}")
        else:
            diffs += [f"{name} for task {t} differ" for t in sorted(sec)
                      if not _bit_equal(sec[t], other[t])]
    for t in a.omega:
        d = suite.tasks[t]
        if not np.array_equal(a.predict(t, d.x_test), b.predict(t, d.x_test)):
            diffs.append(f"predictions for task {t} differ")
    return diffs


def rewind_oracle(method: str, suite: TaskSuite, hp: Hyperparams, master_seed: int,
                  sequence, pair_task: int) -> list[str]:
    """Differences between running the sequence and running it without the
    adjacent learn/unlearn pair for ``pair_task``; empty list means bit-equal."""
    seq = list(sequence)
    idx = [i for i, r in enumerate(seq) if r.task == pair_task]
    if (len(idx) != 2 or seq[idx[0]].kind != "learn" or seq[idx[1]].kind != "unlearn"
            or idx[1] != idx[0] + 1):
        raise ValueError("sequence must contain exactly learn+unlearn of the pair "
                         "task, adjacent, and no other request for it")
    shorter = seq[: idx[0]] + seq[idx[1] + 1 :]
    full_l, _ = run_sequence(method, suite, hp, master_seed, seq)
    cut_l, _ = run_sequence(method, suite, hp, master_seed, shorter)
    return state_diffs(full_l, cut_l, suite)
