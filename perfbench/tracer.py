"""Per-layer self time, measured from outside the package.

``Tracer`` replaces package functions with timing wrappers at the names the
engine looks them up under: ``engine.topk_mask`` and friends are imported by
name into the engine module, ``net.*`` and ``rehearsal.*`` are reached as
module attributes, and ``RngStream``, ``BaseLearner`` and ``Scenario``
methods as class attributes.  ``remove`` puts every original back.

Each wrapped call inside a request becomes a span kept in memory (group,
parent span, start, end) and adds its self time (its duration minus the
durations of its child spans) to its group, so nested calls are never
counted twice.  Roots are the calls the benchmark makes itself:
``engine.process_request``, ``engine.audit_learner``,
``Scenario.suite_for_seed``/``sequence_for_seed`` and
``metrics.build_report``.  Layer calls outside a request stay unrecorded
and count toward their root's self time, so random draws made while
generating a suite belong to ``scenario``.  A draw method called by another
draw method is part of the outer draw.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

REQUEST = "engine.process_request"
RNG = "rng.draw"
RNG_METHODS = ("random", "uniform", "normal", "randints", "permutation", "subset")


def _count_updated(counts, args, result):
    counts["optim.updated_entries"] += int(args[3].sum())


def _count_rows(counts, args, result):
    counts["net.rows"] += len(result[0])


def _count_drawn(counts, args, result):
    counts["rehearsal.rows_drawn"] += len(result[0])


def _count_values(counts, args, result):
    counts["rng.values"] += result.size


def package_targets(engine, net, rehearsal, rng, scenario, metrics):
    """(owner, attribute, group, counter) for every wrapped function."""
    t = [
        (engine, "process_request", REQUEST, None),
        (engine, "audit_learner", "engine.audit_learner", None),
        (scenario.Scenario, "suite_for_seed", "scenario.suite_for_seed", None),
        (scenario.Scenario, "sequence_for_seed", "scenario.sequence_for_seed", None),
        (metrics, "build_report", "metrics.build_report", None),
        (engine.BaseLearner, "learn", "engine.learn", None),
        (engine.BaseLearner, "unlearn", "engine.unlearn", None),
        (engine.BaseLearner, "evaluate_suite", "engine.evaluate_suite", None),
        (engine, "topk_mask", "masking.topk_mask", None),
        (engine, "ste_score_grad", "masking.ste_score_grad", None),
        (engine, "affected_params", "masking.affected_params", None),
        (engine, "apply_update", "optim.apply_update", _count_updated),
        (net, "forward_trace", "net.forward_trace", _count_rows),
        (net, "backward", "net.backward", None),
        (net, "cross_entropy_grad", "net.loss_grad", None),
        (net, "logit_mse_grad", "net.loss_grad", None),
        (net, "uniform_cross_entropy_grad", "net.loss_grad", None),
        (net, "forward", "net.forward", None),
        (net, "resample", "net.resample", None),
        (rehearsal, "draw_replay_batches", "rehearsal.draw", None),
        (rehearsal, "sample_batch", "rehearsal.draw", _count_drawn),
        (rehearsal, "fill_buffer", "rehearsal.fill_buffer", None),
    ]
    t += [(rng.RngStream, m, RNG, _count_values) for m in RNG_METHODS]
    return t


ROOTS = (REQUEST, "engine.audit_learner", "scenario.suite_for_seed",
         "scenario.sequence_for_seed", "metrics.build_report")
COUNTS = ("optim.updated_entries", "net.rows", "rehearsal.rows_drawn", "rng.values")


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.groups = sorted({g for _, _, g, _ in self.targets})
        self.self_s = {g: 0.0 for g in self.groups}
        self.calls = {g: 0 for g in self.groups}
        self.counts = {c: 0 for c in COUNTS}
        self.request_s = 0.0
        # Spans, one entry per wrapped call: group index, parent span, times.
        self._group = array("H")
        self._parent = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack: list = []  # open spans: [span, child time, group]
        self._in_request = False
        self._saved: list = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, group, counter in self.targets:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, group, counter))

    def remove(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def leftover_wrappers(self) -> list[str]:
        """Targets that still hold a wrapper made by this tracer."""
        return [f"{owner.__name__}.{attr}" for owner, attr, _, _ in self.targets
                if getattr(owner.__dict__[attr], "tracer", None) is self]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, fn, group, counter):
        gid = self.groups.index(group)
        is_root = group in ROOTS
        is_request = group == REQUEST
        is_rng = group == RNG
        perf = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not is_root and (not self._in_request or (is_rng and stack[-1][2] == gid)):
                return fn(*args, **kwargs)
            span = len(self._group)
            self._group.append(gid)
            self._parent.append(stack[-1][0] if stack else -1)
            frame = [span, 0.0, gid]
            stack.append(frame)
            self._in_request = self._in_request or is_request
            t0 = perf()
            self._t0.append(t0)
            self._t1.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self._t1[span] = t1
                self.self_s[group] += dur - frame[1]
                self.calls[group] += 1
                if stack:
                    stack[-1][1] += dur
                if is_request:
                    self._in_request = False
                    self.request_s += dur
            if counter is not None:
                counter(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.tracer = self
        return wrapper

    @property
    def span_count(self) -> int:
        return len(self._group)

    def write_spans(self, path) -> None:
        """Save the spans as arrays: span i has group names[group[i]], parent
        span parent[i] (-1 for a root) and perf_counter times t0[i], t1[i]."""
        np.savez(path, names=np.array(self.groups),
                 group=np.frombuffer(self._group, dtype=np.uint16),
                 parent=np.frombuffer(self._parent, dtype=np.int32),
                 t0=np.frombuffer(self._t0), t1=np.frombuffer(self._t1))
