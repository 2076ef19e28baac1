"""Per-task bit masks, score-driven top-k selection, and parameter provenance.

A task's mask is a bool array over the flat parameter space.  It selects,
per maskable layer, the k entries with the largest absolute score
(k = max(1, round(alpha * layer_size)), ties to the lowest flat index) plus
every bit of that task's head.  The selection is a threshold, not a sort:
``np.partition`` finds the k-th largest |score| of the layer, every entry
above it is taken and the slots left over go to the entries equal to it,
lowest index first.  The registry holds the final mask of each
currently learned task; the provenance ledger records, per task, which
parameters that task's data has actually written, which is what exact
unlearning later resets.
"""

from __future__ import annotations

import numpy as np

from .net import MlpArch, ParamStore, kaiming_bound


class CapacityError(RuntimeError):
    """A layer has fewer free entries than the mask needs."""


def init_scores(arch: MlpArch, stream) -> np.ndarray:
    """Scores drawn like parameters (uniform, +-sqrt(6/fan_in)); heads stay 0."""
    scores = np.zeros(arch.d, dtype=np.float64)
    for layer in arch.maskable_layers():
        b = kaiming_bound(layer)
        scores[layer.start : layer.stop] = stream.uniform(-b, b, layer.size)
    return scores


def layer_budget(alpha: float, layer_size: int) -> int:
    """Mask bits granted to one layer: max(1, round(alpha * size)), half up."""
    return max(1, int(np.floor(alpha * layer_size + 0.5)))


def topk_mask(scores: np.ndarray, alpha: float, arch: MlpArch, active_task: int,
              eligible: np.ndarray | None = None) -> np.ndarray:
    """Mask (bool, d) with the k largest-|score| entries per layer, plus the
    active head.

    ``eligible`` (bool, d) restricts which entries may be picked; the budget k
    still comes from the full layer size, so too few eligible entries raises
    CapacityError.  Ties in |score| go to the lowest flat index; a NaN score
    ranks below every number.

    Per layer this is a threshold selection, not a sort: ``np.partition``
    finds the k-th largest |score|, every entry above it is taken, and the
    remaining slots go to the entries equal to it in ascending index order.
    """
    if not arch.maskable_layers():
        raise ValueError("no maskable layers")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    bits = np.zeros(arch.d, dtype=bool)
    for layer in arch.maskable_layers():
        k = layer_budget(alpha, layer.size)
        mag = np.abs(scores[layer.start : layer.stop])
        # Ranks: ineligible (-1) < NaN (-0.5) < every magnitude (>= 0).
        np.copyto(mag, -0.5, where=np.isnan(mag))
        if eligible is not None:
            free = eligible[layer.start : layer.stop]
            left = int(np.count_nonzero(free))
            if left < k:
                raise CapacityError(
                    f"layer {layer.name}: need {k} free entries, only {left} left")
            np.copyto(mag, -1.0, where=~free)
        kth = np.partition(mag, mag.size - k)[mag.size - k]
        picked = bits[layer.start : layer.stop]
        np.greater(mag, kth, out=picked)
        ties = np.flatnonzero(mag == kth)
        picked[ties[: k - np.count_nonzero(picked)]] = True
    head = arch.head_layer(active_task)
    bits[head.start : head.stop] = True
    return bits


def ste_score_grad(effective_grads: np.ndarray, params: ParamStore,
                   maskable: np.ndarray) -> np.ndarray:
    """Straight-through score gradient: effective-slot gradient times weight.

    Defined for every maskable entry, selected or not, so an unselected entry
    whose inclusion would lower the loss can still gain score.
    """
    g = np.zeros_like(effective_grads)
    np.multiply(effective_grads, params.values, out=g, where=maskable)
    return g


class MaskRegistry:
    """Final mask (bool, d) of every currently learned task."""

    def __init__(self, d: int):
        self.d = d
        self.masks: dict[int, np.ndarray] = {}

    def add(self, task: int, mask: np.ndarray) -> None:
        if task in self.masks:
            raise KeyError(f"task {task} already registered")
        self.masks[task] = mask

    def remove(self, task: int) -> None:
        del self.masks[task]

    def get(self, task: int) -> np.ndarray:
        return self.masks[task]

    def union(self) -> np.ndarray:
        """OR of all registered masks; all False when empty."""
        bits = np.zeros(self.d, dtype=bool)
        for m in self.masks.values():
            bits |= m
        return bits


class ProvenanceLedger:
    """Which parameters (bool, d) each task's data (or buffer) has written."""

    def __init__(self, d: int):
        self.d = d
        self.trained_by: dict[int, np.ndarray] = {}

    def record(self, task: int, bits: np.ndarray) -> None:
        self.trained_by[task] = self.owned(task) | bits

    def erase(self, bits: np.ndarray) -> None:
        """Drop the given indices from every task's set (their values were
        overwritten).  Builds new arrays, so an ``owned`` result taken
        before the erase keeps its bits."""
        inv = ~bits
        for task in list(self.trained_by):
            self.trained_by[task] = self.trained_by[task] & inv

    def clear(self, task: int) -> None:
        self.trained_by.pop(task, None)

    def owned(self, task: int) -> np.ndarray:
        """Parameters currently attributed to the task; empty if none recorded."""
        return self.trained_by.get(task, np.zeros(self.d, dtype=bool))


def later_tasks(omega, task: int) -> list[int]:
    """The tasks of ``omega`` counted as learned after ``task``: those with a
    larger id.  This decides which masks an unlearn retrains and re-records."""
    return [tau for tau in omega if tau > task]


def affected_params(registry: MaskRegistry, ledger: ProvenanceLedger, task: int,
                    omega) -> np.ndarray:
    """Entries later tasks share with ``task``'s owned set, so resetting them
    requires retraining: OR over tau in later_tasks(omega, task) of m_tau AND
    owned."""
    owned = ledger.owned(task)
    bits = np.zeros(registry.d, dtype=bool)
    for tau in later_tasks(omega, task):
        bits |= registry.get(tau) & owned
    return bits
