"""Per-task bit masks, score-driven top-k selection, and parameter provenance.

A task's mask selects, per maskable layer, the k entries with the largest
absolute score (k = max(1, round(alpha * layer_size)), ties to the lowest
flat index) plus every bit of that task's head.  The registry holds the
final mask of each currently learned task; the provenance ledger records,
per task, which parameters that task's data has actually written, which is
what exact unlearning later resets.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .net import MlpArch, ParamStore


class CapacityError(RuntimeError):
    """A layer has fewer free entries than the mask needs."""


@dataclass(frozen=True)
class BitMask:
    """Immutable bit vector over the flat parameter space."""

    bits: np.ndarray  # bool, shape (d,)

    @staticmethod
    def zeros(d: int) -> "BitMask":
        return BitMask(np.zeros(d, dtype=bool))

    @staticmethod
    def from_bits(bits: np.ndarray) -> "BitMask":
        return BitMask(np.asarray(bits, dtype=bool).copy())

    def __and__(self, other: "BitMask") -> "BitMask":
        return BitMask(self.bits & other.bits)

    def __or__(self, other: "BitMask") -> "BitMask":
        return BitMask(self.bits | other.bits)

    def __invert__(self) -> "BitMask":
        return BitMask(~self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, BitMask) and np.array_equal(self.bits, other.bits)

    def count(self) -> int:
        return int(np.count_nonzero(self.bits))

    def any(self) -> bool:
        return bool(self.bits.any())

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def layer_counts(self, arch: MlpArch) -> dict[str, int]:
        return {l.name: int(np.count_nonzero(self.bits[l.start : l.stop])) for l in arch.layers}

    def to_bytes(self) -> bytes:
        """Length-prefixed little-endian bit packing."""
        packed = np.packbits(self.bits, bitorder="little").tobytes()
        return struct.pack("<Q", self.bits.size) + packed

    @staticmethod
    def from_bytes(data: bytes) -> "BitMask":
        (n,) = struct.unpack_from("<Q", data, 0)
        packed = np.frombuffer(data, dtype=np.uint8, offset=8)
        bits = np.unpackbits(packed, count=n, bitorder="little").astype(bool)
        return BitMask(bits)


@dataclass
class ScoreStore:
    """Importance scores; meaningful only where ``maskable`` is set."""

    values: np.ndarray    # float64, shape (d,)
    maskable: np.ndarray  # bool, shape (d,); heads are always excluded


def init_scores(arch: MlpArch, stream) -> ScoreStore:
    """Scores drawn like parameters (uniform, +-sqrt(6/fan_in)), heads excluded."""
    from .net import kaiming_bound

    values = np.zeros(arch.d, dtype=np.float64)
    for layer in arch.maskable_layers():
        b = kaiming_bound(layer)
        values[layer.start : layer.stop] = stream.uniform(-b, b, layer.size)
    return ScoreStore(values, arch.maskable_bits())


def layer_budget(alpha: float, layer_size: int) -> int:
    """Mask bits granted to one layer: max(1, round(alpha * size)), half up."""
    return max(1, int(np.floor(alpha * layer_size + 0.5)))


def topk_mask(scores: ScoreStore, alpha: float, arch: MlpArch, active_task: int,
              eligible: np.ndarray | None = None) -> BitMask:
    """Mask with the k largest-|score| entries per layer, plus the active head.

    ``eligible`` (bool, d) restricts which entries may be picked; the budget k
    still comes from the full layer size, so too few eligible entries raises
    CapacityError.  Ties in |score| go to the lowest flat index.
    """
    if not arch.maskable_layers():
        raise ValueError("no maskable layers")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    bits = np.zeros(arch.d, dtype=bool)
    for layer in arch.maskable_layers():
        k = layer_budget(alpha, layer.size)
        pool = np.arange(layer.start, layer.stop)
        if eligible is not None:
            pool = pool[eligible[layer.start : layer.stop]]
        if pool.size < k:
            raise CapacityError(
                f"layer {layer.name}: need {k} free entries, only {pool.size} left")
        mag = np.abs(scores.values[pool])
        order = np.lexsort((pool, -mag))  # |score| desc, then index asc
        bits[pool[order[:k]]] = True
    head = arch.head_layer(active_task)
    bits[head.start : head.stop] = True
    return BitMask(bits)


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
    """Final mask of every currently learned task."""

    def __init__(self, d: int):
        self.d = d
        self.masks: dict[int, BitMask] = {}

    def add(self, task: int, mask: BitMask) -> None:
        if task in self.masks:
            raise KeyError(f"task {task} already registered")
        self.masks[task] = mask

    def remove(self, task: int) -> None:
        del self.masks[task]

    def get(self, task: int) -> BitMask:
        return self.masks[task]

    def tasks(self) -> list[int]:
        return sorted(self.masks)

    def union(self) -> BitMask:
        """OR of all registered masks; zero mask when empty."""
        bits = np.zeros(self.d, dtype=bool)
        for m in self.masks.values():
            bits |= m.bits
        return BitMask(bits)


class ProvenanceLedger:
    """Which parameters each task's data (or buffer) has written."""

    def __init__(self, d: int):
        self.d = d
        self.trained_by: dict[int, BitMask] = {}

    def record(self, task: int, bits: BitMask) -> None:
        prev = self.trained_by.get(task, BitMask.zeros(self.d))
        self.trained_by[task] = prev | bits

    def erase(self, bits: BitMask) -> None:
        """Drop the given indices from every task's set (their values were overwritten)."""
        inv = ~bits
        for task in list(self.trained_by):
            self.trained_by[task] = self.trained_by[task] & inv

    def clear(self, task: int) -> None:
        self.trained_by.pop(task, None)

    def owned(self, task: int) -> BitMask:
        """Parameters currently attributed to the task; empty if none recorded."""
        return self.trained_by.get(task, BitMask.zeros(self.d))


def later_tasks(omega, task: int) -> list[int]:
    """The tasks of ``omega`` counted as learned after ``task``: those with a
    larger id.  This decides which masks an unlearn retrains and re-records."""
    return [tau for tau in omega if tau > task]


def affected_params(registry: MaskRegistry, ledger: ProvenanceLedger, task: int,
                    omega) -> BitMask:
    """Entries later tasks share with ``task``'s owned set, so resetting them
    requires retraining: OR over tau in later_tasks(omega, task) of m_tau AND
    owned."""
    owned = ledger.owned(task)
    bits = np.zeros(registry.d, dtype=bool)
    for tau in later_tasks(omega, task):
        bits |= registry.get(tau).bits & owned.bits
    return BitMask(bits)
