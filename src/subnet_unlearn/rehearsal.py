"""Replay buffers: per-task exemplars with the logits recorded at storage time.

Entries are immutable after the fill.  The replay loss over a set of
buffers is, per task, the batch-mean cross-entropy through that task's
masked forward plus beta times the batch-mean squared logit distance,
summed over tasks.  beta = 0 gives plain experience replay, beta = 0.5
adds the dark-knowledge term.  ``replay_grad`` computes it with its gradient.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import net
from .net import ParamStore


@dataclass(frozen=True)
class ReplayBuffer:
    task: int
    x: np.ndarray  # (n, input_dim) float64
    y: np.ndarray  # (n,) int64, labels local to the task's head
    z: np.ndarray  # (n, classes) float64, logits recorded when stored

    def __len__(self) -> int:
        return self.x.shape[0]


def per_task_capacity(total: int, tasks: int) -> int:
    """Slots each task gets out of a total budget: floor(total / tasks)."""
    cap = total // tasks
    if cap < 1:
        raise ValueError(f"budget {total} leaves no slot per task for {tasks} tasks")
    return cap


def fill_buffer(x_train: np.ndarray, y_train: np.ndarray, params: ParamStore,
                mask: np.ndarray | None, task: int, capacity: int, stream) -> ReplayBuffer:
    """min(capacity, n) exemplars uniform without replacement, logits included."""
    n = x_train.shape[0]
    take = min(capacity, n)
    idx = np.sort(stream.subset(n, take))
    x = np.array(x_train[idx], dtype=np.float64)
    y = np.array(y_train[idx], dtype=np.int64)
    z = net.forward(params, mask, task, x)
    for arr in (x, y, z):
        arr.setflags(write=False)
    return ReplayBuffer(task, x, y, z)


def delete_buffer(buffers: dict[int, ReplayBuffer], task: int) -> None:
    """Remove a task's buffer; deleting an absent one only warns."""
    if task in buffers:
        del buffers[task]
    else:
        warnings.warn(f"no buffer stored for task {task}", stacklevel=2)


def sample_batch(buffer: ReplayBuffer, size: int, stream):
    """Uniform batch with replacement."""
    idx = stream.randints(size, len(buffer))
    return buffer.x[idx], buffer.y[idx], buffer.z[idx]


def draw_replay_batches(buffers: dict[int, ReplayBuffer], tasks, size: int, stream_for):
    """One batch per requested task, drawn via stream_for(task)."""
    return {t: sample_batch(buffers[t], size, stream_for(t)) for t in sorted(tasks)}


def replay_grad(params: ParamStore, masks: dict, batches: dict, beta: float,
                grad: np.ndarray | None = None, work: net.GradBuffer | None = None):
    """(cross-entropy term, logit-distance term, gradient of ce + beta * dist
    w.r.t. the raw parameters) over the batches; every replay path runs this.

    masks maps task -> mask bits, absent or None for a dense forward.  A
    caller that passes ``grad`` (overwritten) and ``work`` (backward's
    output) makes the call allocate no length-d vector.
    """
    if grad is None:
        grad = np.zeros(params.arch.d, dtype=np.float64)
    else:
        grad.fill(0.0)
    ce = 0.0
    dist = 0.0
    for t in sorted(batches):
        xb, yb, zb = batches[t]
        logits, trace = net.forward_trace(params, masks.get(t), t, xb)
        ce_t, dce = net.cross_entropy_grad(logits, yb)
        dist_t, dmse = net.logit_mse_grad(logits, zb)
        grad += net.backward(trace, dce + beta * dmse, work).params
        ce += ce_t
        dist += dist_t
    return ce, dist, grad


def replay_terms(params: ParamStore, masks: dict, batches: dict):
    """(cross-entropy term, logit-distance term) of ``replay_grad``."""
    return replay_grad(params, masks, batches, 0.0)[:2]


def replay_loss(params: ParamStore, buffers: dict[int, ReplayBuffer], masks: dict,
                beta: float, batch_size: int, stream_for) -> float:
    """Summed replay loss over every buffered task; 0 with a warning if none."""
    if not buffers:
        warnings.warn("replay loss over an empty buffer set", stacklevel=2)
        return 0.0
    batches = draw_replay_batches(buffers, buffers.keys(), batch_size, stream_for)
    ce, dist = replay_terms(params, masks, batches)
    return ce + beta * dist


def _row_dtype(xdim: int, zdim: int) -> np.dtype:
    """One packed little-endian buffer record: x, then y, then z."""
    return np.dtype([("x", "<f8", (xdim,)), ("y", "<i8"), ("z", "<f8", (zdim,))])


def buffers_to_bytes(buffers: dict[int, ReplayBuffer]) -> bytes:
    """Per task: id, entry count, dims, then packed little-endian records."""
    out = [struct.pack("<Q", len(buffers))]
    for t in sorted(buffers):
        b = buffers[t]
        rows = np.empty(len(b), _row_dtype(b.x.shape[1], b.z.shape[1]))
        rows["x"], rows["y"], rows["z"] = b.x, b.y, b.z
        out.append(struct.pack("<qQQQ", t, len(b), b.x.shape[1], b.z.shape[1]))
        out.append(rows.tobytes())
    return b"".join(out)


def buffers_from_bytes(data: bytes) -> dict[int, ReplayBuffer]:
    (count,) = struct.unpack_from("<Q", data, 0)
    pos = 8
    buffers: dict[int, ReplayBuffer] = {}
    for _ in range(count):
        t, n, xdim, zdim = struct.unpack_from("<qQQQ", data, pos)
        pos += 32
        dtype = _row_dtype(xdim, zdim)
        rows = np.frombuffer(data, dtype, n, pos)
        pos += n * dtype.itemsize
        x = np.array(rows["x"], dtype=np.float64)
        y = np.array(rows["y"], dtype=np.int64)
        z = np.array(rows["z"], dtype=np.float64)
        for arr in (x, y, z):
            arr.setflags(write=False)
        buffers[t] = ReplayBuffer(t, x, y, z)
    return buffers
