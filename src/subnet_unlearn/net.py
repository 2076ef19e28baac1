"""Flat-parameter MLP with per-task output heads and masked forward/backward.

All parameters live in one float64 vector.  Each layer owns a contiguous
slice: weights in row-major order followed by that layer's biases.  Hidden
layers are "maskable" (their weights and biases form one pool that sparse
masks select from); each task's head is a separate layer that is never
scored but is carried in masks as an all-or-nothing block.

A forward pass multiplies parameters by a 0/1 mask before use, so anything
outside the mask cannot influence predictions.  ``backward`` additionally
returns dense gradients with respect to the *effective* (masked) weights,
including slots whose mask bit is 0; score updates need those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream


@dataclass(frozen=True)
class LayerSpec:
    name: str
    kind: str  # "hidden" | "head"
    task: int | None  # head layers carry their task id
    out_dim: int
    in_dim: int
    start: int  # slice start in the flat vector
    stop: int   # slice stop; weights occupy [start, start+out*in), bias the rest

    @property
    def size(self) -> int:
        return self.stop - self.start

    @property
    def weight_stop(self) -> int:
        return self.start + self.out_dim * self.in_dim

    @property
    def fan_in(self) -> int:
        return self.in_dim


@dataclass(frozen=True)
class MlpArch:
    """Shapes of one multi-head MLP; shared by parameters, scores and masks."""

    input_dim: int
    hidden: tuple[int, ...]
    classes_per_task: int
    tasks: int
    layers: tuple[LayerSpec, ...]
    d: int

    def maskable_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.kind == "hidden")

    def head_layer(self, task: int) -> LayerSpec:
        for l in self.layers:
            if l.kind == "head" and l.task == task:
                return l
        raise KeyError(f"no head for task {task}")

    def head_bits(self, task: int) -> np.ndarray:
        bits = np.zeros(self.d, dtype=bool)
        l = self.head_layer(task)
        bits[l.start : l.stop] = True
        return bits

    def maskable_bits(self) -> np.ndarray:
        bits = np.zeros(self.d, dtype=bool)
        for l in self.maskable_layers():
            bits[l.start : l.stop] = True
        return bits


def build_mlp(input_dim: int, hidden: tuple[int, ...], classes_per_task: int, tasks: int) -> MlpArch:
    if input_dim <= 0 or tasks <= 0 or any(h <= 0 for h in hidden):
        raise ValueError("all layer dimensions must be positive")
    if classes_per_task < 2:
        raise ValueError("classification heads need at least two classes")
    if not hidden:
        raise ValueError("need at least one hidden layer")
    layers = []
    pos = 0
    prev = input_dim
    for i, h in enumerate(hidden):
        size = h * prev + h
        layers.append(LayerSpec(f"hidden{i}", "hidden", None, h, prev, pos, pos + size))
        pos += size
        prev = h
    for t in range(1, tasks + 1):
        size = classes_per_task * prev + classes_per_task
        layers.append(LayerSpec(f"head{t}", "head", t, classes_per_task, prev, pos, pos + size))
        pos += size
    return MlpArch(input_dim, tuple(hidden), classes_per_task, tasks, tuple(layers), pos)


@dataclass
class ParamStore:
    arch: MlpArch
    values: np.ndarray  # float64, shape (d,)

    def weight(self, layer: LayerSpec) -> np.ndarray:
        return self.values[layer.start : layer.weight_stop].reshape(layer.out_dim, layer.in_dim)

    def bias(self, layer: LayerSpec) -> np.ndarray:
        return self.values[layer.weight_stop : layer.stop]


def kaiming_bound(layer: LayerSpec) -> float:
    return float(np.sqrt(6.0 / layer.fan_in))


def init_params(arch: MlpArch, stream: RngStream) -> ParamStore:
    """Fresh parameters, each layer uniform on [-b, b] with b = sqrt(6 / fan_in).

    Biases use their layer's bound.  One stream call per layer, in layer order.
    """
    values = np.empty(arch.d, dtype=np.float64)
    for layer in arch.layers:
        b = kaiming_bound(layer)
        values[layer.start : layer.stop] = stream.uniform(-b, b, layer.size)
    return ParamStore(arch, values)


def resample(params: ParamStore, bits: np.ndarray, stream: RngStream) -> None:
    """Redraw the selected entries from the init distribution, in place.

    Walks layers in order; within a layer, entries are refilled in ascending
    index order with that layer's bound.  Layers with no selected entry
    consume no stream call.
    """
    for layer in params.arch.layers:
        sel = np.flatnonzero(bits[layer.start : layer.stop])
        if sel.size:
            b = kaiming_bound(layer)
            params.values[layer.start + sel] = stream.uniform(-b, b, sel.size)


@dataclass
class Trace:
    """Recorded forward pass; required by backward."""

    arch: MlpArch
    task: int
    mask: np.ndarray | None
    inputs: list            # per layer: input activations (batch, in_dim)
    gates: list             # per hidden layer: relu derivative (batch, out_dim)
    eff_weights: list       # per layer: masked weight matrix used


@dataclass
class GradBuffer:
    """Gradients from one backward pass.

    ``params``: d/d(raw parameter); zero wherever the mask bit is 0.
    ``effective``: d/d(masked parameter slot), dense over every layer, so a
    dead slot still reports upstream_sensitivity x input_activation.
    """

    params: np.ndarray
    effective: np.ndarray

    @staticmethod
    def zeros(d: int) -> "GradBuffer":
        return GradBuffer(np.zeros(d, dtype=np.float64), np.zeros(d, dtype=np.float64))


def _layer_params(params: ParamStore, layer: LayerSpec, mask: np.ndarray | None):
    w = params.weight(layer)
    b = params.bias(layer)
    if mask is None:
        return w, b
    mw = mask[layer.start : layer.weight_stop].reshape(layer.out_dim, layer.in_dim)
    mb = mask[layer.weight_stop : layer.stop]
    return w * mw, b * mb


def forward(params: ParamStore, mask: np.ndarray | None, task: int, x: np.ndarray) -> np.ndarray:
    """Logits of task's head; parameters enter as values * mask."""
    logits, _ = _run(params, mask, task, x, record=False)
    return logits


def forward_trace(params: ParamStore, mask: np.ndarray | None, task: int, x: np.ndarray):
    """Like forward, but records what backward needs; returns (logits, trace)."""
    return _run(params, mask, task, x, record=True)


def _run(params: ParamStore, mask: np.ndarray | None, task: int, x: np.ndarray, record: bool):
    arch = params.arch
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != arch.input_dim:
        raise ValueError(f"input has dim {x.shape[1]}, network expects {arch.input_dim}")
    head = arch.head_layer(task)  # raises KeyError for a missing head
    inputs, gates, effs = [], [], []
    a = x
    for layer in arch.maskable_layers():
        w_eff, b_eff = _layer_params(params, layer, mask)
        z = a @ w_eff.T + b_eff
        if record:
            inputs.append(a)
            gates.append(z > 0.0)
            effs.append(w_eff)
        a = np.maximum(z, 0.0)
    w_eff, b_eff = _layer_params(params, head, mask)
    logits = a @ w_eff.T + b_eff
    trace = Trace(arch, task, mask, inputs + [a], gates, effs + [w_eff]) if record else None
    return logits, trace


def backward(trace: Trace, dlogits: np.ndarray, out: GradBuffer | None = None) -> GradBuffer:
    """Backpropagate dloss/dlogits through a recorded forward pass.

    ``out``, when given, is overwritten and returned instead of allocating
    two fresh length-d vectors.
    """
    if not isinstance(trace, Trace):
        raise TypeError("backward needs the trace recorded by forward_trace")
    arch = trace.arch
    if out is None:
        out = GradBuffer.zeros(arch.d)
    else:  # the pass below writes every slot except other tasks' heads
        out.effective[arch.layers[len(arch.hidden)].start :] = 0.0
    g_param, g_eff = out.params, out.effective
    layers = list(arch.maskable_layers()) + [arch.head_layer(trace.task)]
    delta = np.asarray(dlogits, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):  # caught by the
        for i in range(len(layers) - 1, -1, -1):        # finiteness check
            layer = layers[i]
            a_in = trace.inputs[i]
            gw = delta.T @ a_in
            gb = delta.sum(axis=0)
            g_eff[layer.start : layer.weight_stop] = gw.ravel()
            g_eff[layer.weight_stop : layer.stop] = gb
            if i > 0:
                delta = (delta @ trace.eff_weights[i]) * trace.gates[i - 1]
    if trace.mask is None:
        g_param[:] = g_eff
    else:
        np.multiply(g_eff, trace.mask, out=g_param)
    if not np.all(np.isfinite(g_eff)):
        raise FloatingPointError("non-finite gradient")
    return out


def _check_logits(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim == 1:
        logits = logits[None, :]
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    return logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood; stable under large logits."""
    loss, _ = cross_entropy_grad(logits, labels)
    return loss


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray):
    logits = _check_logits(logits)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError("labels do not match logits batch")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label outside the class range")
    logp = _log_softmax(logits)
    loss = float(-logp[np.arange(n), labels].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def logit_mse_grad(logits: np.ndarray, stored: np.ndarray):
    logits = _check_logits(logits)
    stored = _check_logits(stored)
    if logits.shape != stored.shape:
        raise ValueError("logit shapes differ")
    diff = logits - stored
    n = logits.shape[0]
    loss = float((diff * diff).sum(axis=1).mean())
    return loss, 2.0 * diff / n


def uniform_cross_entropy_grad(logits: np.ndarray):
    """Mean cross-entropy against the uniform distribution over classes, and
    its gradient."""
    logits = _check_logits(logits)
    n, c = logits.shape
    logp = _log_softmax(logits)
    loss = float(-logp.mean(axis=1).sum() / n)
    dlogits = (np.exp(logp) - 1.0 / c) / n
    return loss, dlogits
