"""SGD-with-momentum and Adam over a flat parameter vector, with hard freezes.

``apply_update`` touches only entries whose update-mask bit is 1: values,
momentum/moment buffers and weight decay all skip frozen entries, so a
frozen parameter stays bit-identical no matter how many steps run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class OptimizerState:
    kind: str  # "sgd_momentum" | "adam"
    lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    buf: np.ndarray | None = None    # sgd momentum buffer
    m: np.ndarray | None = None      # adam first moment
    v: np.ndarray | None = None      # adam second moment


def make_optimizer(kind: str, d: int, lr: float, momentum: float = 0.9,
                   weight_decay: float = 0.0) -> OptimizerState:
    if kind == "sgd_momentum":
        return OptimizerState(kind, lr, momentum, weight_decay,
                              buf=np.zeros(d, dtype=np.float64))
    if kind == "adam":
        return OptimizerState(kind, lr, momentum, weight_decay,
                              m=np.zeros(d, dtype=np.float64),
                              v=np.zeros(d, dtype=np.float64))
    raise ValueError(f"unknown optimizer {kind!r}")


def apply_update(values: np.ndarray, grads: np.ndarray, opt: OptimizerState,
                 update_bits: np.ndarray) -> None:
    """One optimizer step in place, restricted to update_bits == 1 entries."""
    if values.shape != grads.shape or values.shape != update_bits.shape:
        raise ValueError("shape mismatch in update")
    idx = np.flatnonzero(update_bits)
    if idx.size == 0:
        return
    g = grads[idx]
    if opt.weight_decay:
        g = g + opt.weight_decay * values[idx]
    if opt.kind == "sgd_momentum":
        buf = opt.buf[idx] * opt.momentum + g
        opt.buf[idx] = buf
        values[idx] -= opt.lr * buf
    elif opt.kind == "adam":
        opt.step += 1
        m = opt.beta1 * opt.m[idx] + (1.0 - opt.beta1) * g
        v = opt.beta2 * opt.v[idx] + (1.0 - opt.beta2) * g * g
        opt.m[idx] = m
        opt.v[idx] = v
        mhat = m / (1.0 - opt.beta1**opt.step)
        vhat = v / (1.0 - opt.beta2**opt.step)
        values[idx] -= opt.lr * mhat / (np.sqrt(vhat) + opt.eps)
    else:
        raise ValueError(f"unknown optimizer {opt.kind!r}")
