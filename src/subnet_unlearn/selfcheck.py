"""Fast built-in diagnostics: each check re-derives an expected value from
scratch and compares the engine against it.  All checks together stay well
under a minute."""

from __future__ import annotations

import numpy as np

from . import net, rehearsal
from .engine import Hyperparams, rewind_oracle
from .masking import topk_mask
from .net import build_mlp, init_params
from .rng import RngStream
from .scenario import Request, Scenario


def _tiny_suite():
    sc = Scenario(seed=5, tasks=3, unlearns=1, input_dim=4, classes_per_task=2,
                  train_per_class=12, test_per_class=12, spread=10.0, noise=1.0)
    return sc.suite_for_seed(5)


def check_grad_params():
    """Backward vs central finite differences on the raw parameters."""
    arch = build_mlp(3, (4,), 2, 2)
    params = init_params(arch, RngStream(1, 0, "param_init"))
    mask = np.ones(arch.d, dtype=bool)
    mask[::3] = False
    mask[arch.head_layer(1).start : arch.head_layer(1).stop] = True
    x = RngStream(1, 0, "scenario").normal(4 * 3).reshape(4, 3)
    y = np.array([0, 1, 1, 0])
    logits, trace = net.forward_trace(params, mask, 1, x)
    _, dlogits = net.cross_entropy_grad(logits, y)
    got = net.backward(trace, dlogits).params
    h = 1e-5
    for j in range(0, arch.d, 7):
        saved = params.values[j]
        params.values[j] = saved + h
        up = net.cross_entropy(net.forward(params, mask, 1, x), y)
        params.values[j] = saved - h
        dn = net.cross_entropy(net.forward(params, mask, 1, x), y)
        params.values[j] = saved
        fd = (up - dn) / (2 * h)
        if abs(got[j] - fd) > 1e-9 + 1e-6 * max(abs(got[j]), abs(fd)):
            raise AssertionError(f"param grad mismatch at {j}: {got[j]} vs {fd}")


def check_grad_scores():
    """Score gradient equals dense effective-slot gradient times the weight."""
    arch = build_mlp(3, (4,), 2, 1)
    params = init_params(arch, RngStream(2, 0, "param_init"))
    mask = np.zeros(arch.d, dtype=bool)
    mask[arch.head_layer(1).start : arch.head_layer(1).stop] = True
    layer = arch.maskable_layers()[0]
    mask[layer.start : layer.start + 8] = True  # a few first-layer weights
    mask[layer.weight_stop : layer.stop] = True  # all biases, so no unit
    # sits exactly on the relu kink where one-sided slopes differ
    x = RngStream(2, 0, "scenario").normal(2 * 3).reshape(2, 3)
    y = np.array([1, 0])
    logits, trace = net.forward_trace(params, mask, 1, x)
    _, dlogits = net.cross_entropy_grad(logits, y)
    eff = net.backward(trace, dlogits).effective
    h = 1e-5
    for j in range(layer.start, layer.stop, 3):
        saved = params.values[j]
        saved_bit = mask[j]
        mask[j] = True  # perturb the effective slot directly
        params.values[j] = (saved if saved_bit else 0.0) + h
        up = net.cross_entropy(net.forward(params, mask, 1, x), y)
        params.values[j] = (saved if saved_bit else 0.0) - h
        dn = net.cross_entropy(net.forward(params, mask, 1, x), y)
        params.values[j] = saved
        mask[j] = saved_bit
        fd = (up - dn) / (2 * h)
        if abs(eff[j] - fd) > 1e-9 + 1e-6 * max(abs(eff[j]), abs(fd)):
            raise AssertionError(f"effective grad mismatch at {j}: {eff[j]} vs {fd}")


def check_topk():
    """Budget counts and lowest-index tie-breaking of the mask selection."""
    arch = build_mlp(2, (2,), 2, 1)  # one maskable layer of 2*2+2 = 6 entries
    scores = np.zeros(arch.d)
    scores[:6] = [1.0, -1.0, 0.5, 1.0, 0.2, 0.1]
    mask = topk_mask(scores, 0.5, arch, 1)
    picked = sorted(np.flatnonzero(mask[:6]).tolist())
    if picked != [0, 1, 3]:  # |1.0| tie between 0, 1(sign), 3 -> lowest indices win
        raise AssertionError(f"tie-break picked {picked}, expected [0, 1, 3]")
    scores[:6] = [0.5, -1.0, -0.5, 0.5, 0.9, -0.1]
    picked = np.flatnonzero(topk_mask(scores, 0.5, arch, 1)[:6]).tolist()
    if picked != [0, 1, 4]:  # k cuts through the |0.5| tie of 0, 2, 3
        raise AssertionError(f"cut-through tie picked {picked}, expected [0, 1, 4]")
    full = topk_mask(scores, 1.0, arch, 1)
    if int(full[:6].sum()) != 6:
        raise AssertionError("alpha=1 must select the whole layer")


def check_replay_decomposition():
    """Replay loss must equal its cross-entropy part plus beta times its
    logit-distance part, with identical batches."""
    arch = build_mlp(4, (6,), 2, 3)
    params = init_params(arch, RngStream(3, 0, "param_init"))
    suite = _tiny_suite()
    buffers = {}
    for t in (1, 2):
        d = suite.tasks[t]
        buffers[t] = rehearsal.fill_buffer(d.x_train, d.y_train, params, None, t, 8,
                                           RngStream(3, t, "buffer_sample"))
    masks = {1: None, 2: None}
    losses = {}
    for beta in (0.0, 0.5, 1.0):
        losses[beta] = rehearsal.replay_loss(
            params, buffers, masks, beta, 4,
            lambda t: RngStream(3, t, "retrain_order"))
    ce, dist = losses[0.0], losses[1.0] - losses[0.0]
    for beta in (0.0, 0.5, 1.0):
        if abs(losses[beta] - (ce + beta * dist)) > 1e-12:
            raise AssertionError(f"replay loss at beta={beta} is not ce + beta*dist")


def check_rewind():
    """Dropping an adjacent learn+unlearn pair must leave state bit-identical."""
    suite = _tiny_suite()
    hp = Hyperparams(epochs=2, batch_size=6, hidden=(8,), buffer_total=12, n_retrain=5)
    seq = [Request("learn", 1), Request("learn", 2), Request("unlearn", 2),
           Request("learn", 3)]
    diffs = rewind_oracle("subnet", suite, hp, 17, seq, pair_task=2)
    if diffs:
        raise AssertionError("; ".join(diffs))


CHECKS = [
    ("grad_params", check_grad_params),
    ("grad_scores", check_grad_scores),
    ("topk_ties", check_topk),
    ("replay_decomposition", check_replay_decomposition),
    ("rewind_pair", check_rewind),
]


def run_selfcheck(name_filter: str = "") -> tuple[int, str | None]:
    """(checks run, first failure message or None)."""
    ran = 0
    for name, fn in CHECKS:
        if name_filter and name_filter not in name:
            continue
        ran += 1
        try:
            fn()
            print(f"ok   {name}")
        except Exception as e:  # report the first failing check by name
            print(f"FAIL {name}: {e}")
            return ran, f"{name}: {e}"
    return ran, None
