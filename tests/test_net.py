"""Architecture layout, loss closed forms, manual backprop against finite
differences and a hand-derived chain rule, and optimizer update rules."""

import numpy as np
import pytest

from subnet_unlearn import net
from subnet_unlearn.net import (ParamStore, backward, build_mlp, cross_entropy,
                                cross_entropy_grad, forward, forward_trace,
                                init_params, kaiming_bound, logit_mse_grad,
                                resample,
                                uniform_cross_entropy_grad)
from subnet_unlearn.optim import apply_update, make_optimizer
from subnet_unlearn.rng import RngStream


def full_mask(arch):
    return np.ones(arch.d, dtype=bool)


# ---------------------------------------------------------------- layout --

def test_reference_architecture_size():
    arch = build_mlp(8, (64, 64), 2, 5)
    # 8*64+64 = 576, 64*64+64 = 4160, five heads of 64*2+2 = 130
    assert [l.size for l in arch.layers] == [576, 4160, 130, 130, 130, 130, 130]
    assert arch.d == 5386


def test_layers_are_contiguous_and_cover_every_slot():
    arch = build_mlp(3, (4, 5), 2, 3)
    stop = 0
    for layer in arch.layers:
        assert layer.start == stop
        stop = layer.stop
    assert stop == arch.d


def test_maskable_excludes_heads_and_head_bits_are_disjoint():
    arch = build_mlp(3, (4,), 2, 3)
    maskable = arch.maskable_bits()
    assert maskable.sum() == 3 * 4 + 4
    heads = [arch.head_bits(t) for t in (1, 2, 3)]
    for h in heads:
        assert not (maskable & h).any()
    assert not (heads[0] & heads[1]).any()
    assert (maskable | heads[0] | heads[1] | heads[2]).all()


def test_build_mlp_rejects_bad_dims():
    for bad in [(0, (4,), 2, 1), (3, (0,), 2, 1), (3, (4,), 1, 1), (3, (4,), 2, 0)]:
        with pytest.raises(ValueError):
            build_mlp(*bad)


def test_init_within_kaiming_bounds_and_deterministic():
    arch = build_mlp(6, (10,), 3, 2)
    params = init_params(arch, RngStream(4, 0, "param_init"))
    again = init_params(arch, RngStream(4, 0, "param_init"))
    np.testing.assert_array_equal(params.values, again.values)
    for layer in arch.layers:
        bound = kaiming_bound(layer)
        assert bound == pytest.approx((6.0 / layer.fan_in) ** 0.5)
        chunk = params.values[layer.start : layer.stop]
        assert np.abs(chunk).max() < bound
        assert chunk.min() < 0 < chunk.max()


def test_resample_touches_only_selected_bits():
    arch = build_mlp(5, (8,), 2, 2)
    params = init_params(arch, RngStream(1, 0, "param_init"))
    before = params.values.copy()
    bits = np.zeros(arch.d, dtype=bool)
    bits[3:17] = True
    resample(params, bits, RngStream(1, 1, "unlearn_reset"))
    assert not np.array_equal(params.values[bits], before[bits])
    np.testing.assert_array_equal(params.values[~bits], before[~bits])


def test_resample_all_bits_equals_fresh_init():
    # Both walk the layers in order with one draw call per layer.
    arch = build_mlp(5, (8,), 2, 2)
    params = init_params(arch, RngStream(1, 0, "param_init"))
    resample(params, np.ones(arch.d, dtype=bool), RngStream(2, 0, "param_init"))
    np.testing.assert_array_equal(
        params.values, init_params(arch, RngStream(2, 0, "param_init")).values)


# --------------------------------------------------------------- forward --

def test_masked_weight_has_no_effect():
    arch = build_mlp(2, (2,), 2, 1)
    params = init_params(arch, RngStream(3, 0, "param_init"))
    mask = full_mask(arch)
    x = np.array([[1.0, -2.0], [0.5, 0.25]])
    base = forward(params, mask, 1, x)
    mask[1] = False
    masked = forward(params, mask, 1, x)
    params.values[1] = 123.0  # dead slot: value must not matter
    np.testing.assert_array_equal(forward(params, mask, 1, x), masked)
    assert not np.array_equal(base, masked)


def test_forward_promotes_single_sample_and_validates():
    arch = build_mlp(3, (4,), 2, 1)
    params = init_params(arch, RngStream(1, 0, "param_init"))
    single = forward(params, None, 1, np.zeros(3))
    assert single.shape == (1, 2)
    with pytest.raises(ValueError):
        forward(params, None, 1, np.zeros((2, 5)))
    with pytest.raises(KeyError):
        forward(params, None, 9, np.zeros(3))


# ---------------------------------------------------------------- losses --

def test_cross_entropy_closed_forms():
    # Uniform logits: ln C. Two-logit margin 1: ln(1 + e^-1).
    logits = np.zeros((4, 3))
    assert cross_entropy(logits, np.array([0, 1, 2, 0])) == pytest.approx(
        np.log(3.0), abs=1e-12)
    two = np.array([[1.0, 0.0]])
    assert cross_entropy(two, np.array([0])) == pytest.approx(
        np.log1p(np.exp(-1.0)), abs=1e-12)


def test_cross_entropy_is_overflow_safe():
    logits = np.array([[1000.0, 0.0]])
    assert cross_entropy(logits, np.array([0])) == pytest.approx(0.0, abs=1e-12)
    assert cross_entropy(logits, np.array([1])) == pytest.approx(1000.0)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError):
        cross_entropy_grad(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError):
        cross_entropy_grad(np.zeros((2, 3)), np.array([-1, 0]))


def test_cross_entropy_grad_matches_softmax_identity():
    logits = np.array([[0.3, -1.2, 2.0], [0.0, 0.0, 0.0]])
    labels = np.array([2, 0])
    loss, grad = cross_entropy_grad(logits, labels)
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    onehot = np.eye(3)[labels]
    np.testing.assert_allclose(grad, (p - onehot) / 2, atol=1e-15)
    assert loss == pytest.approx(cross_entropy(logits, labels), abs=1e-15)


def test_logit_mse_examples():
    # One sample, diff (1, -1): squared L2 = 2.
    assert logit_mse_grad(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))[0] == pytest.approx(
        2.0, abs=1e-12)
    # Two samples with squared norms 2 and 4: mean 3.
    logits = np.array([[1.0, 1.0], [2.0, 0.0]])
    stored = np.zeros((2, 2))
    assert logit_mse_grad(logits, stored)[0] == pytest.approx(3.0, abs=1e-12)
    loss, grad = logit_mse_grad(logits, stored)
    assert loss == pytest.approx(3.0, abs=1e-12)
    np.testing.assert_allclose(grad, 2.0 * logits / 2, atol=1e-15)


def test_uniform_cross_entropy_grad():
    loss, grad = uniform_cross_entropy_grad(np.zeros((3, 4)))
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)
    assert loss == pytest.approx(np.log(4.0), abs=1e-12)
    # Pulls toward uniform: positive where softmax exceeds 1/C.
    _, g = uniform_cross_entropy_grad(np.array([[2.0, 0.0]]))
    assert g[0, 0] > 0 > g[0, 1]
    assert g.sum() == pytest.approx(0.0, abs=1e-15)


# -------------------------------------------------------------- backward --

def _fd_param_grads(params, mask, task, x, y, indices, h=1e-5):
    out = {}
    for j in indices:
        saved = params.values[j]
        params.values[j] = saved + h
        up = cross_entropy(forward(params, mask, task, x), y)
        params.values[j] = saved - h
        dn = cross_entropy(forward(params, mask, task, x), y)
        params.values[j] = saved
        out[j] = (up - dn) / (2 * h)
    return out


def test_backward_matches_finite_differences_under_mask():
    arch = build_mlp(3, (4,), 2, 2)
    params = init_params(arch, RngStream(6, 0, "param_init"))
    mask = full_mask(arch)
    mask[arch.layers[0].start : arch.layers[0].weight_stop : 2] = False
    x = RngStream(6, 0, "scenario").normal(5 * 3).reshape(5, 3)
    y = np.array([0, 1, 1, 0, 1])
    logits, trace = forward_trace(params, mask, 2, x)
    _, dlogits = cross_entropy_grad(logits, y)
    got = backward(trace, dlogits).params
    for j, fd in _fd_param_grads(params, mask, 2, x, y, range(arch.d)).items():
        assert got[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_backward_param_grads_are_zero_at_dead_slots():
    arch = build_mlp(3, (4,), 2, 1)
    params = init_params(arch, RngStream(2, 0, "param_init"))
    mask = full_mask(arch)
    mask[[0, 5, 7]] = False
    x = np.array([[0.2, -0.4, 1.0]])
    logits, trace = forward_trace(params, mask, 1, x)
    _, dlogits = cross_entropy_grad(logits, np.array([1]))
    grads = backward(trace, dlogits)
    assert grads.params[[0, 5, 7]].tolist() == [0.0, 0.0, 0.0]
    # ... while the dense effective grads at those slots may be nonzero.
    assert np.any(grads.effective[[0, 5, 7]] != 0.0)


def test_backward_matches_hand_derived_chain_rule():
    # Identity-shaped 2-(2,)-2 net, single sample x = (1, 0), label 0.
    arch = build_mlp(2, (2,), 2, 1)
    params = ParamStore(arch, np.zeros(arch.d))
    l0, head = arch.layers[0], arch.head_layer(1)
    params.weight(l0)[:] = np.eye(2)
    params.weight(head)[:] = np.eye(2)
    x = np.array([[1.0, 0.0]])
    y = np.array([0])
    logits, trace = forward_trace(params, full_mask(arch), 1, x)
    np.testing.assert_array_equal(logits, [[1.0, 0.0]])
    _, dlogits = cross_entropy_grad(logits, y)
    g = backward(trace, dlogits).params
    e = np.exp(1.0)
    q = 1.0 / (e + 1.0)              # softmax mass on the wrong class
    # dlogits = (p - onehot): (-q, q). Head weight grad = dlogits^T @ h,
    # h = (1, 0). Hidden delta = dlogits @ W_head * relu'(z), z = (1, 0),
    # relu' = (1, 0) with the derivative taken as 0 at the kink.
    np.testing.assert_allclose(g[head.start : head.weight_stop],
                               [-q, 0.0, q, 0.0], atol=1e-12)
    np.testing.assert_allclose(g[head.weight_stop : head.stop], [-q, q], atol=1e-12)
    np.testing.assert_allclose(g[l0.start : l0.weight_stop],
                               [-q, 0.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(g[l0.weight_stop : l0.stop], [-q, 0.0], atol=1e-12)


def test_backward_requires_trace_and_finite_values():
    arch = build_mlp(2, (2,), 2, 1)
    params = init_params(arch, RngStream(1, 0, "param_init"))
    with pytest.raises(TypeError):
        backward(np.zeros((1, 2)), np.zeros((1, 2)))
    _, trace = forward_trace(params, full_mask(arch), 1, np.array([[1.0, 2.0]]))
    with pytest.raises(FloatingPointError):
        backward(trace, np.array([[np.inf, 0.0]]))


# ------------------------------------------------------------- optimizer --

def test_sgd_momentum_two_step_golden():
    values = np.zeros(1)
    opt = make_optimizer("sgd_momentum", 1, lr=0.1, momentum=0.9, weight_decay=0.0)
    bits = np.ones(1, dtype=bool)
    apply_update(values, np.ones(1), opt, bits)
    assert values[0] == pytest.approx(-0.1, abs=1e-12)
    apply_update(values, np.ones(1), opt, bits)
    assert values[0] == pytest.approx(-0.29, abs=1e-12)


def test_sgd_weight_decay_folds_into_gradient():
    values = np.array([2.0])
    opt = make_optimizer("sgd_momentum", 1, lr=0.1, momentum=0.0, weight_decay=0.5)
    apply_update(values, np.zeros(1), opt, np.ones(1, dtype=bool))
    # effective grad = 0 + 0.5 * 2 = 1, step = -0.1
    assert values[0] == pytest.approx(1.9, abs=1e-12)


def test_adam_matches_hand_computed_steps():
    values = np.zeros(1)
    opt = make_optimizer("adam", 1, lr=0.01, weight_decay=0.0)
    g = np.array([0.5])
    m = v = 0.0
    expect = 0.0
    for t in (1, 2):
        apply_update(values, g, opt, np.ones(1, dtype=bool))
        m = 0.9 * m + 0.1 * 0.5
        v = 0.999 * v + 0.001 * 0.25
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        expect -= 0.01 * mhat / (vhat**0.5 + 1e-8)
        assert values[0] == pytest.approx(expect, abs=1e-14)


def test_frozen_bits_are_bit_identical_and_state_untouched():
    values = RngStream(8, 0, "param_init").normal(10)
    before = values.copy()
    opt = make_optimizer("sgd_momentum", 10, lr=0.05, momentum=0.9, weight_decay=1e-2)
    bits = np.zeros(10, dtype=bool)
    bits[::2] = True
    grads = RngStream(8, 1, "param_init").normal(10)
    apply_update(values, grads, opt, bits)
    np.testing.assert_array_equal(values[~bits], before[~bits])
    assert np.all(opt.buf[~bits] == 0.0)
    assert not np.array_equal(values[bits], before[bits])
