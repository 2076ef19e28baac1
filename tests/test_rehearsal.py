"""Replay buffers: deterministic filling, stored-logit consistency, uniform
sampling, deletion semantics, loss decomposition, the replay gradient, and
serialization."""

import hashlib

import numpy as np
import pytest

from subnet_unlearn.net import GradBuffer, build_mlp, forward, init_params
from subnet_unlearn.rehearsal import (ReplayBuffer, buffers_from_bytes,
                                      buffers_to_bytes, delete_buffer,
                                      draw_replay_batches, fill_buffer,
                                      per_task_capacity, replay_grad,
                                      replay_loss, replay_terms, sample_batch)
from subnet_unlearn.rng import RngStream


@pytest.fixture
def small_net():
    arch = build_mlp(4, (6,), 2, 3)
    return arch, init_params(arch, RngStream(3, 0, "param_init"))


def make_data(n, dim, seed=0):
    x = RngStream(seed, 0, "scenario").normal(n * dim).reshape(n, dim)
    y = RngStream(seed, 1, "scenario").randints(n, 2)
    return x, y


def test_per_task_capacity():
    assert per_task_capacity(500, 5) == 100
    assert per_task_capacity(7, 3) == 2
    with pytest.raises(ValueError):
        per_task_capacity(3, 4)


def test_fill_is_deterministic_sorted_and_read_only(small_net):
    arch, params = small_net
    x, y = make_data(30, 4)
    buf = fill_buffer(x, y, params, None, 1, 8, RngStream(1, 1, "buffer_sample"))
    again = fill_buffer(x, y, params, None, 1, 8, RngStream(1, 1, "buffer_sample"))
    np.testing.assert_array_equal(buf.x, again.x)
    assert buf.x.shape == (8, 4)
    # Selection keeps the training-set order (sorted indices).
    rows = [np.flatnonzero((x == row).all(axis=1))[0] for row in buf.x]
    assert rows == sorted(rows)
    with pytest.raises(ValueError):
        buf.x[0, 0] = 9.0


def test_fill_caps_at_population(small_net):
    arch, params = small_net
    x, y = make_data(5, 4)
    buf = fill_buffer(x, y, params, None, 2, 100, RngStream(1, 2, "buffer_sample"))
    assert len(buf.y) == 5


def test_stored_logits_match_masked_forward(small_net):
    arch, params = small_net
    x, y = make_data(20, 4)
    mask = np.ones(arch.d, dtype=bool)
    mask[::5] = False
    mask[arch.head_bits(2)] = True
    buf = fill_buffer(x, y, params, mask, 2, 10, RngStream(4, 2, "buffer_sample"))
    np.testing.assert_array_equal(buf.z, forward(params, mask, 2, buf.x))
    # Mutating the net afterwards must not affect stored logits.
    params.values[:] += 1.0
    assert not np.array_equal(buf.z, forward(params, mask, 2, buf.x))


def test_sampling_is_uniform_with_replacement(small_net):
    arch, params = small_net
    x, y = make_data(4, 4)
    buf = fill_buffer(x, y, params, None, 1, 4, RngStream(7, 1, "buffer_sample"))
    stream = RngStream(7, 1, "retrain_order")
    hits = np.zeros(4)
    draws = 100_000
    bx, _, _ = sample_batch(buf, draws, stream)
    for i in range(4):
        hits[i] = (bx == buf.x[i]).all(axis=1).sum()
    freq = hits / draws
    assert np.all(np.abs(freq - 0.25) < 0.01)


def test_delete_buffer_removes_and_warns_when_absent(small_net):
    arch, params = small_net
    x, y = make_data(6, 4)
    buffers = {1: fill_buffer(x, y, params, None, 1, 4, RngStream(0, 1, "buffer_sample"))}
    delete_buffer(buffers, 1)
    assert buffers == {}
    with pytest.warns(UserWarning):
        delete_buffer(buffers, 1)


def test_replay_loss_decomposes_linearly_in_beta(small_net):
    arch, params = small_net
    x, y = make_data(16, 4, seed=5)
    buffers = {
        t: fill_buffer(x, y, params, None, t, 8, RngStream(5, t, "buffer_sample"))
        for t in (1, 2)
    }
    masks = {1: None, 2: None}
    def loss_at(beta):
        return replay_loss(params, buffers, masks, beta, 4,
                           lambda t: RngStream(5, t, "retrain_order"))
    ce = loss_at(0.0)
    dist = loss_at(1.0) - ce
    for beta in (0.0, 0.25, 0.5, 1.0):
        assert loss_at(beta) == pytest.approx(ce + beta * dist, abs=1e-12)
    assert dist >= 0.0


def test_replay_loss_empty_buffers_is_zero_with_warning(small_net):
    arch, params = small_net
    with pytest.warns(UserWarning):
        got = replay_loss(params, {}, {}, 0.5, 4,
                          lambda t: RngStream(0, t, "retrain_order"))
    assert got == 0.0


def _replay_setup():
    """Two buffered tasks, task 1 replayed through a mask and task 2 dense,
    with weights drifted after storage so the logit distance is nonzero."""
    arch = build_mlp(3, (4,), 2, 2)
    params = init_params(arch, RngStream(7, 0, "param_init"))
    x, y = make_data(10, 3, seed=7)
    buffers = {t: fill_buffer(x, y, params, None, t, 6, RngStream(7, t, "buffer_sample"))
               for t in (1, 2)}
    params.values += 0.05 * RngStream(7, 9, "scenario").normal(arch.d)
    mask = np.ones(arch.d, dtype=bool)
    mask[arch.layers[0].start : arch.layers[0].weight_stop : 2] = False
    batches = draw_replay_batches(buffers, (1, 2), 4,
                                  lambda t: RngStream(7, t, "retrain_order"))
    return arch, params, {1: mask}, batches


def test_replay_grad_matches_finite_differences_of_its_loss():
    arch, params, masks, batches = _replay_setup()
    beta = 0.5
    ce, dist, grad = replay_grad(params, masks, batches, beta)
    assert (ce, dist) == replay_terms(params, masks, batches)
    assert dist > 0.0
    h = 1e-5
    for j in range(arch.d):
        saved = params.values[j]
        params.values[j] = saved + h
        ce_up, dist_up = replay_terms(params, masks, batches)
        params.values[j] = saved - h
        ce_dn, dist_dn = replay_terms(params, masks, batches)
        params.values[j] = saved
        fd = ((ce_up + beta * dist_up) - (ce_dn + beta * dist_dn)) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)
    # Masked-out entries get nothing from task 1, only from dense task 2.
    assert grad[~masks[1]].any()


def test_replay_grad_overwrites_caller_buffers():
    arch, params, masks, batches = _replay_setup()
    _, _, fresh = replay_grad(params, masks, batches, 0.5)
    grad = np.full(arch.d, 3.0)
    work = GradBuffer(np.full(arch.d, 7.0), np.full(arch.d, 7.0))
    _, _, got = replay_grad(params, masks, batches, 0.5, grad, work)
    assert got is grad
    np.testing.assert_array_equal(got, fresh)


def test_buffer_bytes_are_pinned():
    x = np.arange(12, dtype=np.float64).reshape(4, 3) / 8.0 - 0.5
    z = np.array([[1.5, -2.25], [0.0, 3.0], [-0.125, 7.0], [1e-3, -1e300]])
    buffers = {5: ReplayBuffer(5, x[:2] * 3.0, np.array([1, 0]), z[:2]),
               2: ReplayBuffer(2, x, np.array([0, 1, 1, 0]), z)}
    data = buffers_to_bytes(buffers)
    assert len(data) == 360
    assert hashlib.sha256(data).hexdigest() == (
        "5055c13a499a5f445d815fb76a03b6144d19b0beccfeee76378f29ad0b6cf612")
    back = buffers_from_bytes(data)
    for t in (2, 5):
        np.testing.assert_array_equal(back[t].x, buffers[t].x)
        np.testing.assert_array_equal(back[t].y, buffers[t].y)
        np.testing.assert_array_equal(back[t].z, buffers[t].z)


def test_buffer_serialization_round_trip(small_net):
    arch, params = small_net
    x, y = make_data(12, 4, seed=9)
    buffers = {
        t: fill_buffer(x, y, params, None, t, 5, RngStream(9, t, "buffer_sample"))
        for t in (1, 3)
    }
    back = buffers_from_bytes(buffers_to_bytes(buffers))
    assert sorted(back) == [1, 3]
    for t in (1, 3):
        np.testing.assert_array_equal(back[t].x, buffers[t].x)
        np.testing.assert_array_equal(back[t].y, buffers[t].y)
        np.testing.assert_array_equal(back[t].z, buffers[t].z)
        assert back[t].task == t
    assert buffers_to_bytes(back) == buffers_to_bytes(buffers)
    assert buffers_from_bytes(buffers_to_bytes({})) == {}
