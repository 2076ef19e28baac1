"""Mask selection budgets and tie-breaks, bitset algebra and serialization,
score-gradient surrogate, and provenance bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnet_unlearn.masking import (BitMask, CapacityError, MaskRegistry,
                                    ProvenanceLedger, ScoreStore,
                                    affected_params, init_scores, later_tasks,
                                    layer_budget, ste_score_grad, topk_mask)
from subnet_unlearn.net import build_mlp, init_params, kaiming_bound
from subnet_unlearn.rng import RngStream


def scores_for(arch, values=None):
    s = ScoreStore(np.zeros(arch.d), arch.maskable_bits())
    if values is not None:
        s.values[: len(values)] = values
    return s


# ---------------------------------------------------------------- budget --

@pytest.mark.parametrize("alpha,size,expected", [
    (0.2, 576, 115),      # 115.2 rounds down
    (0.2, 4160, 832),     # exact
    (0.25, 6, 2),         # 1.5 rounds half up
    (1.0, 10, 10),
    (1e-9, 1000, 1),      # floor of at least one entry
    (0.5, 1, 1),
])
def test_layer_budget_rounds_half_up_with_floor_one(alpha, size, expected):
    assert layer_budget(alpha, size) == expected


# ------------------------------------------------------------------ topk --

def test_topk_magnitude_selection_and_lowest_index_ties():
    arch = build_mlp(2, (2,), 2, 1)   # one maskable layer of 6 entries
    scores = scores_for(arch, [1.0, -1.0, 0.5, 1.0, 0.2, 0.1])
    mask = topk_mask(scores, 0.5, arch, 1)
    assert np.flatnonzero(mask.bits[:6]).tolist() == [0, 1, 3]
    full = topk_mask(scores, 1.0, arch, 1)
    assert full.bits[:6].all()


def test_topk_sets_only_active_head():
    arch = build_mlp(2, (2,), 2, 3)
    mask = topk_mask(scores_for(arch), 0.5, arch, 2)
    assert mask.bits[arch.head_bits(2)].all()
    assert not mask.bits[arch.head_bits(1)].any()
    assert not mask.bits[arch.head_bits(3)].any()


def test_topk_respects_eligible_pool():
    arch = build_mlp(2, (2,), 2, 1)
    scores = scores_for(arch, [9.0, 8.0, 7.0, 6.0, 5.0, 4.0])
    eligible = arch.maskable_bits().copy()
    eligible[:2] = False   # best two entries out of bounds
    mask = topk_mask(scores, 0.5, arch, 1, eligible=eligible)
    assert np.flatnonzero(mask.bits[:6]).tolist() == [2, 3, 4]


def test_topk_capacity_error_when_pool_too_small():
    arch = build_mlp(2, (2,), 2, 1)
    eligible = arch.maskable_bits().copy()
    eligible[2:] = False  # pool of 2 < budget 3
    with pytest.raises(CapacityError):
        topk_mask(scores_for(arch), 0.5, arch, 1, eligible=eligible)


def test_topk_validates_alpha():
    arch = build_mlp(2, (2,), 2, 1)
    for bad in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            topk_mask(scores_for(arch), bad, arch, 1)


@given(st.integers(0, 2**31), st.floats(0.01, 1.0))
@settings(max_examples=60, deadline=None)
def test_topk_budget_property(seed, alpha):
    arch = build_mlp(3, (5, 4), 2, 2)
    scores = init_scores(arch, RngStream(seed, 0, "score_init"))
    mask = topk_mask(scores, alpha, arch, 1)
    for layer in arch.maskable_layers():
        got = int(mask.bits[layer.start : layer.stop].sum())
        assert got == layer_budget(alpha, layer.size)
    assert mask.bits[arch.head_bits(1)].all()
    assert not mask.bits[arch.head_bits(2)].any()
    # Deterministic in its inputs.
    again = topk_mask(scores, alpha, arch, 1)
    assert mask == again


def test_init_scores_bounded_and_only_maskable():
    arch = build_mlp(3, (5,), 2, 2)
    scores = init_scores(arch, RngStream(0, 1, "score_init"))
    layer = arch.maskable_layers()[0]
    chunk = scores.values[layer.start : layer.stop]
    assert np.abs(chunk).max() < kaiming_bound(layer)
    assert np.all(scores.values[~arch.maskable_bits()] == 0.0)


# ------------------------------------------------------------------- ste --

def test_ste_score_grad_is_effective_grad_times_weight():
    arch = build_mlp(2, (3,), 2, 1)
    params = init_params(arch, RngStream(1, 0, "param_init"))
    eff = RngStream(1, 1, "param_init").normal(arch.d)
    got = ste_score_grad(eff, params, arch.maskable_bits())
    maskable = arch.maskable_bits()
    np.testing.assert_allclose(got[maskable], (eff * params.values)[maskable],
                               atol=1e-15)
    assert np.all(got[~maskable] == 0.0)


def test_ste_score_grad_is_linear_in_effective_grads():
    arch = build_mlp(2, (3,), 2, 1)
    params = init_params(arch, RngStream(2, 0, "param_init"))
    e1 = RngStream(2, 1, "param_init").normal(arch.d)
    e2 = RngStream(2, 2, "param_init").normal(arch.d)
    lhs = ste_score_grad(e1 + 2.0 * e2, params, arch.maskable_bits())
    rhs = (ste_score_grad(e1, params, arch.maskable_bits())
           + 2.0 * ste_score_grad(e2, params, arch.maskable_bits()))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------- bitset --

def test_bitmask_algebra():
    a = BitMask.from_bits(np.array([1, 1, 0, 0], dtype=bool))
    b = BitMask.from_bits(np.array([0, 1, 1, 0], dtype=bool))
    assert (a & b).indices().tolist() == [1]
    assert (a | b).indices().tolist() == [0, 1, 2]
    assert (~a).indices().tolist() == [2, 3]
    assert a.count() == 2 and a.any()
    assert not BitMask.zeros(4).any()
    assert a == BitMask.from_bits(np.array([1, 1, 0, 0], dtype=bool))
    assert a != b


@given(st.lists(st.booleans(), min_size=1, max_size=100))
@settings(max_examples=80, deadline=None)
def test_bitmask_bytes_round_trip(bits):
    mask = BitMask.from_bits(np.array(bits, dtype=bool))
    back = BitMask.from_bytes(mask.to_bytes())
    assert back == mask
    assert back.bits.shape == mask.bits.shape


def test_layer_counts_names_layers():
    arch = build_mlp(2, (2,), 2, 1)
    bits = np.zeros(arch.d, dtype=bool)
    bits[:3] = True
    counts = BitMask.from_bits(bits).layer_counts(arch)
    assert counts["hidden0"] == 3
    assert counts["head1"] == 0


# -------------------------------------------------------------- registry --

def test_registry_add_remove_union():
    reg = MaskRegistry(6)
    m1 = BitMask.from_bits(np.array([1, 1, 0, 0, 0, 0], dtype=bool))
    m2 = BitMask.from_bits(np.array([0, 1, 1, 0, 0, 0], dtype=bool))
    reg.add(1, m1)
    reg.add(2, m2)
    assert reg.tasks() == [1, 2]
    assert reg.union().indices().tolist() == [0, 1, 2]
    with pytest.raises(KeyError):
        reg.add(1, m1)
    reg.remove(1)
    assert reg.union().indices().tolist() == [1, 2]
    with pytest.raises(KeyError):
        reg.get(1)


def test_ledger_record_merge_erase_clear():
    led = ProvenanceLedger(6)
    led.record(1, BitMask.from_bits(np.array([1, 0, 1, 0, 0, 0], dtype=bool)))
    led.record(1, BitMask.from_bits(np.array([0, 1, 0, 0, 0, 0], dtype=bool)))
    assert led.owned(1).indices().tolist() == [0, 1, 2]
    led.record(2, BitMask.from_bits(np.array([0, 0, 1, 1, 0, 0], dtype=bool)))
    led.erase(BitMask.from_bits(np.array([1, 0, 1, 0, 0, 0], dtype=bool)))
    assert led.owned(1).indices().tolist() == [1]
    assert led.owned(2).indices().tolist() == [3]
    led.clear(1)
    assert not led.owned(1).any()
    assert not led.owned(99).any()  # absent task owns nothing


def test_affected_params_filters_later_tasks_only():
    reg = MaskRegistry(8)
    led = ProvenanceLedger(8)
    led.record(1, BitMask.from_bits(np.array([1, 1, 1, 0, 0, 0, 0, 0], dtype=bool)))
    reg.add(2, BitMask.from_bits(np.array([0, 1, 0, 0, 0, 1, 0, 0], dtype=bool)))
    reg.add(3, BitMask.from_bits(np.array([0, 0, 1, 0, 0, 0, 0, 1], dtype=bool)))
    got = affected_params(reg, led, 1, [2, 3])
    assert got.indices().tolist() == [1, 2]
    # Earlier tasks are frozen snapshots, never retrained.
    led.record(2, BitMask.from_bits(np.array([0, 0, 0, 0, 0, 1, 0, 0], dtype=bool)))
    reg.add(1, BitMask.from_bits(np.array([1, 1, 1, 0, 0, 0, 0, 0], dtype=bool)))
    assert not affected_params(reg, led, 2, [1, 3]).any()


def test_later_tasks_keeps_larger_ids_in_omega_order():
    assert later_tasks([3, 1, 4, 2], 2) == [3, 4]
    assert later_tasks([3, 1, 4, 2], 4) == []
