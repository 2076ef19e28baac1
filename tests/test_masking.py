"""Mask selection budgets and tie-breaks, score-gradient surrogate, and
provenance bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subnet_unlearn.masking import (CapacityError, MaskRegistry, ProvenanceLedger,
                                    affected_params, init_scores, later_tasks,
                                    layer_budget, ste_score_grad, topk_mask)
from subnet_unlearn.net import build_mlp, init_params, kaiming_bound
from subnet_unlearn.rng import RngStream


def scores_for(arch, values=None):
    s = np.zeros(arch.d)
    if values is not None:
        s[: len(values)] = values
    return s


def bits(*values):
    return np.array(values, dtype=bool)


def indices(mask):
    return np.flatnonzero(mask).tolist()


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
    assert np.flatnonzero(mask[:6]).tolist() == [0, 1, 3]
    full = topk_mask(scores, 1.0, arch, 1)
    assert full[:6].all()


def test_topk_cut_through_tie_goes_to_lowest_index():
    # k = 3 takes 1.0 and 0.9, then one of the three entries tied at |0.5|.
    arch = build_mlp(2, (2,), 2, 1)
    scores = scores_for(arch, [0.5, -1.0, -0.5, 0.5, 0.9, -0.1])
    mask = topk_mask(scores, 0.5, arch, 1)
    assert np.flatnonzero(mask[:6]).tolist() == [0, 1, 4]


def test_topk_cut_through_tie_in_eligible_pool_goes_to_lowest_index():
    # With entry 0 out of the pool, the tie at |0.5| is between 2 and 3.
    arch = build_mlp(2, (2,), 2, 1)
    scores = scores_for(arch, [0.5, -1.0, -0.5, 0.5, 0.9, -0.1])
    eligible = arch.maskable_bits().copy()
    eligible[0] = False
    mask = topk_mask(scores, 0.5, arch, 1, eligible=eligible)
    assert np.flatnonzero(mask[:6]).tolist() == [1, 2, 4]


def test_topk_sets_only_active_head():
    arch = build_mlp(2, (2,), 2, 3)
    mask = topk_mask(scores_for(arch), 0.5, arch, 2)
    assert mask[arch.head_bits(2)].all()
    assert not mask[arch.head_bits(1)].any()
    assert not mask[arch.head_bits(3)].any()


def test_topk_respects_eligible_pool():
    arch = build_mlp(2, (2,), 2, 1)
    scores = scores_for(arch, [9.0, 8.0, 7.0, 6.0, 5.0, 4.0])
    eligible = arch.maskable_bits().copy()
    eligible[:2] = False   # best two entries out of bounds
    mask = topk_mask(scores, 0.5, arch, 1, eligible=eligible)
    assert np.flatnonzero(mask[:6]).tolist() == [2, 3, 4]


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
        got = int(mask[layer.start : layer.stop].sum())
        assert got == layer_budget(alpha, layer.size)
    assert mask[arch.head_bits(1)].all()
    assert not mask[arch.head_bits(2)].any()
    # Deterministic in its inputs.
    again = topk_mask(scores, alpha, arch, 1)
    np.testing.assert_array_equal(mask, again)


def _topk_lexsort(scores, alpha, arch, active_task, eligible=None):
    """The sort-based selection ``topk_mask`` replaced, kept as its oracle:
    per layer, lexsort the pool by |score| descending, then index ascending."""
    bits = np.zeros(arch.d, dtype=bool)
    for layer in arch.maskable_layers():
        k = layer_budget(alpha, layer.size)
        pool = np.arange(layer.start, layer.stop)
        if eligible is not None:
            pool = pool[eligible[layer.start : layer.stop]]
        if pool.size < k:
            raise CapacityError(
                f"layer {layer.name}: need {k} free entries, only {pool.size} left")
        mag = np.abs(scores[pool])
        order = np.lexsort((pool, -mag))
        bits[pool[order[:k]]] = True
    head = arch.head_layer(active_task)
    bits[head.start : head.stop] = True
    return bits


# Halves in [-2, 2] force ties; signed zeros, infinities and NaN mix in.
TOPK_SCORE = st.one_of(st.integers(-4, 4).map(lambda v: v / 2),
                       st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                       st.floats(-3.0, 3.0))


@st.composite
def topk_cases(draw):
    hidden = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    arch = build_mlp(draw(st.integers(1, 4)), hidden, 2, 2)
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True))
    scores = np.array(draw(st.lists(TOPK_SCORE, min_size=arch.d, max_size=arch.d)))
    eligible = None
    if draw(st.booleans()):
        eligible = np.array(draw(st.lists(st.booleans(), min_size=arch.d,
                                          max_size=arch.d)))
    return scores, alpha, arch, draw(st.integers(1, 2)), eligible


def _mask_or_capacity_message(fn, case):
    try:
        return fn(*case)
    except CapacityError as e:
        return str(e)


@given(topk_cases())
@settings(max_examples=300, deadline=None)
def test_topk_matches_lexsort_oracle(case):
    got = _mask_or_capacity_message(topk_mask, case)
    want = _mask_or_capacity_message(_topk_lexsort, case)
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        np.testing.assert_array_equal(got, want)


def test_init_scores_bounded_and_only_maskable():
    arch = build_mlp(3, (5,), 2, 2)
    scores = init_scores(arch, RngStream(0, 1, "score_init"))
    layer = arch.maskable_layers()[0]
    chunk = scores[layer.start : layer.stop]
    assert np.abs(chunk).max() < kaiming_bound(layer)
    assert np.all(scores[~arch.maskable_bits()] == 0.0)


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


# -------------------------------------------------------------- registry --

def test_registry_add_remove_union():
    reg = MaskRegistry(6)
    m1 = bits(1, 1, 0, 0, 0, 0)
    m2 = bits(0, 1, 1, 0, 0, 0)
    reg.add(1, m1)
    reg.add(2, m2)
    assert sorted(reg.masks) == [1, 2]
    assert indices(reg.union()) == [0, 1, 2]
    with pytest.raises(KeyError):
        reg.add(1, m1)
    reg.remove(1)
    assert indices(reg.union()) == [1, 2]
    assert indices(m2) == [1, 2]  # the union is a new array
    with pytest.raises(KeyError):
        reg.get(1)


def test_ledger_record_merge_erase_clear():
    led = ProvenanceLedger(6)
    led.record(1, bits(1, 0, 1, 0, 0, 0))
    led.record(1, bits(0, 1, 0, 0, 0, 0))
    assert indices(led.owned(1)) == [0, 1, 2]
    led.record(2, bits(0, 0, 1, 1, 0, 0))
    before = led.owned(1)
    led.erase(bits(1, 0, 1, 0, 0, 0))
    assert indices(led.owned(1)) == [1]
    assert indices(led.owned(2)) == [3]
    # An unlearn reads what the task owned after erasing it: erase builds
    # new arrays and leaves an earlier owned() result as it was.
    assert indices(before) == [0, 1, 2]
    led.clear(1)
    assert not led.owned(1).any()
    assert not led.owned(99).any()  # absent task owns nothing


def test_affected_params_filters_later_tasks_only():
    reg = MaskRegistry(8)
    led = ProvenanceLedger(8)
    led.record(1, bits(1, 1, 1, 0, 0, 0, 0, 0))
    reg.add(2, bits(0, 1, 0, 0, 0, 1, 0, 0))
    reg.add(3, bits(0, 0, 1, 0, 0, 0, 0, 1))
    got = affected_params(reg, led, 1, [2, 3])
    assert indices(got) == [1, 2]
    # Earlier tasks are frozen snapshots, never retrained.
    led.record(2, bits(0, 0, 0, 0, 0, 1, 0, 0))
    reg.add(1, bits(1, 1, 1, 0, 0, 0, 0, 0))
    assert not affected_params(reg, led, 2, [1, 3]).any()


def test_later_tasks_keeps_larger_ids_in_omega_order():
    assert later_tasks([3, 1, 4, 2], 2) == [3, 4]
    assert later_tasks([3, 1, 4, 2], 4) == []
