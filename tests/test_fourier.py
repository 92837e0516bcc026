"""Closed forms checked against direct per-coefficient enumeration."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqlab.errors import RetryBudgetError, ScaleError
from gqlab.fourier import (
    FourierTable,
    bv_with_size_oracle,
    exact_half_coefficient_01,
    exact_half_level_weights,
    exact_half_level_weights_pm1,
    exact_half_truth,
    fourier_table,
    learn_symmetric_junta,
    maj_coefficient,
    maj_level_weights,
    maj_truth,
)


def popcount_u32(arr):
    arr = arr.astype(np.uint32)
    arr = arr - ((arr >> 1) & 0x55555555)
    arr = (arr & 0x33333333) + ((arr >> 2) & 0x33333333)
    return (((arr + (arr >> 4)) & 0x0F0F0F0F) * 0x01010101) >> 24


def brute_coefficient_pm1(table, k, mask):
    """Direct 2^k summation, no butterfly."""
    x = np.arange(1 << k, dtype=np.uint32)
    signs = np.where(np.asarray(table) == 1, -1.0, 1.0)
    chi = np.where(popcount_u32(x & mask) & 1, -1.0, 1.0)
    return float(np.mean(signs * chi))


def brute_coefficient_01(table, k, mask):
    x = np.arange(1 << k, dtype=np.uint32)
    chi = np.where(popcount_u32(x & mask) & 1, -1.0, 1.0)
    return float(np.mean(np.asarray(table, dtype=np.float64) * chi))


def test_table_matches_brute_force_on_random_functions():
    rng = np.random.default_rng(7)
    for k in (1, 2, 3, 5):
        table = rng.integers(0, 2, size=1 << k)
        ft = fourier_table(table, k)
        for mask in range(1 << k):
            assert ft.coefficient(mask) == pytest.approx(
                brute_coefficient_pm1(table, k, mask), abs=1e-12
            )


def test_table_rejects_bad_input():
    with pytest.raises(ValueError):
        fourier_table([0, 1, 2, 0], 2)
    with pytest.raises(ValueError):
        fourier_table([0, 1, 1], 2)
    with pytest.raises(ScaleError):
        fourier_table([0] * (1 << 21), 21)


@given(st.integers(min_value=1, max_value=7), st.integers())
@settings(max_examples=40, deadline=None)
def test_parseval_and_level_weights_sum(k, seed):
    rng = np.random.default_rng(seed % (2**32))
    table = rng.integers(0, 2, size=1 << k)
    ft = fourier_table(table, k)
    weights = ft.level_weights()
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert len(weights) == k + 1
    assert (weights >= -1e-15).all()


# -- majority ---------------------------------------------------------------

def test_maj3_frozen_values():
    assert maj_coefficient(3, 1) == pytest.approx(0.5)
    assert maj_coefficient(3, 3) == pytest.approx(-0.5)
    assert maj_coefficient(3, 0) == 0.0
    assert maj_coefficient(3, 2) == 0.0
    weights = fourier_table(maj_truth(3), 3).level_weights()
    assert np.allclose(weights, [0.0, 0.75, 0.0, 0.25])


@pytest.mark.parametrize("k", [1, 3, 5, 7, 9, 11, 13, 15])
def test_maj_closed_form_matches_brute_force(k):
    # every subset size; representative mask plus two random ones per size
    table = maj_truth(k)
    rng = np.random.default_rng(k)
    for l in range(k + 1):
        masks = {(1 << l) - 1}
        while len(masks) < min(3, math.comb(k, l)):
            picks = rng.choice(k, size=l, replace=False)
            masks.add(int(sum(1 << int(v) for v in picks)))
        for mask in masks:
            assert maj_coefficient(k, l) == pytest.approx(
                brute_coefficient_pm1(table, k, mask), abs=1e-12
            )


@pytest.mark.parametrize("k", [3, 5, 9, 13])
def test_maj_level_weights_match_table(k):
    direct = fourier_table(maj_truth(k), k).level_weights()
    closed = maj_level_weights(k)
    assert np.allclose(direct, closed, atol=1e-12)
    assert closed.sum() == pytest.approx(1.0, abs=1e-12)


def test_maj_level_weights_cached_read_only():
    # one shared array per k, equal to the closed form computed afresh
    for k in range(1, 130, 2):
        weights = maj_level_weights(k)
        closed = np.zeros(k + 1)
        for l in range(1, k + 1, 2):
            top = math.comb((k - 1) // 2, (l - 1) // 2) * math.comb(k - 1, (k - 1) // 2)
            coeff = top / math.comb(k - 1, l - 1)
            closed[l] = math.comb(k, l) * (coeff * coeff) * 4.0 ** (1 - k)
        np.testing.assert_array_equal(weights, closed)
        assert maj_level_weights(k) is weights
        with pytest.raises(ValueError):
            weights[0] = 1.0


def test_maj_top_half_weight_scaling():
    # mass at level >= (k+1)/2 decays like 1/sqrt(k); frozen spot values
    spot = {5: 0.296875, 9: 0.198914, 13: 0.158018}
    for k, expect in spot.items():
        tail = maj_level_weights(k)[(k + 1) // 2 :].sum()
        assert tail == pytest.approx(expect, abs=5e-6)
    for k in (5, 9, 17, 33, 65, 129):
        tail = maj_level_weights(k)[(k + 1) // 2 :].sum()
        assert 0.2 <= tail * math.sqrt(k) <= 3.0


def test_maj_rejects_even_arity():
    with pytest.raises(ValueError):
        maj_truth(4)
    with pytest.raises(ValueError):
        maj_coefficient(4, 1)
    # even k would give weights summing below 1: 0.5, 0.625, 0.6875 at 2, 4, 6
    for k in (0, 2, 4, 6):
        with pytest.raises(ValueError):
            maj_level_weights(k)


# -- exact-half ---------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12, 14, 16])
def test_exact_half_closed_form_matches_brute_force(k):
    table = exact_half_truth(k)
    rng = np.random.default_rng(k)
    for w in range(k + 1):
        masks = {(1 << w) - 1}
        while len(masks) < min(3, math.comb(k, w)):
            picks = rng.choice(k, size=w, replace=False)
            masks.add(int(sum(1 << int(v) for v in picks)))
        for mask in masks:
            assert exact_half_coefficient_01(k, w) == pytest.approx(
                brute_coefficient_01(table, k, mask), abs=1e-12
            )


@pytest.mark.parametrize("k", [2, 4, 6, 8, 12])
def test_exact_half_norm_and_level_symmetry(k):
    weights, norm_sq = exact_half_level_weights(k)
    assert norm_sq == pytest.approx(math.comb(k, k // 2) / 2.0**k)
    assert weights.sum() == pytest.approx(norm_sq, abs=1e-12)
    # odd levels carry nothing; weights mirror across k/2
    for l in range(1, k + 1, 2):
        assert weights[l] == pytest.approx(0.0, abs=1e-15)
    for l in range(1, k + 1):
        assert weights[l] == pytest.approx(weights[k - l], abs=1e-12)


def test_exact_half_pm1_weights_frozen_k6():
    pm1 = exact_half_level_weights_pm1(6)
    assert pm1.sum() == pytest.approx(1.0, abs=1e-12)
    direct = fourier_table(exact_half_truth(6), 6).level_weights()
    assert np.allclose(pm1, direct, atol=1e-12)
    # frozen from the closed form
    assert pm1[0] == pytest.approx((1 - 2 * 20 / 64.0) ** 2)
    assert pm1[2] == pytest.approx(0.234375)


# -- learner control flow against a scripted handle ---------------------------

class ScriptedHandle:
    """Replays a fixed sequence of amplified-sample outcomes."""

    def __init__(self, k, script):
        self.k = k
        self.script = list(script)
        self.calls = 0

    def amplified_level_sample(self, l):
        self.calls += 1
        if self.script:
            return self.script.pop(0)
        return None


def test_symmetric_learner_unions_until_quota():
    # k=4, l=4: r = ceil(ln(400)) + 1 = 7
    hits = [frozenset({0, 2}), None, frozenset({5}), frozenset({0})] + [
        frozenset({9})
    ] * 10
    handle = ScriptedHandle(4, hits)
    out = learn_symmetric_junta(handle, l=4, delta=0.01)
    assert out == {0, 2, 5, 9}
    assert handle.calls == 8  # 7 successes + 1 miss


def test_symmetric_learner_budget_error():
    handle = ScriptedHandle(4, [frozenset({1})])  # then misses forever
    with pytest.raises(RetryBudgetError):
        learn_symmetric_junta(handle, l=4, delta=0.01)


def test_symmetric_learner_rejects_bad_level():
    with pytest.raises(ValueError):
        learn_symmetric_junta(ScriptedHandle(4, []), l=0)
    with pytest.raises(ValueError):
        learn_symmetric_junta(ScriptedHandle(4, []), l=5)


# -- exact-phase recovery ------------------------------------------------------

BV_GOLDEN = "19e7b57309f95866ee9a3c8189e0e0115d6cd3701811b40937a11e3c92bd0564"


def test_bv_with_size_oracle_is_pinned():
    # 2000 seeded runs on monotone OR juntas, n = 2..10, with no damping, a
    # constant 0.2 and random per-subset damping; the digest covers every
    # result and the generator state left behind
    rng = np.random.default_rng(8208)
    digest = hashlib.sha256()
    for i in range(2000):
        n = 2 + i % 9
        support = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        mask = sum(1 << int(v) for v in support)
        truth = ((np.arange(1 << n) & mask) != 0).astype(np.int8)
        per_subset = rng.uniform(0.0, 0.9, size=1 << n)
        delta = (0.0, 0.2, per_subset)[i % 3]
        res = bv_with_size_oracle(truth, n, rng, delta=delta)
        recovered = None if res.recovered is None else sorted(res.recovered)
        digest.update(repr((res.ok, recovered, res.fail_flag)).encode())
    digest.update(repr(rng.random()).encode())
    assert digest.hexdigest() == BV_GOLDEN
