"""Fourier tables, closed forms for symmetric functions, and the junta learner.

Two coefficient conventions appear.  ``fourier_table`` works with the
+/-1-valued function (-1)^g, whose squared coefficients form the Fourier
sampling distribution.  The exact-half closed form is stated for the
0/1-valued function, matching how its level weights are usually quoted; the
translation is coeff_pm1(s) = -2 * coeff_01(s) for s != 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gqlab.errors import RetryBudgetError, ScaleError

__all__ = [
    "MAX_TABLE_VARS",
    "FourierTable",
    "fourier_table",
    "level_weights_from_table",
    "maj_truth",
    "maj_coefficient",
    "maj_level_weights",
    "exact_half_truth",
    "exact_half_coefficient_01",
    "exact_half_level_weights",
    "exact_half_level_weights_pm1",
    "learn_symmetric_junta",
]

MAX_TABLE_VARS = 20


def _fwht(vec: np.ndarray) -> np.ndarray:
    """Unnormalized in-place Walsh-Hadamard transform."""
    v = vec.astype(np.float64, copy=True)
    h = 1
    while h < len(v):
        v = v.reshape(-1, 2, h)
        a, b = v[:, 0, :].copy(), v[:, 1, :].copy()
        v[:, 0, :] = a + b
        v[:, 1, :] = a - b
        v = v.reshape(-1)
        h *= 2
    return v


@dataclass(frozen=True)
class FourierTable:
    """All 2^k coefficients of (-1)^g, indexed by subset mask."""

    k: int
    coeffs: np.ndarray

    def coefficient(self, mask: int) -> float:
        return float(self.coeffs[mask])

    def sampling_distribution(self) -> np.ndarray:
        return self.coeffs**2

    def level_weights(self) -> np.ndarray:
        return level_weights_from_table(self)


def fourier_table(truth: Sequence[int], k: int) -> FourierTable:
    if k > MAX_TABLE_VARS:
        raise ScaleError(f"fourier_table capped at {MAX_TABLE_VARS} variables")
    table = np.asarray(truth, dtype=np.int8)
    if table.shape != (1 << k,) or not np.isin(table, (0, 1)).all():
        raise ValueError("truth table must be 0/1 of length 2**k")
    signs = np.where(table, -1.0, 1.0)
    coeffs = _fwht(signs) / (1 << k)
    total = float(np.sum(coeffs**2))
    assert abs(total - 1.0) < 1e-9, "Parseval drift"
    return FourierTable(k, coeffs)


def _subset_sizes(k: int) -> np.ndarray:
    """Entry ``mask`` is the number of set bits of mask, for every k-bit mask."""
    masks = np.arange(1 << k, dtype=np.uint32)
    sizes = np.zeros(1 << k, dtype=np.int64)
    for b in range(k):
        sizes += (masks >> b) & 1
    return sizes


def level_weights_from_table(ft: FourierTable) -> np.ndarray:
    weights = np.zeros(ft.k + 1)
    np.add.at(weights, _subset_sizes(ft.k), ft.coeffs**2)
    return weights


# -- majority ---------------------------------------------------------------

def maj_truth(k: int) -> list[int]:
    if k % 2 == 0:
        raise ValueError("majority needs odd arity")
    half = k / 2
    return [int(bin(x).count("1") > half) for x in range(1 << k)]


def maj_coefficient(k: int, subset_size: int) -> float:
    """Coefficient of (-1)^MAJ_k on any subset of the given size.

    Zero on even sizes; on odd size l the magnitude is
    C((k-1)/2, (l-1)/2) / C(k-1, l-1) * 2^(1-k) * C(k-1, (k-1)/2)
    with sign (-1)^((l-1)/2).
    """
    if k % 2 == 0 or k < 1:
        raise ValueError("majority needs odd arity")
    if not 0 <= subset_size <= k:
        raise ValueError("subset size out of range")
    l = subset_size
    if l % 2 == 0:
        return 0.0
    value = _maj_ratio(k, l) * 2.0 ** (1 - k)
    return (-1) ** ((l - 1) // 2) * value


def _maj_ratio(k: int, l: int) -> float:
    """C((k-1)/2, (l-1)/2) C(k-1, (k-1)/2) / C(k-1, l-1), exact until one division."""
    top = math.comb((k - 1) // 2, (l - 1) // 2) * math.comb(k - 1, (k - 1) // 2)
    return top / math.comb(k - 1, l - 1)


# typed, so a float k never hits an int k's entry and still fails as uncached
@functools.lru_cache(maxsize=256, typed=True)
def maj_level_weights(k: int) -> np.ndarray:
    """Level weights of (-1)^MAJ_k from the closed form; no 2^k enumeration.

    Cached per k and shared, so the array is read-only.
    """
    if k % 2 == 0 or k < 1:
        raise ValueError("majority needs odd arity")
    weights = np.zeros(k + 1)
    for l in range(1, k + 1, 2):
        coeff = _maj_ratio(k, l)
        weights[l] = math.comb(k, l) * (coeff * coeff) * 4.0 ** (1 - k)
    weights.flags.writeable = False
    return weights


# -- exact-half -------------------------------------------------------------

def exact_half_truth(k: int) -> list[int]:
    if k % 2:
        raise ValueError("exact-half needs even arity")
    return [int(bin(x).count("1") == k // 2) for x in range(1 << k)]


def exact_half_coefficient_01(k: int, weight: int) -> float:
    """0/1-convention coefficient on any subset of the given weight.

    Counts weight-k/2 inputs by their overlap i with the subset:
    2^-k * sum_i (-1)^i C(w, i) C(k-w, k/2-i).
    """
    if k % 2 or k < 2:
        raise ValueError("exact-half needs even arity >= 2")
    if not 0 <= weight <= k:
        raise ValueError("weight out of range")
    acc = 0
    for i in range(0, k // 2 + 1):
        acc += (-1) ** i * math.comb(weight, i) * math.comb(k - weight, k // 2 - i)
    return acc / 2.0**k


def exact_half_level_weights(k: int) -> tuple[np.ndarray, float]:
    """0/1-convention level weights and the squared norm C(k, k/2)/2^k."""
    weights = np.array(
        [
            math.comb(k, w) * exact_half_coefficient_01(k, w) ** 2
            for w in range(k + 1)
        ]
    )
    norm_sq = math.comb(k, k // 2) / 2.0**k
    return weights, norm_sq


def exact_half_level_weights_pm1(k: int) -> np.ndarray:
    """Level weights of (-1)^g for the exact-half indicator."""
    w01, _ = exact_half_level_weights(k)
    out = 4.0 * w01
    out[0] = (1.0 - 2.0 * exact_half_coefficient_01(k, 0)) ** 2
    return out


# -- learners ----------------------------------------------------------------

def learn_symmetric_junta(
    handle,
    l: int,
    delta: float = 0.01,
) -> frozenset[int]:
    """Recover the hidden variable set of a symmetric junta.

    Repeatedly draws amplified Fourier samples conditioned on level >= l and
    unions their supports.  Needs r = ceil((k/l) ln(k/delta)) + ceil(k/l)
    successful draws; rounds are capped at 4r, after which the budget error
    is raised.  Every sampled variable lies inside the hidden set, so the
    output never overshoots.
    """
    k = handle.k
    if not 1 <= l <= k:
        raise ValueError("level must satisfy 1 <= l <= k")
    ratio = k / l
    r = math.ceil(ratio * math.log(k / delta)) + math.ceil(ratio)
    found: set[int] = set()
    successes = 0
    for _ in range(4 * r):
        sample = handle.amplified_level_sample(l)
        if sample is None:
            continue
        found |= sample
        successes += 1
        if successes == r:
            return frozenset(found)
    raise RetryBudgetError(
        f"{successes}/{r} amplified samples after {4 * r} rounds"
    )
