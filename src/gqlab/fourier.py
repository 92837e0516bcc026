"""Fourier tables, closed forms for symmetric functions, junta learners, and
the exact-phase recovery of a monotone junta's variables (``bv_with_size_oracle``).

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
    "BVResult",
    "MAX_BV_QUBITS",
    "bv_with_size_oracle",
    "relevant_variables",
    "is_monotone",
]

MAX_TABLE_VARS = 20
MAX_BV_QUBITS = 14


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
    top = math.comb((k - 1) // 2, (l - 1) // 2) * math.comb(k - 1, (k - 1) // 2)
    value = top / math.comb(k - 1, l - 1) * 2.0 ** (1 - k)
    return (-1) ** ((l - 1) // 2) * value


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
        # math.comb keeps this exact until the final float division
        top = math.comb((k - 1) // 2, (l - 1) // 2) * math.comb(k - 1, (k - 1) // 2)
        coeff = top / math.comb(k - 1, l - 1)
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


# -- exact-phase recovery ------------------------------------------------------

@dataclass(frozen=True)
class BVResult:
    """Outcome of one run of the exact-phase recovery routine."""

    ok: bool
    recovered: frozenset[int] | None
    fail_flag: bool


def relevant_variables(truth: Sequence[int], n: int) -> list[int]:
    """Variables on which f genuinely depends."""
    table = np.asarray(truth, dtype=np.int8)
    idx = np.arange(1 << n)
    out = []
    for v in range(n):
        if np.any(table[idx] != table[idx ^ (1 << v)]):
            out.append(v)
    return out


def is_monotone(truth: Sequence[int], n: int) -> bool:
    table = np.asarray(truth, dtype=np.int8)
    idx = np.arange(1 << n)
    for v in range(n):
        low = (idx >> v) & 1 == 0
        if np.any(table[idx[low]] > table[idx[low] ^ (1 << v)]):
            return False
    return True


def bv_with_size_oracle(
    truth: Sequence[int],
    n: int,
    rng: np.random.Generator,
    delta: float | Sequence[float] = 0.0,
) -> BVResult:
    """Recover the relevant-variable set of a monotone junta in one round.

    Uses the exact intersection-size phase state: amplitudes proportional to
    (-1)^{|S ∩ T|} over all T, Hadamard-transformed back to the indicator of
    S.  ``delta`` models a per-subset damping of the good branch: the flag
    register then fails with probability 1 - mean((1-delta)^2), and the
    conditional output may differ from S.
    """
    if n > MAX_BV_QUBITS:
        raise ScaleError(f"exact-phase recovery capped at {MAX_BV_QUBITS} qubits")
    table = np.asarray(truth, dtype=np.int8)
    if table.shape != (1 << n,):
        raise ValueError("truth table must have length 2**n")
    if not is_monotone(table, n):
        raise ValueError("truth table is not monotone")
    s_mask = 0
    for v in relevant_variables(table, n):
        s_mask |= 1 << v

    damp = np.asarray(delta, dtype=np.float64)
    if damp.ndim == 0:
        damp = np.full(1 << n, float(damp))
    if damp.shape != (1 << n,) or np.any(damp < 0) or np.any(damp >= 1):
        raise ValueError("delta must be scalar or per-subset values in [0, 1)")

    good = 1.0 - damp
    p_flag_ok = float(np.mean(good**2))
    if rng.random() >= p_flag_ok:
        return BVResult(ok=False, recovered=None, fail_flag=True)

    signs = 1.0 - 2.0 * (_subset_sizes(n)[np.arange(1 << n) & s_mask] & 1)
    vec = good * signs
    vec = vec / np.linalg.norm(vec)
    probs = (_fwht(vec) / np.sqrt(1 << n)) ** 2
    outcome = int(rng.choice(1 << n, p=probs / probs.sum()))
    support = frozenset(v for v in range(n) if (outcome >> v) & 1)
    return BVResult(ok=outcome == s_mask, recovered=support, fail_flag=False)
