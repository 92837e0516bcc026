"""Group testing: adaptive search with classical and quantum cost models,
and nonadaptive designs with certified decoding.

The adaptive solver only needs a membership test on subsets of a universe of
int item ids, each subset passed as an int mask with one bit per item.  It
builds the universe's prefix ORs once and masks out found items, so a solve
over N items with k positives costs O(N + k log N) mask operations.
Quantum backends do not search: they read the positives from the caller's
block form, which answers every single-item test of the universe at once,
with ledger charging paused, then bill the amplified-search cost model to
the quantum counter: ceil(sqrt(k)) rounds for k promised positives (times
log2(k+1) log2(log2(k+3)) on the time-efficient backend), or the sum of
that charge over guess-and-double stages when k is not promised.  The
block's charges, one test per universe item, stay visible in the ledger's
``suppressed`` tally for audits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Callable, Sequence

import numpy as np

from gqlab import f2
from gqlab.errors import ConstructionError, DecodeError, ViolationError
from gqlab.oracles import QueryLedger

__all__ = [
    "BACKENDS",
    "cgt_solve",
    "NonadaptiveDesign",
    "build_nonadaptive_design",
    "binary_indexing_design",
    "decode",
]

BACKENDS = ("classical_adaptive", "quantum_ideal", "quantum_time_efficient")


def _adaptive_search(universe: Sequence[int], test, k: int | None) -> frozenset:
    """Binary-search the unfound items, in universe order, for one positive
    at a time; a negative left half puts the positive in the right half.

    The prefix ORs over the whole universe are built once.  ``pos`` holds
    the universe indices of the unfound items plus an end sentinel, and
    ``live`` is the mask of the unfound items, so the unfound items at
    ranks lo..hi-1 are ``(prefix[pos[hi]] ^ prefix[pos[lo]]) & live``.  A
    find drops one entry of ``pos`` and clears one bit of ``live``, so a
    solve costs O(N + k log N) mask operations for N items and k finds.
    """
    bits = [1 << operator.index(x) for x in universe]
    prefix = list(accumulate(bits, operator.or_, initial=0))
    live = prefix[-1]
    if live.bit_count() != len(bits):
        raise ValueError("universe items must be distinct")
    pos = list(range(len(bits) + 1))
    found: list[int] = []
    while live:
        if not test(live):
            return frozenset(found)
        if k is not None and len(found) == k:
            raise ViolationError(f"more than {k} positives present")
        lo, hi = 0, len(pos) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if test((prefix[pos[mid]] ^ prefix[pos[lo]]) & live):
                hi = mid
            else:
                lo = mid
        bit = bits[pos.pop(lo)]
        live ^= bit
        found.append(bit.bit_length() - 1)
    return frozenset(found)


def _quantum_rounds(count: int, time_efficient: bool) -> int:
    if count <= 0:
        return 0
    rounds = math.sqrt(count)
    if time_efficient:
        rounds *= math.log2(count + 1) * math.log2(math.log2(count + 3))
    return math.ceil(rounds)


def _doubling_charge(found: int, time_efficient: bool) -> int:
    # guess-and-double over the positive count; every stage bills in full
    stages = math.ceil(math.log2(found)) if found > 1 else 0
    return sum(
        _quantum_rounds(1 << i, time_efficient) for i in range(stages + 1)
    )


def cgt_solve(
    universe: Sequence[int],
    test: Callable[[int], bool],
    k: int | None = None,
    backend: str = "classical_adaptive",
    ledger: QueryLedger | None = None,
    block: Callable[[int], int] | None = None,
) -> frozenset:
    """Identify every positive item, spending queries per the chosen backend.

    ``universe`` holds distinct nonnegative int item ids.  ``test`` takes an
    int mask whose set bits are item ids and reports whether that subset
    contains a positive; callers route it through their charged oracle.
    ``k``, when given, is a promise on the positive count: the solver still
    verifies and raises if the promise is broken.  Quantum backends require
    ``block`` and the ledger it charges into: ``block(items)`` returns the
    mask of the items x whose single-item test ``test(1 << x)`` is positive,
    charging one test per item.  They take the answer from one ``block``
    call over the whole universe, which the paused ledger tallies in
    ``suppressed``, and bill only the quantum cost model; ``test`` is never
    called.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if k is not None and k < 0:
        raise ValueError("k must be nonnegative")
    if backend == "classical_adaptive":
        return _adaptive_search(universe, test, k)
    if ledger is None or block is None:
        raise ValueError("quantum backends need the block form and its ledger")
    items = sum(1 << operator.index(x) for x in universe)
    if items.bit_count() != len(universe):
        raise ValueError("universe items must be distinct")
    time_efficient = backend == "quantum_time_efficient"
    with ledger.paused():
        positives = block(items)
    found = frozenset(f2.support(positives))
    if k is not None:
        if len(found) != k:
            raise ViolationError(f"promised {k} positives, found {len(found)}")
        ledger.charge("charged_quantum", _quantum_rounds(k, time_efficient))
    else:
        ledger.charge(
            "charged_quantum", _doubling_charge(len(found), time_efficient)
        )
    return found


# -- nonadaptive designs -------------------------------------------------------


@dataclass(frozen=True)
class NonadaptiveDesign:
    """A fixed pool of subset tests decodable for up to d positives."""

    kind: str
    n: int
    d: int
    tests: tuple[frozenset[int], ...]

    def apply(self, positives) -> tuple[int, ...]:
        pos = set(positives)
        return tuple(1 if t & pos else 0 for t in self.tests)


def _is_disjunct(columns: list[frozenset[int]], d: int, rng) -> bool:
    """Check d-disjunctness: no column is covered by any d others; exactly
    up to 20 columns, by 10,000 random (d+1)-tuples above."""
    n = len(columns)
    if n <= 20:
        for x in range(n):
            others = [i for i in range(n) if i != x]
            for group in combinations(others, min(d, len(others))):
                union = frozenset().union(*(columns[i] for i in group))
                if columns[x] <= union:
                    return False
        return True
    for _ in range(10_000):
        picks = rng.choice(n, size=d + 1, replace=False)
        x = int(picks[0])
        union = frozenset().union(*(columns[int(i)] for i in picks[1:]))
        if columns[x] <= union:
            return False
    return True


def build_nonadaptive_design(
    n: int,
    d: int,
    rng: np.random.Generator,
    c: float = 8.0,
    max_attempts: int = 40,
) -> NonadaptiveDesign:
    """Random design with ceil(c d^2 ln(n+1)) tests, verified d-disjunct.

    Items join each test independently with probability 1/(d+1).  The
    default constant is sized so verification passes reliably; failures
    trigger a fresh draw up to the attempt cap.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if d >= n:
        raise ValueError("d must be below the universe size")
    t_count = math.ceil(c * d * d * math.log(n + 1))
    for _ in range(max_attempts):
        member = rng.random((t_count, n)) < 1.0 / (d + 1)
        tests = tuple(
            frozenset(np.flatnonzero(member[t]).tolist()) for t in range(t_count)
        )
        columns = [
            frozenset(np.flatnonzero(member[:, x]).tolist()) for x in range(n)
        ]
        if any(not col for col in columns):
            continue  # an untested item can never be decoded
        if _is_disjunct(columns, d, rng):
            return NonadaptiveDesign("random_disjunct", n, d, tests)
    raise ConstructionError(
        f"no verified design in {max_attempts} attempts (n={n}, d={d}, c={c})"
    )


def binary_indexing_design(n: int) -> NonadaptiveDesign:
    """Compact exact decoder for at most one positive: test j holds the items
    whose 1-based index has bit j set."""
    if n < 1:
        raise ValueError("need n >= 1")
    width = max(1, (n).bit_length())
    tests = tuple(
        frozenset(i for i in range(n) if ((i + 1) >> j) & 1) for j in range(width)
    )
    return NonadaptiveDesign("binary_index", n, 1, tests)


def decode(design: NonadaptiveDesign, outcomes: Sequence[int]) -> frozenset[int]:
    """Recover the positive set from the test outcomes.

    Raises when the outcomes are not explainable by any set of at most d
    positives under this design.
    """
    if len(outcomes) != len(design.tests):
        raise DecodeError("outcome count does not match the design")
    outs = [1 if o else 0 for o in outcomes]
    if design.kind == "binary_index":
        value = sum(bit << j for j, bit in enumerate(outs))
        if value == 0:
            return frozenset()
        if value > design.n:
            raise DecodeError(f"outcome word {value} indexes no item")
        item = value - 1
        recheck = design.apply([item])
        if list(recheck) != outs:
            raise DecodeError("outcomes match no single item")
        return frozenset((item,))
    # cover rule: an item in any negative test is clean
    candidates = set(range(design.n))
    for t, out in zip(design.tests, outs):
        if not out:
            candidates -= t
    if len(candidates) > design.d:
        raise DecodeError(
            f"{len(candidates)} candidates exceed the design capacity {design.d}"
        )
    for t, out in zip(design.tests, outs):
        if out and not (t & candidates):
            raise DecodeError("a positive test contains no candidate")
    return frozenset(candidates)
