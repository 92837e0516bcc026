"""Group testing: adaptive search with classical and quantum cost models.

The adaptive search only needs a membership test on subsets of a universe of
int item ids, each subset passed as an int mask with one bit per item.  It
runs in two steps.  ``prepare`` turns the universe into its prefix ORs once,
checking that the items are distinct; ``search`` then finds the positives of
a prepared universe as often as a caller needs, ORing the caller's ``base``
mask into every test, so one universe can be searched against many bases
without being rebuilt.  A search over N items with k positives costs
O(N + k log N) mask operations.  ``cgt_solve`` is prepare-then-search with
an empty base.
Quantum backends do not search.  ``quantum_search`` takes the universe as
one mask and reads its positives, as a mask, from the caller's block form,
which answers every single-item test of the universe at once, with ledger
charging paused, then bills the amplified-search cost model to the quantum
counter: ceil(sqrt(k)) rounds for k promised positives (times
log2(k+1) log2(log2(k+3)) on the time-efficient backend), or the sum of
that charge over guess-and-double stages when k is not promised.  The
block's charges, one test per universe item, stay visible in the ledger's
``suppressed`` tally for audits.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate
from typing import Callable, Sequence

from gqlab import f2
from gqlab.errors import ViolationError
from gqlab.oracles import QueryLedger

__all__ = ["BACKENDS", "cgt_solve", "prepare", "quantum_search", "search"]

BACKENDS = ("classical_adaptive", "quantum_ideal", "quantum_time_efficient")


def prepare(universe: Sequence[int]) -> list[int]:
    """The prefix ORs of the universe's item bits, in universe order: entry i
    is the mask of the first i items, and the last entry masks them all.

    Raises ValueError unless the items are distinct nonnegative ints.
    """
    prefix = list(accumulate((1 << operator.index(x) for x in universe), operator.or_, initial=0))
    if prefix[-1].bit_count() != len(prefix) - 1:
        raise ValueError("universe items must be distinct")
    return prefix


def search(
    prefix: Sequence[int],
    test: Callable[[int], object],
    k: int | None = None,
    base: int = 0,
) -> int:
    """The mask of the positive items of a prepared universe.

    Every test is ``test(base | subset)``.  The unfound items are
    binary-searched in universe order for one positive at a time; a negative
    left half puts the positive in the right half.  ``pos`` holds the
    universe indices of the unfound items plus an end sentinel, and ``live``
    is the mask of the unfound items, so the unfound items at ranks lo..hi-1
    are ``(prefix[pos[hi]] ^ prefix[pos[lo]]) & live``, and the item at index
    i is ``prefix[i + 1] ^ prefix[i]``.  A find drops one entry of ``pos``
    and clears one bit of ``live``.  With ``k`` given, a positive beyond the
    k-th raises ViolationError.
    """
    live = prefix[-1]
    pos = list(range(len(prefix)))
    found = count = 0
    while live:
        if not test(base | live):
            return found
        if count == k:
            raise ViolationError(f"more than {k} positives present")
        lo, hi = 0, len(pos) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if test(base | ((prefix[pos[mid]] ^ prefix[pos[lo]]) & live)):
                hi = mid
            else:
                lo = mid
        i = pos.pop(lo)
        bit = prefix[i + 1] ^ prefix[i]
        live ^= bit
        found |= bit
        count += 1
    return found


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


def quantum_search(
    universe: int,
    block: Callable[[int], int],
    ledger: QueryLedger,
    k: int | None,
    backend: str,
) -> int:
    """The mask of the positive items of the mask ``universe``, read from one
    ``block(universe)`` call with ``ledger`` paused, billing the quantum
    cost model of ``backend``.

    ``block(items)`` returns the mask of the positive items among ``items``,
    charging one test per item.  With ``k`` given, any other positive count
    raises ViolationError.  A ``backend`` other than the two quantum entries
    of ``BACKENDS`` raises ValueError.
    """
    if backend not in BACKENDS[1:]:
        raise ValueError(f"unknown quantum backend {backend!r}")
    time_efficient = backend == "quantum_time_efficient"
    with ledger.paused():
        found = block(universe)
    count = found.bit_count()
    if k is not None:
        if count != k:
            raise ViolationError(f"promised {k} positives, found {count}")
        ledger.charge("charged_quantum", _quantum_rounds(k, time_efficient))
    else:
        ledger.charge("charged_quantum", _doubling_charge(count, time_efficient))
    return found


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
    charging one test per item.  They answer through ``quantum_search`` on
    the universe's mask; ``test`` is never called.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if k is not None and k < 0:
        raise ValueError("k must be nonnegative")
    if backend == "classical_adaptive":
        return frozenset(f2.support(search(prepare(universe), test, k)))
    if ledger is None or block is None:
        raise ValueError("quantum backends need the block form and its ledger")
    items = sum(1 << operator.index(x) for x in universe)
    if items.bit_count() != len(universe):
        raise ValueError("universe items must be distinct")
    return frozenset(f2.support(quantum_search(items, block, ledger, k, backend)))
