"""Group-testing solver, with hand-traced query counts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqlab import f2
from gqlab.cgt import cgt_solve, prepare, quantum_search, search
from gqlab.errors import ViolationError
from gqlab.graphs import Graph
from gqlab.oracles import GraphOracle, QueryLedger


def make_test(hidden, ledger=None):
    """A membership test on int masks that logs each queried subset as the
    sorted list of its items."""
    hidden = set(hidden)
    log = []

    def test(mask):
        if ledger is not None:
            ledger.charge("or_query")
        subset = [i for i in range(mask.bit_length()) if mask >> i & 1]
        log.append(subset)
        return bool(hidden & set(subset))

    return test, log


def make_block(hidden, ledger):
    """The block form of ``make_test``'s membership test: the positive items
    of a mask, at one charged test per item."""
    hidden_mask = sum(1 << x for x in hidden)

    def block(mask):
        ledger.charge("or_query", mask.bit_count())
        return mask & hidden_mask

    return block


# -- adaptive solver -----------------------------------------------------------

def test_single_positive_query_count_hand_traced():
    # confirm(8) + three halvings + final clean check = 2 + log2(8)
    test, log = make_test({3})
    out = cgt_solve(list(range(8)), test, k=1)
    assert out == {3}
    assert len(log) == 5
    # the trace itself: whole, left half, quarter, single, then the rest
    assert log[0] == list(range(8))
    assert log[1] == [0, 1, 2, 3]
    assert log[2] == [0, 1]
    assert log[3] == [2]
    assert log[4] == [0, 1, 2, 4, 5, 6, 7]


def test_zero_positives_one_confirming_query():
    test, log = make_test(set())
    assert cgt_solve(list(range(100)), test, k=0) == frozenset()
    assert len(log) == 1
    test2, log2 = make_test(set())
    assert cgt_solve([], test2) == frozenset()
    assert log2 == []


def adaptive_bound(n, k):
    """Worst-case classical adaptive query count for k positives out of n."""
    return k * (math.ceil(math.log2(n)) + 1) + 1


def test_adaptive_bound_holds_on_random_instances():
    rng = np.random.default_rng(2)
    n = 1024
    hidden = set(int(v) for v in rng.choice(n, size=16, replace=False))
    test, log = make_test(hidden)
    assert cgt_solve(list(range(n)), test) == hidden
    assert len(log) <= adaptive_bound(n, 16) == 177


@given(
    st.integers(min_value=1, max_value=40),
    st.sets(st.integers(min_value=0, max_value=39)),
)
@settings(max_examples=60, deadline=None)
def test_adaptive_exactness(n, raw_hidden):
    hidden = {v for v in raw_hidden if v < n}
    test, log = make_test(hidden)
    assert cgt_solve(list(range(n)), test) == hidden
    assert len(log) <= adaptive_bound(n, len(hidden))


def _reference_find_one(region, test):
    # the list-based search the mask-based solver must reproduce query for query
    while len(region) > 1:
        mid = len(region) // 2
        left = region[:mid]
        if test(left):
            region = left
        else:
            region = region[mid:]
    return region[0]


def _reference_adaptive_search(universe, test, k):
    found = []
    remaining = list(universe)
    while remaining:
        if not test(remaining):
            return frozenset(found)
        if k is not None and len(found) == k:
            raise ViolationError(f"more than {k} positives present")
        x = _reference_find_one(remaining, test)
        found.append(x)
        remaining.remove(x)
    return frozenset(found)


def _outcome(solve, log):
    try:
        return "ok", solve(), log
    except ViolationError:
        return "violation", None, log


# Answer rules on the queried set: group-testing membership, the
# two-positive rule an OR test follows when the searched side has internal
# edges, and an arbitrary deterministic rule that breaks every promise.
_RULES = {
    "member": lambda items, hidden: bool(items & hidden),
    "pair": lambda items, hidden: len(items & hidden) >= 2,
    "arbitrary": lambda items, hidden: (sum(items) * 2654435761) % 7 < 3,
}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_cgt_mask_queries_match_list_reference(data):
    universe = data.draw(
        st.lists(st.integers(min_value=0, max_value=90), unique=True, max_size=40)
    )
    hidden = frozenset()
    if universe:
        hidden = frozenset(data.draw(st.sets(st.sampled_from(universe))))
    k = data.draw(st.none() | st.integers(min_value=0, max_value=len(universe) + 1))
    rule = _RULES[data.draw(st.sampled_from(sorted(_RULES)))]

    ref_log = []

    def ref_test(items):
        ref_log.append(frozenset(items))
        return rule(ref_log[-1], hidden)

    new_log = []

    def new_test(mask):
        new_log.append(frozenset(i for i in range(mask.bit_length()) if mask >> i & 1))
        return rule(new_log[-1], hidden)

    expected = _outcome(lambda: _reference_adaptive_search(universe, ref_test, k), ref_log)
    got = _outcome(lambda: cgt_solve(universe, new_test, k=k), new_log)
    assert got == expected


def test_cgt_mask_queries_match_list_reference_at_scale():
    # wide universes, every positive count from none to all, and promises
    # that are absent, exact or one short; logs compare masks query by query.
    # The prepared search is checked against cgt_solve under a random base.
    rules = {
        "member": lambda mask, hidden: mask & hidden != 0,
        "pair": lambda mask, hidden: (mask & hidden).bit_count() >= 2,
    }
    rng = np.random.default_rng(1311)
    base_rng = np.random.default_rng(1312)
    for size in (1, 64, 257, 299):
        ids = [int(v) for v in rng.choice(1001, size=size, replace=False)]
        for universe in (sorted(ids), ids):
            for count in sorted({0, 1, size // 2, size}):
                hidden = sum(1 << int(v) for v in rng.choice(universe, count, replace=False))
                for k in sorted({count, max(count - 1, 0)}) + [None]:
                    for name, rule in rules.items():
                        ref_log, new_log = [], []

                        def ref_test(items):
                            ref_log.append(sum(1 << x for x in items))
                            return rule(ref_log[-1], hidden)

                        def new_test(mask):
                            new_log.append(mask)
                            return rule(mask, hidden)

                        expected = _outcome(
                            lambda: _reference_adaptive_search(universe, ref_test, k),
                            ref_log,
                        )
                        got = _outcome(lambda: cgt_solve(universe, new_test, k=k), new_log)
                        assert got == expected, (size, count, k, name)

                        # the prepared search under a base outside the
                        # universe asks the same masks with the base ORed in
                        prepared = prepare(universe)
                        base = int.from_bytes(base_rng.bytes(140), "little") & ~prepared[-1]
                        based_log = []

                        def based_test(mask):
                            based_log.append(mask)
                            return rule(mask & ~base, hidden)

                        based = _outcome(
                            lambda: frozenset(f2.support(search(prepared, based_test, k, base))),
                            based_log,
                        )
                        assert based == (got[0], got[1], [m | base for m in new_log])


def test_known_k_violation_detected():
    test, _ = make_test({1, 5})
    with pytest.raises(ViolationError):
        cgt_solve(list(range(8)), test, k=1)


def test_argument_validation():
    test, _ = make_test(set())
    with pytest.raises(ValueError):
        cgt_solve([1], test, backend="grover")
    with pytest.raises(ValueError):
        cgt_solve([1], test, k=-1)
    with pytest.raises(ValueError):
        cgt_solve([1], test, backend="quantum_ideal")  # ledger missing
    ledger = QueryLedger()
    with pytest.raises(ValueError):
        cgt_solve([1], test, backend="quantum_ideal", ledger=ledger)  # block missing
    with pytest.raises(ValueError):
        cgt_solve(
            [1, 1], test, backend="quantum_ideal", ledger=ledger,
            block=make_block(set(), ledger),
        )
    for backend in ("grover", "classical_adaptive"):
        with pytest.raises(ValueError):
            quantum_search(0b10, make_block(set(), ledger), ledger, None, backend)
    assert ledger.suppressed["or_query"] == 0
    assert ledger.counts["charged_quantum"] == 0


# -- quantum cost models ----------------------------------------------------------

def test_quantum_ideal_known_k_charge_and_audit():
    ledger = QueryLedger()
    hidden = {2, 9, 11, 30, 31, 44, 45, 53, 60, 61, 62, 63, 70, 81, 90, 99}
    test, log = make_test(hidden, ledger)
    universe = list(range(100))
    out = cgt_solve(
        universe, test, k=16, backend="quantum_ideal", ledger=ledger,
        block=make_block(hidden, ledger),
    )
    assert out == hidden
    assert ledger.counts["charged_quantum"] == 4  # ceil(sqrt(16))
    assert ledger.counts["or_query"] == 0
    # the answer comes from one block query, one suppressed test per item
    assert ledger.suppressed["or_query"] == len(universe)
    assert log == []


def test_quantum_time_efficient_charges():
    for k, expect in ((16, 35), (7, 14)):
        ledger = QueryLedger()
        hidden = set(range(k))
        test, _ = make_test(hidden, ledger)
        cgt_solve(
            list(range(64)),
            test,
            k=k,
            backend="quantum_time_efficient",
            ledger=ledger,
            block=make_block(hidden, ledger),
        )
        assert ledger.counts["charged_quantum"] == expect


def test_quantum_unknown_k_doubling_charges():
    for hidden, expect in ((set(), 1), ({5}, 1), ({1, 2, 3, 4}, 5), (set(range(16)), 12)):
        ledger = QueryLedger()
        test, _ = make_test(hidden, ledger)
        out = cgt_solve(
            list(range(40)), test, backend="quantum_ideal", ledger=ledger,
            block=make_block(hidden, ledger),
        )
        assert out == hidden
        assert ledger.counts["charged_quantum"] == expect


def test_quantum_backends_find_the_classical_set_on_or_tests():
    # OR tests on subset | base over a universe whose items outside the base
    # share no edge, as the OR learners search: every test is the OR of its
    # single-item tests, or always positive when the base has an edge
    rng = np.random.default_rng(1507)
    for trial in range(150):
        n = int(rng.integers(2, 48))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picks = rng.choice(len(pairs), size=int(rng.integers(0, 2 * n)))
        oracle = GraphOracle(Graph(n, [pairs[int(i)] for i in picks]), rng)
        base = int(rng.integers(0, 1 << n)) & int(rng.integers(0, 1 << n))
        universe, outside = [], 0
        for v in rng.permutation(n).tolist():
            if base >> v & 1:
                if rng.random() < 0.5:
                    universe.append(v)
            elif not oracle.or_query(outside | 1 << v):
                universe.append(v)
                outside |= 1 << v

        def test(subset):
            return oracle.or_query(subset | base) == 1

        def block(items):
            return oracle.or_block_query(base, items)

        expect = cgt_solve(universe, test)
        k = len(expect) if trial % 2 else None
        for backend in ("quantum_ideal", "quantum_time_efficient"):
            before = oracle.ledger.snapshot()
            suppressed = oracle.ledger.suppressed["or_query"]
            out = cgt_solve(
                universe, test, k=k, backend=backend, ledger=oracle.ledger, block=block
            )
            assert out == expect
            assert oracle.ledger.delta(before)["or_query"] == 0
            assert oracle.ledger.suppressed["or_query"] - suppressed == len(universe)


def test_quantum_promise_mismatch_raises():
    ledger = QueryLedger()
    test, _ = make_test({1, 2}, ledger)
    block = make_block({1, 2}, ledger)
    for k in (1, 3):  # overcounted and undercounted promises
        with pytest.raises(ViolationError):
            cgt_solve(
                list(range(8)), test, k=k, backend="quantum_ideal", ledger=ledger,
                block=block,
            )
    assert ledger.counts["charged_quantum"] == 0

