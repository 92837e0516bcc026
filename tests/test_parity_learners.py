import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqlab import f2
from gqlab.errors import AmbiguityError, RetryBudgetError, ScaleError, ViolationError
from gqlab.graphs import FamilySpec, Graph, generate
from gqlab.oracles import GraphOracle, QueryLedger
from gqlab.parity_learners import (
    BoundedDegreeResult,
    _row_supports,
    _xor_table,
    collect_samples,
    learn_arbitrary_parity,
    learn_bounded_degree,
    learn_bounded_edges_parity,
    learn_clique_graphstate,
    learn_from_family,
    learn_star_graphstate,
    learn_subgraph_of,
)


def make_oracle(graph, seed=0, ledger=None):
    return GraphOracle(graph, np.random.default_rng(seed), ledger=ledger)


def random_graph(n, m, rng):
    pairs = list(combinations(range(n), 2))
    picks = rng.choice(len(pairs), size=m, replace=False)
    return Graph(n, [pairs[i] for i in picks])


# -- sample batches --------------------------------------------------------------


def test_collected_batch_passes_audit():
    g = Graph(6, [(0, 1), (1, 2), (3, 5)])
    h = make_oracle(g, seed=3)
    batch = collect_samples(h, 12)
    assert batch.n == 6 and batch.k == 12
    assert batch.audit(g)
    assert not batch.audit(Graph(6, [(0, 1)]))


def test_batch_extension_appends_columns():
    g = Graph(5, [(0, 4), (2, 3)])
    h = make_oracle(g, seed=9)
    first = collect_samples(h, 4)
    grown = collect_samples(h, 5, extend=first)
    assert grown.k == 9
    # the original columns survive verbatim
    low = (1 << 4) - 1
    assert tuple(r & low for r in grown.B) == first.B
    assert tuple(r & low for r in grown.Y) == first.Y
    assert grown.audit(g)


def test_parity_batch_charges_parity_queries_only():
    g = Graph(7, [(0, 6), (1, 2), (2, 5), (3, 4)])
    ledger = QueryLedger()
    h = make_oracle(g, seed=11, ledger=ledger)
    batch = collect_samples(h, 10, parity=True)
    assert batch.n == 7 and batch.k == 10
    assert batch.audit(g)
    assert ledger.counts["parity_query"] == 20
    assert ledger.counts["graph_state_copy"] == 0
    grown = collect_samples(h, 3, extend=batch, parity=True)
    assert grown.k == 13 and grown.audit(g)
    assert ledger.counts["parity_query"] == 26


@pytest.mark.parametrize("n, k", [(1, 1), (9, 0), (12, 25), (70, 40)])
def test_parity_block_equals_repeated_parity_vector_query(n, k):
    g = random_graph(n, min(n * (n - 1) // 2, 2 * n), np.random.default_rng(n))
    block_oracle = make_oracle(g, seed=43)
    single_oracle = make_oracle(g, seed=43)
    batch = collect_samples(block_oracle, k, parity=True)
    cols_b, cols_y = f2.transpose_words(batch.B, k), f2.transpose_words(batch.Y, k)
    for i in range(k):
        s = f2.random_vector(n, single_oracle.rng)
        assert cols_b[i] == s
        assert cols_y[i] == single_oracle.parity_vector_query(s)
    assert block_oracle.ledger.counts == single_oracle.ledger.counts
    assert block_oracle.ledger.counts["parity_query"] == 2 * k
    assert block_oracle.rng.random() == single_oracle.rng.random()


# -- finite families -------------------------------------------------------------


def all_graphs_on(n):
    pairs = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs)):
        out.append(Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]))
    return out


def test_family_identifies_every_member_exactly():
    family = all_graphs_on(4)
    assert len(family) == 64
    for idx in (0, 5, 17, 42, 63):
        hidden = family[idx]
        for seed in range(4):
            h = make_oracle(hidden, seed=seed)
            assert learn_from_family(h, family) == hidden


def test_family_default_sample_count():
    family = all_graphs_on(4)
    hidden = family[33]
    ledger = QueryLedger()
    h = make_oracle(hidden, seed=1, ledger=ledger)
    learn_from_family(h, family)
    # ceil(2 log2 64) + 7 = 19 samples, two copies each
    assert ledger.counts["graph_state_copy"] == 38


def test_singleton_family_is_free():
    g = Graph(3, [(0, 2)])
    ledger = QueryLedger()
    h = make_oracle(g, seed=0, ledger=ledger)
    assert learn_from_family(h, [g]) == g
    assert ledger.counts["graph_state_copy"] == 0


def test_starved_family_reports_ambiguity():
    family = all_graphs_on(4)
    h = make_oracle(family[20], seed=2)
    # one sample constrains at most 4 of the 6 edge bits
    with pytest.raises(AmbiguityError):
        learn_from_family(h, family, k=1)


def test_family_input_validation():
    g = Graph(3, [(0, 1)])
    h = make_oracle(g)
    with pytest.raises(ValueError):
        learn_from_family(h, [])
    with pytest.raises(ValueError):
        learn_from_family(h, [Graph(4, [])])
    with pytest.raises(ValueError):
        learn_from_family(h, [g, Graph(3, [])], k=0)


# -- bounded degree ----------------------------------------------------------------


def test_bounded_degree_recovers_scattered_cycle():
    verts = [1, 4, 7, 10, 19, 22, 28, 31]
    edges = [(verts[i], verts[(i + 1) % 8]) for i in range(8)]
    edges = [(min(e), max(e)) for e in edges]
    g = Graph(32, edges)
    for seed in range(5):
        h = make_oracle(g, seed=seed)
        res = learn_bounded_degree(h, d=2, m_hint=8, phase2_k=18)
        assert not res.over_degree
        assert res.graph() == g
        assert res.neighbors[4] == frozenset({1, 7})
        assert res.neighbors[0] == frozenset()


@pytest.mark.parametrize("d", [1, 3, 4])
def test_bounded_degree_recovers_graph_at_its_bound(d):
    g = generate(FamilySpec("bounded_degree", 40, d=d, m=8 * d), np.random.default_rng(d))
    assert max(g.degree(v) for v in range(40)) == d
    for seed in range(3):
        res = learn_bounded_degree(make_oracle(g, seed=seed), d=d, m_hint=g.m)
        assert res.graph() == g


def test_bounded_degree_marks_planted_hub():
    edges = [(0, v) for v in range(1, 6)] + [(6, 7), (8, 9)]
    g = Graph(16, edges)
    for seed in range(5):
        h = make_oracle(g, seed=seed)
        res = learn_bounded_degree(h, d=2, m_hint=7)
        assert res.over_degree == frozenset({0})
        for leaf in range(1, 6):
            assert res.neighbors[leaf] == frozenset({0})
        assert res.neighbors[6] == frozenset({7})
        with pytest.raises(ViolationError):
            res.graph()


def test_bounded_degree_empty_graph_stops_after_phase_one():
    ledger = QueryLedger()
    h = make_oracle(Graph(24, []), seed=0, ledger=ledger)
    res = learn_bounded_degree(h, d=3, m_hint=4, slack=5)
    assert not res.over_degree
    assert all(res.neighbors[v] == frozenset() for v in range(24))
    # ceil(log2 4) + 5 = 7 samples and no second phase
    assert res.samples_used == 7
    assert ledger.counts["graph_state_copy"] == 14


def brute_supports(target, sigs, d):
    """Every support of weight <= d, as a position mask, whose signatures XOR to target."""
    out = set()
    for w in range(min(d, len(sigs)) + 1):
        for combo in combinations(range(len(sigs)), w):
            acc = 0
            for j in combo:
                acc ^= sigs[j]
            if acc == target:
                out.add(sum(1 << j for j in combo))
    return out


def test_row_decoder_matches_brute_force():
    rnd = random.Random(5)
    seen_ambiguous = seen_wide_unique = 0
    for _ in range(300):
        n, d = rnd.randint(1, 10), rnd.randint(1, 4)
        width = rnd.choice((3, 8, 70, 130))
        sigs = [rnd.getrandbits(width) for _ in range(n)]
        planted = 0
        for j in rnd.sample(range(n), rnd.randint(1, min(d, n))):
            planted ^= sigs[j]
        big, small = _xor_table(sigs, (d + 1) // 2), _xor_table(sigs, d // 2)
        for target in (0, planted, rnd.getrandbits(width)):
            want = brute_supports(target, sigs, d)
            assert _row_supports(target, big, small, limit=len(want) + 1) == want
            capped = _row_supports(target, big, small)
            assert capped <= want and len(capped) == min(len(want), 2)
            seen_ambiguous += len(want) > 1
            seen_wide_unique += width > 64 and len(want) == 1 and target != 0
    assert seen_ambiguous > 50 and seen_wide_unique > 50


def test_row_decoder_reads_past_the_low_64_bits():
    a, b = 0x1234_5678_9ABC_DEF0, 0x0FED_CBA9_8765_4321
    # columns 0/1 and 2/3 agree on their low 64 bits and differ above them
    sigs = [a, a ^ (1 << 100), b, b ^ (1 << 90)]
    for d in range(1, 5):
        big, small = _xor_table(sigs, (d + 1) // 2), _xor_table(sigs, d // 2)
        assert _row_supports(a, big, small) == {0b0001}
        assert _row_supports(a ^ (1 << 100), big, small) == {0b0010}
        assert _row_supports(a ^ (1 << 101), big, small) == set()
        assert _row_supports(a ^ b, big, small) == ({0b0101} if d > 1 else set())


def test_bounded_degree_enumeration_guard():
    matching = [(2 * i, 2 * i + 1) for i in range(130)]
    h = make_oracle(Graph(260, matching), seed=0)
    with pytest.raises(ScaleError):
        learn_bounded_degree(h, d=4, m_hint=130)


def test_wide_degree_bound_falls_back_to_direct_readout():
    # d > n/4: the whole matrix comes from Bell samples as a subgraph of the
    # complete graph, 7 + ceil(log2 8) + 7 = 17 samples and no parity query
    g = Graph(8, [(0, 1), (0, 2), (0, 3), (1, 2)])
    ledger = QueryLedger()
    h = make_oracle(g, seed=0, ledger=ledger)
    res = learn_bounded_degree(h, d=3)
    assert res.graph() == g
    assert res.samples_used == 17
    assert ledger.counts["graph_state_copy"] == 34
    assert ledger.counts["parity_query"] == 0
    hub = Graph(8, [(0, v) for v in range(1, 6)])
    res = learn_bounded_degree(make_oracle(hub, seed=1), d=3)
    assert res.over_degree == {0}
    assert res.neighbors[1] == {0} and res.neighbors[7] == set()


def test_bounded_degree_rejects_bad_arguments():
    h = make_oracle(Graph(6, []), seed=0)
    with pytest.raises(ValueError):
        learn_bounded_degree(h, d=0)


# -- subgraph of a known graph -------------------------------------------------------


def test_subgraph_of_empty_supergraph_is_free():
    ledger = QueryLedger()
    h = make_oracle(Graph(12, []), seed=0, ledger=ledger)
    assert learn_subgraph_of(h, Graph(12, []), d=2) == Graph(12, [])
    assert ledger.counts["graph_state_copy"] == 0


def test_subgraph_of_cycle_recovers_alternate_edges():
    ring = [(i, (i + 1) % 8) for i in range(8)]
    ring = [(min(e), max(e)) for e in ring]
    gprime = Graph(8, ring)
    hidden = Graph(8, ring[::2])
    for seed in range(6):
        h = make_oracle(hidden, seed=seed)
        assert learn_subgraph_of(h, gprime, d=2) == hidden


def test_subgraph_of_runs_at_moderate_scale():
    # union of three random perfect matchings keeps every degree at most 3
    rng = np.random.default_rng(7)
    edges = set()
    for _ in range(3):
        perm = rng.permutation(100)
        edges.update(
            (int(min(a, b)), int(max(a, b))) for a, b in zip(perm[::2], perm[1::2])
        )
    base = Graph(100, sorted(edges))
    keep = [e for e in base.edges if rng.random() < 0.5]
    hidden = Graph(100, keep)
    h = make_oracle(hidden, seed=11)
    assert learn_subgraph_of(h, base, d=3) == hidden


def test_subgraph_of_validates_degree_claim():
    gprime = Graph(5, [(0, 1), (0, 2), (0, 3)])
    h = make_oracle(Graph(5, []), seed=0)
    with pytest.raises(ValueError):
        learn_subgraph_of(h, gprime, d=2)
    with pytest.raises(ValueError):
        learn_subgraph_of(h, Graph(4, []), d=2)


# -- bounded edge count ----------------------------------------------------------------


def test_bounded_edges_empty_promise():
    h = make_oracle(Graph(20, []), seed=0)
    assert learn_bounded_edges_parity(h, m=0) == Graph(20, [])


def test_bounded_edges_star_reads_hub_exactly():
    edges = [(0, v) for v in range(1, 21)]
    g = Graph(200, edges)
    ledger = QueryLedger()
    h = make_oracle(g, seed=4, ledger=ledger)
    assert learn_bounded_edges_parity(h, m=20) == g
    # d = 3 splits the hub off as the single dense row
    # samples cost 2(l + k), the dense readout 2 more
    assert ledger.counts["parity_query"] == 90
    assert ledger.counts["graph_state_copy"] == 0


def test_bounded_edges_random_graph_within_budget():
    rng = np.random.default_rng(31)
    for seed in range(4):
        g = random_graph(128, 40, rng)
        ledger = QueryLedger()
        h = make_oracle(g, seed=seed, ledger=ledger)
        assert learn_bounded_edges_parity(h, m=40) == g
        d = math.ceil(math.sqrt(40 / math.log2(42)))
        dense = sum(1 for v in range(128) if g.degree(v) > d)
        budget = math.ceil(7 * math.sqrt(40 * math.log2(40))) + 2 * dense
        assert ledger.counts["parity_query"] <= budget


def test_bounded_edges_rejects_broken_promise():
    h = make_oracle(Graph(3, [(0, 1), (0, 2), (1, 2)]), seed=0)
    with pytest.raises(ViolationError):
        learn_bounded_edges_parity(h, m=2)
    with pytest.raises(ValueError):
        learn_bounded_edges_parity(h, m=-1)


# -- unrestricted readout ------------------------------------------------------------------


def test_arbitrary_parity_costs_two_per_vertex():
    rng = np.random.default_rng(13)
    g = random_graph(64, 200, rng)
    ledger = QueryLedger()
    h = make_oracle(g, seed=5, ledger=ledger)
    assert learn_arbitrary_parity(h) == g
    assert ledger.counts["parity_query"] == 128
    assert ledger.counts["graph_state_copy"] == 0


def test_arbitrary_parity_triangle():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    ledger = QueryLedger()
    h = make_oracle(g, seed=0, ledger=ledger)
    assert learn_arbitrary_parity(h) == g
    assert ledger.counts["parity_query"] == 6


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**30))
def test_arbitrary_parity_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    pairs = list(combinations(range(n), 2))
    g = Graph(n, [p for p in pairs if rng.random() < 0.4])
    assert learn_arbitrary_parity(make_oracle(g, seed=seed)) == g


# -- promised shapes -------------------------------------------------------------------------


def test_star_from_measurements_is_cheap_and_exact():
    edges = [(7, v) for v in (0, 3, 11, 25, 39)]
    g = Graph(40, edges)
    copies = []
    for seed in range(400):
        ledger = QueryLedger()
        h = make_oracle(g, seed=seed, ledger=ledger)
        center, leaves = learn_star_graphstate(h)
        assert center == 7
        assert leaves == frozenset({0, 3, 11, 25, 39})
        copies.append(ledger.counts["graph_state_copy"])
    assert sum(copies) / len(copies) <= 12


def test_star_with_two_leaves():
    g = Graph(6, [(2, 0), (2, 5)])
    for seed in range(50):
        center, leaves = learn_star_graphstate(make_oracle(g, seed=seed))
        assert center == 2 and leaves == frozenset({0, 5})


def test_star_budget_error_on_silent_state():
    # the empty graph only ever yields the all-zero outcome
    h = make_oracle(Graph(5, []), seed=0)
    with pytest.raises(RetryBudgetError):
        learn_star_graphstate(h, cap=30)


def test_clique_single_edge():
    g = Graph(10, [(3, 8)])
    for seed in range(30):
        assert learn_clique_graphstate(make_oracle(g, seed=seed)) == frozenset({3, 8})


def test_clique_recovery_rate_and_sample_budget():
    members = (1, 9, 22, 40, 41, 63)
    g = Graph(64, [(a, b) for a, b in combinations(members, 2)])
    wins = 0
    draws_ok = 0
    trials = 300
    for seed in range(trials):
        ledger = QueryLedger()
        h = make_oracle(g, seed=seed, ledger=ledger)
        try:
            got = learn_clique_graphstate(h)
        except RetryBudgetError:
            continue
        if got == frozenset(members):
            wins += 1
        if ledger.counts["graph_state_copy"] <= 40:
            draws_ok += 1
    assert wins >= 0.99 * trials
    assert draws_ok >= 0.99 * trials
