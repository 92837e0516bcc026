import math
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gqlab
from gqlab import f2, harness, parity_learners
from gqlab.errors import (
    AmbiguityError,
    GqlabError,
    RetryBudgetError,
    ScaleError,
    ViolationError,
)
from gqlab.graphs import Graph, enumerate_all_graphs, generate
from gqlab.oracles import GraphOracle, QueryLedger
from gqlab.parity_learners import (
    _assemble,
    _decode_rows,
    _limbs,
    _lone_supports,
    _support_index,
    _support_table,
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


@pytest.mark.parametrize("k", [3, 12])
def test_audit_agrees_with_the_full_product(k):
    graphs = enumerate_all_graphs(5)
    assert len(graphs) == 1024
    batch = collect_samples(make_oracle(graphs[700], seed=k), k)
    passed = 0
    for g in graphs:
        verdict = batch.audit(g)
        assert verdict == (tuple(f2.xor_rows(g.adj_bits, batch.B)) == batch.Y)
        passed += verdict
    assert batch.audit(graphs[700])
    # three samples leave many members consistent, twelve leave the hidden one
    assert passed > 1 if k == 3 else passed == 1


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
        res = learn_bounded_degree(h, d=2, m_hint=8)
        assert res == g
        assert res.adj_bits[4] == 1 << 1 | 1 << 7
        assert res.adj_bits[0] == 0


@pytest.mark.parametrize("d", [1, 3, 4])
def test_bounded_degree_recovers_graph_at_its_bound(d):
    g = generate("bounded_degree", {"n": 40, "d": d, "m": 8 * d}, np.random.default_rng(d))
    assert max(g.degree(v) for v in range(40)) == d
    for seed in range(3):
        res = learn_bounded_degree(make_oracle(g, seed=seed), d=d, m_hint=g.m)
        assert res == g


def test_bounded_degree_marks_planted_hub():
    edges = [(0, v) for v in range(1, 6)] + [(6, 7), (8, 9)]
    g = Graph(16, edges)
    for seed in range(5):
        h = make_oracle(g, seed=seed)
        # the hub's row has no weight-<=2 explanation, so there is no answer;
        # test_bounded_edges_star_reads_hub_exactly covers reading it exactly
        assert learn_bounded_degree(h, d=2, m_hint=7) is None


def test_bounded_degree_empty_graph_stops_after_phase_one():
    ledger = QueryLedger()
    h = make_oracle(Graph(24, []), seed=0, ledger=ledger)
    res = learn_bounded_degree(h, d=3, m_hint=4, slack=5)
    assert res == Graph(24, [])
    # ceil(log2 4) + 5 = 7 samples and no second phase
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


def decoded_masks(sigs, targets, width, d):
    """The decoder's supports per target as position masks, refusing repeats."""
    out = []
    for found in _decode_rows(sigs, targets, width, d):
        masks = [sum(1 << j for j in support) for support in found]
        assert all(list(support) == sorted(support) for support in found)
        assert len(set(masks)) == len(masks), "a support was found twice"
        out.append(set(masks))
    assert len(out) == len(targets)
    return out


def test_row_decoder_matches_brute_force():
    rnd = random.Random(5)
    seen_ambiguous = seen_wide_unique = 0
    for _ in range(300):
        n, d = rnd.randint(1, 10), rnd.randint(1, 6)
        width = rnd.choice((3, 8, 64, 70, 128, 130))
        sigs = [rnd.getrandbits(width) for _ in range(n)]
        planted = 0
        for j in rnd.sample(range(n), rnd.randint(1, min(d, n))):
            planted ^= sigs[j]
        targets = (0, planted, rnd.getrandbits(width))
        for target, got in zip(targets, decoded_masks(sigs, targets, width, d)):
            want = brute_supports(target, sigs, d)
            assert got == want
            seen_ambiguous += len(want) > 1
            seen_wide_unique += width > 64 and len(want) == 1 and target != 0
    assert seen_ambiguous > 50 and seen_wide_unique > 50


@pytest.mark.parametrize("width", [1, 63, 64, 65, 128, 129, 200])
def test_limbs_are_low_first_uint64_words(width):
    rnd = random.Random(width)
    words = [rnd.getrandbits(width) for _ in range(9)] + [0, (1 << width) - 1]
    limbs = _limbs(words, width)
    assert limbs.dtype == np.uint64
    assert limbs.shape == (len(words), max(1, -(-width // 64)))
    for w, row in zip(words, limbs.tolist()):
        assert sum(x << 64 * j for j, x in enumerate(row)) == w


def test_row_decoder_reads_past_the_low_64_bits():
    a, b = 0x1234_5678_9ABC_DEF0, 0x0FED_CBA9_8765_4321
    # columns 0/1 and 2/3 agree on their low 64 bits and differ above them
    sigs = [a, a ^ (1 << 100), b, b ^ (1 << 90)]
    targets = (a, a ^ (1 << 100), a ^ (1 << 101), a ^ b)
    for d in range(1, 5):
        assert decoded_masks(sigs, targets, 102, d) == [
            {0b0001}, {0b0010}, set(), {0b0101} if d > 1 else set()
        ]


def test_row_decoder_expands_equal_low_limbs():
    # four columns share their low 64 bits, so every small-table key meets a
    # run of equal sorted keys in the big table and only the high limb decides
    low = 0xDEAD_BEEF_0BAD_F00D
    sigs = [low | (1 << (64 + i)) for i in range(4)] + [1 << 3, 1 << 70]
    targets = [low ^ 1 << 65, 1 << 65 ^ 1 << 66, 1 << 3 ^ 1 << 70, low, 1 << 64 ^ 1 << 3]
    for d in range(1, 7):
        got = decoded_masks(sigs, targets, 71, d)
        assert got == [brute_supports(t, sigs, d) for t in targets]
    # with d = 4, two and four equal-low columns give the same low 64 bits
    assert decoded_masks(sigs, [1 << 64 ^ 1 << 65], 71, 4) == [{0b0011}]


def test_row_decoder_single_column_and_many_blocks(monkeypatch):
    assert decoded_masks([0b101], [0b101, 0, 0b100], 3, 2) == [{1}, {0}, set()]
    rnd = random.Random(17)
    sigs = [rnd.getrandbits(40) for _ in range(9)]
    targets = [
        rnd.choice((rnd.getrandbits(40), sigs[i % 9] ^ sigs[(i * 5 + 1) % 9]))
        for i in range(60)
    ]
    want = decoded_masks(sigs, targets, 40, 3)
    # 10 small-table keys per row: a 25-key block holds two rows
    monkeypatch.setattr("gqlab.parity_learners._JOIN_BLOCK", 25)
    assert decoded_masks(sigs, targets, 40, 3) == want
    assert want == [brute_supports(t, sigs, 3) for t in targets]


def certified_columns(sigs, targets, width, d):
    """Per target, the column ``_lone_supports`` certifies (-1: the empty support), or None."""
    half = (d + 1) // 2
    sig, weight, _, cols = _support_table(_limbs(sigs, width), half)
    order = np.argsort(sig[:, 0])
    lone = _lone_supports(_limbs(targets, width), sig, weight, order, sig[order, 0], 2 * half - d)
    return [int(cols[-1, e]) if e >= 0 else None for e in lone]


def test_row_decoder_certifies_single_columns_over_a_distinct_table():
    rnd = random.Random(11)
    sigs = [rnd.getrandbits(49) for _ in range(20)]
    targets = sigs + [sigs[0] ^ sigs[1], sigs[2] ^ sigs[3] ^ sigs[4], 0]
    for d in (1, 3, 5):
        # every single-column row is certified with its column; the rest join
        assert certified_columns(sigs, targets, 49, d) == list(range(20)) + [None, None, -1]
        got = decoded_masks(sigs, targets, 49, d)
        assert got == [brute_supports(t, sigs, d) for t in targets]


def test_row_decoder_certificate_needs_a_distinct_table():
    # s0 = s1 ^ s2 ^ s3 is a weight-4 dependency, so s0 ^ s1 and s2 ^ s3 share
    # a table entry: the weight-1 row s0 is not certified and both supports return
    rnd = random.Random(12)
    sigs = [rnd.getrandbits(40) for _ in range(6)]
    sigs[0] = sigs[1] ^ sigs[2] ^ sigs[3]
    assert certified_columns(sigs, [sigs[0], sigs[5]], 40, 3) == [None, None]
    assert decoded_masks(sigs, [sigs[0], sigs[5]], 40, 3) == [{0b000001, 0b001110}, {0b100000}]


def test_row_decoder_does_not_certify_heavier_entries():
    # s4 = s0 ^ s1 ^ s2 ^ s3 is a weight-5 dependency and none lighter exists,
    # so the table is distinct and s0 is certified, but s0 ^ s1 also equals
    # s2 ^ s3 ^ s4: a weight-2 entry is no certificate at d = 3
    rnd = random.Random(13)
    sigs = [rnd.getrandbits(40) for _ in range(4)]
    sigs.append(sigs[0] ^ sigs[1] ^ sigs[2] ^ sigs[3])
    targets = [sigs[0], sigs[0] ^ sigs[1]]
    assert certified_columns(sigs, targets, 40, 3) == [0, None]
    assert decoded_masks(sigs, targets, 40, 3) == [{0b00001}, {0b00011, 0b11100}]


def test_row_decoder_certifies_no_nonzero_row_at_even_degree():
    # s2 = s0 ^ s1 is a weight-3 dependency, invisible to the weight-<=1 table
    # of d = 2: the single-column row s2 has a weight-2 support too
    rnd = random.Random(14)
    sigs = [rnd.getrandbits(40) for _ in range(5)]
    sigs[2] = sigs[0] ^ sigs[1]
    assert decoded_masks(sigs, [sigs[2], sigs[4]], 40, 2) == [{0b00100, 0b00011}, {0b10000}]
    assert certified_columns(sigs, sigs, 40, 2) == [None] * 5
    # the zero row is the empty support, entry 0 of a distinct table
    assert certified_columns(sigs, [0], 40, 2) == [-1]
    others = [rnd.getrandbits(40) for _ in range(8)]
    assert certified_columns(others, others, 40, 4) == [None] * 8


@pytest.mark.parametrize("width", [65, 70, 100, 128, 129, 130])
def test_row_decoder_certificate_reads_the_high_limbs(width):
    # each second target shares a column's low 64 bits but not its high ones
    rnd = random.Random(width)
    sigs = [rnd.getrandbits(width) for _ in range(12)]
    targets = [t for s in sigs for t in (s, s ^ 1 << rnd.randrange(64, width))]
    assert certified_columns(sigs, targets, width, 3) == [
        j if i == 0 else None for j in range(12) for i in range(2)
    ]
    assert decoded_masks(sigs, targets, width, 3) == [brute_supports(t, sigs, 3) for t in targets]


@pytest.mark.parametrize("w", range(4))
def test_support_index_lists_supports_by_highest_position(monkeypatch, w):
    # a fresh index, grown, read as a prefix, and grown again
    monkeypatch.setattr(parity_learners, "_INDEX", {})
    rows = max(w, 1)
    for count in (30, 5, 45, 1, 45):
        cols, weight, first = _support_index(count, w)
        # colex order: by highest position, the empty support first
        want = sorted(
            (c for k in range(w + 1) for c in combinations(range(count), k)),
            key=lambda c: c[::-1],
        )
        assert cols.T.tolist() == [[-1] * (rows - len(c)) + list(c) for c in want]
        assert weight.tolist() == [len(c) for c in want]
        assert first.tolist()[1:] == [c[0] for c in want[1:]]
        assert first[0] > count
    # one entry per weight bound, covering the widest count asked for
    assert {b: entry[0] for b, entry in parity_learners._INDEX.items()} == {
        b: 45 for b in range(w + 1)
    }


def test_row_decoder_index_serves_narrower_and_wider_decodes(monkeypatch):
    # one index through the test: built at 70 columns, read as a prefix at
    # 10, grown at 200; every decode agrees with brute force
    monkeypatch.setattr(parity_learners, "_INDEX", {})
    index = parity_learners._INDEX
    rnd = random.Random(23)
    built = {}
    for count in (70, 10, 200):
        sigs = [rnd.getrandbits(40) for _ in range(count)]
        # one row the certificate settles, one the join must find
        targets = []
        for weight in (1, 3):
            planted = 0
            for j in rnd.sample(range(count), weight):
                planted ^= sigs[j]
            targets.append(planted)
        got = decoded_masks(sigs, targets, 40, 3)
        assert got == [brute_supports(t, sigs, 3) for t in targets]
        assert [len(g) for g in got] == [1, 1]
        built[count] = index[2][1]
    # the prefix read rebuilt nothing; the wider decode grew the index
    assert built[10] is built[70] and built[200].shape == (2, math.comb(200, 2) + 201)
    assert {b: entry[0] for b, entry in index.items()} == {0: 200, 1: 200, 2: 200}


def test_import_builds_no_support_index():
    src = Path(gqlab.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import gqlab.parity_learners as p; print(len(p._INDEX))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"


def test_assembly_refuses_unreturned_claims():
    rows = (0b010, 0b101, 0b010)
    path = _assemble(rows)
    assert path == Graph(3, [(0, 1), (1, 2)])
    for bad in (
        (0b010, 0b101, 0b000),  # 1 claims 2, 2 does not claim 1
        (0b010, 0b101, 0b110),  # 2 claims itself
        (0b1010, 0b101, 0b010),  # 3 is outside the graph
    ):
        with pytest.raises(AmbiguityError):
            _assemble(bad)


def test_bounded_degree_enumeration_guard():
    # n' = 1024 at d = 4: the join would form 1024 * C(1024, <=2), about 5e8 keys
    matching = [(2 * i, 2 * i + 1) for i in range(512)]
    h = make_oracle(Graph(1024, matching), seed=0)
    with pytest.raises(ScaleError, match="key bound"):
        learn_bounded_degree(h, d=4, m_hint=512)
    # refused before phase 2: only phase 1's log2(512) + 7 samples are spent
    assert h.ledger.counts["graph_state_copy"] == 2 * (9 + 7)


def test_bounded_degree_table_bound():
    # n' = 3000 at d = 3: C(3000, <=2), about 4.5e6 table entries, while the
    # join would form only 3000 * 3001 keys
    matching = [(2 * i, 2 * i + 1) for i in range(1500)]
    h = make_oracle(Graph(3000, matching), seed=0)
    with pytest.raises(ScaleError, match="table bound"):
        learn_bounded_degree(h, d=3, m_hint=1500)
    assert h.ledger.counts["graph_state_copy"] == 2 * (11 + 7)


def test_bounded_edges_refuses_before_phase_two():
    # m = 512 at n = 128 picks d = 8, and C(n', <=4) entries exceed the table
    # bound; phase 1's log2(512) + 15 samples at two parity queries each are
    # all that is spent
    g = generate("fixed_edge_count", {"n": 128, "m": 512}, np.random.default_rng(0))
    h = make_oracle(g)
    with pytest.raises(ScaleError, match="table bound"):
        learn_bounded_edges_parity(h, m=512)
    assert h.ledger.counts["parity_query"] == 2 * (9 + 15) == 48


def test_bounded_degree_decodes_past_the_old_candidate_cap():
    # C(n', <=3) is above 10^7 here, which the candidate cap refused; the
    # table holds C(n', <=2) entries and the join forms n' (n' + 1) keys
    g = generate("bounded_degree", {"n": 512, "d": 3, "m": 704}, np.random.default_rng(0))
    nprime = sum(g.degree(v) > 0 for v in range(512))
    assert sum(math.comb(nprime, l) for l in range(4)) > 10**7
    for seed in range(2):
        res = learn_bounded_degree(make_oracle(g, seed=seed), d=3, m_hint=g.m)
        assert res == g


def test_wide_degree_bound_falls_back_to_direct_readout():
    # d > n/4: the whole matrix comes from Bell samples as a subgraph of the
    # complete graph, 7 + ceil(log2 8) + 7 = 17 samples and no parity query
    g = Graph(8, [(0, 1), (0, 2), (0, 3), (1, 2)])
    ledger = QueryLedger()
    h = make_oracle(g, seed=0, ledger=ledger)
    assert learn_bounded_degree(h, d=3) == g
    assert ledger.counts["graph_state_copy"] == 34
    assert ledger.counts["parity_query"] == 0
    hub = Graph(8, [(0, v) for v in range(1, 6)])
    assert learn_bounded_degree(make_oracle(hub, seed=1), d=3) is None


def test_bounded_degree_rejects_bad_arguments():
    h = make_oracle(Graph(6, []), seed=0)
    with pytest.raises(ValueError):
        learn_bounded_degree(h, d=0)


def test_every_graph_on_five_vertices_through_the_parity_learners():
    """Every graph on n <= 5, three seeds each, through three parity-side learners.

    ``learn_arbitrary_parity`` is always right at 2n parity queries and no other;
    ``learn_bounded_edges_parity`` (m = the hidden m) and
    ``learn_bounded_degree`` (d = the largest degree, at least 1) answer the
    hidden graph, None (bounded degree only) or a GqlabError.  No learner
    reveals the graph.  Every answer is the hidden graph at these seeds.
    """
    learners = {
        "arbitrary": lambda h, g: learn_arbitrary_parity(h),
        "bounded_edges": lambda h, g: learn_bounded_edges_parity(h, m=g.m),
        "bounded_degree": lambda h, g: learn_bounded_degree(
            h, d=max(1, *map(g.degree, range(g.n)))
        ),
    }
    zeros = QueryLedger().counts
    misses = Counter()
    for n in range(1, 6):
        for i, g in enumerate(enumerate_all_graphs(n)):
            for seed in range(3):
                for name, learn in learners.items():
                    ledger = QueryLedger()
                    h = make_oracle(g, seed=[n, i, seed], ledger=ledger)
                    try:
                        got = learn(h, g)
                    except GqlabError as exc:
                        got = type(exc).__name__
                    assert ledger.counts["reveal_used"] == 0
                    if name == "arbitrary":
                        assert got == g and ledger.counts == {**zeros, "parity_query": 2 * n}
                    if got != g:
                        assert isinstance(got, str) or (got is None and name == "bounded_degree")
                        misses[name, got] += 1
    assert misses == Counter()


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


def test_bounded_edges_refuses_an_answer_its_samples_contradict():
    # sweep_bounded_edges_parity point 1 trial 2: vertices 32 and 53 both
    # read 0 in phase 1, so the decoder never sees edge (32, 53); the graph
    # without it is symmetric but contradicts the phase-2 samples
    ss = np.random.SeedSequence(11510, spawn_key=(1, 2))
    rng = np.random.Generator(np.random.Philox(ss))
    draw = harness.FAMILIES["fixed_edge_count"].draw
    h, g, _ = draw({"n": 128, "m": 16}, rng, QueryLedger())
    assert g.has_edge(32, 53)
    with pytest.raises(AmbiguityError, match="contradicts"):
        learn_bounded_edges_parity(h, m=16, slack=0)


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
        assert learn_star_graphstate(h) == g
        copies.append(ledger.counts["graph_state_copy"])
    assert sum(copies) / len(copies) <= 12


def test_star_with_two_leaves():
    g = Graph(6, [(2, 0), (2, 5)])
    for seed in range(50):
        assert learn_star_graphstate(make_oracle(g, seed=seed)) == g


def test_star_budget_error_on_silent_state():
    # the empty graph only ever yields the all-zero outcome
    h = make_oracle(Graph(5, []), seed=0)
    with pytest.raises(RetryBudgetError, match="after 200 samples"):
        learn_star_graphstate(h)


def test_clique_single_edge():
    g = Graph(10, [(3, 8)])
    for seed in range(30):
        assert learn_clique_graphstate(make_oracle(g, seed=seed)) == g


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
        if got == g:
            wins += 1
        if ledger.counts["graph_state_copy"] <= 40:
            draws_ok += 1
    assert wins >= 0.99 * trials
    assert draws_ok >= 0.99 * trials
