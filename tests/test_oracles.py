"""Oracle layer checked against direct counting and the dense simulators."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import statevector as quantum
from gqlab import f2
from gqlab.errors import ScaleError
from gqlab.f2 import matvec
from gqlab.fourier import exact_half_level_weights_pm1, maj_level_weights, maj_truth
from gqlab.graphs import Graph, enumerate_all_graphs
from gqlab.oracles import QUERY_KINDS, GraphOracle, JuntaOracle, QueryLedger


def random_graph(n, m, rng):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = rng.choice(len(pairs), size=m, replace=False)
    return Graph(n, [pairs[i] for i in picks])


def count_induced(graph, subset):
    s = set(subset)
    return sum(1 for (u, v) in graph.edges if u in s and v in s)


# -- ledger -------------------------------------------------------------------

def test_ledger_round_trip_and_monotonicity():
    ledger = QueryLedger()
    ledger.charge("or_query", 3)
    ledger.charge("graph_state_copy", 2)
    with pytest.raises(ValueError):
        ledger.charge("or_query", -1)
    with pytest.raises(KeyError):
        ledger.charge("grover_call")


def test_ledger_pause_suppresses_but_audits():
    ledger = QueryLedger()
    with ledger.paused():
        ledger.charge("or_query", 5)
        ledger.charge("reveal_used")  # reveals pierce the pause
    ledger.charge("or_query")
    assert ledger.counts["or_query"] == 1
    assert ledger.suppressed["or_query"] == 5
    assert ledger.counts["reveal_used"] == 1


def test_ledger_delta():
    ledger = QueryLedger()
    ledger.charge("parity_query", 4)
    before = ledger.snapshot()
    ledger.charge("parity_query", 3)
    assert ledger.delta(before)["parity_query"] == 3
    assert ledger.delta(before)["or_query"] == 0


# -- classical graph queries ---------------------------------------------------

def test_or_and_parity_match_direct_counting():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        g = random_graph(n, m, rng)
        oracle = GraphOracle(g, rng)
        for _ in range(20):
            mask = int(rng.integers(0, 1 << n))
            subset = [v for v in range(n) if (mask >> v) & 1]
            cnt = count_induced(g, subset)
            assert oracle.or_query(subset) == (1 if cnt else 0)
            assert oracle.parity_query(subset) == cnt % 2
    assert oracle.ledger.counts["or_query"] == 20
    assert oracle.ledger.counts["parity_query"] == 20


def test_or_query_on_masks_matches_brute_force():
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(2, 140))
        # edges on a small support leave most vertices isolated
        support = [int(v) for v in rng.choice(n, size=min(n, 8), replace=False)]
        pairs = [(u, v) for i, u in enumerate(support) for v in support[i + 1:]]
        picks = rng.choice(len(pairs), size=int(rng.integers(0, len(pairs) + 1)), replace=False)
        g = Graph(n, [pairs[int(i)] for i in picks])
        oracle = GraphOracle(g, rng)
        for _ in range(20):
            mask = int.from_bytes(rng.bytes((n + 7) // 8), "little") & ((1 << n) - 1)
            subset = [v for v in range(n) if (mask >> v) & 1]
            cnt = count_induced(g, subset)
            assert oracle.or_query(mask) == (1 if cnt else 0)
            assert oracle.parity_query(mask) == cnt % 2
        before = oracle.ledger.snapshot()
        for bad in (-1, 1 << n, (1 << (n + 1)) - 1):
            with pytest.raises(ValueError):
                oracle.or_query(bad)
            with pytest.raises(ValueError):
                oracle.parity_query(bad)
        assert oracle.ledger.snapshot() == before


@st.composite
def graph_and_masks(draw):
    n = draw(st.integers(min_value=1, max_value=70))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    return n, edges, draw(masks), draw(masks)


@given(graph_and_masks())
@example((4, [(0, 1)], 0b0011, 0b1100))  # base with an internal edge
@example((5, [(0, 1), (1, 2), (3, 4)], 0b00110, 0b11111))  # items overlap base
@example((4, [(0, 1)], 0b0001, 0))  # no items
@settings(max_examples=200, deadline=None)
def test_or_block_query_matches_single_item_queries(case):
    n, edges, base, items = case
    oracle = GraphOracle(Graph(n, edges), np.random.default_rng(0))
    expect = sum(oracle.or_query(base | 1 << x) << x for x in f2.support(items))
    before = oracle.ledger.snapshot()
    assert oracle.or_block_query(base, items) == expect
    assert oracle.ledger.delta(before)["or_query"] == items.bit_count()
    before = oracle.ledger.snapshot()
    for bad in (-1, 1 << n):
        with pytest.raises(ValueError):
            oracle.or_block_query(bad, items)
        with pytest.raises(ValueError):
            oracle.or_block_query(base, bad)
    assert oracle.ledger.snapshot() == before


def test_queries_accept_bitvectors_and_reject_bad_vertices():
    g = Graph(4, [(0, 1)])
    oracle = GraphOracle(g, np.random.default_rng(0))
    assert oracle.or_query(0b0011) == 1
    assert oracle.or_query([0, 1]) == 1
    with pytest.raises(ValueError):
        oracle.or_query([4])
    for bad in (1 << 4, -1):
        with pytest.raises(ValueError):
            oracle.parity_vector_query(bad)
    assert oracle.ledger.counts["parity_query"] == 0


def test_parity_vector_query_is_adjacency_action():
    rng = np.random.default_rng(5)
    g = random_graph(8, 11, rng)
    oracle = GraphOracle(g, rng)
    for _ in range(30):
        v = int(rng.integers(0, 256))
        assert oracle.parity_vector_query(v) == matvec(g.adj_bits, v)
    assert oracle.ledger.counts["parity_query"] == 60


def test_parity_block_query_matches_vector_queries_column_by_column():
    rng = np.random.default_rng(7)
    g = random_graph(10, 17, rng)
    block_oracle = GraphOracle(g, np.random.default_rng(0))
    vector_oracle = GraphOracle(g, np.random.default_rng(0))
    k = 13
    cols = [int(rng.integers(0, 1 << 10)) for _ in range(k)]
    rows = f2.transpose_words(cols, 10)
    out = f2.transpose_words(block_oracle.parity_block_query(rows, k), k)
    for i, s in enumerate(cols):
        assert out[i] == vector_oracle.parity_vector_query(s)
    assert block_oracle.ledger.counts == vector_oracle.ledger.counts
    assert block_oracle.ledger.counts["parity_query"] == 2 * k
    before = block_oracle.ledger.snapshot()
    for bad in (rows[:-1], [1 << k] + rows[1:], rows[:-1] + [-1]):
        with pytest.raises(ValueError):
            block_oracle.parity_block_query(bad, k)
    assert block_oracle.ledger.snapshot() == before


# -- Bell samples ---------------------------------------------------------------

def test_bell_sample_consistency_and_charges():
    rng = np.random.default_rng(9)
    g = random_graph(12, 20, rng)
    oracle = GraphOracle(g, rng)
    for _ in range(200):
        s, y = oracle.bell_sample()
        assert s >> 12 == 0
        assert y == matvec(g.adj_bits, s)
    assert oracle.ledger.counts["graph_state_copy"] == 400


@pytest.mark.parametrize("n, k", [(1, 1), (9, 0), (12, 25), (70, 40)])
def test_bell_samples_block_equals_repeated_bell_sample(n, k):
    g = random_graph(n, min(n * (n - 1) // 2, 2 * n), np.random.default_rng(n))
    block_oracle = GraphOracle(g, np.random.default_rng(41))
    single_oracle = GraphOracle(g, np.random.default_rng(41))
    rows_b, rows_y = block_oracle.bell_samples(k)
    cols_b, cols_y = f2.transpose_words(rows_b, k), f2.transpose_words(rows_y, k)
    for i in range(k):
        assert (cols_b[i], cols_y[i]) == single_oracle.bell_sample()
    assert block_oracle.ledger.counts == single_oracle.ledger.counts
    assert block_oracle.ledger.counts["graph_state_copy"] == 2 * k
    # both oracles leave the shared stream at the same place
    assert block_oracle.rng.random() == single_oracle.rng.random()


def test_bell_sample_matches_dense_distribution():
    # joint (s, y) -> Pauli string frequencies vs the statevector route
    rng = np.random.default_rng(17)
    g = Graph(3, [(0, 1), (1, 2)])
    oracle = GraphOracle(g, rng)
    reference = {
        o.pauli: o.probability
        for o in quantum.bell_distribution(quantum.build_graph_state(g))
        if o.probability > 0
    }
    assert len(reference) == 8
    counts = {p: 0 for p in reference}
    draws = 100_000
    for _ in range(draws):
        s, y = oracle.bell_sample()
        label = quantum.pauli_string(s, y, 3)
        assert label in reference
        counts[label] += 1
    observed = np.array([counts[p] for p in reference])
    expected = np.array([reference[p] * draws for p in reference])
    assert stats.chisquare(observed, expected).pvalue > 1e-3


def test_bell_sample_s_marginal_uniform():
    rng = np.random.default_rng(23)
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    oracle = GraphOracle(g, rng)
    counts = np.zeros(16)
    for _ in range(80_000):
        s, _ = oracle.bell_sample()
        counts[s] += 1
    assert stats.chisquare(counts).pvalue > 1e-3


# -- Hadamard samples -------------------------------------------------------------

def hadamard_reference(g):
    state = quantum.build_graph_state(g)
    return np.abs(quantum._hadamard_all(state.amps, g.n)) ** 2


@pytest.mark.parametrize(
    "n, edges, seed",
    [
        (5, [(2, 0), (2, 1), (2, 4)], 31),
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 37),
    ],
    ids=["star", "cycle"],
)
def test_hadamard_sample_matches_dense(n, edges, seed):
    g = Graph(n, edges)
    ref = hadamard_reference(g)
    rng = np.random.default_rng(seed)
    oracle = GraphOracle(g, rng)
    counts = np.zeros(1 << n)
    draws = 40_000
    for _ in range(draws):
        counts[oracle.hadamard_sample()] += 1
    keep = ref > 1e-12
    assert counts[~keep].sum() == 0
    assert stats.chisquare(counts[keep], ref[keep] * draws).pvalue > 1e-3
    assert oracle.ledger.counts["graph_state_copy"] == draws


@pytest.mark.parametrize("r", range(1, 6))
def test_hadamard_coset_is_exact_on_all_small_graphs(r):
    # x0 + A s over every s is the exact outcome law, not just a sample of it
    for g in enumerate_all_graphs(r):
        oracle = GraphOracle(g, np.random.default_rng(0))
        oracle.hadamard_sample()
        dist = np.zeros(1 << r)
        for s in range(1 << r):
            dist[oracle._x_offset ^ f2.xor_rows([s], g.adj_bits)[0]] += 2.0**-r
        np.testing.assert_allclose(dist, hadamard_reference(g), rtol=0, atol=1e-12)


def test_hadamard_sample_past_the_statevector_cap():
    # a disjoint union measures as a product, so each small component's
    # marginal can be checked against its own statevector
    rng = np.random.default_rng(67)
    blocks, edges, start = [], [], 0
    while start < 48:
        size = int(rng.integers(5, 7))
        pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
        block = Graph(size, [e for e in pairs if rng.random() < 0.5])
        blocks.append((start, block))
        edges += [(start + u, start + v) for u, v in block.edges]
        start += size
    assert any(block.m and block.is_star() is None for _, block in blocks)
    g = Graph(start, edges)
    assert g.n > quantum.MAX_STATE_QUBITS
    oracle = GraphOracle(g, rng)
    draws = 4000
    outcomes = [oracle.hadamard_sample() for _ in range(draws)]
    assert oracle.ledger.counts["graph_state_copy"] == draws
    for offset, block in blocks:
        ref = hadamard_reference(block)
        counts = np.zeros(1 << block.n)
        for x in outcomes:
            counts[(x >> offset) & ((1 << block.n) - 1)] += 1
        keep = ref > 1e-12
        assert counts[~keep].sum() == 0
        if keep.sum() > 1:
            assert stats.chisquare(counts[keep], ref[keep] * draws).pvalue > 1e-3


# -- Fourier sampling of the OR function -------------------------------------------

def or_truth_table(g, vertices):
    verts = list(vertices)
    t = len(verts)
    table = []
    for mask in range(1 << t):
        subset = [verts[j] for j in range(t) if (mask >> j) & 1]
        table.append(1 if count_induced(g, subset) else 0)
    return table


def test_fourier_star_matches_dense_distribution():
    g = Graph(5, [(1, 0), (1, 3), (1, 4)])
    ref = quantum.fourier_sampling_distribution(or_truth_table(g, range(5)), 5)
    rng = np.random.default_rng(41)
    oracle = GraphOracle(g, rng)
    counts = np.zeros(32)
    draws = 100_000
    for _ in range(draws):
        out = oracle.fourier_sample_or()
        counts[sum(1 << v for v in out)] += 1
    keep = ref > 1e-12
    assert counts[~keep].sum() == 0
    assert stats.chisquare(counts[keep], ref[keep] * draws).pvalue > 1e-3
    assert oracle.ledger.counts["or_query"] == draws


def test_fourier_star_center_rate_large_star():
    # center mass (1 - 2^-m)^2 survives at sizes far beyond dense simulation
    g = Graph(
        400, [(7, v) for v in range(400) if v != 7][:64]
    )
    rng = np.random.default_rng(43)
    oracle = GraphOracle(g, rng)
    hits = sum(1 for _ in range(2000) if oracle.fourier_sample_or() == {7})
    assert hits / 2000 == pytest.approx((1 - 2.0**-64) ** 2, abs=0.02)


def test_fourier_brute_restricted_matches_dense():
    g = Graph(7, [(0, 1), (1, 2), (4, 5), (5, 6), (4, 6)])
    window = [1, 2, 4, 5, 6]
    ref = quantum.fourier_sampling_distribution(or_truth_table(g, window), 5)
    rng = np.random.default_rng(47)
    oracle = GraphOracle(g, rng)
    counts = np.zeros(32)
    draws = 60_000
    for _ in range(draws):
        out = oracle.fourier_sample_or(restrict=window)
        mask = 0
        for v in out:
            mask |= 1 << window.index(v)
        counts[mask] += 1
    keep = ref > 1e-12
    assert counts[~keep].sum() == 0
    assert stats.chisquare(counts[keep], ref[keep] * draws).pvalue > 1e-3


def test_fourier_restricted_no_edge_gives_empty():
    g = Graph(6, [(0, 1), (2, 3)])
    oracle = GraphOracle(g, np.random.default_rng(53))
    for _ in range(10):
        assert oracle.fourier_sample_or(restrict=[0, 2, 4, 5]) == frozenset()
    assert oracle.ledger.counts["or_query"] == 10


def test_fourier_brute_scale_cap():
    n = 30
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    oracle = GraphOracle(g, np.random.default_rng(59))
    with pytest.raises(ScaleError):
        oracle.fourier_sample_or()


def test_fourier_sample_or_refuses_before_charging():
    # out-of-range vertices and the scale cap raise before the ledger or the
    # generator moves
    oracle = GraphOracle(Graph(30, [(i, i + 1) for i in range(29)]), np.random.default_rng(61))
    state = oracle.rng.bit_generator.state
    for error, restrict in (
        (ValueError, [0, 30]), (ValueError, [-1, 0]), (ScaleError, None), (ScaleError, range(30))
    ):
        with pytest.raises(error):
            oracle.fourier_sample_or(restrict=restrict)
        assert oracle.ledger.counts == oracle.ledger.suppressed == QueryLedger().counts
        assert oracle.rng.bit_generator.state == state


# -- reveals ---------------------------------------------------------------------

def test_reveals_are_audited():
    g = Graph(3, [(0, 1)])
    oracle = GraphOracle(g, np.random.default_rng(61))
    assert oracle.peek_graph() is g
    assert oracle.ledger.counts["reveal_used"] == 1
    assert oracle.ledger.counts["or_query"] == 0


# -- junta oracle -----------------------------------------------------------------

def test_junta_query_evaluates_g_on_hidden_variables():
    rng = np.random.default_rng(67)
    table = maj_truth(3)
    oracle = JuntaOracle(10, (1, 4, 8), rng, g_table=table)
    for _ in range(50):
        x = int(rng.integers(0, 1 << 10))
        local = ((x >> 1) & 1) | ((x >> 4) & 1) << 1 | ((x >> 8) & 1) << 2
        assert oracle.junta_query(x) == table[local]
    assert oracle.ledger.counts["junta_query"] == 50
    for bad in (1 << 10, -1):
        with pytest.raises(ValueError):
            oracle.junta_query(bad)
    assert oracle.ledger.counts["junta_query"] == 50


def test_junta_fourier_sample_distribution():
    rng = np.random.default_rng(71)
    support = (2, 5, 6)
    oracle = JuntaOracle(8, support, rng, g_table=maj_truth(3))
    # MAJ_3: each singleton 1/4, full set 1/4
    expect = {
        frozenset({2}): 0.25,
        frozenset({5}): 0.25,
        frozenset({6}): 0.25,
        frozenset({2, 5, 6}): 0.25,
    }
    counts = {key: 0 for key in expect}
    draws = 40_000
    for mask in oracle.fourier_samples(draws).tolist():
        out = frozenset(support[j] for j in range(3) if (mask >> j) & 1)
        assert out in expect
        counts[out] += 1
    observed = np.array(list(counts.values()))
    assert stats.chisquare(observed).pvalue > 1e-3
    assert oracle.ledger.counts["junta_query"] == draws


def test_fourier_samples_block_equals_repeated_single_draws():
    support = (1, 4, 6, 9)
    table = np.random.default_rng(5).integers(0, 2, size=16)
    block = JuntaOracle(12, support, np.random.default_rng(77), g_table=table)
    single = JuntaOracle(12, support, np.random.default_rng(77), g_table=table)
    masks = block.fourier_samples(500)
    assert masks.shape == (500,) and masks.max() < 16
    # reference: one rng.random() and one searchsorted per draw
    ref_rng, cum = np.random.default_rng(77), single._dist_cum
    for mask in masks.tolist():
        u = ref_rng.random()
        assert mask == min(int(np.searchsorted(cum, u * cum[-1], side="right")), 15)
        assert single.fourier_samples(1).tolist() == [mask]
    assert block.ledger.counts == single.ledger.counts
    assert block.ledger.counts["junta_query"] == 500
    assert block.rng.random() == single.rng.random()
    assert block.fourier_samples(0).shape == (0,)
    with pytest.raises(ValueError):
        JuntaOracle(12, support, np.random.default_rng(0),
                    level_weights=np.full(5, 0.2)).fourier_samples(3)


def test_amplified_sampler_charges_and_conditions():
    rng = np.random.default_rng(73)
    support = tuple(range(3, 8))
    oracle = JuntaOracle(20, support, rng, g_table=maj_truth(5))
    weights = maj_level_weights(5)
    w_ge = weights[3:].sum()  # 0.296875
    per_success = math.ceil(1 / math.sqrt(w_ge))
    rounds = 30_000
    successes = 0
    level_counts = {3: 0, 5: 0}
    for _ in range(rounds):
        out = oracle.amplified_level_sample(3)
        if out is None:
            continue
        successes += 1
        assert out <= set(support)
        level_counts[len(out)] += 1
    assert successes / rounds == pytest.approx(max(w_ge, 1 - w_ge), abs=0.02)
    assert oracle.ledger.counts["charged_quantum"] == successes * per_success
    assert level_counts[3] / successes == pytest.approx(weights[3] / w_ge, abs=0.02)


def test_amplified_sampler_from_closed_form_weights():
    # arity too wide to tabulate; closed-form weights drive the sampler
    rng = np.random.default_rng(79)
    k = 33
    support = tuple(range(0, 66, 2))
    oracle = JuntaOracle(
        66,
        support,
        rng,
        level_weights=maj_level_weights(k),
        weight_eval=lambda w: int(w > k / 2),
    )
    l = (k + 1) // 2
    out = None
    while out is None:
        out = oracle.amplified_level_sample(l)
    assert out <= set(support)
    assert len(out) >= l
    assert oracle.junta_query(f2.from_support(support, 66)) == 1
    assert oracle.junta_query(0) == 0


def _amplified_draw_via_choice(weights, l, support, rng):
    # the per-draw rng.choice(levels, p=...) formula the cached CDF replaces
    k = len(support)
    tail = weights[l:]
    total = float(tail.sum())
    keep = tail > 0
    if rng.random() >= max(total, 1.0 - total):
        return None
    size = int(rng.choice(np.arange(l, k + 1)[keep], p=tail[keep] / total))
    picks = rng.choice(k, size=size, replace=False)
    return frozenset(support[int(j)] for j in picks)


# weights id -> (sha256 of the draws at every level, charged_quantum per
# level), recorded from the per-oracle sampler the shared level law replaces
_AMPLIFIED_PINS = {
    "maj9": ("15e0d1be8abb482406416fd726d705881cd91b429698726231236264d18a907a",
             (2000, 2668, 4827, 7412)),
    "maj33": ("13dde40e2209bbc844ca8241452f2603125df2287631b212eb1acd0bde26757b",
              (2000, 2556, 7244, 15616)),
    "maj65": ("a7d4e90e88c47b1d3e90c5d4517554e2f3dd778b8e2c39669bb0f0d9ea8bcafb",
              (2000, 2590, 7504, 21769)),
    "half8": ("482a5f01dfd3ef648b08a16be1479edef2d8f3ef307e554586f634ee69e06d98",
              (3144, 3208, 2466, 2844)),
    "half16": ("0bb00d64f278545fcf183fac83feda295a2a4b87604ce1fa5f5812837322d71a",
               (2438, 2454, 2306, 5166)),
}


@pytest.mark.parametrize(
    "weights, pin",
    [(maj_level_weights(k), _AMPLIFIED_PINS[f"maj{k}"]) for k in (9, 33, 65)]
    + [(exact_half_level_weights_pm1(k), _AMPLIFIED_PINS[f"half{k}"]) for k in (8, 16)],
    ids=list(_AMPLIFIED_PINS),
)
def test_amplified_sampler_matches_rng_choice_stream(weights, pin):
    # exact-half weights vanish on every odd level, so the CDF skips them
    k = len(weights) - 1
    support = tuple(range(1, 3 * k + 1, 3))
    digest = hashlib.sha256()
    charged = []
    for l in sorted({1, 2, (k + 1) // 2, k}):
        oracle = JuntaOracle(
            3 * k + 1, support, np.random.Generator(np.random.Philox(k + l)),
            level_weights=weights,
        )
        twin = np.random.Generator(np.random.Philox(k + l))
        for _ in range(2000):
            out = oracle.amplified_level_sample(l)
            assert out == _amplified_draw_via_choice(weights, l, support, twin)
            digest.update(b"miss;" if out is None else f"{sorted(out)};".encode())
        np.testing.assert_equal(oracle.rng.bit_generator.state, twin.bit_generator.state)
        counts = oracle.ledger.counts
        assert sum(counts.values()) == counts["charged_quantum"]
        charged.append(counts["charged_quantum"])
    assert (digest.hexdigest(), tuple(charged)) == pin


def test_amplified_sampler_rejects_asymmetric_table():
    table = [0, 1, 0, 0]  # depends on variable 0 only
    oracle = JuntaOracle(5, (0, 1), np.random.default_rng(83), g_table=table)
    with pytest.raises(ValueError):
        oracle.amplified_level_sample(1)


def test_junta_oracle_holds_its_own_weights():
    # a write into the caller's array after construction leaves the law alone
    weights = maj_level_weights(9).copy()
    support = tuple(range(0, 27, 3))
    oracle = JuntaOracle(30, support, np.random.default_rng(97), level_weights=weights)
    twin = JuntaOracle(
        30, support, np.random.default_rng(97), level_weights=maj_level_weights(9)
    )
    weights[:] = 0.0
    weights[9] = 1.0  # every draw would hit, at the top level
    for _ in range(500):
        assert oracle.amplified_level_sample(5) == twin.amplified_level_sample(5)
    assert oracle.ledger.counts == twin.ledger.counts
    with pytest.raises(ValueError):
        oracle.level_weights[0] = 1.0


def test_junta_oracle_validation():
    rng = np.random.default_rng(89)
    with pytest.raises(ValueError):
        JuntaOracle(5, (0, 0, 1), rng, g_table=maj_truth(3))
    with pytest.raises(ValueError):
        JuntaOracle(5, (0, 1, 7), rng, g_table=maj_truth(3))
    with pytest.raises(ValueError):
        JuntaOracle(5, (0, 1, 2), rng)
    oracle = JuntaOracle(5, (0, 1, 2), rng, g_table=maj_truth(3))
    with pytest.raises(ValueError):
        oracle.amplified_level_sample(0)
    assert oracle.peek_support() == (0, 1, 2)
    assert oracle.ledger.counts["reveal_used"] == 1
