"""Edge-existence learners checked exhaustively on small graphs."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqlab import f2, or_learners
from gqlab.errors import RetryBudgetError, ViolationError
from gqlab.graphs import Graph, adversary_instance, generate
from gqlab.oracles import GraphOracle, QueryLedger
from gqlab.or_learners import (
    greedy_coloring,
    learn_bipartite_edges,
    learn_clique_or,
    learn_graph_or,
    learn_merge_tree,
    learn_star_or,
    peel_independent_sets,
)


def fresh(graph, seed):
    return GraphOracle(graph, np.random.default_rng(seed))


def all_pairs(vertices):
    return list(itertools.combinations(sorted(vertices), 2))


# -- bipartite learning -----------------------------------------------------------

def test_bipartite_edges_catches_dependent_other_side():
    # every vertex of the first side looks active, so the recheck runs
    g = Graph(4, [(2, 3)])  # the "other" side holds an edge
    oracle = fresh(g, 2)
    with pytest.raises(ViolationError, match="not an independent set"):
        learn_bipartite_edges(oracle, [0, 1], [2, 3])

def test_bipartite_edges_exhaustive_3x3():
    a_side, b_side = [0, 1, 2], [3, 4, 5]
    cross = [(a, b) for a in a_side for b in b_side]
    for mask in range(1 << 9):
        edges = [cross[i] for i in range(9) if (mask >> i) & 1]
        oracle = fresh(Graph(6, edges), mask)
        got = learn_bipartite_edges(oracle, a_side, b_side)
        assert sorted(got) == sorted(edges)


def test_bipartite_edges_empty_case_is_one_query():
    oracle = fresh(Graph(6, []), 3)
    assert learn_bipartite_edges(oracle, [0, 1, 2], [3, 4, 5]) == []
    assert oracle.ledger.counts["or_query"] == 1


def test_bipartite_edges_quantum_backend_charges():
    edges = [(0, 4), (1, 4), (2, 5)]
    oracle = fresh(Graph(6, edges), 4)
    got = learn_bipartite_edges(
        oracle, [0, 1, 2], [3, 4, 5], backend="quantum_ideal"
    )
    assert sorted(got) == sorted(edges)
    assert oracle.ledger.counts["charged_quantum"] > 0
    assert oracle.ledger.suppressed["or_query"] > 0
    # the nonempty check, plus the two-query recheck fired by every
    # a-side vertex coming back active
    assert oracle.ledger.counts["or_query"] == 3


# -- coloring ----------------------------------------------------------------------

@given(st.integers(min_value=1, max_value=12), st.integers())
@settings(max_examples=60, deadline=None)
def test_greedy_coloring_proper_and_bounded(n, seed):
    rng = np.random.default_rng(seed % (2**32))
    pairs = all_pairs(range(n))
    m = int(rng.integers(0, len(pairs) + 1))
    edges = [pairs[i] for i in rng.choice(len(pairs), size=m, replace=False)] if pairs else []
    classes = greedy_coloring(range(n), Graph(n, edges).adj_bits)
    seen = sorted(v for cls in classes for v in cls)
    assert seen == list(range(n))
    eset = set(edges)
    for cls in classes:
        for u, v in all_pairs(cls):
            assert (u, v) not in eset
    assert len(classes) <= math.isqrt(2 * len(edges)) + 1


def _reference_greedy_coloring(vertices, rows):
    # the set-based coloring the bucket version must reproduce class for class
    verts = list(vertices)
    block = sum(1 << v for v in verts)
    adj = {v: f2.support(rows[v] & block) for v in verts}
    degrees = {v: len(adj[v]) for v in verts}
    live = set(verts)
    order = []
    while live:
        v = min(live, key=lambda x: (degrees[x], x))
        order.append(v)
        live.remove(v)
        for u in adj[v]:
            if u in live:
                degrees[u] -= 1
    color = {}
    for v in reversed(order):
        used = {color[u] for u in adj[v] if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    classes = [[] for _ in range(max(color.values(), default=-1) + 1)]
    for v in verts:
        classes[color[v]].append(v)
    return classes


def test_greedy_coloring_matches_reference_class_for_class():
    # class order and order within a class set the searched universes, so
    # the ledger: random orders, dense degree ties, rows reaching outside
    # the colored vertices, and two-clique blocks with known cross edges
    rng = np.random.default_rng(2203)
    for trial in range(600):
        n = int(rng.integers(1, 41))
        if trial % 3 == 2 and n >= 2:
            half = n // 2
            cross = f2.random_matrix(half, half, rng)
            rows = list(adversary_instance(half, cross).adj_bits) + [0] * (n - 2 * half)
        else:
            pairs = all_pairs(range(n))
            density = rng.choice([0.05, 0.2, 0.5, 0.9])
            edges = [pair for pair in pairs if rng.random() < density]
            rows = list(Graph(n, edges).adj_bits)
        order = rng.permutation(n).tolist()
        vertices = order[: int(rng.integers(0, n + 1))] if trial % 2 else order
        assert greedy_coloring(vertices, rows) == _reference_greedy_coloring(vertices, rows)


# -- peeling -----------------------------------------------------------------------

def test_peeling_partitions_into_independent_parts():
    g = Graph(10, [(0, 1), (1, 2), (3, 4), (5, 6), (7, 8), (8, 9), (0, 9)])
    oracle = fresh(g, 9)
    parts = peel_independent_sets(oracle, list(range(10)), p=0.25, fail_budget=200)
    seen = sorted(v for part in parts for v in part)
    assert seen == list(range(10))
    for part in parts:
        for u, v in all_pairs(part):
            assert not g.has_edge(u, v)


def test_peeling_budget_error_on_aggressive_p():
    g = Graph(8, all_pairs(range(8)))  # complete graph
    oracle = fresh(g, 10)
    with pytest.raises(RetryBudgetError):
        peel_independent_sets(oracle, list(range(8)), p=0.95, fail_budget=5)


# -- full learner -------------------------------------------------------------------

def test_learn_graph_or_exhaustive_n5():
    pairs = all_pairs(range(5))
    for mask in range(1 << 10):
        edges = [pairs[i] for i in range(10) if (mask >> i) & 1]
        g = Graph(5, edges)
        got = learn_graph_or(fresh(g, mask), m_hint=max(1, len(edges)))
        assert got == g


@given(st.integers(min_value=1, max_value=14), st.integers())
@settings(max_examples=40, deadline=None)
def test_learn_graph_or_random(n, seed):
    rng = np.random.default_rng(seed % (2**32))
    pairs = all_pairs(range(n))
    m = int(rng.integers(0, len(pairs) + 1)) if pairs else 0
    edges = [pairs[i] for i in rng.choice(len(pairs), size=m, replace=False)] if pairs else []
    g = Graph(n, edges)
    assert learn_graph_or(fresh(g, seed % 997), m_hint=None) == g


def test_learn_graph_or_quantum_matches_classical():
    pairs = all_pairs(range(12))
    rng = np.random.default_rng(11)
    edges = [pairs[i] for i in rng.choice(len(pairs), size=17, replace=False)]
    g = Graph(12, edges)
    classical = learn_graph_or(fresh(g, 12), m_hint=17)
    oracle_q = fresh(g, 12)
    quantum = learn_graph_or(oracle_q, m_hint=17, backend="quantum_ideal")
    assert classical == quantum == g
    assert oracle_q.ledger.counts["charged_quantum"] > 0


def test_learn_graph_or_deterministic_per_seed():
    g = Graph(10, [(0, 5), (1, 5), (2, 7), (3, 9), (8, 9)])
    runs = []
    for _ in range(2):
        oracle = fresh(g, 14)
        assert learn_graph_or(oracle, m_hint=5) == g
        runs.append(oracle.ledger.counts)
    assert runs[0] == runs[1]


class _QueryLog(GraphOracle):
    """A graph oracle that logs every OR query mask and block query in call
    order."""

    def __init__(self, graph, rng):
        super().__init__(graph, rng)
        self.log = []

    def or_query(self, subset):
        mask = subset if isinstance(subset, int) else f2.from_support(subset, self.n)
        self.log.append(f"{mask:x}")
        return super().or_query(subset)

    def or_block_query(self, base, items):
        self.log.append(f"{base:x}|{items:x}")
        return super().or_block_query(base, items)


# (learner, (family, point items), seed) -> backend -> (queries logged,
# sha256 of the log, nonzero ledger counts, nonzero suppressed counts); star
# m = 1 is the single-edge case
_QUERY_LOGS = {
    ("graph", ("two_clique_adversary", (("n", 8), ("k", 4))), 41): {
        "classical_adaptive": (
            106, "63d1887c2648c2f4809e4e64ca0ca2439f5c087b102ad724a252f20a19e4e43f",
            {"or_query": 106}, {}),
        "quantum_ideal": (
            88, "f9b3ce97ae3d1e8729727c1bb590c6b92ba3bbd697928d6640d47c8a986b6c3f",
            {"or_query": 51, "charged_quantum": 51}, {"or_query": 46}),
        "quantum_time_efficient": (
            88, "f9b3ce97ae3d1e8729727c1bb590c6b92ba3bbd697928d6640d47c8a986b6c3f",
            {"or_query": 51, "charged_quantum": 58}, {"or_query": 46}),
    },
    ("graph", ("two_clique_adversary", (("n", 16), ("k", 8))), 42): {
        "classical_adaptive": (
            374, "eedcd73e8e4e6b5ddebd480f6f7e91aa29cfa323e9077b830f63f013bcf1cabb",
            {"or_query": 374}, {}),
        "quantum_ideal": (
            236, "d894aa266fdb2006d6bcd8e2b4c61da6b662b1b07e35bd809bcd5b7cf38bd96c",
            {"or_query": 129, "charged_quantum": 183}, {"or_query": 176}),
        "quantum_time_efficient": (
            236, "d894aa266fdb2006d6bcd8e2b4c61da6b662b1b07e35bd809bcd5b7cf38bd96c",
            {"or_query": 129, "charged_quantum": 221}, {"or_query": 176}),
    },
    ("graph", ("fixed_edge_count", (("n", 24), ("m", 30))), 43): {
        "classical_adaptive": (
            244, "3cd887ba0bbb18b4f3e81653254401d3f816431d26dbb4b864a5789aab95a31f",
            {"or_query": 244}, {}),
        "quantum_ideal": (
            74, "1d46945e6c412642cef014c0e32727c790397a90cff57f34704b033b81826b58",
            {"or_query": 36, "charged_quantum": 65}, {"or_query": 179}),
        "quantum_time_efficient": (
            74, "1d46945e6c412642cef014c0e32727c790397a90cff57f34704b033b81826b58",
            {"or_query": 36, "charged_quantum": 103}, {"or_query": 179}),
    },
    ("graph", ("matching", (("n", 20), ("m", 6))), 44): {
        "classical_adaptive": (
            67, "19ba3260c0093a749136cb69b8cb9e210a1cdd2ebde1e3e55f1cc9cba084c880",
            {"or_query": 67}, {}),
        "quantum_ideal": (
            35, "180b18ca2db4ca183533f33e0b7d25dc78c09949c618f00e38730d9ab72e3499",
            {"or_query": 23, "charged_quantum": 12}, {"or_query": 52}),
        "quantum_time_efficient": (
            35, "180b18ca2db4ca183533f33e0b7d25dc78c09949c618f00e38730d9ab72e3499",
            {"or_query": 23, "charged_quantum": 12}, {"or_query": 52}),
    },
    ("star", ("star", (("n", 300), ("m", 1))), 51): {
        "classical_adaptive": (
            11, "8643367544bb20ba0a318e1437b2d8dd1b3a00f978488b20ef6df0ab98396f35",
            {"or_query": 15}, {}),
        "quantum_ideal": (
            2, "5b5abfa8fb14c4c6bc6d44e5d2017c083a52b123e925c1c7d395ca69902a4244",
            {"or_query": 5, "charged_quantum": 1}, {"or_query": 299}),
        "quantum_time_efficient": (
            2, "5b5abfa8fb14c4c6bc6d44e5d2017c083a52b123e925c1c7d395ca69902a4244",
            {"or_query": 5, "charged_quantum": 1}, {"or_query": 299}),
    },
    ("star", ("star", (("n", 300), ("m", 4))), 54): {
        "classical_adaptive": (
            38, "983250da8330434acb8f99fa0bb4f2446e06535da47826f4a4daabccb54bec1e",
            {"or_query": 42}, {}),
        "quantum_ideal": (
            2, "6f8f429eb94dbbfaa8b393a3c582f755806b0035760dff95919bc88a1a617c9b",
            {"or_query": 5, "charged_quantum": 5}, {"or_query": 299}),
        "quantum_time_efficient": (
            2, "6f8f429eb94dbbfaa8b393a3c582f755806b0035760dff95919bc88a1a617c9b",
            {"or_query": 5, "charged_quantum": 11}, {"or_query": 299}),
    },
    ("star", ("star", (("n", 300), ("m", 64))), 114): {
        "classical_adaptive": (
            583, "6dfcf4ca1f083cf85fc342bebe318b277dbc7480dcbf43bb5f48d64efcfc7045",
            {"or_query": 587}, {}),
        "quantum_ideal": (
            2, "7a2739a4a8e839a56668402b336b5ceaa99e6fc9d2d9e7a3e2457f002f75987c",
            {"or_query": 5, "charged_quantum": 26}, {"or_query": 299}),
        "quantum_time_efficient": (
            2, "7a2739a4a8e839a56668402b336b5ceaa99e6fc9d2d9e7a3e2457f002f75987c",
            {"or_query": 5, "charged_quantum": 257}, {"or_query": 299}),
    },
    ("clique", ("clique", (("n", 40), ("k", 2))), 62): {
        "classical_adaptive": (
            8, "bce82f7f0fc109421ab9bcb27474547d2c08a9b5672753e878c61d40fa8e1281",
            {"or_query": 13, "classical_bit_ops": 4}, {}),
        "quantum_ideal": (
            1, "ea3bfd0b926cbc1d66ced3800272422f4e64641a861993c7a6e238cc41247af4",
            {"or_query": 5, "charged_quantum": 1, "classical_bit_ops": 4}, {"or_query": 39}),
        "quantum_time_efficient": (
            1, "ea3bfd0b926cbc1d66ced3800272422f4e64641a861993c7a6e238cc41247af4",
            {"or_query": 5, "charged_quantum": 1, "classical_bit_ops": 4}, {"or_query": 39}),
    },
    ("clique", ("clique", (("n", 40), ("k", 5))), 65): {
        "classical_adaptive": (
            26, "2482b549e00948316ef0b84a4e1268e6feee46adb89cc67bd8abf54a38226f44",
            {"or_query": 35, "classical_bit_ops": 32}, {}),
        "quantum_ideal": (
            2, "63d86e43359b0a78c980efde382149f62029d49a04d6d6bb715138e700a04184",
            {"or_query": 10, "charged_quantum": 2, "classical_bit_ops": 32}, {"or_query": 39}),
        "quantum_time_efficient": (
            2, "63d86e43359b0a78c980efde382149f62029d49a04d6d6bb715138e700a04184",
            {"or_query": 10, "charged_quantum": 7, "classical_bit_ops": 32}, {"or_query": 39}),
    },
    ("clique", ("clique", (("n", 40), ("k", 12))), 72): {
        "classical_adaptive": (
            68, "3b08743f6b971532d449edd60edf6aec02c5efdbf449ffdfd6a3c28c4f500eca",
            {"or_query": 70, "classical_bit_ops": 96}, {}),
        "quantum_ideal": (
            2, "d0bb74830dbaf659c386b621684f22d04e39fd9ed8dac9b671226d6b0d628887",
            {"or_query": 3, "charged_quantum": 4, "classical_bit_ops": 96}, {"or_query": 39}),
        "quantum_time_efficient": (
            2, "d0bb74830dbaf659c386b621684f22d04e39fd9ed8dac9b671226d6b0d628887",
            {"or_query": 3, "charged_quantum": 23, "classical_bit_ops": 96}, {"or_query": 39}),
    },
}


@pytest.mark.parametrize(
    "backend", ["classical_adaptive", "quantum_ideal", "quantum_time_efficient"]
)
def test_or_learners_query_sequence_pinned(backend):
    # every OR query mask and block query, in call order, with the ledger it
    # leaves, as recorded from the set-based learners these mask paths replace
    for (learner, (kind, items), seed), expected in _QUERY_LOGS.items():
        point = dict(items)
        graph = generate(kind, point, np.random.default_rng(seed))
        oracle = _QueryLog(graph, np.random.default_rng(seed + 100))
        if learner == "graph":
            answer = learn_graph_or(oracle, m_hint=graph.m, backend=backend)
        elif learner == "star":
            answer = learn_star_or(oracle, backend=backend)
        else:
            answer = learn_clique_or(oracle, k=point["k"], backend=backend)
        assert answer == graph
        digest = hashlib.sha256(" ".join(oracle.log).encode()).hexdigest()
        ledger = oracle.ledger
        got = (
            len(oracle.log),
            digest,
            {kind: c for kind, c in ledger.counts.items() if c},
            {kind: c for kind, c in ledger.suppressed.items() if c},
        )
        assert got == expected[backend], (learner, kind, point)


# -- clique -------------------------------------------------------------------------

def test_learn_clique_exhaustive_k3_n8():
    for members in itertools.combinations(range(8), 3):
        g = Graph(8, all_pairs(members))
        assert learn_clique_or(fresh(g, sum(members)), k=3) == g


def test_learn_clique_k2_single_edge():
    for (u, v) in itertools.combinations(range(6), 2):
        g = Graph(6, [(u, v)])
        assert learn_clique_or(fresh(g, u * 7 + v), k=2) == g


def test_learn_clique_quantum_charge_formula():
    members = (1, 4, 5, 9, 13)
    g = Graph(16, all_pairs(members))
    oracle = fresh(g, 15)
    assert learn_clique_or(oracle, k=5, backend="quantum_ideal") == g
    assert oracle.ledger.counts["charged_quantum"] == math.ceil(math.sqrt(4))


def test_learn_clique_detects_broken_promise():
    g = Graph(3, [(0, 1), (1, 2)])  # path, not a triangle
    with pytest.raises(ViolationError):
        learn_clique_or(fresh(g, 16), k=3)


def test_learn_clique_argument_validation():
    g = Graph(4, [(0, 1)])
    with pytest.raises(ValueError):
        learn_clique_or(fresh(g, 17), k=1)


# -- star ---------------------------------------------------------------------------

def test_learn_star_sweep_centers_and_sizes():
    rng = np.random.default_rng(18)
    for center in range(10):
        for m in (2, 3, 5, 7):
            leaves = [int(v) for v in rng.choice([u for u in range(10) if u != center], size=m, replace=False)]
            g = Graph(10, [(center, v) for v in leaves])
            res = learn_star_or(fresh(g, center * 31 + m))
            assert isinstance(res, Graph)
            assert res == g


def test_learn_star_single_edge_flagged():
    # either endpoint may pass as the center; the answer is the edge itself
    g = Graph(8, [(2, 6)])
    for seed in range(19, 29):
        assert learn_star_or(fresh(g, seed)) == g


def test_learn_star_charges():
    center, leaves = 0, [1, 2, 3, 4]
    g = Graph(64, [(center, v) for v in leaves])
    oracle = fresh(g, 20)
    assert learn_star_or(oracle) == g
    # doubling search over 4 leaves bills 1 + 2 + 2 amplified rounds
    assert oracle.ledger.counts["charged_quantum"] == 5
    # four samples plus the one-query verification in the typical round
    assert oracle.ledger.counts["or_query"] == 5


def test_star_and_clique_group_test_through_the_module_global(monkeypatch):
    # the benchmark's tracer times group testing by patching this global
    calls = []
    real = or_learners.cgt_solve

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(or_learners, "cgt_solve", counting)
    star = Graph(10, [(3, v) for v in (1, 5, 7)])
    assert learn_star_or(fresh(star, 30)) == star
    assert calls == [0x3FF ^ 1 << 3]
    clique = Graph(10, all_pairs((2, 4, 8)))
    assert learn_clique_or(fresh(clique, 31), k=3) == clique
    assert len(calls) == 2


def test_learn_star_empty_graph_budget_error():
    g = Graph(6, [])
    with pytest.raises(RetryBudgetError, match="in 20 rounds"):
        learn_star_or(fresh(g, 21))


# -- backend names --------------------------------------------------------------------

@pytest.mark.parametrize(
    "learn",
    [
        lambda o, b: learn_star_or(o, backend=b),
        lambda o, b: learn_clique_or(o, k=2, backend=b),
        lambda o, b: learn_graph_or(o, backend=b),
        lambda o, b: learn_bipartite_edges(o, [0, 2], [1, 3], backend=b),
    ],
    ids=["star", "clique", "graph", "bipartite"],
)
def test_or_learners_reject_unknown_backend(learn):
    g = Graph(4, [(0, 1)])
    with pytest.raises(ValueError, match="grover"):
        learn(fresh(g, 22), "grover")
