"""Family generators checked structurally and against degree-profile references."""

from __future__ import annotations

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqlab import f2
from gqlab.graphs import (
    Graph,
    _triu_pairs,
    adversary_instance,
    enumerate_all_graphs,
    generate,
)

rng = np.random.default_rng(2024)


def degree_profile(g: Graph) -> list[int]:
    return sorted(g.degree(v) for v in range(g.n))


class TestGraphBasics:
    def test_adjacency_matches_edges(self):
        g = Graph(5, [(0, 3), (1, 2), (2, 3)])
        for u in range(5):
            for v in range(5):
                assert (g.adj_bits[u] >> v) & 1 == int(g.has_edge(u, v) if u != v else 0)
            assert g.neighbors(u) == [v for v in range(5) if u != v and g.has_edge(u, v)]

    def test_duplicate_and_reversed_edges_collapse(self):
        g = Graph(4, [(2, 1), (1, 2)])
        assert g.edges == frozenset({(1, 2)})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_edge_list_and_rows_build_equal_graphs(self):
        pairs = list(itertools.combinations(range(5), 2))
        for g in enumerate_all_graphs(5):
            edges = sorted(g.edges)
            rows = [0] * 5
            for u, v in edges:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            h = Graph.from_rows(rows)
            assert h == g == Graph(5, [(v, u) for u, v in reversed(edges)])
            assert hash(h) == hash(g)
            assert h.m == g.m == len(edges)
            assert h.edges == g.edges
            assert [h.has_edge(u, v) for u, v in pairs] == [e in g.edges for e in pairs]
        g = Graph(3, [(0, 2)])
        assert not g.has_edge(0, 3) and not g.has_edge(-1, 2)
        with pytest.raises(ValueError):
            g.has_edge(1, 1)
        for bad in ([(0, 3)], [(-1, 2)], [(3, 0)]):
            with pytest.raises(ValueError):
                Graph(3, bad)
        with pytest.raises(ValueError):
            Graph(-1, [])

    def test_from_rows_rejects_malformed_rows(self):
        assert Graph.from_rows([]) == Graph(0, [])
        assert Graph.from_rows([0b110, 0b001, 0b001]) == Graph(3, [(0, 1), (0, 2)])
        for bad in (
            [0b001, 0, 0],  # diagonal
            [0b010, 0, 0],  # (0, 1) not mirrored in row 1
            [0, 0b001, 0],  # (1, 0) not mirrored in row 0
            [0b010, 0, 0b001],  # (0, 1) answered by (2, 0) instead
            [0b1010, 0b0001, 0],  # bit 3 past n = 3
            [-1, 0, 0],
        ):
            with pytest.raises(ValueError):
                Graph.from_rows(bad)

    def test_star_and_clique_constructors(self):
        assert Graph.star(6, 2, [0, 5, 3]) == Graph(6, [(2, 0), (2, 5), (2, 3)])
        assert Graph.star(4, 1, []) == Graph(4, [])
        assert Graph.clique(6, [4, 0, 2]) == Graph(6, [(0, 2), (0, 4), (2, 4)])
        assert Graph.clique(6, [3]) == Graph(6, [])
        assert Graph.clique(6, [1, 4]).m == 1
        for bad in ([1, 6], [7, 8], [-1, 2]):
            with pytest.raises(ValueError):
                Graph.clique(6, bad)
        for bad in ([2], [6], [-1]):
            with pytest.raises(ValueError):
                Graph.star(6, 2, bad)

    def test_is_star(self):
        assert Graph(5, [(0, 2), (2, 4), (2, 3)]).is_star() == 2
        assert Graph(5, [(0, 1)]).is_star() == 0
        assert Graph(5, [(0, 1), (2, 3)]).is_star() is None

    def test_is_star_matches_edge_intersection(self):
        def reference(g):
            # the common vertex of all edges, the smaller one for one edge
            common = None
            for u, v in sorted(g.edges):
                common = {u, v} if common is None else common & {u, v}
                if not common:
                    return None
            return min(common) if common else None

        for g in enumerate_all_graphs(5):
            assert g.is_star() == reference(g)
        star_rng = np.random.default_rng(31)
        for leaves in (1, 2, 3, 17, 128, 255, 298, 299):
            order = [int(v) for v in star_rng.permutation(300)]
            center, rest = order[0], order[1 : leaves + 1]
            star = [(center, v) for v in rest]
            graphs = [Graph(300, star)]
            if leaves >= 2:
                # a chord between two leaves leaves no common vertex
                graphs.append(Graph(300, star + [(rest[0], rest[1])]))
            if leaves < 299:
                # a leaf's edge to an outside vertex: a path for one leaf
                graphs.append(Graph(300, star + [(rest[0], order[-1])]))
            for g in graphs:
                assert g.is_star() == reference(g)
            assert graphs[0].is_star() == (center if leaves > 1 else min(center, rest[0]))

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=50, deadline=None)
    def test_adjacency_symmetric_zero_diagonal(self, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = data.draw(st.integers(0, 2 ** len(pairs) - 1))
        g = Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
        for u in range(n):
            assert not (g.adj_bits[u] >> u) & 1
            for v in range(n):
                assert (g.adj_bits[u] >> v) & 1 == (g.adj_bits[v] >> u) & 1


class TestFamilies:
    def test_matching_profile(self):
        for _ in range(50):
            g = generate("matching", {"n": 12, "m": 4}, rng)
            assert g.m == 4
            assert degree_profile(g) == [0] * 4 + [1] * 8

    def test_hamiltonian_cycle_is_single_cycle(self):
        for _ in range(50):
            g = generate("hamiltonian_cycle", {"n": 10, "k": 6}, rng)
            sup = g.non_isolated()
            assert len(sup) == 6 and g.m == 6
            assert all(g.degree(v) == 2 for v in sup)
            # traverse: one cycle covering the whole support
            start = prev = sup[0]
            cur = g.neighbors(start)[0]
            seen = {start}
            while cur != start:
                seen.add(cur)
                nxt = [w for w in g.neighbors(cur) if w != prev][0]
                prev, cur = cur, nxt
            assert seen == set(sup)

    def test_star_profile(self):
        for _ in range(50):
            g = generate("star", {"n": 9, "m": 5}, rng)
            assert degree_profile(g) == [0] * 3 + [1] * 5 + [5]
            assert g.is_star() is not None

    def test_clique_profile(self):
        g = generate("clique", {"n": 11, "k": 5}, rng)
        assert g.m == 10
        assert degree_profile(g) == [0] * 6 + [4] * 5

    def test_bounded_degree_respects_cap_and_m(self):
        for _ in range(30):
            g = generate("bounded_degree", {"n": 20, "d": 3, "m": 25}, rng)
            assert g.m == 25
            assert max(g.degree(v) for v in range(20)) <= 3

    def test_bounded_degree_with_no_edges(self):
        g = generate("bounded_degree", {"n": 8, "d": 2, "m": 0}, np.random.default_rng(0))
        assert g == Graph(8, [])

    def test_bounded_degree_law_matches_greedy_pass(self):
        # The law of both samplers, enumerated exactly: each edge uniform among
        # the eligible pairs, conditioned on reaching m.  Both are invariant
        # under relabelling, so the law is uniform inside each of its five
        # isomorphism classes.  With 20000 draws the class-level TV from
        # sampling noise is about 0.005 and each pair's inclusion rate m / 15
        # has a standard deviation of 0.003; both are bounded by 0.02.  A
        # sampler uniform over the same 735 graphs sits at TV 0.062.
        n, d, m, draws = 6, 2, 4, 20000
        law = bounded_degree_law(n, d, m)
        assert len(law) == 735
        exact: dict = {}
        for edges, p in law.items():
            exact[shape(edges)] = exact.get(shape(edges), 0) + float(p)
        assert len(exact) == 5
        pair_rng = np.random.default_rng(41)
        samplers = {
            "rejection": lambda: generate(
                "bounded_degree", {"n": n, "d": d, "m": m}, pair_rng
            ).edges,
            "permutation": lambda: permutation_bounded_degree(n, d, m, pair_rng),
        }
        for name, draw in samplers.items():
            seen: dict = {}
            pairs: dict = {}
            for _ in range(draws):
                edges = draw()
                assert edges in law
                seen[shape(edges)] = seen.get(shape(edges), 0) + 1
                for e in edges:
                    pairs[e] = pairs.get(e, 0) + 1
            tv = sum(abs(seen.get(c, 0) / draws - p) for c, p in exact.items()) / 2
            assert tv < 0.02, (name, tv)
            assert len(pairs) == 15
            assert all(abs(c / draws - m / 15) < 0.02 for c in pairs.values()), name

    def test_fixed_edge_count_exact(self):
        for m in [0, 1, 7, 15]:
            g = generate("fixed_edge_count", {"n": 10, "m": m}, rng)
            assert g.m == m

    def test_support_is_uniform(self):
        # every vertex should appear in the clique support about k/n of the time
        counts = np.zeros(10)
        trials = 4000
        for _ in range(trials):
            g = generate("clique", {"n": 10, "k": 3}, rng)
            for v in g.non_isolated():
                counts[v] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.3) < 0.04)

    def test_infeasible_parameters_raise(self):
        with pytest.raises(ValueError):
            generate("matching", {"n": 5, "m": 3}, rng)
        with pytest.raises(ValueError):
            generate("bounded_degree", {"n": 4, "d": 1, "m": 3}, rng)
        with pytest.raises(ValueError):
            generate("no_such_kind", {"n": 4}, rng)


def bounded_degree_law(n: int, d: int, m: int) -> dict[frozenset, Fraction]:
    """Exact law of m successive picks, each uniform among the eligible pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    level = {frozenset(): Fraction(1)}
    for _ in range(m):
        nxt: dict = {}
        for chosen, p in level.items():
            deg = [0] * n
            for u, v in chosen:
                deg[u] += 1
                deg[v] += 1
            eligible = [
                e for e in pairs if e not in chosen and deg[e[0]] < d and deg[e[1]] < d
            ]
            for e in eligible:
                nxt[chosen | {e}] = nxt.get(chosen | {e}, 0) + p / len(eligible)
        level = nxt
    total = sum(level.values())
    return {edges: p / total for edges, p in level.items()}


def permutation_bounded_degree(n: int, d: int, m: int, rng) -> frozenset:
    """The greedy pass over a shuffled list of every pair, the sampler's reference."""
    us, vs = np.triu_indices(n, 1)
    while True:
        deg = [0] * n
        chosen = []
        order = rng.permutation(len(us))
        for u, v in zip(us[order].tolist(), vs[order].tolist()):
            if deg[u] < d and deg[v] < d:
                chosen.append((u, v))
                deg[u] += 1
                deg[v] += 1
                if len(chosen) == m:
                    return frozenset(chosen)


def shape(edges) -> tuple:
    """Sorted (vertices, edges) per component on 0..5: an isomorphism invariant."""
    g = Graph(6, edges)
    seen, out = 0, []
    for v in g.non_isolated():
        if seen >> v & 1:
            continue
        comp, frontier = 1 << v, 1 << v
        while frontier:
            reach = 0
            for u in f2.support(frontier):
                reach |= g.adj_bits[u]
            frontier = reach & ~comp
            comp |= reach
        seen |= comp
        verts = f2.support(comp)
        out.append((len(verts), sum(g.degree(u) for u in verts) // 2))
    return tuple(sorted(out))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 127, 128, 129, 3000])
def test_triu_pairs_match_numpy(n):
    us, vs = np.triu_indices(n, 1)
    for start in range(0, len(us), 1 << 20):
        u, v = _triu_pairs(np.arange(start, min(len(us), start + (1 << 20))), n)
        assert np.array_equal(u, us[start:start + (1 << 20)])
        assert np.array_equal(v, vs[start:start + (1 << 20)])


def test_triu_pairs_correct_a_rounded_row_guess():
    # at n = 10^9 the floating-point root lands a row off for about a
    # quarter of the positions next to a row start; the exact step puts
    # each one back in its row
    n = 10**9
    b = 2 * n - 1
    rows = np.random.default_rng(5).integers(1, n - 2, size=3000, dtype=np.int64)
    start = rows * (b - rows) // 2
    index = np.concatenate([start - 1, start, start + 1])
    u, v = _triu_pairs(index, n)
    begin = u * (b - u) // 2
    assert np.all((begin <= index) & (index < begin + n - 1 - u))
    assert np.array_equal(v, index - begin + u + 1)
    assert np.array_equal(u, np.concatenate([rows - 1, rows, rows]))


def test_fixed_edge_count_draws_in_o_m_memory():
    # the pair positions are drawn without the n(n-1)/2 population, and the
    # graph is its 4096 row words; a first draw at n = 8 keeps one-off lazy
    # set-up out of the traced peak
    generate("fixed_edge_count", {"n": 8, "m": 3}, np.random.default_rng(3))
    tracemalloc.start()
    try:
        g = generate("fixed_edge_count", {"n": 4096, "m": 32}, np.random.default_rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == 32
    assert peak < 1 << 20


class TestAdversaryInstance:
    def test_structure_matches_cross_matrix(self):
        half = 3
        cross = [0b001, 0b010, 0b100]  # identity
        g = adversary_instance(half, cross)
        for i in range(half):
            for j in range(half):
                assert g.has_edge(i, half + j) == (i == j)
        for side in (range(0, half), range(half, 2 * half)):
            vs = list(side)
            for a in vs:
                for b in vs:
                    if a != b:
                        assert g.has_edge(a, b)
        assert g.m == 2 * 3 + 3
        for bad in ([0b001, 0b010], [0b001, 0b010, 0b1000], [0b001, -1, 0b100]):
            with pytest.raises(ValueError):
                adversary_instance(half, bad)

    def test_family_kind_draws_random_cross(self):
        g = generate("two_clique_adversary", {"n": 8, "k": 4}, rng)
        assert g.n == 8
        # both cliques complete
        assert all(g.has_edge(a, b) for a in range(4) for b in range(a + 1, 4))


def test_enumerate_all_graphs_count():
    graphs = enumerate_all_graphs(3)
    assert len(graphs) == 8
    assert len({g.edges for g in graphs}) == 8
    assert len(enumerate_all_graphs(4)) == 64
