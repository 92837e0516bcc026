"""Family generators checked structurally and against degree-profile references."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqlab.graphs import (
    FamilySpec,
    Graph,
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

    def test_is_star(self):
        assert Graph(5, [(0, 2), (2, 4), (2, 3)]).is_star() == 2
        assert Graph(5, [(0, 1)]).is_star() == 0
        assert Graph(5, [(0, 1), (2, 3)]).is_star() is None

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
            g = generate(FamilySpec("matching", n=12, m=4), rng)
            assert g.m == 4
            assert degree_profile(g) == [0] * 4 + [1] * 8

    def test_hamiltonian_cycle_is_single_cycle(self):
        for _ in range(50):
            g = generate(FamilySpec("hamiltonian_cycle", n=10, k=6), rng)
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
            g = generate(FamilySpec("star", n=9, m=5), rng)
            assert degree_profile(g) == [0] * 3 + [1] * 5 + [5]
            assert g.is_star() is not None

    def test_clique_profile(self):
        g = generate(FamilySpec("clique", n=11, k=5), rng)
        assert g.m == 10
        assert degree_profile(g) == [0] * 6 + [4] * 5

    def test_bounded_degree_respects_cap_and_m(self):
        for _ in range(30):
            g = generate(FamilySpec("bounded_degree", n=20, d=3, m=25), rng)
            assert g.m == 25
            assert max(g.degree(v) for v in range(20)) <= 3

    def test_bounded_degree_with_no_edges(self):
        g = generate(FamilySpec("bounded_degree", 8, d=2, m=0), np.random.default_rng(0))
        assert g == Graph(8, [])

    def test_fixed_edge_count_exact(self):
        for m in [0, 1, 7, 15]:
            g = generate(FamilySpec("fixed_edge_count", n=10, m=m), rng)
            assert g.m == m

    def test_support_is_uniform(self):
        # every vertex should appear in the clique support about k/n of the time
        counts = np.zeros(10)
        trials = 4000
        for _ in range(trials):
            g = generate(FamilySpec("clique", n=10, k=3), rng)
            for v in g.non_isolated():
                counts[v] += 1
        freq = counts / trials
        assert np.all(np.abs(freq - 0.3) < 0.04)

    def test_infeasible_parameters_raise(self):
        with pytest.raises(ValueError):
            generate(FamilySpec("matching", n=5, m=3), rng)
        with pytest.raises(ValueError):
            generate(FamilySpec("bounded_degree", n=4, d=1, m=3), rng)
        with pytest.raises(ValueError):
            FamilySpec("no_such_kind", n=4)


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
        g = generate(FamilySpec("two_clique_adversary", n=8, k=4), rng)
        assert g.n == 8
        # both cliques complete
        assert all(g.has_edge(a, b) for a in range(4) for b in range(a + 1, 4))


def test_enumerate_all_graphs_count():
    graphs = enumerate_all_graphs(3)
    assert len(graphs) == 8
    assert len({g.edges for g in graphs}) == 8
    assert len(enumerate_all_graphs(4)) == 64
