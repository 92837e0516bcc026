"""Learners that only see the hidden graph through edge-existence queries.

The general learner peels the vertex set into independent parts, then merges
parts pairwise up a tree; cross edges between two merged blocks are learned
class-pair by class-pair after greedy-coloring each block's already-known
subgraph, which keeps every queried side independent.  Specialists for
promised cliques and stars ride Fourier samples of the OR function to beat
the classical query counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from gqlab import f2
from gqlab.cgt import binary_indexing_design, build_nonadaptive_design, cgt_solve, decode
from gqlab.errors import DecodeError, RetryBudgetError, ViolationError
from gqlab.graphs import Graph
from gqlab.oracles import GraphOracle

__all__ = [
    "StarResult",
    "find_nonisolated",
    "learn_bipartite_edges",
    "learn_bipartite_bounded_degree",
    "greedy_coloring",
    "learn_cross_edges_colored",
    "learn_merge_tree",
    "peel_independent_sets",
    "learn_graph_or",
    "learn_clique_or",
    "learn_star_or",
]


def find_nonisolated(
    oracle: GraphOracle,
    side: Sequence[int],
    other: Sequence[int],
    backend: str = "classical_adaptive",
    c: float = 1.0,
) -> frozenset[int]:
    """All vertices of ``side`` with a neighbor in ``other``.

    Both sides must be independent sets; each membership test is a single
    edge-existence query on a subset of ``side`` joined with all of
    ``other``.  A result claiming the entire side triggers a two-query
    independence recheck, the cheap place to catch a broken contract.
    """
    side = list(side)
    other_mask = f2.from_support(other, oracle.n)
    if not side or not other_mask:
        return frozenset()

    def test(subset):
        return oracle.or_query(subset | other_mask) == 1

    found = cgt_solve(side, test, backend=backend, c=c, ledger=oracle.ledger)
    if len(found) == len(side):
        if oracle.or_query(other_mask) or oracle.or_query(side):
            raise ViolationError("a queried side is not an independent set")
    return found


def learn_bipartite_edges(
    oracle: GraphOracle,
    a_side: Sequence[int],
    b_side: Sequence[int],
    backend: str = "classical_adaptive",
    c: float = 1.0,
) -> list[tuple[int, int]]:
    """All edges between two independent sets.

    One query settles the empty case; otherwise the active vertices of one
    side are found first and each active neighborhood is searched on the
    other side.
    """
    a_side = list(a_side)
    b_side = list(b_side)
    if not a_side or not b_side:
        return []
    if oracle.or_query(a_side + b_side) == 0:
        return []
    actives = find_nonisolated(oracle, a_side, b_side, backend=backend, c=c)
    edges = []
    for a in sorted(actives):
        def test(subset, _bit=1 << a):
            return oracle.or_query(subset | _bit) == 1

        hits = cgt_solve(b_side, test, backend=backend, c=c, ledger=oracle.ledger)
        if not hits:
            raise ViolationError("active vertex lost its neighbors; sides not independent?")
        edges.extend((_norm(a, b)) for b in sorted(hits))
    return edges


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def learn_bipartite_bounded_degree(
    oracle: GraphOracle,
    a_side: Sequence[int],
    b_side: Sequence[int],
    d: int,
    design=None,
) -> list[tuple[int, int]]:
    """Nonadaptive variant when every ``a_side`` vertex has at most d
    neighbors across; one fixed test pool serves the whole side."""
    a_side = list(a_side)
    b_side = list(b_side)
    if not a_side or not b_side:
        return []
    if d < 1:
        raise ValueError("degree bound must be positive")
    if d >= len(b_side):
        # no compression available; query pairs directly
        return [
            _norm(a, b)
            for a in a_side
            for b in b_side
            if oracle.or_query(1 << a | 1 << b) == 1
        ]
    if design is None:
        if d == 1:
            design = binary_indexing_design(len(b_side))
        else:
            design = build_nonadaptive_design(len(b_side), d, oracle.rng)
    test_masks = [f2.from_support([b_side[i] for i in t], oracle.n) for t in design.tests]
    edges = []
    for a in a_side:
        bit = 1 << a
        outcomes = [oracle.or_query(bit | t) for t in test_masks]
        try:
            hits = decode(design, outcomes)
        except DecodeError as exc:
            raise ViolationError(f"degree bound {d} broken at vertex {a}") from exc
        edges.extend(_norm(a, b_side[i]) for i in sorted(hits))
    return edges


def greedy_coloring(vertices: Sequence[int], edges) -> list[list[int]]:
    """Proper coloring of a known subgraph, greedy in reverse degeneracy
    order; a graph with t edges never needs more than floor(sqrt(2t)) + 1
    classes."""
    verts = list(vertices)
    vset = set(verts)
    adj = {v: set() for v in verts}
    for (u, v) in edges:
        if u in vset and v in vset:
            adj[u].add(v)
            adj[v].add(u)
    # peel minimum-degree vertices to get a degeneracy order
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
    color: dict[int, int] = {}
    for v in reversed(order):
        used = {color[u] for u in adj[v] if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    classes: list[list[int]] = [[] for _ in range(max(color.values(), default=-1) + 1)]
    for v in verts:
        classes[color[v]].append(v)
    return classes


def learn_cross_edges_colored(
    oracle: GraphOracle,
    x_side: Sequence[int],
    y_side: Sequence[int],
    known_edges,
    backend: str = "classical_adaptive",
    c: float = 1.0,
    d: int | None = None,
) -> list[tuple[int, int]]:
    """All edges between two blocks whose internal edges are already known.

    Each block is colored by its known subgraph, so every queried class is a
    genuine independent set.
    """
    if not x_side or not y_side:
        return []
    x_classes = greedy_coloring(x_side, known_edges)
    y_classes = greedy_coloring(y_side, known_edges)
    edges = []
    for xc in x_classes:
        for yc in y_classes:
            if d is not None:
                edges.extend(learn_bipartite_bounded_degree(oracle, xc, yc, d))
            else:
                edges.extend(learn_bipartite_edges(oracle, xc, yc, backend=backend, c=c))
    return edges


def learn_merge_tree(
    oracle: GraphOracle,
    parts: Sequence[Sequence[int]],
    backend: str = "classical_adaptive",
    c: float = 1.0,
    d: int | None = None,
) -> list[tuple[int, int]]:
    """Merge independent parts pairwise until one block holds every edge.

    The invariant: a block's internal edges are fully known, so its coloring
    in the next round is proper.  Parts are padded with empty blocks to a
    power of two.
    """
    blocks = [(list(p), []) for p in parts]
    while len(blocks) & (len(blocks) - 1):
        blocks.append(([], []))
    while len(blocks) > 1:
        merged = []
        for i in range(0, len(blocks), 2):
            (xv, xe), (yv, ye) = blocks[i], blocks[i + 1]
            known = xe + ye
            cross = learn_cross_edges_colored(
                oracle, xv, yv, known, backend=backend, c=c, d=d
            )
            merged.append((xv + yv, known + cross))
        blocks = merged
    return blocks[0][1] if blocks else []


def peel_independent_sets(
    oracle: GraphOracle,
    vertices: Sequence[int],
    p: float,
    fail_budget: int,
) -> list[list[int]]:
    """Partition vertices into independent parts by rejection sampling.

    Each round draws a p-random subset of the unassigned vertices; an
    edge-free draw becomes a part.  Empty and singleton draws are resolved
    without spending a query.  Too many consecutive edgy draws means p is
    too aggressive for the actual edge density; the caller reacts by
    doubling its edge-count guess.
    """
    remaining = list(vertices)
    parts: list[list[int]] = []
    consecutive = 0
    while remaining:
        picks = oracle.rng.random(len(remaining)) < p
        subset = [v for v, hit in zip(remaining, picks) if hit]
        if not subset:
            continue
        if len(subset) == 1 or oracle.or_query(subset) == 0:
            parts.append(subset)
            chosen = set(subset)
            remaining = [v for v in remaining if v not in chosen]
            consecutive = 0
        else:
            consecutive += 1
            if consecutive > fail_budget:
                raise RetryBudgetError(
                    f"{consecutive} consecutive dependent draws at p={p:.4f}"
                )
    return parts


def learn_graph_or(
    oracle: GraphOracle,
    m_hint: int | None = None,
    backend: str = "classical_adaptive",
    c: float = 1.0,
    d: int | None = None,
) -> Graph:
    """Learn an arbitrary hidden graph from edge-existence queries alone.

    Output is exact whatever the random choices; randomness only moves the
    query count.  The edge-count guess starts at the hint (or 1) and doubles
    whenever peeling finds the guess too small.
    """
    n = oracle.n
    vertices = list(range(n))
    m_guess = max(1, m_hint) if m_hint is not None else 1
    fail_budget = 100 * max(1, math.ceil(math.log2(n + 2)))
    while True:
        p = 1.0 / (2.0 * math.sqrt(m_guess))
        try:
            parts = peel_independent_sets(oracle, vertices, p, fail_budget)
            break
        except RetryBudgetError:
            m_guess *= 2
            if m_guess > n * n:
                raise
    edges = learn_merge_tree(oracle, parts, backend=backend, c=c, d=d)
    return Graph(n, edges)


# -- promised structure -----------------------------------------------------------


def learn_clique_or(
    oracle: GraphOracle,
    k: int,
    backend: str = "quantum_ideal",
    c: float = 1.0,
    rounds_cap: int = 200,
) -> frozenset[int]:
    """Identify the members of a hidden k-clique (k >= 2, no other edges).

    A Fourier sample of the edge-existence function restricted to a random
    1/k-density subset lands on genuine clique vertices whenever the subset
    caught at least two of them; one such anchor turns the rest of the
    search into group testing with a known count.
    """
    n = oracle.n
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    anchor = None
    for _ in range(rounds_cap):
        picks = oracle.rng.random(n) < 1.0 / k
        subset = [v for v in range(n) if picks[v]]
        if not subset:
            continue
        outcome = oracle.fourier_sample_or(restrict=subset)
        if outcome:
            anchor = min(outcome)
            break
    if anchor is None:
        raise RetryBudgetError(f"no informative Fourier sample in {rounds_cap} rounds")

    rest = [v for v in range(n) if v != anchor]

    def test(subset, _bit=1 << anchor):
        return oracle.or_query(subset | _bit) == 1

    others = cgt_solve(rest, test, k=k - 1, backend=backend, c=c, ledger=oracle.ledger)
    if len(others) != k - 1:
        raise ViolationError("clique promise broken: wrong member count")
    members = sorted(others)
    if len(members) >= 2 and oracle.or_query(members[:2]) != 1:
        raise ViolationError("clique promise broken: found members not adjacent")
    return frozenset({anchor, *others})


@dataclass(frozen=True)
class StarResult:
    """A learned star.  With a single edge the two endpoints are
    interchangeable, which ``center_determined`` records."""

    center: int
    leaves: frozenset[int]
    center_determined: bool

    def edges(self) -> list[tuple[int, int]]:
        return [_norm(self.center, leaf) for leaf in sorted(self.leaves)]


def learn_star_or(
    oracle: GraphOracle,
    backend: str = "quantum_ideal",
    c: float = 1.0,
    samples_per_round: int = 4,
    rounds_cap: int = 20,
) -> StarResult:
    """Learn a hidden star (all edges share one endpoint, at least one edge).

    The center carries almost all Fourier mass of the edge-existence
    function, so a handful of samples plus a one-query verification pins it;
    the leaves then come out by group testing against the center.
    """
    n = oracle.n
    for _ in range(rounds_cap):
        tallies: dict[int, int] = {}
        for _ in range(samples_per_round):
            outcome = oracle.fourier_sample_or()
            if len(outcome) == 1:
                (v,) = outcome
                tallies[v] = tallies.get(v, 0) + 1
        if not tallies:
            continue
        candidate = max(sorted(tallies), key=lambda v: tallies[v])
        others = [v for v in range(n) if v != candidate]
        if oracle.or_query(others) == 0:
            break
    else:
        raise RetryBudgetError(f"no verified center in {rounds_cap} rounds")

    def test(subset, _bit=1 << candidate):
        return oracle.or_query(subset | _bit) == 1

    leaves = cgt_solve(others, test, backend=backend, c=c, ledger=oracle.ledger)
    if not leaves:
        raise ViolationError("verified center has no leaves; not a star?")
    return StarResult(candidate, frozenset(leaves), center_determined=len(leaves) >= 2)
