"""Learners that only see the hidden graph through edge-existence queries.

The general learner peels the vertex set into independent parts, then merges
parts pairwise up a tree.  The edges found so far are kept as one row word
per vertex; cross edges between two merged blocks are learned class-pair by
class-pair after greedy-coloring each block's subgraph in those rows, which
is fully known and so keeps every queried side independent.  Specialists for
promised cliques and stars ride Fourier samples of the OR function to beat
the classical query counts.  Every learner here answers with the ``Graph``
it recovered.
"""

from __future__ import annotations

import math
from typing import Sequence

from gqlab import f2
from gqlab.cgt import cgt_solve
from gqlab.errors import RetryBudgetError, ViolationError
from gqlab.graphs import Graph
from gqlab.oracles import GraphOracle

__all__ = [
    "find_nonisolated",
    "learn_bipartite_edges",
    "greedy_coloring",
    "learn_cross_edges_colored",
    "learn_merge_tree",
    "peel_independent_sets",
    "learn_graph_or",
    "learn_clique_or",
    "learn_star_or",
]


def _search_with(
    oracle: GraphOracle,
    universe: Sequence[int],
    base: int,
    k: int | None = None,
    backend: str = "classical_adaptive",
) -> frozenset[int]:
    """Group-test ``universe`` with the OR query on subset | base.

    The classical backend searches with one query per test; quantum backends
    read every item's answer from one ``or_block_query``.
    """

    def test(subset):
        return oracle.or_query(subset | base) == 1

    def block(items):
        return oracle.or_block_query(base, items)

    return cgt_solve(
        universe, test, k=k, backend=backend, ledger=oracle.ledger, block=block
    )


def find_nonisolated(
    oracle: GraphOracle,
    side: Sequence[int],
    other: Sequence[int],
    backend: str = "classical_adaptive",
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
    found = _search_with(oracle, side, other_mask, backend=backend)
    if len(found) == len(side):
        if oracle.or_query(other_mask) or oracle.or_query(side):
            raise ViolationError("a queried side is not an independent set")
    return found


def learn_bipartite_edges(
    oracle: GraphOracle,
    a_side: Sequence[int],
    b_side: Sequence[int],
    backend: str = "classical_adaptive",
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
    actives = find_nonisolated(oracle, a_side, b_side, backend=backend)
    edges = []
    for a in sorted(actives):
        hits = _search_with(oracle, b_side, 1 << a, backend=backend)
        if not hits:
            raise ViolationError("active vertex lost its neighbors; sides not independent?")
        edges.extend((_norm(a, b)) for b in sorted(hits))
    return edges


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def greedy_coloring(vertices: Sequence[int], rows: Sequence[int]) -> list[list[int]]:
    """Proper coloring of the subgraph that the row words induce on
    ``vertices``, greedy in reverse degeneracy order; a graph with t edges
    never needs more than floor(sqrt(2t)) + 1 classes."""
    verts = list(vertices)
    block = sum(1 << v for v in verts)
    adj = {v: f2.support(rows[v] & block) for v in verts}
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
    rows: Sequence[int],
    backend: str = "classical_adaptive",
) -> list[tuple[int, int]]:
    """All edges between two blocks whose internal edges are already known.

    Each block is colored by its subgraph in ``rows``, one word per vertex,
    so every queried class is a genuine independent set.  Returns the cross
    edges; ``rows`` is left as it is.
    """
    if not x_side or not y_side:
        return []
    x_classes = greedy_coloring(x_side, rows)
    y_classes = greedy_coloring(y_side, rows)
    edges = []
    for xc in x_classes:
        for yc in y_classes:
            edges.extend(learn_bipartite_edges(oracle, xc, yc, backend=backend))
    return edges


def learn_merge_tree(
    oracle: GraphOracle,
    parts: Sequence[Sequence[int]],
    backend: str = "classical_adaptive",
) -> list[int]:
    """Merge independent parts pairwise until one block holds every edge.

    Returns one row word per vertex, into which each level's cross edges
    are set.  The invariant: a block's internal edges are fully known, so
    its coloring in the next round is proper.  Parts are padded with empty
    blocks to a power of two.
    """
    rows = [0] * oracle.n
    blocks = [list(p) for p in parts]
    while len(blocks) & (len(blocks) - 1):
        blocks.append([])
    while len(blocks) > 1:
        merged = []
        for xv, yv in zip(blocks[::2], blocks[1::2]):
            for u, v in learn_cross_edges_colored(oracle, xv, yv, rows, backend=backend):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            merged.append(xv + yv)
        blocks = merged
    return rows


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
    return Graph.from_rows(learn_merge_tree(oracle, parts, backend=backend))


# -- promised structure -----------------------------------------------------------


def learn_clique_or(
    oracle: GraphOracle,
    k: int,
    backend: str = "quantum_ideal",
) -> Graph:
    """Learn a hidden k-clique (k >= 2, no other edges).

    A Fourier sample of the edge-existence function restricted to a random
    1/k-density subset lands on genuine clique vertices whenever the subset
    caught at least two of them; one such anchor turns the rest of the
    search into group testing with a known count.
    """
    n = oracle.n
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    anchor = None
    for _ in range(200):
        picks = oracle.rng.random(n) < 1.0 / k
        subset = [v for v in range(n) if picks[v]]
        if not subset:
            continue
        outcome = oracle.fourier_sample_or(restrict=subset)
        if outcome:
            anchor = min(outcome)
            break
    if anchor is None:
        raise RetryBudgetError("no informative Fourier sample in 200 rounds")

    rest = [v for v in range(n) if v != anchor]
    others = _search_with(oracle, rest, 1 << anchor, k=k - 1, backend=backend)
    if len(others) != k - 1:
        raise ViolationError("clique promise broken: wrong member count")
    members = sorted(others)
    if len(members) >= 2 and oracle.or_query(members[:2]) != 1:
        raise ViolationError("clique promise broken: found members not adjacent")
    return Graph.clique(n, [anchor, *others])


def learn_star_or(
    oracle: GraphOracle,
    backend: str = "quantum_ideal",
    rounds_cap: int = 20,
) -> Graph:
    """Learn a hidden star (all edges share one endpoint, at least one edge).

    The center carries almost all Fourier mass of the edge-existence
    function, so four samples a round plus a one-query verification pin it;
    the leaves then come out by group testing against the center.  A single
    edge has no determined center: either endpoint may pass the
    verification, and the answer is that edge whichever one does.
    """
    n = oracle.n
    for _ in range(rounds_cap):
        tallies: dict[int, int] = {}
        for _ in range(4):
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

    leaves = _search_with(oracle, others, 1 << candidate, backend=backend)
    if not leaves:
        raise ViolationError("verified center has no leaves; not a star?")
    return Graph.star(n, candidate, leaves)
