"""Learners that only see the hidden graph through edge-existence queries.

The general learner peels the vertex set into independent parts, then merges
parts pairwise up a tree.  The edges found so far are kept as one row word
per vertex.  Cross edges between two merged blocks are learned class-pair by
class-pair after greedy-coloring each block's subgraph in those rows, which
is fully known and so keeps every queried side independent.  Each color
class is prepared for group testing once (the prefix ORs of its vertices in
class order), and every class pair runs through one core: one query on the
pair's union, the active vertices of one class searched with the other
class as the base, then each active vertex's neighbors searched in the
other class; the merge tree sets each active vertex's neighbor mask
straight into the rows.  Classical searches test with
``GraphOracle.or_query`` itself; quantum backends answer through
``cgt.quantum_search`` on the side's mask.  ``learn_bipartite_edges``
prepares its sides and runs the same core.
Specialists for promised cliques and stars ride Fourier samples of the OR
function to beat the classical query counts; they keep their vertex sets
as masks from the verification query to the answer, and group-test the
other vertices with ``cgt.cgt_solve`` against the center's or anchor's bit.
Every learner here answers with the ``Graph`` it recovered.
"""

from __future__ import annotations

import math
from typing import Sequence

from gqlab import f2
from gqlab.cgt import cgt_solve, prepare, quantum_search, search
from gqlab.errors import RetryBudgetError, ViolationError
from gqlab.graphs import Graph
from gqlab.oracles import GraphOracle

__all__ = [
    "learn_bipartite_edges",
    "greedy_coloring",
    "learn_merge_tree",
    "peel_independent_sets",
    "learn_graph_or",
    "learn_clique_or",
    "learn_star_or",
]


def _find(oracle: GraphOracle, side: list[int], base: int, backend: str) -> int:
    """The mask of the vertices x of a prepared side, given by its prefix
    ORs, for which base | 1 << x induces an edge."""
    if backend == "classical_adaptive":
        return search(side, oracle.or_query, base=base)
    return quantum_search(
        side[-1], lambda items: oracle.or_block_query(base, items), oracle.ledger, None, backend
    )


def _cross_pair(
    oracle: GraphOracle, a_side: list[int], b_side: list[int], backend: str
) -> list[tuple[int, int]]:
    """(a, mask of a's neighbors in b_side) for every active a of a_side, in
    increasing order, between two prepared independent sides; a whole side
    coming back active is rechecked."""
    a_mask, b_mask = a_side[-1], b_side[-1]
    if not oracle.or_query(a_mask | b_mask):
        return []
    actives = _find(oracle, a_side, b_mask, backend)
    if actives == a_mask and (oracle.or_query(b_mask) or oracle.or_query(a_mask)):
        raise ViolationError("a queried side is not an independent set")
    out = []
    while actives:
        low = actives & -actives
        hits = _find(oracle, b_side, low, backend)
        if not hits:
            raise ViolationError("active vertex lost its neighbors; sides not independent?")
        out.append((low.bit_length() - 1, hits))
        actives ^= low
    return out


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
    pairs = _cross_pair(oracle, prepare(a_side), prepare(b_side), backend)
    return [(a, b) if a < b else (b, a) for a, hits in pairs for b in f2.support(hits)]


def greedy_coloring(vertices: Sequence[int], rows: Sequence[int]) -> list[list[int]]:
    """Proper coloring of the subgraph that the row words induce on
    ``vertices``, greedy in reverse degeneracy order; a graph with t edges
    never needs more than floor(sqrt(2t)) + 1 classes.

    The degeneracy order peels the minimum (degree, id) vertex each step;
    each vertex then takes the lowest color no neighbor holds yet.  Classes
    list their vertices in ``vertices`` order.
    """
    verts = list(vertices)
    block = 0
    for v in verts:
        block |= 1 << v
    # bucket d masks the unpeeled vertices with d unpeeled neighbors, so the
    # next to peel is the lowest bit of the lowest nonempty bucket
    buckets = [0] * len(verts)
    for v in verts:
        buckets[(rows[v] & block).bit_count()] |= 1 << v
    order = []
    live = block
    d = 0
    while live:
        while not buckets[d]:
            d += 1
        low = buckets[d] & -buckets[d]
        buckets[d] ^= low
        live ^= low
        v = low.bit_length() - 1
        order.append(v)
        # every unpeeled neighbor drops one bucket; going up, none drops twice
        nb = rows[v] & live
        e = d
        while nb:
            moved = buckets[e] & nb
            if moved:
                buckets[e] ^= moved
                buckets[e - 1] |= moved
                nb ^= moved
            e += 1
        if d:
            d -= 1
    # class_masks[c] masks the vertices colored c so far
    color: dict[int, int] = {}
    class_masks: list[int] = []
    for v in reversed(order):
        nb = rows[v]
        c = 0
        for members in class_masks:
            if not members & nb:
                break
            c += 1
        else:
            class_masks.append(0)
        class_masks[c] |= 1 << v
        color[v] = c
    classes: list[list[int]] = [[] for _ in class_masks]
    for v in verts:
        classes[color[v]].append(v)
    return classes


def learn_merge_tree(
    oracle: GraphOracle,
    parts: Sequence[Sequence[int]],
    backend: str = "classical_adaptive",
) -> list[int]:
    """Merge independent parts pairwise until one block holds every edge.

    Returns one row word per vertex.  Each merge colors both blocks by
    their subgraphs in the rows, so every queried class is a genuine
    independent set, prepares each class once, runs every class pair
    through ``_cross_pair`` and sets the pairs it finds into the rows.  The
    invariant: a block's internal edges are fully known, so its coloring in
    the next round is proper.  Parts are padded with empty blocks to a
    power of two.
    """
    rows = [0] * oracle.n
    blocks = [list(p) for p in parts]
    while len(blocks) & (len(blocks) - 1):
        blocks.append([])
    while len(blocks) > 1:
        merged = []
        for xv, yv in zip(blocks[::2], blocks[1::2]):
            # an empty block has no classes, so its merge asks nothing
            x_classes = [prepare(c) for c in greedy_coloring(xv, rows)]
            y_classes = [prepare(c) for c in greedy_coloring(yv, rows)]
            for xc in x_classes:
                for yc in y_classes:
                    for a, hits in _cross_pair(oracle, xc, yc, backend):
                        rows[a] |= hits
                        for b in f2.support(hits):
                            rows[b] |= 1 << a
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
        picks = (oracle.rng.random(len(remaining)) < p).nonzero()[0]
        subset = [remaining[i] for i in picks.tolist()]
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

    bit = 1 << anchor
    members = f2.support(cgt_solve(
        ((1 << n) - 1) ^ bit,
        lambda s: oracle.or_query(bit | s),
        k=k - 1,
        backend=backend,
        ledger=oracle.ledger,
        block=lambda items: oracle.or_block_query(bit, items),
    ))
    if len(members) >= 2 and oracle.or_query(members[:2]) != 1:
        raise ViolationError("clique promise broken: found members not adjacent")
    return Graph.clique(n, [anchor, *members])


def learn_star_or(
    oracle: GraphOracle,
    backend: str = "quantum_ideal",
) -> Graph:
    """Learn a hidden star (all edges share one endpoint, at least one edge).

    The center carries almost all Fourier mass of the edge-existence
    function, so four samples a round plus a one-query verification pin it;
    the leaves then come out by group testing against the center.  A single
    edge has no determined center: either endpoint may pass the
    verification, and the answer is that edge whichever one does.
    """
    n = oracle.n
    full = (1 << n) - 1
    for _ in range(20):
        tallies: dict[int, int] = {}
        for _ in range(4):
            outcome = oracle.fourier_sample_or()
            if len(outcome) == 1:
                (v,) = outcome
                tallies[v] = tallies.get(v, 0) + 1
        if not tallies:
            continue
        candidate = max(sorted(tallies), key=lambda v: tallies[v])
        others = full ^ 1 << candidate
        if oracle.or_query(others) == 0:
            break
    else:
        raise RetryBudgetError("no verified center in 20 rounds")

    bit = 1 << candidate
    leaves = cgt_solve(
        others,
        lambda s: oracle.or_query(bit | s),
        backend=backend,
        ledger=oracle.ledger,
        block=lambda items: oracle.or_block_query(bit, items),
    )
    if not leaves:
        raise ViolationError("verified center has no leaves; not a star?")
    return Graph.star(n, candidate, f2.support(leaves))
