"""Hidden-graph instances and the structured families the learners are run on.

Structured families (matching, cycle, star, clique, ...) are placed on a
uniformly random support subset of the vertex range; vertices outside the
support are isolated.
"""

from __future__ import annotations

import operator
from typing import Mapping, Sequence

import numpy as np

from gqlab import f2

__all__ = [
    "Graph",
    "generate",
    "adversary_instance",
    "enumerate_all_graphs",
]


class Graph:
    """Undirected simple graph on vertices 0..n-1, stored as packed row words.

    The row words are the representation: bit v of ``adj_bits[u]`` is set
    exactly when {u, v} is an edge.  ``m`` is counted once at construction,
    ``edges`` is derived from the rows on each access, and equality and
    hashing read ``(n, adj_bits)``.  ``Graph(n, edges)`` takes (u, v) pairs,
    collapsing duplicate and reversed ones; ``Graph.from_rows`` takes the
    row words themselves.
    """

    __slots__ = ("n", "adj_bits", "m")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("n must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            # coerce numpy integers; a raw int64 would overflow the bit shifts
            u, v = operator.index(u), operator.index(v)
            if u == v:
                raise ValueError("self loop")
            if u < 0 or v < 0 or u >= n or v >= n:
                raise ValueError(f"edge ({min(u, v)},{max(u, v)}) out of range")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj_bits = tuple(adj)
        self.m = sum(map(int.bit_count, adj)) >> 1

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> Graph:
        """The graph with these row words, one per vertex.

        Raises ValueError on a negative row, a bit at or past ``len(rows)``,
        a diagonal bit, or a bit whose mirror is clear.
        """
        adj = tuple(map(operator.index, rows))
        n = len(adj)
        # a nonnegative row has a bit at or past n exactly when it is >= 2^n
        if adj and (min(adj) < 0 or max(adj) >> n):
            raise ValueError(f"a row has bits outside 0..{n - 1}")
        # every bit above the diagonal must be mirrored below it; then any
        # other bit, on or below the diagonal, makes the total exceed twice
        # the bits above
        upper = 0
        for u, r in enumerate(adj):
            r >>= u + 1
            while r:
                low = r & -r
                if not adj[u + low.bit_length()] >> u & 1:
                    raise ValueError(f"row {u} is not mirrored")
                upper += 1
                r ^= low
        if 2 * upper != sum(map(int.bit_count, adj)):
            raise ValueError("a diagonal bit, or a bit below it without a mirror")
        g = cls.__new__(cls)
        g.n, g.adj_bits, g.m = n, adj, upper
        return g

    @classmethod
    def star(cls, n: int, center: int, leaves) -> Graph:
        """The star joining ``center`` to each of ``leaves`` on n vertices.

        Built as row words: the center's row is the leaf mask and each
        leaf's row is the center's bit.  An empty leaf list, and arguments
        the pair constructor refuses (a leaf that is the center, out of
        range or negative), go to that constructor, so they get its answer
        and its ValueError.
        """
        leaves = list(map(operator.index, leaves))
        if not leaves:
            return cls(n, ())
        center = operator.index(center)
        if not (0 <= center < n and 0 <= min(leaves) and max(leaves) < n) or center in leaves:
            return cls(n, ((center, leaf) for leaf in leaves))
        adj = [0] * n
        bit, mask = 1 << center, 0
        for leaf in leaves:
            adj[leaf] = bit
            mask |= 1 << leaf
        adj[center] = mask
        g = cls.__new__(cls)
        g.n, g.adj_bits, g.m = n, tuple(adj), mask.bit_count()
        return g

    @classmethod
    def clique(cls, n: int, members) -> Graph:
        """The clique on ``members``; the other vertices are isolated."""
        mask = 0
        for v in members:
            mask |= 1 << v
        if mask >> n:
            raise ValueError(f"a member is outside 0..{n - 1}")
        return cls.from_rows([mask ^ 1 << v if mask >> v & 1 else 0 for v in range(n)])

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge as (u, v) with u < v, read from the rows."""
        out = []
        for u, r in enumerate(self.adj_bits):
            r >>= u + 1
            while r:
                low = r & -r
                out.append((u, u + low.bit_length()))
                r ^= low
        return frozenset(out)

    def degree(self, v: int) -> int:
        return self.adj_bits[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return f2.support(self.adj_bits[v])

    def non_isolated(self) -> list[int]:
        return [v for v in range(self.n) if self.adj_bits[v]]

    def is_star(self) -> int | None:
        """Return the center when every edge shares one vertex, else None.

        For a single edge either endpoint qualifies; the smaller one is
        returned.
        """
        if not self.m:
            return None
        # every edge touches the center, so it has degree m and is an
        # endpoint of any edge; with m >= 2 no other vertex has degree m.
        # The lowest non-isolated vertex u and its lowest neighbor v are
        # one edge with u < v.
        u = next(i for i, r in enumerate(self.adj_bits) if r)
        v = (self.adj_bits[u] & -self.adj_bits[u]).bit_length() - 1
        for c in (u, v):  # a single edge yields the smaller endpoint
            if self.adj_bits[c].bit_count() == self.m:
                return c
        return None

    def has_edge(self, u: int, v: int) -> bool:
        u, v = operator.index(u), operator.index(v)
        if u == v:
            raise ValueError("self loop")
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj_bits[u] >> v & 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and other.n == self.n
            and other.adj_bits == self.adj_bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj_bits))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _support(n: int, size: int, rng: np.random.Generator) -> list[int]:
    if size > n:
        raise ValueError(f"support size {size} exceeds n={n}")
    return rng.choice(n, size=size, replace=False).tolist()


def _triu_pairs(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs at these positions of ``np.triu_indices(n, 1)``, in O(len) memory.

    Row u of the upper triangle starts at offset u (2n - u - 1) / 2.  The
    smaller root of that quadratic, in floating point, guesses the row; a
    guess that rounded across a row start leaves its column outside
    u < v < n and takes one exact step into its row.
    """
    i = np.asarray(index, dtype=np.int64)
    b = 2 * n - 1
    u = ((b - np.sqrt(b * b - 8 * i)) // 2).astype(np.int64)
    v = i - u * (b - u) // 2 + u + 1
    step = (v >= n).astype(np.int64) - (v <= u)
    if step.any():
        u += step
        v = i - u * (b - u) // 2 + u + 1
    return u, v


# pair draws per block of the bounded-degree rejection sampler
_PAIR_DRAWS = 64


def _bounded_degree(n: int, m: int, d: int, rng: np.random.Generator) -> Graph:
    """m edges, each uniform among the new pairs of two vertices below degree d.

    A uniform pair is drawn and rejected while it is already chosen or
    touches a full vertex, so each accepted pair is uniform among the
    eligible ones; that is the law of a greedy pass over a uniformly
    shuffled list of all pairs, without the list.  A pair once ineligible
    stays so, and a draw that reaches no eligible pair with fewer than m
    placed restarts, as the greedy pass restarts when its list runs out.
    """
    npairs = n * (n - 1) // 2
    # with fewer than two vertices there is no pair to draw
    for _ in range(200 if npairs else 0):
        rows = [0] * n
        placed = 0
        while True:
            before = placed
            us, vs = _triu_pairs(rng.integers(npairs, size=_PAIR_DRAWS), n)
            for u, v in zip(us.tolist(), vs.tolist()):
                ru, rv = rows[u], rows[v]
                if ru.bit_count() < d and rv.bit_count() < d and not ru >> v & 1:
                    rows[u] = ru | 1 << v
                    rows[v] = rv | 1 << u
                    placed += 1
                    if placed == m:
                        return Graph.from_rows(rows)
            if placed == before and not _eligible_pair_left(rows, d):
                break
    raise RuntimeError("could not place m edges under the degree bound")


def _eligible_pair_left(rows: list[int], d: int) -> bool:
    """Whether two vertices below degree d are not yet joined."""
    free = [v for v, r in enumerate(rows) if r.bit_count() < d]
    mask = sum(1 << v for v in free)
    return any((mask & ~rows[v]) ^ (1 << v) for v in free)


def generate(kind: str, point: Mapping, rng: np.random.Generator) -> Graph:
    """Draw one hidden graph of the named kind.

    ``point`` holds ``n`` and the kind's keys: ``k`` a support or structure
    size (clique or cycle vertices, or the per-side clique size of
    ``two_clique_adversary``, which requires ``n == 2k``), ``m`` an edge
    count (drawn by ``bounded_degree`` when absent), ``d`` a degree bound.
    """
    n = point["n"]
    k, m, d = point.get("k"), point.get("m"), point.get("d")

    if kind == "matching":
        if m is None or m < 0 or 2 * m > n:
            raise ValueError("matching needs m with 2m <= n")
        sup = _support(n, 2 * m, rng)
        return Graph(n, zip(sup[0::2], sup[1::2]))

    if kind == "hamiltonian_cycle":
        if k is None or k < 3:
            raise ValueError("cycle needs k >= 3 support vertices")
        sup = _support(n, k, rng)
        return Graph(n, zip(sup, sup[1:] + sup[:1]))

    if kind == "star":
        if m is None or m < 1 or m + 1 > n:
            raise ValueError("star needs 1 <= m <= n-1 edges")
        sup = _support(n, m + 1, rng)
        return Graph.star(n, sup[0], sup[1:])

    if kind == "clique":
        if k is None or k < 2:
            raise ValueError("clique needs k >= 2")
        return Graph.clique(n, _support(n, k, rng))

    if kind == "bounded_degree":
        if d is None or d < 1:
            raise ValueError("bounded_degree needs d >= 1")
        m = m if m is not None else int(rng.integers(0, n * d // 2 + 1))
        if 2 * m > n * d:
            raise ValueError("m exceeds what max degree d allows")
        # below both bounds such a graph exists, so the sampler finds one
        if m > n * (n - 1) // 2:
            raise ValueError("m exceeds the number of vertex pairs")
        if m == 0:
            return Graph(n, [])
        return _bounded_degree(n, m, d, rng)

    if kind == "fixed_edge_count":
        if m is None or m < 0:
            raise ValueError("fixed_edge_count needs m >= 0")
        npairs = n * (n - 1) // 2
        if m > npairs:
            raise ValueError("m exceeds the number of vertex pairs")
        # drawn as positions in np.triu_indices(n, 1), which is never built
        us, vs = _triu_pairs(rng.choice(npairs, size=m, replace=False), n)
        return Graph(n, zip(us.tolist(), vs.tolist()))

    if kind == "two_clique_adversary":
        if k is None or k < 1 or n != 2 * k:
            raise ValueError("two_clique_adversary needs n == 2k")
        return adversary_instance(k, f2.random_matrix(k, k, rng))

    raise ValueError(f"unknown family kind {kind!r}")


def adversary_instance(half: int, cross: Sequence[int]) -> Graph:
    """Two disjoint cliques of size ``half`` plus a cross bipartite pattern.

    Vertices 0..half-1 form one clique, half..2*half-1 the other; the cross
    edge (i, half+j) is present exactly when bit j of row word ``cross[i]``
    is set.  Every query touching two vertices of one side is forced
    positive, so only the cross pattern carries information.
    """
    if len(cross) != half or any(r < 0 or r >> half for r in cross):
        raise ValueError("cross matrix must be half x half")
    side = (1 << half) - 1
    rows = [side ^ 1 << i | r << half for i, r in enumerate(cross)]
    rows += [
        (side ^ 1 << j) << half | col
        for j, col in enumerate(f2.transpose_words(cross, half))
    ]
    return Graph.from_rows(rows)


def enumerate_all_graphs(r: int, n: int | None = None) -> list[Graph]:
    """All labelled graphs on vertices 0..r-1, optionally embedded in n vertices."""
    if r > 6:
        raise ValueError("refusing to enumerate beyond r=6")
    n = r if n is None else n
    pairs = [(u, v) for u in range(r) for v in range(u + 1, r)]
    out = []
    for mask in range(1 << len(pairs)):
        out.append(
            Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
        )
    return out
