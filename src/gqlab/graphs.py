"""Hidden-graph instances and the structured families the learners are run on.

Structured families (matching, cycle, star, clique, ...) are placed on a
uniformly random support subset of the vertex range; vertices outside the
support are isolated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from gqlab import f2

__all__ = [
    "Graph",
    "FamilySpec",
    "generate",
    "adversary_instance",
    "enumerate_all_graphs",
    "FAMILY_KINDS",
]

FAMILY_KINDS = (
    "matching",
    "hamiltonian_cycle",
    "star",
    "clique",
    "bounded_degree",
    "fixed_edge_count",
    "two_clique_adversary",
)


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    # coerce numpy integers; a raw int64 would overflow the bit shifts
    u, v = operator.index(u), operator.index(v)
    if u == v:
        raise ValueError("self loop")
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected simple graph on vertices 0..n-1 with packed adjacency rows."""

    __slots__ = ("n", "edges", "adj_bits")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("n must be nonnegative")
        norm = set()
        adj = [0] * n
        for u, v in edges:
            u, v = _norm_edge(u, v)
            if not 0 <= u < v < n:
                raise ValueError(f"edge ({u},{v}) out of range")
            if (u, v) in norm:
                continue
            norm.add((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.edges = frozenset(norm)
        self.adj_bits = tuple(adj)

    @property
    def m(self) -> int:
        return len(self.edges)

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
        if self.m == 0:
            return None
        common = None
        for u, v in sorted(self.edges):
            pair = {u, v}
            common = pair if common is None else (common & pair)
            if not common:
                return None
        return min(common)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and other.n == self.n
            and other.edges == self.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class FamilySpec:
    """Parameters for one hidden-graph family.

    kind-specific fields: ``k`` is the support/structure size (clique or
    cycle vertices), ``m`` an edge count, ``d`` a degree bound.
    ``two_clique_adversary`` uses ``k`` as the per-side clique size and
    requires ``n == 2k``.
    """

    kind: str
    n: int
    k: int | None = None
    m: int | None = None
    d: int | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")


def _support(n: int, size: int, rng: np.random.Generator) -> list[int]:
    if size > n:
        raise ValueError(f"support size {size} exceeds n={n}")
    return [int(v) for v in rng.choice(n, size=size, replace=False)]


def _all_pairs(vertices: list[int]) -> list[tuple[int, int]]:
    return [
        _norm_edge(u, v)
        for i, u in enumerate(vertices)
        for v in vertices[i + 1 :]
    ]


def generate(spec: FamilySpec, rng: np.random.Generator) -> Graph:
    """Draw one hidden graph from the family."""
    n = spec.n
    kind = spec.kind

    if kind == "matching":
        if spec.m is None or spec.m < 0 or 2 * spec.m > n:
            raise ValueError("matching needs m with 2m <= n")
        sup = _support(n, 2 * spec.m, rng)
        return Graph(n, [(sup[2 * i], sup[2 * i + 1]) for i in range(spec.m)])

    if kind == "hamiltonian_cycle":
        if spec.k is None or spec.k < 3:
            raise ValueError("cycle needs k >= 3 support vertices")
        sup = _support(n, spec.k, rng)
        return Graph(
            n, [(sup[i], sup[(i + 1) % spec.k]) for i in range(spec.k)]
        )

    if kind == "star":
        if spec.m is None or spec.m < 1 or spec.m + 1 > n:
            raise ValueError("star needs 1 <= m <= n-1 edges")
        sup = _support(n, spec.m + 1, rng)
        center, leaves = sup[0], sup[1:]
        return Graph(n, [(center, leaf) for leaf in leaves])

    if kind == "clique":
        if spec.k is None or spec.k < 2:
            raise ValueError("clique needs k >= 2")
        return Graph(n, _all_pairs(_support(n, spec.k, rng)))

    if kind == "bounded_degree":
        if spec.d is None or spec.d < 1:
            raise ValueError("bounded_degree needs d >= 1")
        m = spec.m if spec.m is not None else int(rng.integers(0, n * spec.d // 2 + 1))
        if 2 * m > n * spec.d:
            raise ValueError("m exceeds what max degree d allows")
        if m == 0:
            return Graph(n, [])
        us, vs = np.triu_indices(n, 1)
        for _ in range(200):
            deg = [0] * n
            chosen: list[tuple[int, int]] = []
            order = rng.permutation(len(us))
            for u, v in zip(us[order].tolist(), vs[order].tolist()):
                if deg[u] < spec.d and deg[v] < spec.d:
                    chosen.append((u, v))
                    deg[u] += 1
                    deg[v] += 1
                    if len(chosen) == m:
                        return Graph(n, chosen)
        raise RuntimeError("could not place m edges under the degree bound")

    if kind == "fixed_edge_count":
        if spec.m is None or spec.m < 0:
            raise ValueError("fixed_edge_count needs m >= 0")
        us, vs = np.triu_indices(n, 1)
        if spec.m > len(us):
            raise ValueError("m exceeds the number of vertex pairs")
        picks = rng.choice(len(us), size=spec.m, replace=False)
        return Graph(n, zip(us[picks].tolist(), vs[picks].tolist()))

    if kind == "two_clique_adversary":
        if spec.k is None or spec.k < 1 or n != 2 * spec.k:
            raise ValueError("two_clique_adversary needs n == 2k")
        return adversary_instance(spec.k, f2.random_matrix(spec.k, spec.k, rng))

    raise AssertionError(kind)


def adversary_instance(half: int, cross: Sequence[int]) -> Graph:
    """Two disjoint cliques of size ``half`` plus a cross bipartite pattern.

    Vertices 0..half-1 form one clique, half..2*half-1 the other; the cross
    edge (i, half+j) is present exactly when bit j of row word ``cross[i]``
    is set.  Every query touching two vertices of one side is forced
    positive, so only the cross pattern carries information.
    """
    if len(cross) != half or any(r < 0 or r >> half for r in cross):
        raise ValueError("cross matrix must be half x half")
    edges = _all_pairs(list(range(half))) + _all_pairs(
        list(range(half, 2 * half))
    )
    for i, row in enumerate(cross):
        edges.extend((i, half + j) for j in f2.support(row))
    return Graph(2 * half, edges)


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
