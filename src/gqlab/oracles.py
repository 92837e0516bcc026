"""Audited oracle access to hidden graphs and hidden juntas.

Every learner touches the hidden object only through these classes, and every
access lands in a QueryLedger.  Reveal methods exist for harness plumbing and
tests; they bump a dedicated counter so an audit can prove no learner cheated.
"""

from __future__ import annotations

import bisect
import math
import operator
from contextlib import contextmanager
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

from gqlab import f2
from gqlab.errors import ScaleError
from gqlab.fourier import _fwht, _subset_sizes, fourier_table
from gqlab.graphs import Graph

__all__ = ["QUERY_KINDS", "MAX_WHT_VARS", "QueryLedger", "GraphOracle", "JuntaOracle"]

QUERY_KINDS = (
    "or_query",
    "parity_query",
    "graph_state_copy",
    "charged_quantum",
    "junta_query",
    "classical_bit_ops",
    "reveal_used",
)

# brute Walsh tables for OR restrictions stay below 2^22 entries
MAX_WHT_VARS = 22


class QueryLedger:
    """Monotone counters, one per query kind.

    ``paused()`` suspends charging inside quantum cost models whose classical
    simulation must not bill the simulated steps; suppressed charges are
    still tallied separately so tests can audit them.  A quantum
    group-testing solve reads its answer from one block query, so it
    suppresses one ``or_query`` per universe item.  Reveals are never
    suppressed.
    """

    def __init__(self) -> None:
        self.counts = {kind: 0 for kind in QUERY_KINDS}
        self.suppressed = {kind: 0 for kind in QUERY_KINDS}
        self._pause_depth = 0

    def charge(self, kind: str, amount: int = 1) -> None:
        if kind not in self.counts:
            raise KeyError(f"unknown query kind {kind!r}")
        if amount < 0:
            raise ValueError("charges are monotone")
        if self._pause_depth and kind != "reveal_used":
            self.suppressed[kind] += amount
        else:
            self.counts[kind] += amount

    @contextmanager
    def paused(self):
        self._pause_depth += 1
        try:
            yield self
        finally:
            self._pause_depth -= 1

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        return {kind: self.counts[kind] - before.get(kind, 0) for kind in QUERY_KINDS}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.counts.items() if v)
        return f"QueryLedger({inner})"


class GraphOracle:
    """Query access to one hidden graph."""

    def __init__(self, graph: Graph, rng: np.random.Generator, ledger: QueryLedger | None = None):
        self._graph = graph
        self.n = graph.n
        self.rng = rng
        self.ledger = ledger if ledger is not None else QueryLedger()
        self._x_offset: int | None = None
        # the non-isolated vertices; no other vertex can add an induced edge
        self._touched = reduce(operator.or_, graph.adj_bits, 0)

    # -- classical queries ---------------------------------------------------

    def or_query(self, subset) -> int:
        """1 iff the subset (an int mask over vertex ids or a vertex iterable)
        induces an edge; mask bits outside 0..n-1 raise before charging."""
        if not isinstance(subset, int):
            subset = f2.from_support(subset, self.n)
        elif subset < 0 or subset >> self.n:
            raise ValueError("mask has bits outside the vertex range")
        self.ledger.charge("or_query")
        adj = self._graph.adj_bits
        m = live = subset & self._touched
        while m:
            v = (m & -m).bit_length() - 1
            if adj[v] & live:
                return 1
            m &= m - 1
        return 0

    def or_block_query(self, base: int, items: int) -> int:
        """The mask of the items x for which base | 1 << x induces an edge,
        at the cost of one OR query per item; mask bits outside 0..n-1 raise
        before charging.

        Every item answers 1 when base itself induces an edge; otherwise x
        answers 1 exactly when it lies outside base with a neighbor inside.
        """
        if base < 0 or base >> self.n or items < 0 or items >> self.n:
            raise ValueError("mask has bits outside the vertex range")
        self.ledger.charge("or_query", items.bit_count())
        adj = self._graph.adj_bits
        reach = 0
        m = base & self._touched
        while m:
            v = (m & -m).bit_length() - 1
            reach |= adj[v]
            m &= m - 1
        return items if reach & base else items & reach

    def parity_query(self, subset) -> int:
        """Parity of the number of induced edges."""
        if not isinstance(subset, int):
            subset = f2.from_support(subset, self.n)
        elif subset < 0 or subset >> self.n:
            raise ValueError("mask has bits outside the vertex range")
        self.ledger.charge("parity_query")
        return self._induced_parity(subset)

    def parity_vector_query(self, v: int) -> int:
        """Adjacency-matrix action A v on a word v, at the cost of two parity queries."""
        if v < 0 or v >> self.n:
            raise ValueError("vector width mismatch")
        self.ledger.charge("parity_query", 2)
        return f2.xor_rows([v], self._graph.adj_bits)[0]

    def parity_block_query(self, rows: Sequence[int], k: int) -> list[int]:
        """A B for a packed n x k block B, at the cost of two parity queries per column.

        ``rows`` are B's n row words of k bits; so are the returned rows.
        """
        if len(rows) != self.n or rows and (min(rows) < 0 or max(rows) >> k):
            raise ValueError("block shape mismatch")
        self.ledger.charge("parity_query", 2 * k)
        return f2.xor_rows(self._graph.adj_bits, rows)

    # -- copy-consuming samples ------------------------------------------------

    def bell_sample(self) -> tuple[int, int]:
        """Uniform word s with y = A s; consumes two state copies."""
        self.ledger.charge("graph_state_copy", 2)
        s = f2.random_vector(self.n, self.rng)
        return s, f2.xor_rows([s], self._graph.adj_bits)[0]

    def bell_samples(self, k: int) -> tuple[list[int], list[int]]:
        """k Bell samples as packed blocks (B, A B); consumes 2k state copies.

        Column i of B is the i-th uniform s, the one the i-th of k
        ``bell_sample`` calls would draw (``f2.random_block``).  Both blocks
        are n row words of k bits.
        """
        self.ledger.charge("graph_state_copy", 2 * k)
        rows = f2.random_block(self.n, k, self.rng)
        return rows, f2.xor_rows(self._graph.adj_bits, rows)

    def hadamard_sample(self) -> int:
        """All-qubits X-basis measurement outcome; consumes one state copy.

        The outcome is uniform over x0 + col(A), where x0 . b = q(b) for every
        b in ker A and q(b) is the parity of the edges inside b (the
        stabilizer picture of a graph state, quant-ph/0307130).
        """
        self.ledger.charge("graph_state_copy")
        if self._x_offset is None:
            _, kernel = f2.solve(self._graph.adj_bits, self.n, 0)
            q = sum(self._induced_parity(b) << i for i, b in enumerate(kernel))
            self._x_offset, _ = f2.solve(kernel, self.n, q)
        s = f2.random_vector(self.n, self.rng)
        return self._x_offset ^ f2.xor_rows([s], self._graph.adj_bits)[0]

    # -- Fourier sampling of the OR function -----------------------------------

    def fourier_sample_or(self, restrict: Iterable[int] | None = None) -> frozenset[int]:
        """One quantum query to [subset contains an edge], sampled in Fourier basis.

        With ``restrict`` the function is first restricted to those vertices
        (everything else pinned to 0), i.e. the OR function of the induced
        subgraph.
        """
        self.ledger.charge("or_query")
        if restrict is None:
            center = self._star_center
            if center is not None:
                return self._fourier_star(center)
            vertices = range(self.n)
        else:
            vertices = sorted(set(restrict))
        return self._fourier_brute(vertices)

    @cached_property
    def _star_center(self) -> int | None:
        # found on the first unrestricted Fourier sample, not at construction
        return self._graph.is_star()

    def _fourier_star(self, center: int) -> frozenset[int]:
        leaf_mask = self._graph.adj_bits[center]
        m = leaf_mask.bit_count()
        p_center = (1.0 - 2.0**-m) ** 2
        if self.rng.random() < p_center:
            return frozenset((center,))
        # remaining mass is uniform over the other 2^(m+1)-1 subsets of
        # {center} + leaves, the empty set included
        leaves = f2.support(leaf_mask)
        while True:
            bits = int.from_bytes(self.rng.bytes((m + 1 + 7) // 8), "little")
            bits &= (1 << (m + 1)) - 1
            if bits != 1:  # center alone is the already-handled outcome
                break
        out = set()
        if bits & 1:
            out.add(center)
        for j, leaf in enumerate(leaves):
            if (bits >> (j + 1)) & 1:
                out.add(leaf)
        return frozenset(out)

    def _fourier_brute(self, vertices: Iterable[int]) -> frozenset[int]:
        adj = self._graph.adj_bits
        inside = sum(1 << v for v in map(operator.index, vertices) if 0 <= v < self.n)
        # the edges (u, v), u < v, with both ends inside, read off the rows
        edges = []
        ends = 0
        for u in f2.support(inside & self._touched):
            row = adj[u] & inside
            ends |= row
            edges.extend((u, v) for v in f2.support(row) if v > u)
        relevant = f2.support(ends)
        if not relevant:
            return frozenset()
        t = len(relevant)
        if t > MAX_WHT_VARS:
            raise ScaleError(f"brute Fourier sampling limited to {MAX_WHT_VARS} touched vertices")
        pos = {v: j for j, v in enumerate(relevant)}
        idx = np.arange(1 << t, dtype=np.uint32)
        hit = np.zeros(1 << t, dtype=bool)
        for (u, v) in edges:
            hit |= ((idx >> pos[u]) & 1).astype(bool) & ((idx >> pos[v]) & 1).astype(bool)
        signs = np.where(hit, -1.0, 1.0)
        self.ledger.charge("classical_bit_ops", (1 << t) * max(1, len(edges)))
        coeffs = _fwht(signs) / (1 << t)
        probs = coeffs**2
        outcome = int(self.rng.choice(1 << t, p=probs / probs.sum()))
        return frozenset(relevant[j] for j in range(t) if (outcome >> j) & 1)

    # -- audited reveals ---------------------------------------------------------

    def peek_graph(self) -> Graph:
        self.ledger.charge("reveal_used")
        return self._graph

    def _induced_parity(self, mask: int) -> int:
        m = live = mask & self._touched
        total = 0
        while m:
            v = (m & -m).bit_length() - 1
            total += (self._graph.adj_bits[v] & live).bit_count()
            m &= m - 1
        return (total // 2) & 1


@lru_cache(maxsize=128)
def _level_law(weights: bytes, l: int) -> tuple[list[int], list[float], float, int]:
    """The amplified sampler's law at level >= l, shared by every oracle
    whose level weights pack to the float64 bytes ``weights``.

    With W the weight at level >= l: the levels >= l that carry weight, the
    CDF of their weights over W, the hit threshold max(W, 1 - W) and the
    charge ceil(1/sqrt(W)) per hit.  The CDF is the one that
    ``rng.choice(levels, p=...)`` builds on every call; ``bisect_right`` on
    one ``rng.random()`` makes the comparisons of ``searchsorted(..., "right")``
    and draws the same level from the same stream.
    """
    tail = np.frombuffer(weights)[l:]
    total = float(tail.sum())
    if total <= 0:
        raise ValueError("no Fourier mass at or above this level")
    keep = tail > 0
    cdf = (tail[keep] / total).cumsum()
    cdf /= cdf[-1]
    levels = np.arange(l, l + len(tail))[keep].tolist()
    return levels, cdf.tolist(), max(total, 1.0 - total), math.ceil(1.0 / math.sqrt(total))


class JuntaOracle:
    """Query access to f(x) = g(x restricted to a hidden variable set).

    The inner function g is public; only the variable set is hidden.  Either
    pass the full truth table (arity capped by the Fourier-table limit) or,
    for symmetric g too wide to tabulate, its level weights plus an evaluator
    taking the number of set bits.
    """

    def __init__(
        self,
        n: int,
        support: Sequence[int],
        rng: np.random.Generator,
        g_table: Sequence[int] | None = None,
        level_weights: np.ndarray | None = None,
        weight_eval=None,
        ledger: QueryLedger | None = None,
    ):
        self.n = n
        self._support = tuple(sorted(support))
        self.k = len(self._support)
        if len(set(self._support)) != self.k:
            raise ValueError("duplicate junta variables")
        if self._support and not 0 <= self._support[0] <= self._support[-1] < n:
            raise ValueError("junta variables out of range")
        self._support_array = np.array(self._support, dtype=np.int64)
        self.rng = rng
        self.ledger = ledger if ledger is not None else QueryLedger()
        self._table = None
        self._dist_cum = None
        self._weight_eval = weight_eval
        if g_table is not None:
            ft = fourier_table(g_table, self.k)
            self._table = np.asarray(g_table, dtype=np.int8)
            dist = ft.sampling_distribution()
            self._dist_cum = np.cumsum(dist)
            weights = ft.level_weights()
            self._symmetric = self._check_symmetric(self._table, self.k)
        elif level_weights is not None:
            # a copy: a later write into the caller's array must not move this law
            weights = np.array(level_weights, dtype=np.float64)
            if len(weights) != self.k + 1:
                raise ValueError("need one weight per level 0..k")
            self._symmetric = True
        else:
            raise ValueError("pass g_table or level_weights")
        weights.flags.writeable = False
        self.level_weights = weights
        self._law_key = weights.tobytes()

    @staticmethod
    def _check_symmetric(table: np.ndarray, k: int) -> bool:
        sizes = _subset_sizes(k)
        for w in range(k + 1):
            vals = table[sizes == w]
            if len(vals) and not (vals == vals[0]).all():
                return False
        return True

    def _local_mask(self, x: int) -> int:
        mask = 0
        for j, v in enumerate(self._support):
            mask |= ((x >> v) & 1) << j
        return mask

    def junta_query(self, x: int) -> int:
        """g on the hidden variables of the word x."""
        if x < 0 or x >> self.n:
            raise ValueError("input width mismatch")
        self.ledger.charge("junta_query")
        local = self._local_mask(x)
        if self._table is not None:
            return int(self._table[local])
        if self._weight_eval is None:
            raise ValueError("no evaluator for this oracle")
        return int(self._weight_eval(local.bit_count()))

    def fourier_samples(self, count: int) -> np.ndarray:
        """``count`` Fourier samples at one junta query each, as an array of masks.

        A mask is drawn with probability the squared coefficient of (-1)^f
        on it; bit j stands for the j-th hidden variable.  One
        ``rng.random(count)`` call draws the same doubles, and leaves the
        generator in the same state, as ``count`` calls of ``rng.random()``.
        """
        if self._dist_cum is None:
            raise ValueError("plain Fourier sampling needs the full table")
        self.ledger.charge("junta_query", count)
        u = self.rng.random(count)
        masks = np.searchsorted(self._dist_cum, u * self._dist_cum[-1], side="right")
        return np.minimum(masks, (1 << self.k) - 1)

    def amplified_level_sample(self, l: int) -> frozenset[int] | None:
        """Amplified draw of a Fourier sample at level >= l, or a miss.

        Success probability is max(W>=l, 1-W>=l); each success bills
        ceil(1/sqrt(W>=l)) amplified rounds to the quantum counter.  Misses
        cost nothing.  Only valid for symmetric g, whose same-level
        coefficients share one magnitude.
        """
        if not self._symmetric:
            raise ValueError("amplified level sampling needs symmetric g")
        if not 1 <= l <= self.k:
            raise ValueError("level out of range")
        levels, cdf, hit, charge = _level_law(self._law_key, l)
        if self.rng.random() >= hit:
            return None
        self.ledger.charge("charged_quantum", charge)
        size = levels[bisect.bisect_right(cdf, self.rng.random())]
        picks = self.rng.choice(self.k, size=size, replace=False)
        return frozenset(self._support_array[picks].tolist())

    def peek_support(self) -> tuple[int, ...]:
        self.ledger.charge("reveal_used")
        return self._support
