"""Learners built on Bell samples, parity-vector queries, and X-basis samples.

A Bell sample of a hidden graph's state is a pair (s, As) with s uniform, so
every learner here is linear algebra over GF(2) at heart: collect sample
columns, then pin down each adjacency row inside whatever candidate space
the promise allows.  Samples are shared across rows; all collected samples
constrain every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from gqlab import f2
from gqlab.errors import AmbiguityError, RetryBudgetError, ScaleError, ViolationError
from gqlab.f2 import BitMatrix, BitVector
from gqlab.graphs import Graph
from gqlab.oracles import GraphOracle

__all__ = [
    "ENUMERATION_CAP",
    "SampleBatch",
    "collect_samples",
    "BoundedDegreeResult",
    "learn_from_family",
    "learn_bounded_degree",
    "learn_subgraph_of",
    "learn_bounded_edges_parity",
    "learn_arbitrary_parity",
    "learn_star_graphstate",
    "learn_clique_graphstate",
]

# the low-weight row search refuses when C(n', <=d) exceeds this many supports
ENUMERATION_CAP = 10_000_000


@dataclass(frozen=True)
class SampleBatch:
    """Samples as columns: column i of B is s_i, column i of Y is A s_i.

    Rows are the useful view for learning: row v of Y lists v's observed
    parity bits, and row u of B is the coefficient of a_v[u] in each of
    them.
    """

    B: BitMatrix
    Y: BitMatrix

    @property
    def n(self) -> int:
        return self.B.nrows

    @property
    def k(self) -> int:
        return self.B.ncols

    def audit(self, graph: Graph) -> bool:
        """Whether Y = A B: row v of Y is the XOR of B's rows over v's neighbors."""
        if graph.n != self.n:
            raise ValueError("graph width does not match the batch")
        return tuple(f2.xor_rows(graph.adj_bits, self.B.rows)) == self.Y.rows


def collect_samples(
    h: GraphOracle,
    count: int,
    extend: SampleBatch | None = None,
    parity: bool = False,
) -> SampleBatch:
    """Draw ``count`` samples as one block, optionally appended to a batch.

    Bell samples by default.  With ``parity`` the learner draws each s and
    reads A s with two parity queries instead of two state copies.
    """
    if parity:
        rows_b = f2.random_block(h.n, count, h.rng)
        rows_y = h.parity_block_query(rows_b, count)
    else:
        rows_b, rows_y = h.bell_samples(count)
    k = count
    if extend is not None:
        if extend.n != h.n:
            raise ValueError("batch width does not match the oracle")
        rows_b = [old | new << extend.k for old, new in zip(extend.B.rows, rows_b)]
        rows_y = [old | new << extend.k for old, new in zip(extend.Y.rows, rows_y)]
        k += extend.k
    return SampleBatch(BitMatrix(h.n, k, rows_b), BitMatrix(h.n, k, rows_y))


# -- finite family -----------------------------------------------------------------


def learn_from_family(
    h: GraphOracle,
    family: Iterable[Graph],
    k: int | None = None,
) -> Graph:
    """Identify the hidden graph inside a known finite family.

    Takes k = ceil(2 log2 |S|) + 7 Bell samples by default; two distinct
    members both consistent with all of them has probability at most
    |S|^2 2^-k.  A singleton family needs no samples at all.
    """
    members = list(family)
    if not members:
        raise ValueError("empty family")
    if any(g.n != h.n for g in members):
        raise ValueError("family members must match the oracle width")
    if len(members) == 1:
        return members[0]
    if k is None:
        k = math.ceil(2 * math.log2(len(members))) + 7
    if k < 1:
        raise ValueError("need at least one sample for a non-singleton family")
    batch = collect_samples(h, k)
    survivors = [g for g in members if batch.audit(g)]
    if len(survivors) != 1:
        raise AmbiguityError(
            f"{len(survivors)} of {len(members)} members consistent after {k} samples"
        )
    return survivors[0]


# -- bounded degree ------------------------------------------------------------------


@dataclass(frozen=True)
class BoundedDegreeResult:
    """Per-vertex rows: resolved neighbor sets, plus the over-degree marks."""

    n: int
    d: int
    neighbors: dict[int, frozenset[int]]
    over_degree: frozenset[int]
    samples_used: int

    def graph(self) -> Graph:
        """Assemble the full graph; only valid when no row is over-degree."""
        if self.over_degree:
            raise ViolationError(
                f"{len(self.over_degree)} rows exceed degree {self.d}"
            )
        return _assemble(self.n, self.neighbors)


def _assemble(n: int, rows: dict[int, frozenset[int]]) -> Graph:
    """The graph whose rows these are; every neighbor claim must be returned."""
    edges = []
    for v, nbrs in rows.items():
        for u in nbrs:
            if v not in rows.get(u, ()):
                raise AmbiguityError("row assembly is not symmetric")
            if v < u:
                edges.append((v, u))
    return Graph(n, edges)


def _enumeration_size(n_items: int, d: int) -> int:
    return sum(math.comb(n_items, l) for l in range(min(d, n_items) + 1))


def _xor_table(sigs: Sequence[int], w: int) -> dict[int, list[int]]:
    """Map each XOR of at most w distinct signatures to the supports giving it.

    A support is a bit mask over positions in ``sigs``; the empty support
    sits under key 0.
    """
    table: dict[int, list[int]] = {0: [0]}
    level = [(0, 0, 0)]  # (support, signature, first position still free)
    for _ in range(w):
        level = [
            (mask | 1 << j, acc ^ sigs[j], j + 1)
            for mask, acc, start in level
            for j in range(start, len(sigs))
        ]
        for mask, acc, _ in level:
            table.setdefault(acc, []).append(mask)
    return table


def _row_supports(
    target: int,
    big: dict[int, list[int]],
    small: dict[int, list[int]],
    limit: int = 2,
) -> set[int]:
    """Distinct supports of weight <= d whose signatures XOR to the target.

    ``big`` and ``small`` are the ceil(d/2) and floor(d/2) tables.  Every
    support of weight <= d splits into one half of each, so ``a ^ b`` over
    ``b`` in ``small[s]`` and ``a`` in ``big[target ^ s]`` reaches them all;
    halves that overlap cancel and still leave a support of weight <= d.
    Stops once ``limit`` are found.
    """
    found: set[int] = set()
    for s, halves in small.items():
        for a in big.get(target ^ s, ()):
            for b in halves:
                found.add(a ^ b)
                if len(found) >= limit:
                    return found
    return found


def learn_bounded_degree(
    h: GraphOracle,
    d: int,
    m_hint: int | None = None,
    slack: int = 7,
    phase2_k: int | None = None,
    _parity: bool = False,
) -> BoundedDegreeResult:
    """Per-vertex neighbor recovery for rows of weight at most d.

    Phase 1 takes ceil(log2 m-guess) + slack samples; the nonzero rows of Y
    are the non-isolated vertices.  Phase 2 adds ceil(d log2(n'/d)) + slack
    samples and searches each non-isolated row for the unique weight-<=d
    combination of non-isolated columns matching the observed bits; rows
    with no match are reported over-degree.  The search meets in the
    middle: it tabulates the XOR of every combination of at most ceil(d/2)
    and of at most floor(d/2) column signatures once, and a row's matches
    are the pairs, one from each table, whose XOR is the row's bits (Stern
    1988).  It refuses when C(n', <=d) exceeds the candidate cap.

    With d above n/4 the sparse search loses its edge; the full row readout
    is used instead and rows wider than d are marked over-degree.  With
    ``_parity`` each sample costs two parity queries instead of two state
    copies, and the full readout is never used: wide rows are left to the
    caller.
    """
    n = h.n
    if d < 1:
        raise ValueError("degree bound must be positive")
    if d > n / 4 and not _parity:
        full = learn_arbitrary_parity(h)
        over = frozenset(v for v in range(n) if full.degree(v) > d)
        neighbors = {v: frozenset(full.neighbors(v)) for v in range(n) if v not in over}
        return BoundedDegreeResult(n, d, neighbors, over, 0)

    m_guess = m_hint if m_hint is not None else n * (n - 1) // 2
    l = math.ceil(math.log2(max(m_guess, 2))) + slack
    batch = collect_samples(h, l, parity=_parity)
    nonzero = [v for v in range(n) if batch.Y.rows[v] != 0]
    neighbors: dict[int, frozenset[int]] = {
        v: frozenset() for v in range(n) if batch.Y.rows[v] == 0
    }
    if not nonzero:
        return BoundedDegreeResult(n, d, neighbors, frozenset(), batch.k)

    nprime = len(nonzero)
    if phase2_k is None:
        phase2_k = max(1, math.ceil(d * math.log2(max(2.0, nprime / d)))) + slack
    batch = collect_samples(h, phase2_k, extend=batch, parity=_parity)

    total = _enumeration_size(nprime, d)
    if total > ENUMERATION_CAP:
        raise ScaleError(
            f"{total} weight-<={d} candidates over {nprime} columns "
            f"exceed the enumeration cap {ENUMERATION_CAP}"
        )
    sigs = [batch.B.rows[u] for u in nonzero]
    big = _xor_table(sigs, (d + 1) // 2)
    small = _xor_table(sigs, d // 2)
    over = set()
    for v in nonzero:
        found = _row_supports(batch.Y.rows[v], big, small)
        if len(found) > 1:
            raise AmbiguityError(f"row {v} has multiple weight-<={d} explanations")
        if not found:
            over.add(v)
        else:
            (mask,) = found
            support = BitVector(nprime, mask).support()
            neighbors[v] = frozenset(nonzero[j] for j in support)
    return BoundedDegreeResult(n, d, neighbors, frozenset(over), batch.k)


# -- subgraph of a known graph ---------------------------------------------------------


def learn_subgraph_of(
    h: GraphOracle,
    gprime: Graph,
    d: int,
    slack: int = 7,
    retry_rounds: int = 10,
) -> Graph:
    """Learn a hidden subgraph of a known graph of max degree d.

    Row v has unknowns only over v's neighbors in the supergraph, so
    d + ceil(log2 n) + slack samples make every per-vertex system uniquely
    solvable with large margin.  The rare underdetermined system pulls a
    top-up round of fresh samples rather than failing outright.
    """
    n = h.n
    if gprime.n != n:
        raise ValueError("supergraph width mismatch")
    if any(gprime.degree(v) > d for v in range(n)):
        raise ValueError("supergraph exceeds the claimed degree bound")
    candidates = {v: gprime.neighbors(v) for v in range(n)}
    if all(not c for c in candidates.values()):
        return Graph(n, [])

    k = d + math.ceil(math.log2(max(n, 2))) + slack
    batch = collect_samples(h, k)
    rows: dict[int, frozenset[int]] = {}
    pending = list(range(n))
    for round_idx in range(retry_rounds + 1):
        if round_idx:
            batch = collect_samples(h, 8, extend=batch)
        still = []
        for v in pending:
            cand = candidates[v]
            if not cand:
                rows[v] = frozenset()
                continue
            system = f2.transpose_words([batch.B.rows[u] for u in cand], batch.k)
            solution = f2.solve(
                BitMatrix(batch.k, len(cand), system),
                BitVector(batch.k, batch.Y.rows[v]),
            )
            if solution is None:
                raise AmbiguityError(f"row {v}: inconsistent system")
            particular, nullspace = solution
            if nullspace:
                still.append(v)
                continue
            rows[v] = frozenset(
                u for j, u in enumerate(cand) if particular.get(j)
            )
        if not still:
            break
        pending = still
    else:
        raise AmbiguityError(
            f"{len(pending)} rows stayed underdetermined after {retry_rounds} top-ups"
        )
    return _assemble(n, rows)


# -- bounded edge count ------------------------------------------------------------------


def learn_bounded_edges_parity(
    h: GraphOracle,
    m: int,
    slack: int = 15,
) -> Graph:
    """Learn a graph promised to have at most m edges from parity queries.

    Splits rows at d = ceil(sqrt(m / log2(m+2))): sparse rows come from the
    bounded-degree pipeline with Bell samples realized as two parity queries
    each, and every dense row is read exactly with one basis-vector query.
    """
    if m < 0:
        raise ValueError("edge bound must be nonnegative")
    d = max(1, math.ceil(math.sqrt(m / math.log2(m + 2))))
    result = learn_bounded_degree(h, d, m_hint=max(m, 1), slack=slack, _parity=True)
    rows = dict(result.neighbors)
    for v in sorted(result.over_degree):
        row = h.parity_vector_query(BitVector.basis(h.n, v))
        rows[v] = frozenset(row.support())
    # exact rows are complete, so a true claim is always reciprocated; an
    # unreciprocated one exposes a wrong sparse row
    graph = _assemble(h.n, rows)
    if graph.m > m:
        raise ViolationError(f"{graph.m} edges exceed the promise {m}")
    return graph


# -- unrestricted parity -------------------------------------------------------------------


def learn_arbitrary_parity(h: GraphOracle) -> Graph:
    """Read the adjacency matrix as A I, one block of n columns: 2n parity queries flat."""
    n = h.n
    rows = h.parity_block_query([1 << i for i in range(n)], n)
    if f2.transpose_words(rows, n) != rows:
        raise AmbiguityError("oracle returned an asymmetric matrix")
    edges = []
    for i in range(n):
        if (rows[i] >> i) & 1:
            raise AmbiguityError("oracle returned a nonzero diagonal")
        edges.extend((i, j) for j in BitVector(n, rows[i]).support() if j > i)
    return Graph(n, edges)


# -- promised shapes from state samples ----------------------------------------------------


def learn_star_graphstate(
    h: GraphOracle,
    cap: int = 200,
) -> tuple[int, frozenset[int]]:
    """Learn a star with at least two edges from X-basis measurements.

    Each sample lands on one of four equiprobable outcomes; weight one names
    the center, weight two or more is the leaf pattern with or without the
    center mixed in.  One of each suffices.
    """
    center = None
    pattern = None
    for _ in range(cap):
        z = h.hadamard_sample()
        w = z.weight()
        if w == 1:
            center = z.support()[0]
        elif w >= 2:
            pattern = frozenset(z.support())
        if center is not None and pattern is not None:
            return center, pattern - {center}
    raise RetryBudgetError(f"center or leaf pattern still unseen after {cap} samples")


def learn_clique_graphstate(
    h: GraphOracle,
    target_nonzero: int | None = None,
) -> frozenset[int]:
    """Learn a clique's vertex set from Bell samples.

    Every nonzero y is supported inside the clique and covers each member
    with probability 1/2, so unioning a logarithmic number of nonzero
    supports captures all members.
    """
    n = h.n
    if target_nonzero is None:
        target_nonzero = 7 + math.ceil(math.log2(max(n, 2)))
    cap = max(20, 4 * target_nonzero)
    members: set[int] = set()
    seen_nonzero = 0
    for _ in range(cap):
        _, y = h.bell_sample()
        if y.bits == 0:
            continue
        members |= set(y.support())
        seen_nonzero += 1
        if seen_nonzero == target_nonzero:
            return frozenset(members)
    raise RetryBudgetError(
        f"only {seen_nonzero}/{target_nonzero} informative samples in {cap}"
    )
