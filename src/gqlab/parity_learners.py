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
from typing import Iterable, Iterator, Sequence

import numpy as np

from gqlab import f2
from gqlab.errors import AmbiguityError, RetryBudgetError, ScaleError, ViolationError
from gqlab.graphs import Graph
from gqlab.oracles import GraphOracle

__all__ = [
    "SampleBatch",
    "collect_samples",
    "learn_from_family",
    "learn_bounded_degree",
    "learn_subgraph_of",
    "learn_bounded_edges_parity",
    "learn_arbitrary_parity",
    "learn_star_graphstate",
    "learn_clique_graphstate",
]

@dataclass(frozen=True)
class SampleBatch:
    """k samples as columns: column i of B is s_i, column i of Y is A s_i.

    B and Y are n row words of k bits each.  Rows are the useful view for
    learning: row v of Y lists v's observed parity bits, and row u of B is
    the coefficient of a_v[u] in each of them.
    """

    B: tuple[int, ...]
    Y: tuple[int, ...]
    k: int

    @property
    def n(self) -> int:
        return len(self.B)

    def audit(self, graph: Graph) -> bool:
        """Whether Y = A B: row v of Y is the XOR of B's rows over v's neighbors.

        The rows of ``f2.xor_rows(graph.adj_bits, B)`` are formed one at a
        time, and the check stops at the first that differs from Y.
        """
        if graph.n != self.n:
            raise ValueError("graph width does not match the batch")
        for mask, y in zip(graph.adj_bits, self.Y):
            acc = 0
            while mask:
                low = mask & -mask
                acc ^= self.B[low.bit_length() - 1]
                mask ^= low
            if acc != y:
                return False
        return True


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
        rows_b = [old | new << extend.k for old, new in zip(extend.B, rows_b)]
        rows_y = [old | new << extend.k for old, new in zip(extend.Y, rows_y)]
        k += extend.k
    return SampleBatch(tuple(rows_b), tuple(rows_y), k)


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


def _assemble(rows: Sequence[int]) -> Graph:
    """The graph whose rows these are; every neighbor claim must be returned,
    so a claim ``Graph.from_rows`` refuses raises AmbiguityError."""
    try:
        return Graph.from_rows(rows)
    except ValueError as exc:
        raise AmbiguityError(f"row assembly is not symmetric: {exc}") from exc


def _audited(rows: Sequence[int], batch: SampleBatch) -> Graph:
    """``_assemble``, then checked against every sample the learner drew.

    The sparse decoder's columns are the vertices that were non-isolated in
    phase 1, so it drops an edge whose two endpoints both read 0 there; the
    batch contradicts such a graph, which raises AmbiguityError.  No query
    is spent.
    """
    graph = _assemble(rows)
    if not batch.audit(graph):
        raise AmbiguityError(f"the assembled graph contradicts its {batch.k} samples")
    return graph


def _count_supports(n_items: int, w: int) -> int:
    """C(n_items, <=w): the number of supports of weight at most w."""
    return sum(math.comb(n_items, l) for l in range(min(w, n_items) + 1))


# the row decoder refuses when its support table would hold more entries than
# _MAX_TABLE or its join could form more keys than _MAX_KEYS (time: about
# 80 ns a key, so 5 s).  Memory: a decode peaks near 100 bytes an entry, so
# about 420 MB (even d, whose one-row key block spans the whole table, at
# n' = 2000), counting the support index, which keeps 25 bytes an entry at
# weight 2 and 33 at weight 3 after the call (about 105 and 140 MB)
_MAX_TABLE = 1 << 22
_MAX_KEYS = 1 << 26

# the join handles rows in blocks of about this many (row, small-table) keys;
# at n' = 1000, d = 2 blocks of 2^18 decoded faster than one of 2^20, at
# well under half the peak memory
_JOIN_BLOCK = 1 << 18

# the lowest position recorded for the empty support: above every position
_PAST = np.iinfo(np.intp).max

# weight bound -> (columns covered, positions, weights, lowest positions) of
# every support of weight <= the bound; see _support_index
_INDEX: dict[int, tuple[int, np.ndarray, np.ndarray, np.ndarray]] = {}


def _limbs(words: Sequence[int], width: int) -> np.ndarray:
    """Words of ``width`` bits as a (len, L) array of uint64 limbs, low limb first."""
    if width <= 64:
        out = np.empty((len(words), 1), dtype=np.uint64)
        out[:, 0] = words
        return out
    size = -(-width // 64)
    raw = b"".join(w.to_bytes(8 * size, "little") for w in words)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(len(words), size)


def _support_index(count: int, w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every support of weight <= w over positions 0..count-1: ``(cols, weight, first)``.

    Entries are ordered by highest position after the empty support, entry
    0, so the supports over the first n' positions are the first
    C(n', <=w) entries whatever ``count`` is.  Column e of ``cols``
    (max(w, 1) rows) holds entry e's positions ascending, padded with -1
    in front; ``first`` is its lowest position (``_PAST`` for entry 0).
    The index of each weight bound is built on first use, kept, and
    extended only when a larger ``count`` arrives; slices of it are
    returned.
    """
    have, cols, weight, first = _INDEX.get(w) or (
        0, np.full((max(w, 1), 1), -1, dtype=np.intp), np.zeros(1, dtype=np.int8),
        np.full(1, _PAST, dtype=np.intp),
    )
    if w and count > have:
        # the supports whose highest position is j add j to those of weight
        # <= w - 1 below j, the first C(j, <=w-1) entries of that index
        low_cols, low_weight, low_first = _support_index(count, w - 1)
        sizes = np.array([_count_supports(j, w - 1) for j in range(have, count)])
        src = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        top = np.repeat(np.arange(have, count), sizes)
        new_cols = np.vstack([low_cols[:, src], top]) if w > 1 else top[None]
        cols = np.concatenate([cols, new_cols], axis=1)
        weight = np.concatenate([weight, low_weight[src] + 1])
        first = np.concatenate([first, np.where(low_weight[src] > 0, low_first[src], top)])
    _INDEX[w] = max(have, count), cols, weight, first
    size = _count_supports(count, w)
    return cols[:, :size], weight[:size], first[:size]


def _sort(values: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """``values``, uint64 words below 2^bits, sorted, and the order that sorts them.

    When each value fits above its index in one 64-bit word, the packed
    words are sorted by value, which is about twice as fast as an argsort;
    otherwise argsort.
    """
    shift = (len(values) - 1).bit_length()
    if bits + shift > 64:
        order = np.argsort(values)
        return values.take(order), order
    packed = np.sort(values << shift | np.arange(len(values), dtype=np.uint64))
    return packed >> shift, (packed & ((1 << shift) - 1)).astype(np.intp)


def _support_table(sigs: np.ndarray, w: int):
    """Every support of weight <= w over the rows of ``sigs``: ``(sig, weight, first, cols)``.

    The index's prefix for ``len(sigs)`` positions (``_support_index``),
    with each entry's XOR of signatures, one fancy-indexed XOR per row of
    ``cols``; the padding -1 reads an appended zero signature.
    """
    cols, weight, first = _support_index(len(sigs), w)
    padded = np.concatenate([sigs, np.zeros((1, sigs.shape[1]), dtype=np.uint64)])
    sig = padded.take(cols[0], axis=0)
    for row in cols[1:]:
        sig ^= padded.take(row, axis=0)
    return sig, weight, first, cols


def _lone_supports(
    rows: np.ndarray,
    sig: np.ndarray,
    weight: np.ndarray,
    order: np.ndarray,
    low: np.ndarray,
    spare: int,
) -> np.ndarray:
    """The table entry that is each row's only support of weight <= d, or -1.

    ``sig`` and ``weight`` are the table of weight <= h = ceil(d/2), ``order``
    sorts its low limbs into ``low`` and ``spare`` is 2h - d.  If no two entries
    share their low limbs, no nonzero dependency of weight <= 2h exists, so a
    row equal to an entry of weight a <= spare has no second support of
    weight <= d: the two would XOR to a dependency of weight <= a + d <= 2h.
    """
    lone = np.full(len(rows), -1, dtype=np.intp)
    if np.any(low[1:] == low[:-1]):
        return lone
    entry = order[np.searchsorted(low, rows[:, 0]).clip(max=len(low) - 1)]
    hit = (weight[entry] <= spare) & (sig[entry] == rows).all(axis=1)
    lone[hit] = entry[hit]
    return lone


def _decode_rows(
    sigs: Sequence[int],
    targets: Sequence[int],
    width: int,
    d: int,
) -> Iterator[list[tuple[int, ...]]]:
    """For each target in order, every support of weight <= d whose signatures XOR to it.

    Signatures and targets are words of at most ``width`` bits; a support is
    a tuple of ascending positions in ``sigs``.  The search meets in the
    middle (Stern 1988) with a canonical split: support S pairs its
    floor(|S|/2) lowest positions P, from the table of weight <= floor(d/2),
    with the rest Q, from the table of weight <= ceil(d/2).  A pair is kept
    only when 0 <= |Q| - |P| <= 1 and P lies wholly below Q, so every
    support is found exactly once.  Both tables are prefixes of the cached
    support index (``_support_index``), so a call forms only their
    signatures, and a match's positions are read straight from the index.
    All rows join at once: the keys ``target ^ sig(P)`` are sorted and
    searched in the big table's sorted low limbs, runs of equal low limbs
    are expanded when the table has any, and the higher limbs are compared
    on the survivors.  A target's supports come in the order of their keys.
    Rows go in blocks of ``_JOIN_BLOCK // n_small`` (at least one), and a
    caller that stops early skips the rest.  A block holds about
    ``_JOIN_BLOCK`` keys until the small table outgrows that; then it is
    one row against the whole small table, the big one at even d.

    A row the big table certifies skips the join (``_lone_supports``): if
    the table's signatures are distinct, no dependency of weight
    <= 2 ceil(d/2) exists, so a row equal to an entry of weight a with
    a + d <= 2 ceil(d/2) has no other support of weight <= d.  For odd d
    that is every row equal to one column's signature.
    """
    half = (d + 1) // 2
    limbs = _limbs(sigs, width)
    sig, weight, first, cols = _support_table(limbs, half)
    small_sig, small_weight, _, small_cols = (
        (sig, weight, first, cols) if d % 2 == 0 else _support_table(limbs, half - 1)
    )
    n_small = len(small_weight)
    small_low = small_sig[:, 0]
    small_last = small_cols[-1]
    bits = min(width, 64)  # of a low limb
    big_low, big_order = _sort(sig[:, 0], bits)
    distinct = not np.any(big_low[1:] == big_low[:-1])
    is_position = (0).__le__

    def join(rows):
        """The supports of each of ``rows`` in order, one block of rows at a time."""
        step = max(1, _JOIN_BLOCK // n_small)
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            keys, order = _sort((block[:, :1] ^ small_low).ravel(), bits)
            lo = np.searchsorted(big_low, keys)
            hit = np.flatnonzero(big_low.take(lo, mode="clip") == keys)
            at, key = lo[hit], order[hit]
            if not distinct:  # each hit spans a run of equal low limbs
                run = np.searchsorted(big_low, keys[hit], "right") - at
                key = np.repeat(key, run)
                at = np.repeat(at - (np.cumsum(run) - run), run) + np.arange(run.sum())
            q = big_order[at]
            row, p = np.divmod(key, n_small)
            gap = weight[q] - small_weight[p]
            keep = (gap >= 0) & (gap <= 1) & (small_last[p] < first[q])
            if block.shape[1] > 1:
                high = block[row[keep], 1:] ^ small_sig[p[keep], 1:]
                keep[keep] = (high == sig[q[keep], 1:]).all(axis=1)
            # both halves' positions straight from the index, -1 padding dropped
            pos = np.concatenate([small_cols[:, p[keep]], cols[:, q[keep]]]).T.tolist()
            found = [[] for _ in range(len(block))]
            for r, entry in zip(row[keep].tolist(), pos):
                found[r].append(tuple(filter(is_position, entry)))
            yield from found

    rows_all = _limbs(targets, width)
    lone = _lone_supports(rows_all, sig, weight, big_order, big_low, 2 * half - d)
    joined = join(rows_all[lone < 0])
    # a certified entry has weight <= 1: one column, or the empty support
    for entry, col in zip(lone.tolist(), cols[-1, lone].tolist()):
        yield next(joined) if entry < 0 else [(col,) if col >= 0 else ()]


def _sparse_rows(
    h: GraphOracle,
    d: int,
    m_guess: int,
    slack: int,
    parity: bool,
) -> tuple[list[int], list[int], SampleBatch]:
    """Rows of weight at most d from two fixed blocks of samples.

    Phase 1 takes ceil(log2 m_guess) + slack samples; the nonzero rows of Y
    are the non-isolated vertices.  Phase 2 adds ceil(d log2(n'/d)) + slack
    samples, and ``_decode_rows`` finds each non-isolated row's weight-<=d
    explanations over the non-isolated columns.  Returns the row words, the
    vertices in ascending order whose row has no explanation (their word is
    0), and the whole batch.  A row with two explanations raises
    AmbiguityError.  A decode past ``_MAX_TABLE`` table entries,
    C(n', <=ceil(d/2)), or ``_MAX_KEYS`` join keys, n' C(n', <=floor(d/2)),
    raises ScaleError before phase 2 draws.  With ``parity`` each sample
    costs two parity queries instead of two state copies.
    """
    n = h.n
    l = math.ceil(math.log2(max(m_guess, 2))) + slack
    batch = collect_samples(h, l, parity=parity)
    nonzero = [v for v in range(n) if batch.Y[v] != 0]
    rows = [0] * n
    if not nonzero:
        return rows, [], batch

    nprime = len(nonzero)
    # n' fixes the decoder's size, so a decode that cannot run is refused
    # before phase 2 spends its samples
    entries = _count_supports(nprime, (d + 1) // 2)
    if entries > _MAX_TABLE:
        raise ScaleError(
            f"{entries} weight-<={(d + 1) // 2} supports over {nprime} columns "
            f"exceed the decoder's table bound {_MAX_TABLE}"
        )
    keys = nprime * _count_supports(nprime, d // 2)
    if keys > _MAX_KEYS:
        raise ScaleError(
            f"{keys} join keys for {nprime} rows at degree {d} "
            f"exceed the decoder's key bound {_MAX_KEYS}"
        )
    k = max(1, math.ceil(d * math.log2(max(2.0, nprime / d)))) + slack
    batch = collect_samples(h, k, extend=batch, parity=parity)

    sigs = [batch.B[u] for u in nonzero]
    targets = [batch.Y[v] for v in nonzero]
    bits = [1 << v for v in nonzero]
    over = []
    for v, found in zip(nonzero, _decode_rows(sigs, targets, batch.k, d)):
        if len(found) > 1:
            raise AmbiguityError(f"row {v} has multiple weight-<={d} explanations")
        if not found:
            over.append(v)
            continue
        word = 0
        for j in found[0]:
            word |= bits[j]
        rows[v] = word
    return rows, over, batch


def _solve_rows(h: GraphOracle, cand: Sequence[int], k: int) -> list[int]:
    """Each row v solved exactly over the columns set in ``cand[v]``.

    Draws k Bell samples and solves every row's system with ``f2.solve``; an
    underdetermined row pulls a top-up round of 8 fresh samples, up to ten,
    and an inconsistent one raises AmbiguityError.  Nothing is drawn when
    every mask is 0.
    """
    n = h.n
    rows = [0] * n
    pending = [v for v in range(n) if cand[v]]
    if not pending:
        return rows
    batch = collect_samples(h, k)
    for round_idx in range(11):
        if round_idx:
            batch = collect_samples(h, 8, extend=batch)
        still = []
        for v in pending:
            cols = f2.support(cand[v])
            system = f2.transpose_words([batch.B[u] for u in cols], batch.k)
            solution = f2.solve(system, len(cols), batch.Y[v])
            if solution is None:
                raise AmbiguityError(f"row {v}: inconsistent system")
            particular, nullspace = solution
            if nullspace:
                still.append(v)
                continue
            rows[v] = sum(1 << cols[j] for j in f2.support(particular))
        if not still:
            return rows
        pending = still
    raise AmbiguityError(f"{len(pending)} rows stayed underdetermined after 10 top-ups")


def learn_bounded_degree(
    h: GraphOracle,
    d: int,
    m_hint: int | None = None,
    slack: int = 7,
) -> Graph | None:
    """Learn a graph of max degree d from Bell samples, or None past the bound.

    The rows come from ``_sparse_rows`` with the m-guess ``m_hint`` (all
    n(n-1)/2 pairs by default), and the answer is audited against every
    sample drawn.  With d above n/4 the sparse search loses its edge; every
    row is solved exactly over all other vertices instead (``_solve_rows``,
    n - 1 + ceil(log2 n) + slack samples).  Either way a row with no
    weight-<=d explanation gives None rather than an error.
    """
    n = h.n
    if d < 1:
        raise ValueError("degree bound must be positive")
    if d > n / 4:
        every = (1 << n) - 1
        k = n - 1 + math.ceil(math.log2(max(n, 2))) + slack
        rows = _solve_rows(h, [every ^ 1 << v for v in range(n)], k)
        return None if any(r.bit_count() > d for r in rows) else _assemble(rows)
    m_guess = m_hint if m_hint is not None else n * (n - 1) // 2
    rows, over, batch = _sparse_rows(h, d, m_guess, slack, parity=False)
    return None if over else _audited(rows, batch)


# -- subgraph of a known graph ---------------------------------------------------------


def learn_subgraph_of(
    h: GraphOracle,
    gprime: Graph,
    d: int,
    slack: int = 7,
) -> Graph:
    """Learn a hidden subgraph of a known graph of max degree d.

    Row v has unknowns only over v's neighbors in the supergraph, so
    d + ceil(log2 n) + slack samples make every per-vertex system uniquely
    solvable with large margin (``_solve_rows``).
    """
    n = h.n
    if gprime.n != n:
        raise ValueError("supergraph width mismatch")
    if any(gprime.degree(v) > d for v in range(n)):
        raise ValueError("supergraph exceeds the claimed degree bound")
    k = d + math.ceil(math.log2(max(n, 2))) + slack
    return _assemble(_solve_rows(h, gprime.adj_bits, k))


# -- bounded edge count ------------------------------------------------------------------


def learn_bounded_edges_parity(
    h: GraphOracle,
    m: int,
    slack: int = 15,
) -> Graph:
    """Learn a graph promised to have at most m edges from parity queries.

    Splits rows at d = ceil(sqrt(m / log2(m+2))): sparse rows come from
    ``_sparse_rows`` with each sample realized as two parity queries, and
    every dense row is read exactly with one basis-vector query.  The answer
    is audited against every sample drawn.
    """
    if m < 0:
        raise ValueError("edge bound must be nonnegative")
    d = max(1, math.ceil(math.sqrt(m / math.log2(m + 2))))
    rows, over, batch = _sparse_rows(h, d, max(m, 1), slack, parity=True)
    for v in over:
        rows[v] = h.parity_vector_query(1 << v)
    # exact rows are complete, so a true claim is always reciprocated; an
    # unreciprocated one exposes a wrong sparse row
    graph = _audited(rows, batch)
    if graph.m > m:
        raise ViolationError(f"{graph.m} edges exceed the promise {m}")
    return graph


# -- unrestricted parity -------------------------------------------------------------------


def learn_arbitrary_parity(h: GraphOracle) -> Graph:
    """Read the adjacency matrix as A I, one block of n columns: 2n parity queries flat."""
    n = h.n
    return _assemble(h.parity_block_query([1 << i for i in range(n)], n))


# -- promised shapes from state samples ----------------------------------------------------


def learn_star_graphstate(h: GraphOracle) -> Graph:
    """Learn a star from X-basis measurements.

    Each sample lands on one of four equiprobable outcomes: zero, the
    center alone, the leaves, or the leaves with the center.  Weight one
    names the center and weight two or more gives the leaves once the
    center is cleared; one of each suffices.  A single edge has no
    determined center: either endpoint comes alone, and the answer is that
    edge whichever one does.
    """
    center = None
    pattern = 0
    for _ in range(200):
        z = h.hadamard_sample()
        w = z.bit_count()
        if w == 1:
            center = z.bit_length() - 1
        elif w >= 2:
            pattern = z
        if center is not None and pattern:
            return Graph.star(h.n, center, f2.support(pattern & ~(1 << center)))
    raise RetryBudgetError("center or leaf pattern still unseen after 200 samples")


def learn_clique_graphstate(h: GraphOracle) -> Graph:
    """Learn a clique from Bell samples.

    Every nonzero y is supported inside the clique and covers each member
    with probability 1/2, so unioning a logarithmic number of nonzero
    supports captures all members.
    """
    n = h.n
    target_nonzero = 7 + math.ceil(math.log2(max(n, 2)))
    cap = max(20, 4 * target_nonzero)
    members = 0
    seen_nonzero = 0
    for _ in range(cap):
        _, y = h.bell_sample()
        if y == 0:
            continue
        members |= y
        seen_nonzero += 1
        if seen_nonzero == target_nonzero:
            return Graph.clique(n, f2.support(members))
    raise RetryBudgetError(
        f"only {seen_nonzero}/{target_nonzero} informative samples in {cap}"
    )
