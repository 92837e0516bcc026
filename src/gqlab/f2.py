"""Bit-packed linear algebra over GF(2).

A vector is a Python integer (a word), bit ``i`` holding coordinate ``i``;
a matrix is a sequence of row words, bit ``j`` of a row holding column
``j``.  XOR on a whole row is therefore a single word-level operation
regardless of length, which keeps Gaussian elimination cheap at the trial
counts the experiment harness runs (10^4 .. 10^6 solves).
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "from_support",
    "matvec",
    "solve",
    "rank",
    "random_block",
    "random_matrix",
    "random_vector",
    "support",
    "transpose_words",
    "xor_rows",
]


def support(word: int) -> list[int]:
    """The set coordinates of a word, in increasing order."""
    out = []
    while word:
        low = word & -word
        out.append(low.bit_length() - 1)
        word ^= low
    return out


def from_support(items: Iterable[int], n: int) -> int:
    """The word of length ``n`` whose set coordinates are ``items``."""
    word = 0
    for i in items:
        # coerce numpy integers; a raw int64 would wrap in the shift
        i = operator.index(i)
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for length {n}")
        word |= 1 << i
    return word


def transpose_words(rows: Sequence[int], ncols: int) -> list[int]:
    """Transpose a packed bit block given as a sequence of row words."""
    out = [0] * ncols
    for i, r in enumerate(rows):
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= 1 << i
            r ^= low
    return out


def xor_rows(masks: Iterable[int], rows: Sequence[int]) -> list[int]:
    """Entry i is the XOR of ``rows[u]`` over the set bits u of ``masks[i]``.

    With the masks as the rows of a packed matrix M and ``rows`` the rows of
    R, this is the packed product M R.
    """
    out = []
    for m in masks:
        acc = 0
        while m:
            low = m & -m
            acc ^= rows[low.bit_length() - 1]
            m ^= low
        out.append(acc)
    return out


def matvec(rows: Sequence[int], vec: int) -> int:
    """Matrix-vector product over GF(2): bit i is the parity of ``rows[i] & vec``."""
    bits = 0
    for i, r in enumerate(rows):
        bits |= ((r & vec).bit_count() & 1) << i
    return bits


def _eliminate(rows: list[int], width: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form in-place; returns (rows, pivot columns)."""
    pivots: list[int] = []
    rank_ = 0
    for col in range(width):
        bit = 1 << col
        pivot_row = None
        for i in range(rank_, len(rows)):
            if rows[i] & bit:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank_], rows[pivot_row] = rows[pivot_row], rows[rank_]
        word = rows[rank_]
        for i in range(len(rows)):
            if i != rank_ and rows[i] & bit:
                rows[i] ^= word
        pivots.append(col)
        rank_ += 1
    return rows, pivots


def rank(rows: Sequence[int], ncols: int) -> int:
    _, pivots = _eliminate(list(rows), ncols)
    return len(pivots)


def solve(
    rows: Sequence[int], ncols: int, rhs: int
) -> tuple[int, list[int]] | None:
    """Solve ``M x = rhs`` over GF(2) for the matrix with these row words.

    Returns ``(particular, nullspace_basis)`` as words of ``ncols`` bits, or
    None when the system is inconsistent.  The solution set is
    ``particular`` plus the span of the basis; an empty basis certifies
    uniqueness.
    """
    if rhs < 0 or rhs >> len(rows):
        raise ValueError("dimension mismatch")
    w = ncols
    if any(r < 0 or r >> w for r in rows):
        raise ValueError("row has bits outside the declared width")
    aug = [r | ((rhs >> i) & 1) << w for i, r in enumerate(rows)]
    aug, pivots = _eliminate(aug, w)
    rhs_bit = 1 << w
    for r in aug[len(pivots):]:
        if r & rhs_bit:
            return None
    particular = 0
    for i, col in enumerate(pivots):
        if aug[i] & rhs_bit:
            particular |= 1 << col
    pivot_set = set(pivots)
    basis = []
    for free in range(w):
        if free in pivot_set:
            continue
        vec = 1 << free
        for i, col in enumerate(pivots):
            if (aug[i] >> free) & 1:
                vec |= 1 << col
        basis.append(vec)
    return particular, basis


def random_vector(n: int, rng: np.random.Generator) -> int:
    """A uniform word of ``n`` bits."""
    if n == 0:
        return 0
    raw = int.from_bytes(rng.bytes((n + 7) // 8), "little")
    return raw & ((1 << n) - 1)


def random_block(n: int, k: int, rng: np.random.Generator) -> list[int]:
    """n packed row words of k bits; column i is the i-th of k ``random_vector`` draws.

    ``rng.bytes(nb)`` reads ceil(nb/4) uint32 words and keeps their first nb
    little-endian bytes, so one ``integers`` call of k such rows leaves the
    same columns and the same generator state as k sequential draws.
    """
    nb = (n + 7) // 8
    words = rng.integers(0, 1 << 32, size=(k, (nb + 3) // 4), dtype=np.uint32)
    raw = words.astype("<u4", copy=False).view(np.uint8)[:, :nb]
    cols = np.unpackbits(raw, axis=1, count=n, bitorder="little")
    packed = np.packbits(cols.T, axis=1, bitorder="little").tobytes()
    w = (k + 7) // 8
    return [int.from_bytes(packed[i * w:(i + 1) * w], "little") for i in range(n)]


def random_matrix(nrows: int, ncols: int, rng: np.random.Generator) -> list[int]:
    """Row words of a matrix with i.i.d. uniform entries."""
    return [random_vector(ncols, rng) for _ in range(nrows)]
