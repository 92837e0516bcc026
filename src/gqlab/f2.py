"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are stored as Python integers, bit ``i`` holding
coordinate ``i``.  XOR on a whole row is therefore a single word-level
operation regardless of length, which keeps Gaussian elimination cheap at
the trial counts the experiment harness runs (10^4 .. 10^6 solves).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BitVector",
    "BitMatrix",
    "matvec",
    "solve",
    "rank",
    "random_block",
    "random_matrix",
    "random_vector",
    "transpose_words",
    "xor_rows",
]


def _mask(n: int) -> int:
    return (1 << n) - 1


class BitVector:
    """Immutable vector over GF(2) with ``n`` coordinates."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("length must be nonnegative")
        if bits < 0 or bits >> n:
            raise ValueError("bits outside the declared length")
        self.n = n
        self.bits = bits

    @classmethod
    def from_bits(cls, values: Iterable[int]) -> "BitVector":
        bits = 0
        n = 0
        for v in values:
            if v:
                bits |= 1 << n
            n += 1
        return cls(n, bits)

    @classmethod
    def from_support(cls, support: Iterable[int], n: int) -> "BitVector":
        bits = 0
        for i in support:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for length {n}")
            bits |= 1 << i
        return cls(n, bits)

    @classmethod
    def basis(cls, n: int, i: int) -> "BitVector":
        return cls.from_support([i], n)

    def get(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> list[int]:
        out = []
        b = self.bits
        while b:
            low = b & -b
            out.append(low.bit_length() - 1)
            b ^= low
        return out

    def __xor__(self, other: "BitVector") -> "BitVector":
        if other.n != self.n:
            raise ValueError("length mismatch")
        return BitVector(self.n, self.bits ^ other.bits)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitVector)
            and other.n == self.n
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return "".join(str(self.get(i)) for i in range(self.n))


class BitMatrix:
    """Row-major bit-packed matrix over GF(2); bit ``j`` of a row is column ``j``."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Sequence[int]):
        if len(rows) != nrows:
            raise ValueError("row count mismatch")
        m = _mask(ncols)
        for r in rows:
            if r < 0 or r & ~m:
                raise ValueError("row has bits outside the declared width")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = tuple(rows)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "BitMatrix":
        return cls(nrows, ncols, [0] * nrows)

    def row(self, i: int) -> BitVector:
        return BitVector(self.ncols, self.rows[i])

    def column(self, j: int) -> BitVector:
        bits = 0
        for i, r in enumerate(self.rows):
            bits |= ((r >> j) & 1) << i
        return BitVector(self.nrows, bits)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitMatrix)
            and other.nrows == self.nrows
            and other.ncols == self.ncols
            and other.rows == self.rows
        )

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self) -> str:
        return "\n".join(repr(self.row(i)) for i in range(self.nrows))


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


def matvec(mat: BitMatrix, vec: BitVector) -> BitVector:
    """Matrix-vector product over GF(2)."""
    if vec.n != mat.ncols:
        raise ValueError("dimension mismatch")
    bits = 0
    v = vec.bits
    for i, r in enumerate(mat.rows):
        bits |= ((r & v).bit_count() & 1) << i
    return BitVector(mat.nrows, bits)


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


def rank(mat: BitMatrix) -> int:
    rows = list(mat.rows)
    _, pivots = _eliminate(rows, mat.ncols)
    return len(pivots)


def solve(
    mat: BitMatrix, rhs: BitVector
) -> tuple[BitVector, list[BitVector]] | None:
    """Solve ``mat @ x = rhs`` over GF(2).

    Returns ``(particular, nullspace_basis)``, or None when the system is
    inconsistent.  The solution set is ``particular`` plus the span of the
    basis; an empty basis certifies uniqueness.
    """
    if rhs.n != mat.nrows:
        raise ValueError("dimension mismatch")
    w = mat.ncols
    aug = [mat.rows[i] | (rhs.get(i) << w) for i in range(mat.nrows)]
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
        basis.append(BitVector(w, vec))
    return BitVector(w, particular), basis


def random_vector(n: int, rng: np.random.Generator) -> BitVector:
    if n == 0:
        return BitVector(0, 0)
    raw = int.from_bytes(rng.bytes((n + 7) // 8), "little")
    return BitVector(n, raw & _mask(n))


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


def random_matrix(nrows: int, ncols: int, rng: np.random.Generator) -> BitMatrix:
    """Matrix with i.i.d. uniform entries."""
    return BitMatrix(
        nrows, ncols, [random_vector(ncols, rng).bits for _ in range(nrows)]
    )
