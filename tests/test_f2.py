"""GF(2) core checked against entrywise and exhaustive reference computations."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gqlab.f2 import (
    from_support,
    matvec,
    random_block,
    random_matrix,
    random_vector,
    rank,
    solve,
    support,
    transpose_words,
    xor_rows,
)


def entrywise_matvec(rows: list[list[int]], vec: list[int]) -> list[int]:
    """Reference product: explicit sum of entry products mod 2."""
    return [sum(r[j] * vec[j] for j in range(len(vec))) % 2 for r in rows]


def span_size_rank(rows: list[int]) -> int:
    """Reference rank: log2 of the size of the row span."""
    span = {0}
    for r in rows:
        span |= {x ^ r for x in span}
    return len(span).bit_length() - 1


def as_lists(rows: list[int], ncols: int) -> list[list[int]]:
    return [[(r >> j) & 1 for j in range(ncols)] for r in rows]


class TestBitVector:
    """A vector is an int word; support and from_support convert to and from
    its list of set coordinates."""

    def test_round_trips(self):
        assert support(0b01101) == [0, 2, 3]
        assert support(0) == []
        assert from_support([0, 2, 3], 5) == 0b01101
        assert from_support([], 0) == 0
        wide = (1 << 200) | (1 << 64) | 1
        assert support(wide) == [0, 64, 200]
        assert from_support(support(wide), 201) == wide
        assert from_support(np.array([0, 64, 200]), 201) == wide
        rng = np.random.default_rng(17)
        for n in (1, 7, 64, 65, 300):
            word = random_vector(n, rng)
            assert from_support(support(word), n) == word
            assert all(0 <= i < n for i in support(word))

    def test_out_of_range_bits_rejected(self):
        for items, n in (([3], 3), ([-1], 4), ([0, 5], 5), ([0], 0)):
            with pytest.raises(ValueError):
                from_support(items, n)
        with pytest.raises(TypeError):
            from_support([1.0], 4)

    def test_basis(self):
        assert support(1 << 2) == [2]
        assert from_support([2], 4) == 1 << 2


class TestMatvec:
    def test_identity_fixes_vectors(self):
        identity = [0b0001, 0b0010, 0b0100, 0b1000]
        assert matvec(identity, 0b1101) == 0b1101

    def test_matches_entrywise_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            r, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            mat = random_matrix(r, c, rng)
            vec = random_vector(c, rng)
            expect = entrywise_matvec(as_lists(mat, c), [(vec >> j) & 1 for j in range(c)])
            assert matvec(mat, vec) == from_support(
                [i for i, bit in enumerate(expect) if bit], r
            )

    def test_xor_rows_is_the_packed_product(self):
        # column j of M R is M times column j of R
        rng = np.random.default_rng(13)
        for _ in range(200):
            r, c, w = (int(x) for x in rng.integers(1, 70, size=3))
            mat = random_matrix(r, c, rng)
            right = random_matrix(c, w, rng)
            product_cols = transpose_words(xor_rows(mat, right), w)
            right_cols = transpose_words(right, w)
            for j in range(w):
                assert product_cols[j] == matvec(mat, right_cols[j])
        assert xor_rows([], [1, 2]) == []

    @given(st.integers(0, 2**12 - 1), st.integers(0, 2**12 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, a, b, data):
        rows = data.draw(st.lists(st.integers(0, 2**12 - 1), min_size=1, max_size=8))
        assert matvec(rows, a ^ b) == matvec(rows, a) ^ matvec(rows, b)


class TestRank:
    def test_known_singular_matrix(self):
        # rows: r0, r1, r0^r1 -> rank 2
        assert rank([0b1010, 0b0110, 0b1100], 4) == 2

    def test_matches_span_size_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            r, c = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            mat = random_matrix(r, c, rng)
            assert rank(mat, c) == span_size_rank(mat)

    def test_identity_full_rank(self):
        assert rank([1 << i for i in range(9)], 9) == 9


class TestSolve:
    def exhaustive_solutions(self, rows: list[int], ncols: int, rhs: int) -> set[int]:
        return {x for x in range(1 << ncols) if matvec(rows, x) == rhs}

    def solution_set(self, out) -> set[int]:
        particular, basis = out
        got = {particular}
        for b in basis:
            got |= {x ^ b for x in got}
        return got

    def test_known_3x3_system(self):
        # x0+x1 = 1, x1+x2 = 0, x0+x2 = 1 has exactly two solutions: 001 and 110.
        rows = [0b011, 0b110, 0b101]
        rhs = 0b101
        expect = self.exhaustive_solutions(rows, 3, rhs)
        assert expect == {0b001, 0b110}
        out = solve(rows, 3, rhs)
        assert out is not None
        assert self.solution_set(out) == expect

    def test_solution_set_matches_exhaustive(self):
        rng = np.random.default_rng(23)
        checked_inconsistent = 0
        for _ in range(300):
            r, c = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            mat = random_matrix(r, c, rng)
            rhs = random_vector(r, rng)
            expect = self.exhaustive_solutions(mat, c, rhs)
            out = solve(mat, c, rhs)
            if not expect:
                assert out is None
                checked_inconsistent += 1
                continue
            assert out is not None
            assert all(b >> c == 0 for b in out[1])
            assert self.solution_set(out) == expect
        assert checked_inconsistent > 10

    def test_full_rank_square_inverts_matvec(self):
        rng = np.random.default_rng(5)
        found = 0
        while found < 50:
            mat = random_matrix(6, 6, rng)
            if rank(mat, 6) < 6:
                continue
            found += 1
            x = random_vector(6, rng)
            out = solve(mat, 6, matvec(mat, x))
            assert out is not None
            particular, basis = out
            assert basis == []
            assert particular == x

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            solve([0b01, 0b10], 2, 0b100)
        with pytest.raises(ValueError):
            solve([0b100], 2, 0)


class TestRandomMatrix:
    def test_entry_frequency_near_half(self):
        rng = np.random.default_rng(41)
        ones = sum(random_matrix(1, 1, rng)[0] for _ in range(100_000))
        assert abs(ones / 100_000 - 0.5) < 0.01

    def test_non_full_rank_frequency_bound(self):
        # For random k x d with k >= d the non-full-rank rate stays below
        # 4 * 2^-(k-d); checked by direct counting.
        rng = np.random.default_rng(97)
        for k, d in [(6, 4), (8, 4), (10, 6)]:
            bad = sum(
                rank(random_matrix(k, d, rng), d) < d for _ in range(10_000)
            )
            assert bad / 10_000 <= 4 * 2 ** -(k - d)


@pytest.mark.parametrize("k", [0, 1, 3, 50, 63, 64, 65, 128, 130])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 31, 32, 33, 64, 65, 128, 300])
def test_random_block_matches_repeated_random_vector(n, k):
    # the block's columns are the draws, in order, of k random_vector calls,
    # and the generator is left where those calls leave it
    block_rng = np.random.default_rng(1000 * n + k)
    single_rng = np.random.default_rng(1000 * n + k)
    rows = random_block(n, k, block_rng)
    cols = [random_vector(n, single_rng) for _ in range(k)]
    assert len(rows) == n
    assert all(r >> k == 0 for r in rows)
    assert transpose_words(rows, k) == cols
    assert block_rng.random() == single_rng.random()


def test_transpose_words_round_trip():
    rng = np.random.default_rng(3)
    mat = random_matrix(7, 13, rng)
    cols = transpose_words(mat, 13)
    for j in range(13):
        assert cols[j] == sum(((r >> j) & 1) << i for i, r in enumerate(mat))
    assert transpose_words(cols, 7) == mat


@given(st.lists(st.integers(0, 2**10 - 1), min_size=1, max_size=10))
@settings(max_examples=80, deadline=None)
def test_rank_bounds(rows):
    r = rank(rows, 10)
    assert 0 <= r <= min(len(rows), 10)
    assert rank(transpose_words(rows, 10), len(rows)) == r
