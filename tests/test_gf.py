import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pairsel import gf

PRIMES = [2, 3, 5, 7, 11, 13]


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        gf.FieldMatrix.from_rows([[1]], 6)
    with pytest.raises(ValueError):
        gf.FieldMatrix.from_rows([[1]], 9)


def test_modulus_upper_bound():
    with pytest.raises(ValueError):
        gf.check_modulus(2**31 + 11)


@pytest.mark.parametrize("n,expected", [(1, False), (2, True), (3, True), (4, False),
                                        (25, False), (97, True), (2**31 - 1, True)])
def test_is_prime(n, expected):
    assert gf.is_prime(n) is expected


def _identity(n, q):
    return gf.FieldMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], q)


def test_rank_identity():
    assert _identity(4, 2).rank() == 4


def test_rank_zero_matrix():
    assert gf.FieldMatrix.from_rows([[0] * 5] * 3, 3).rank() == 0


def test_rank_equal_rows_gf2():
    assert gf.FieldMatrix.from_rows([[1, 1], [1, 1]], 2).rank() == 1


def test_multiply_identity():
    b = gf.FieldMatrix.from_rows([[1, 2], [3, 4], [0, 1]], 5)
    assert _identity(3, 5).multiply(b) == b


def test_multiply_gf2_cancellation():
    a = gf.FieldMatrix.from_rows([[1, 1]], 2)
    b = gf.FieldMatrix.from_rows([[1], [1]], 2)
    assert a.multiply(b).entries == ((0,),)


def test_multiply_gf5():
    a = gf.FieldMatrix.from_rows([[2, 3]], 5)
    b = gf.FieldMatrix.from_rows([[1], [4]], 5)
    assert a.multiply(b).entries == ((4,),)


def test_multiply_dimension_mismatch():
    a = _identity(2, 5)
    b = _identity(3, 5)
    with pytest.raises(ValueError):
        a.multiply(b)


def test_multiply_modulus_mismatch():
    a = _identity(2, 5)
    b = _identity(2, 7)
    with pytest.raises(ValueError):
        a.multiply(b)


def test_random_matrix_seed_determinism():
    m1 = gf.random_matrix(6, 4, 7, gf.substream(42, "matrix"))
    m2 = gf.random_matrix(6, 4, 7, gf.substream(42, "matrix"))
    m3 = gf.random_matrix(6, 4, 7, gf.substream(43, "matrix"))
    assert m1 == m2
    assert m1 != m3


def test_substream_label_separation():
    a = gf.substream(1, "x").integers(0, 1 << 30, size=8)
    b = gf.substream(1, "y").integers(0, 1 << 30, size=8)
    assert list(a) != list(b)


def test_random_matrix_full_rank_probability():
    # Pr[rank = 3] for 8x3 over GF(2) is at least 1 - 2^-5.
    rng = gf.substream(7, "rank-prob")
    trials = 100_000
    bound = 1 - 1 / 2**5
    full = sum(gf.random_matrix(8, 3, 2, rng).rank() == 3 for _ in range(trials))
    p_hat = full / trials
    sigma = (bound * (1 - bound) / trials) ** 0.5
    assert p_hat >= bound - 3 * sigma


def test_random_matrix_entry_uniformity():
    rng = gf.substream(5, "chi2")
    m = gf.random_matrix(1000, 100, 5, rng)
    counts = np.bincount([v for row in m.entries for v in row], minlength=5)
    _, pvalue = stats.chisquare(counts)
    assert pvalue > 1e-3


@given(st.sampled_from(PRIMES), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_rank_of_product_bounded(q, a, b, c, seed):
    rng = gf.substream(seed, "prod")
    m1 = gf.random_matrix(a, b, q, rng)
    m2 = gf.random_matrix(b, c, q, rng)
    assert m1.multiply(m2).rank() <= min(m1.rank(), m2.rank())


@given(st.sampled_from(PRIMES), st.integers(2, 5), st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_row_permutation(q, r, c, seed):
    rng = gf.substream(seed, "perm")
    m = gf.random_matrix(r, c, q, rng)
    perm = rng.permutation(r)
    shuffled = gf.FieldMatrix.from_rows([m.entries[int(i)] for i in perm], q)
    assert shuffled.rank() == m.rank()


@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_rank_counts_distinct_row_combinations(q, r, c, data):
    # Brute-force oracle: a row space of dimension k has exactly q^k points.
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=c, max_size=c),
                              min_size=r, max_size=r))
    points = {
        tuple(sum(a * x for a, x in zip(coeffs, col)) % q for col in zip(*rows))
        for coeffs in itertools.product(range(q), repeat=r)
    }
    assert len(points) == q ** gf.FieldMatrix.from_rows(rows, q).rank()


def test_rank_does_not_mutate_input():
    m = gf.FieldMatrix.from_rows([[1, 2], [2, 4]], 5)
    before = m.entries
    assert m.rank() == 1
    assert m.entries == before


def test_packed_basis_span_queries():
    basis = gf.PackedBasis(3)
    assert basis.add(0b001)
    assert basis.add(0b010)
    assert not basis.add(0b011)  # dependent on the first two
    assert basis.contains(0b011)
    assert not basis.contains(0b100)
    assert basis.rank == 2
    assert not basis.add(0)
    with pytest.raises(IndexError):
        basis.add(0b1000)  # outside GF(2)^3


def test_mod_basis_span_queries():
    basis = gf.ModBasis(5, 2)
    assert basis.add((1, 2))
    assert not basis.add((2, 4))  # scalar multiple
    assert basis.add((0, 1))
    assert basis.rank == 2
    assert basis.contains((3, 3))


def test_pack_unpack_roundtrip():
    assert gf.pack_bits((1, 0, 1, 1, 0)) == 0b01101


def test_column_vector_convention():
    m2 = gf.FieldMatrix.from_rows([[1, 0], [1, 1]], 2)
    assert m2.column_vector(0) == 0b11
    m5 = gf.FieldMatrix.from_rows([[1, 0], [2, 1]], 5)
    assert m5.column_vector(0) == (1, 2)
