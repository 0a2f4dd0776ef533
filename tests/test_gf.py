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


def _row_space_size(rows, q) -> int:
    """Brute-force oracle: a row space of dimension k has exactly q^k points."""
    return len({
        tuple(sum(a * x for a, x in zip(coeffs, col)) % q for col in zip(*rows))
        for coeffs in itertools.product(range(q), repeat=len(rows))
    })


@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_rank_counts_distinct_row_combinations(q, r, c, data):
    rows = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=c, max_size=c),
                              min_size=r, max_size=r))
    assert _row_space_size(rows, q) == q ** gf.FieldMatrix.from_rows(rows, q).rank()


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


# --- stacked kernels ------------------------------------------------------------


def _stack(q, rows, cols, kind, seed):
    """20 matrices of one shape: all zero, random, or of full rank."""
    rng = gf.substream(seed, "stack", q, rows, cols, kind)
    stack = rng.integers(0, q, (20, rows, cols))
    if kind == "zero":
        stack[:] = 0
    elif kind == "full":
        k = min(rows, cols)
        stack[:, :k, :k] = np.triu(stack[:, :k, :k], 1)
        stack[:, range(k), range(k)] = rng.integers(1, q, (20, k))
    return stack


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from(["zero", "random", "full"]), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_stacked_rank_matches_field_matrix_and_brute_force(q, rows, cols, kind, seed):
    stack = _stack(q, rows, cols, kind, seed)
    ranks = gf.stacked_rank(stack, q)
    for m, r in zip(stack.tolist(), ranks.tolist()):
        assert r == gf.FieldMatrix.from_rows(m, q).rank()
        assert q**r == _row_space_size(m, q)
        if kind == "zero":
            assert r == 0
        if kind == "full":
            assert r == min(rows, cols)


@pytest.mark.parametrize("rows,cols", [(2, 5), (6, 3), (16, 5)])
@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_stacked_rank_wide_and_tall(q, rows, cols):
    stack = gf.substream(q, "shape", rows, cols).integers(0, q, (200, rows, cols))
    expected = [gf.FieldMatrix.from_rows(m, q).rank() for m in stack.tolist()]
    assert gf.stacked_rank(stack, q).tolist() == expected


@pytest.mark.parametrize("q", [2, 5, 181, 191, 46337, 46349, 2**31 - 1])
def test_stacked_product_matches_field_matrix(q):
    # 181 and 46337 are the largest primes of the int16 and int32 work types.
    rng = gf.substream(q, "product")
    left = rng.integers(0, q, (30, 4, 3))
    right = rng.integers(0, q, (3, 5))
    product = gf.stacked_product(left, right, q)
    b = gf.FieldMatrix.from_rows(right.tolist(), q)
    for a, p in zip(left.tolist(), product.tolist()):
        assert gf.FieldMatrix.from_rows(a, q).multiply(b).entries == tuple(map(tuple, p))
    ranks = gf.stacked_rank(product, q).tolist()
    assert ranks == [gf.FieldMatrix.from_rows(p, q).rank() for p in product.tolist()]


@pytest.mark.parametrize("q,d,c", [(5, 5, 2), (2, 16, 5), (3, 5, 3)])
def test_one_stacked_draw_equals_per_trial_draws(q, d, c):
    # crs_hardness_gap's byte identity rests on this: a chunk's one draw of
    # shape (T, d, c) yields the same matrices as T random_matrix calls.
    trials = 257
    stacked_rng, per_trial_rng = gf.substream(9, "draws"), gf.substream(9, "draws")
    stacked = stacked_rng.integers(0, q, (trials, d, c), np.int64)
    per_trial = [gf.random_matrix(d, c, q, per_trial_rng).entries for _ in range(trials)]
    assert [tuple(map(tuple, m)) for m in stacked.tolist()] == per_trial
    assert repr(stacked_rng.bit_generator.state) == repr(per_trial_rng.bit_generator.state)
