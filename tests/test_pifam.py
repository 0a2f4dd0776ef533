import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsel import gf, pifam
from pairsel.gf import FieldMatrix


def test_sigma_crs_example_columns():
    sigma = pifam.sigma_crs(3, 2, 4)
    assert [sigma.column(j) for j in range(4)] == [(0, 1), (1, 0), (1, 1), (1, 2)]
    assert pifam.pairwise_linearly_independent(sigma)


def test_projective_point_count():
    assert pifam.projective_point_count(3, 2) == 4
    assert pifam.projective_point_count(2, 5) == 31


def test_sigma_crs_capacity_error():
    with pytest.raises(ValueError):
        pifam.sigma_crs(2, 1, 2)  # only one direction in GF(2)^1


@pytest.mark.parametrize("q,c,d", [(2, 2, 3), (2, 5, 16), (5, 2, 5), (3, 3, 9)])
def test_sigma_crs_always_pairwise_independent(q, c, d):
    sigma = pifam.sigma_crs(q, c, d)
    assert sigma.rows == c and sigma.cols == d
    assert pifam.pairwise_linearly_independent(sigma)


def test_pairwise_linear_independence_detects_duplicates_and_zero():
    dup = FieldMatrix.from_columns([(1, 0), (2, 0)], 5)  # scalar multiples
    assert not pifam.pairwise_linearly_independent(dup)
    zero = FieldMatrix.from_columns([(0, 0), (1, 0)], 5)
    assert not pifam.pairwise_linearly_independent(zero)


def test_ordered_family_provenance_and_determinism():
    sigma = pifam.sigma_crs(2, 2, 3)
    fam1 = pifam.ordered_family(sigma, 3, gf.substream(5, "fam"))
    fam2 = pifam.ordered_family(sigma, 3, gf.substream(5, "fam"))
    assert fam1.x == fam2.x
    assert fam1.x == fam1.r.multiply(sigma)


def test_ordered_family_rejects_bad_sigma():
    bad = FieldMatrix.from_columns([(1, 0), (1, 0), (0, 1)], 2)
    with pytest.raises(ValueError):
        pifam.ordered_family(bad, 3, gf.substream(0, "x"))


def test_ordered_family_rejects_small_output_dimension():
    sigma = pifam.sigma_crs(2, 3, 4)
    with pytest.raises(ValueError):
        pifam.ordered_family(sigma, 2, gf.substream(0, "x"))


def test_single_column_is_uniform():
    # n = 1: the lone output column is exactly uniform over GF(2)^2.
    sigma = FieldMatrix.from_columns([(1,)], 2)
    counts = {}
    rng = gf.substream(2, "uniform")
    trials = 20_000
    for _ in range(trials):
        fam = pifam.ordered_family(sigma, 2, rng)
        counts[fam.columns()[0]] = counts.get(fam.columns()[0], 0) + 1
    for v in range(4):
        p = counts.get(v, 0) / trials
        assert abs(p - 0.25) < 3 * (0.25 * 0.75 / trials) ** 0.5


def test_matrix_to_set_empty_labels():
    x = FieldMatrix.from_rows([[], []], 2)
    active = pifam.matrix_to_set(x, [], gf.substream(0, "empty"))
    assert active.size() == 0
    assert not active.explicit and not active.full_blocks


def test_matrix_to_set_label_count_mismatch():
    fam = pifam.ordered_family(pifam.sigma_crs(2, 2, 3), 3, gf.substream(0, "m"))
    with pytest.raises(ValueError):
        pifam.matrix_to_set(fam, [1, 2], gf.substream(0, "m"))


def test_matrix_to_set_too_many_labels():
    x = FieldMatrix.from_columns([(0, 1), (1, 0), (1, 1), (0, 1)], 2)  # q^d = 4 = n
    with pytest.raises(ValueError):
        pifam.matrix_to_set(x, [1, 2, 3, 4], gf.substream(0, "m"))


def test_matrix_to_set_branch_and_marginal_frequencies():
    sigma = pifam.sigma_crs(2, 2, 2)
    rng = gf.substream(11, "mixture")
    trials = 40_000
    d2 = 0
    hits = 0  # membership of one fixed labeled vector
    probe_vector, probe_label = 0b01, 2
    for _ in range(trials):
        fam = pifam.ordered_family(sigma, 2, rng)
        active = pifam.matrix_to_set(fam, [1, 2], rng)
        d2 += active.branch == "D2"
        hits += active.contains(probe_vector, probe_label)
    for observed, p in ((d2, 1 / 4), (hits, 1 / 4)):
        sigma3 = 3 * (p * (1 - p) / trials) ** 0.5
        assert abs(observed / trials - p) < sigma3


def test_active_set_membership_semantics():
    active = pifam.ActiveSet(2, 2, (1, 2), (), frozenset({2}), "D2")
    assert active.contains(0b11, 2)
    assert not active.contains(0b11, 1)
    assert active.size() == 4


def test_active_set_branch_invariants():
    with pytest.raises(ValueError):
        pifam.ActiveSet(2, 2, (1,), (), frozenset({1}), "D1")
    with pytest.raises(ValueError):
        pifam.ActiveSet(2, 2, (1,), (pifam.LabeledVector(1, 1),), frozenset(), "D2")


# --- the nested multi-level construction -----------------------------------


def test_sigma_prophet_sizes_kappa3():
    ns = pifam.sigma_prophet(64, 3, gf.substream(1, "ns"))
    assert [len(b) for b in ns.bases] == [64, 32, 16]


def test_sigma_prophet_preconditions():
    rng = gf.substream(0, "pre")
    with pytest.raises(ValueError):
        pifam.sigma_prophet(48, 2, rng)  # not a power of two
    with pytest.raises(ValueError):
        pifam.sigma_prophet(4, 2, rng)  # needs d >= 2^3
    with pytest.raises(ValueError):
        pifam.sigma_prophet(8, 0, rng)


def test_sliding_window_columns():
    ns = pifam.sigma_prophet(64, 3, gf.substream(2, "win"))
    part = ns.partitions[2][0]  # a level-3 part of eight coordinates
    masks = ns.column_masks(3)[:4]
    assert masks[0] == sum(1 << c for c in part[0:4])
    assert masks[1] == sum(1 << c for c in part[1:5])
    assert masks[3] == sum(1 << c for c in part[3:7])


def test_columns_are_sums_of_exactly_half_a_part():
    ns = pifam.sigma_prophet(64, 3, gf.substream(3, "pop"))
    for ell in range(1, 4):
        for mask in ns.column_masks(ell):
            assert bin(mask).count("1") == 2 ** (ell - 1)


def test_columns_distinct_across_seeds():
    for seed in range(20):
        ns = pifam.sigma_prophet(64, 3, gf.substream(seed, "distinct"))
        masks = [m for ell in range(1, 4) for m in ns.column_masks(ell)]
        assert len(set(masks)) == len(masks)


def test_check_nested_properties_pass():
    rng = gf.substream(4, "props")
    ns = pifam.sigma_prophet(64, 3, rng)
    report = pifam.check_nested_properties(ns, 3000, rng)
    assert report.ok, report.violations


def test_check_nested_properties_kappa1_vacuous():
    rng = gf.substream(5, "props1")
    ns = pifam.sigma_prophet(2, 1, rng)
    report = pifam.check_nested_properties(ns, 1000, rng)
    assert report.ok
    assert report.survival_rows == ()


def test_survival_frequency_matches_half_per_level():
    rng = gf.substream(6, "surv")
    ns = pifam.sigma_prophet(64, 2, rng)
    freq = pifam.survival_frequency(ns, 1, 2, 10_000, rng)
    assert abs(freq - 0.5) < 3 * (0.25 / 10_000) ** 0.5


def test_nested_sigma_field_matrices_match_masks():
    ns = pifam.sigma_prophet(16, 2, gf.substream(7, "mat"))
    for ell in (1, 2):
        matrix = ns.sigmas[ell - 1]
        assert matrix.column_vectors() == ns.column_masks(ell)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_window_sums_equal_naive_window_xors(data):
    half = data.draw(st.integers(1, 16))
    part = tuple(sorted(data.draw(
        st.lists(st.integers(0, 63), min_size=2 * half, max_size=2 * half, unique=True)
    )))
    values = data.draw(st.lists(st.integers(0, 2**128 - 1), min_size=64, max_size=64))
    naive = []
    for window in pifam._window_columns(part):
        acc = 0
        for coord in window:
            acc ^= values[coord]
        naive.append(acc)
    assert pifam.window_sums(part, values) == naive


@pytest.mark.parametrize("d,kappa", [(256, 4), (16, 2), (64, 3), (2, 1)])
def test_column_masks_equal_naive_window_masks(d, kappa):
    ns = pifam.sigma_prophet(d, kappa, gf.substream(4, "walk", d))
    for ell in range(1, kappa + 1):
        assert ns.column_masks(ell) == [
            sum(1 << c for c in window)
            for part in ns.partitions[ell - 1]
            for window in pifam._window_columns(part)
        ]
