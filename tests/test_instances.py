from fractions import Fraction

import numpy as np
import pytest

from pairsel import gf, instances, pifam, schemes, verify
from pairsel.instances import (
    CrsInstance,
    ProphetParams,
    pairwise_weight_test,
    sample_prophet_instance,
)


def test_crs_preconditions():
    with pytest.raises(ValueError):
        CrsInstance(2, 3, 2)  # 2^1 < 3: the binary regime forces c >= 3
    CrsInstance(2, 3, 3)
    with pytest.raises(ValueError):
        CrsInstance(5, 2, 2)  # d > 2 required
    with pytest.raises(ValueError):
        CrsInstance(4, 5, 3)  # modulus not prime


@pytest.mark.parametrize("q,d,c", [(5, 5, 2), (2, 16, 5), (3, 3, 2)])
def test_expected_active_size_is_exactly_d(q, d, c):
    instance = CrsInstance(q, d, c)
    assert instance.expected_active_size() == Fraction(d)
    assert instance.marginal() == Fraction(1, q**d)


def test_empirical_active_size_matches():
    instance = CrsInstance(5, 5, 2)
    rng = gf.substream(21, "size")
    trials = 4000
    total = sum(instance.sample(rng).size() for _ in range(trials))
    # D2 draws are 1/3125-rare; conditioned on D1 the size is exactly d.
    assert abs(total / trials - 5) < 0.25


def test_empirical_rank_below_paper_bound():
    instance = CrsInstance(5, 5, 2)
    matroid = instance.matroid
    rng = gf.substream(22, "rank")
    trials = 3000
    mean = sum(matroid.rank(instance.sample(rng)) for _ in range(trials)) / trials
    bound = 2 + 5 / 5**5
    assert mean <= bound + 3 * (0.5 / trials) ** 0.5
    assert mean <= 3  # "at most c + 1"


def test_sample_through_module_function():
    active = CrsInstance(5, 5, 2).sample(gf.substream(1, "fn"))
    assert active.q == 5 and active.dim == 5
    assert active.labels == tuple(range(1, 6))


def test_sample_d1_is_explicit_branch():
    instance = CrsInstance(5, 5, 2)
    rng = gf.substream(2, "d1")
    for _ in range(20):
        active = instance.sample_d1(rng)
        assert active.branch == "D1"
        assert len(active.explicit) == 5


def test_d1_rank_matches_matrix_rank():
    # The instance rank oracle and the plain matrix rank must agree.
    instance = CrsInstance(5, 5, 2)
    rng = gf.substream(3, "agree")
    matroid = instance.matroid
    for _ in range(50):
        r = gf.random_matrix(5, 2, 5, rng)
        x = r.multiply(instance.sigma)
        from pairsel.matroid import LabeledVector

        explicit = [LabeledVector(x.column_vector(j), j + 1) for j in range(5)]
        assert matroid.rank(explicit) == x.rank()


# --- prophet instance -------------------------------------------------------


def test_prophet_params_level_structure():
    params = ProphetParams(64, 3)
    assert params.n == 32 + 16 + 8 == 56
    assert list(params.labels_of_level(1)) == list(range(1, 33))
    assert list(params.labels_of_level(3)) == list(range(49, 57))
    assert params.level_of_label(1) == 1
    assert params.level_of_label(33) == 2
    assert params.level_of_label(56) == 3
    for label in (0, -5, 57):
        with pytest.raises(ValueError, match=r"outside \[1, 56\]"):
            params.level_of_label(label)
    for level in (0, 4):
        with pytest.raises(ValueError, match=r"outside \[1, 3\]"):
            params.labels_of_level(level)


def test_prophet_params_preconditions():
    with pytest.raises(ValueError):
        ProphetParams(63, 3)
    with pytest.raises(ValueError):
        ProphetParams(16, 3)  # needs 2^(2*3-1) = 32


def test_e_hard_probability_overwhelming():
    rng = gf.substream(5, "ehard")
    hard = sum(sample_prophet_instance(64, 3, rng).e_hard for _ in range(50))
    assert hard == 50


def test_arrival_order_is_label_ascending():
    rng = gf.substream(6, "order")
    for _ in range(5):
        sample = sample_prophet_instance(64, 3, rng, condition_on_e_hard=True)
        labels = [e.label for e, _ in sample.candidates]
        assert labels == sorted(labels) == list(range(1, 57))


def test_weights_structure_under_the_hardness_event():
    rng = gf.substream(7, "weights")
    sample = sample_prophet_instance(64, 3, rng, condition_on_e_hard=True)
    params = sample.params
    by_level = {1: 0, 2: 0, 3: 0}
    vectors = set()
    for e, w in sample.candidates:
        level = params.level_of_label(e.label)
        assert w == 2**level
        assert sample.weight(e.vector, e.label) == w
        by_level[level] += 1
        vectors.add(e.vector)
    assert by_level == {1: 32, 2: 16, 3: 8}
    # injective map: exactly one labeled copy of any vector carries weight
    assert len(vectors) == 56
    # any other labeled copy of an active vector has weight zero
    e0, _ = sample.candidates[0]
    other_label = 2 if e0.label != 2 else 3
    assert sample.weight(e0.vector, other_label) == 0


def test_r_column_packing_matches_strided_columns():
    # One transposed packing sliced per column gives the ints that packing
    # each strided column separately gives, and bit t is row t.
    for d in (2, 16, 64):
        got = instances._r_column_masks(d, gf.substream(4, "pack", d))
        bits = gf.substream(4, "pack", d).integers(0, 2, size=(2 * d, d), dtype=np.uint8)
        packed = np.packbits(bits, axis=0, bitorder="little")
        strided = [int.from_bytes(packed[:, c].tobytes(), "little") for c in range(d)]
        by_bit = [sum(int(bits[t, c]) << t for t in range(2 * d)) for c in range(d)]
        assert got == strided == by_bit


def test_draws_off_the_hardness_event_expose_no_masks():
    # At d = 2 about a quarter of the draws miss the event: R or a level
    # can fail it.
    rng = gf.substream(12, "off-event")
    samples = [sample_prophet_instance(2, 1, rng) for _ in range(200)]
    missed = [s for s in samples if not s.e_hard]
    assert 20 <= len(missed) <= 80
    assert all(s.mask_candidates is None for s in missed)
    assert all(s.mask_candidates is not None for s in samples if s.e_hard)
    with pytest.raises(ValueError, match="hardness event"):
        schemes.run_policy(schemes.AcceptAllPolicy(), missed[0], rng)


def test_condition_on_e_hard_reports_rejections():
    rng = gf.substream(8, "rej")
    sample = sample_prophet_instance(64, 3, rng, condition_on_e_hard=True)
    assert sample.rejections == 0  # overwhelming probability at this scale


def test_toy_exact_weight_marginals():
    result = verify.exact_prophet_weight_check(2, 1)
    assert result.deviation == 0
    assert result.max_marginal_deviation == 0  # all marginals exactly 1/2^(2d)


def test_pairwise_weight_test_small_scale():
    rng = gf.substream(10, "wtest")
    report = pairwise_weight_test(16, 2, 60_000, rng, sigma_draws=2)
    assert not report.any_rejected
    assert report.case1_zero_ok
    cases = {r.case for r in report.rows}
    assert cases == {"same-level", "cross-level"}
    assert report.d2_probability == 1 / 2**32


def test_pairwise_weight_test_dimension_guard():
    with pytest.raises(ValueError):
        pairwise_weight_test(128, 3, 100, gf.substream(0, "g"))


@pytest.mark.parametrize("d,kappa", [(256, 4), (16, 2), (64, 3), (2, 1)])
def test_candidate_images_are_naive_window_xors_of_r(d, kappa):
    # The same seed replays the draw's σ and R; each image is the XOR of
    # R's columns over its window, summed window by window here.
    for seed in range(3):
        sample = sample_prophet_instance(d, kappa, gf.substream(seed, "images", d))
        replay = gf.substream(seed, "images", d)
        nested = pifam.sigma_prophet(d, kappa, replay)
        r_cols = instances._r_column_masks(d, replay)
        expected = {}
        for ell in range(1, kappa + 1):
            windows = [w for part in nested.partitions[ell - 1] for w in pifam._window_columns(part)]
            for label, window in zip(sample.params.labels_of_level(ell), windows):
                image = 0
                for coord in window:
                    image ^= r_cols[coord]
                expected[label] = image
        assert all(e.vector == expected[e.label] for e, _ in sample.candidates)
        assert sample.candidates or not sample.e_hard
