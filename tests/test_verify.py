import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsel import cli, gf, ocrs_kernel, schemes, verify
from pairsel.gf import FieldMatrix
from pairsel.instances import CrsInstance
from pairsel.matroid import DuplicatedLinearMatroid, LabeledVector


# --- estimates ---------------------------------------------------------------


def test_estimate_from_samples():
    est = verify.Estimate.from_samples([1.0, 2.0, 3.0, 4.0])
    assert est.mean == 2.5
    assert est.trials == 4
    assert est.ci_low < 2.5 < est.ci_high
    assert math.isclose(est.std_error, math.sqrt(1.25 / 4))


def test_accumulator_merge_associative_and_order_free():
    xs = [0.5, 1.5, 2.0, 8.0, 3.5, 1.0]
    whole = verify.Accumulator.from_samples(xs)
    a = verify.Accumulator.from_samples(xs[:2])
    b = verify.Accumulator.from_samples(xs[2:4])
    c = verify.Accumulator.from_samples(xs[4:])
    assert a.merge(b).merge(c) == a.merge(b.merge(c)) == whole
    assert c.merge(a).merge(b).count == whole.count
    assert math.isclose(c.merge(a).merge(b).total, whole.total)


def test_estimate_scaling():
    est = verify.Estimate.from_samples([1.0, 3.0]).scaled(2.0, offset=1.0)
    assert est.mean == 5.0
    assert est.ci_low <= 5.0 <= est.ci_high


def test_ratio_accumulator_identity():
    acc = verify.RatioAccumulator()
    for x in (1.0, 2.0, 5.0):
        acc = acc.add(x, x)
    est = acc.estimate()
    assert math.isclose(est.mean, 1.0)
    assert est.std_error < 1e-12


def test_run_chunks_thread_invariance():
    def chunk(rng, count):
        acc = verify.Accumulator()
        for _ in range(count):
            acc = acc.add(float(rng.random()))
        return acc

    one = verify.run_chunks(chunk, 5000, gf.substream(1, "th"), threads=1)
    four = verify.run_chunks(chunk, 5000, gf.substream(1, "th"), threads=4)
    assert one == four


# --- exact checks --------------------------------------------------------------


@pytest.mark.parametrize("q,m,n,d", [(2, 2, 3, 3), (3, 2, 3, 2), (2, 2, 2, 4)])
def test_exact_ordered_zero_deviation(q, m, n, d):
    result = verify.exact_pairwise_check("ordered", q, m, n, d)
    assert result.deviation == 0


def test_exact_ordered_three_wise_with_identity_design():
    result = verify.exact_pairwise_check(
        "ordered", 2, 3, 3, 2, sigma=FieldMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2), k=3
    )
    assert result.deviation == 0


@pytest.mark.parametrize("q,m,n,d", [(2, 2, 2, 2), (2, 2, 3, 2), (3, 2, 3, 1)])
def test_exact_unordered_zero_deviation(q, m, n, d):
    result = verify.exact_pairwise_check("unordered", q, m, n, d)
    assert result.deviation == 0
    assert result.max_marginal_deviation == 0


def test_exact_unordered_same_label_joint_is_block_only():
    # Distinct vectors under one label meet only inside a full block:
    # the joint must equal 1/q^(2d), matching the product of marginals.
    result = verify.exact_pairwise_check("unordered", 2, 2, 2, 2)
    assert result.max_joint_deviation == 0


def test_exact_check_rejects_huge_tape():
    with pytest.raises(ValueError):
        verify.exact_pairwise_check("ordered", 2, 5, 4, 6)  # 2^30 states


def test_exact_check_unknown_construction():
    with pytest.raises(ValueError):
        verify.exact_pairwise_check("sideways", 2, 2, 2, 2)


def test_mutated_mixture_weight_detected():
    result = verify.exact_pairwise_check(
        "unordered", 2, 2, 2, 2, mixture_weight=Fraction(2, 4)
    )
    assert result.deviation > 0


def test_mutated_block_probability_detected():
    result = verify.exact_pairwise_check(
        "unordered", 2, 2, 2, 2, block_probability=Fraction(1, 2)
    )
    assert result.deviation > 0


def test_mutated_duplicate_column_detected():
    corrupt = FieldMatrix.from_columns([(1, 0), (1, 0), (0, 1)], 2)
    result = verify.exact_pairwise_check("ordered", 2, 2, 3, 3, sigma=corrupt)
    assert result.deviation > 0


def test_exact_prophet_weight_check_zero():
    assert verify.exact_prophet_weight_check(2, 1).deviation == 0
    with pytest.raises(ValueError):
        verify.exact_prophet_weight_check(2, 2)


# --- CRS hardness gap -----------------------------------------------------------


def test_crs_gap_report_values():
    rng = gf.substream(3, "gap")
    report = verify.crs_hardness_gap(5, 5, 2, 20_000, rng)
    assert report.active_size_exact == Fraction(5)
    assert report.rank_estimate.ci_high <= 2.0 + 5 / 5**5 + 0.01
    assert report.ratio_estimate.mean <= 0.42
    assert float(report.paper_bound) == 0.6
    assert not report.vacuous


def test_crs_gap_threads_do_not_change_numbers():
    one = verify.crs_hardness_gap(5, 5, 2, 4000, gf.substream(4, "t"), threads=1)
    three = verify.crs_hardness_gap(5, 5, 2, 4000, gf.substream(4, "t"), threads=3)
    assert one.rank_estimate == three.rank_estimate


def test_crs_gap_vacuous_flag():
    report = verify.crs_hardness_gap(2, 3, 3, 200, gf.substream(5, "v"))
    assert report.paper_bound == Fraction(4, 3)
    assert report.vacuous


def test_stratified_matches_naive_within_cis():
    stratified = verify.crs_hardness_gap(5, 5, 2, 20_000, gf.substream(6, "s"))
    naive = verify.crs_naive_rank_estimate(5, 5, 2, 8000, gf.substream(7, "n"))
    unbiased = stratified.rank_estimate_unbiased
    gap = abs(unbiased.mean - naive.mean)
    assert gap <= 3 * math.sqrt(unbiased.std_error**2 + naive.std_error**2)


def test_binary_regime_bound():
    report = verify.crs_hardness_gap(2, 8, 4, 5000, gf.substream(8, "b"))
    assert report.rank_estimate.ci_high <= 5  # c + 1
    assert report.ratio_estimate.ci_high <= 5 / 8


def _exact_d1_rank_mean(q: int, d: int, s: int) -> Fraction:
    """E[rank(R sigma)] on the explicit branch, for s = rank sigma.

    R sigma_S is uniform over the d x s matrices when the c x s matrix
    sigma_S has full column rank, and rank(R sigma) = rank(R sigma_S).  So
    the mean is sum_r r N_r(d, s) / q^(ds), with N_r the number of d x s
    matrices of rank r.  rank(R sigma) = rank(R) only when s = c.
    """
    total = Fraction(0)
    for r in range(1, min(d, s) + 1):
        n_r = Fraction(1)
        for i in range(r):
            n_r *= Fraction((q**d - q**i) * (q**s - q**i), q**r - q**i)
        total += r * n_r
    return total / q ** (d * s)


@pytest.mark.parametrize("q,d,c", [(3, 3, 2), (2, 4, 3), (2, 3, 3)])
def test_exact_d1_rank_mean_matches_enumeration(q, d, c):
    sigma = CrsInstance(q, d, c).sigma
    ranks = [
        FieldMatrix.from_rows([flat[i * c : (i + 1) * c] for i in range(d)], q).multiply(sigma).rank()
        for flat in itertools.product(range(q), repeat=d * c)
    ]
    assert Fraction(sum(ranks), len(ranks)) == _exact_d1_rank_mean(q, d, sigma.rank())


@pytest.mark.parametrize("q,d,c,label,exact", [
    (5, 5, 2, "c3", 1.9980804),
    (2, 16, 5, "c4", 4.9995270),
])
def test_d1_interval_covers_exact_mean(q, d, c, label, exact):
    # The acceptance criteria 3 and 4 runs: their D1 interval covers the mean.
    assert abs(float(_exact_d1_rank_mean(q, d, c)) - exact) < 1e-7
    report = verify.crs_hardness_gap(q, d, c, 100_000, gf.substream(20260810, label))
    w = 1 / q**d
    low, high = ((x - w * d) / (1 - w) for x in (report.rank_estimate.ci_low,
                                                 report.rank_estimate.ci_high))
    assert low <= exact <= high


@pytest.mark.parametrize("q,d,c", [(2, 3, 3), (2, 5, 4), (3, 4, 3)])
def test_stacked_crs_ranks_equal_per_trial_ranks_when_sigma_is_rank_deficient(q, d, c):
    # Here rank sigma < c, so rank(R sigma) differs from rank(R) on many
    # draws: a kernel that ranked R alone would fail both checks.
    trials = 300
    sigma = CrsInstance(q, d, c).sigma
    assert sigma.rank() < c
    stream = gf.substream(31, "deficient").spawn(1)[0]  # run_chunks' one chunk stream
    expected = [gf.random_matrix(d, c, q, stream).multiply(sigma).rank() for _ in range(trials)]
    draws = gf.substream(31, "deficient").spawn(1)[0].integers(0, q, (trials, d, c), np.int64)
    kernel = gf.stacked_rank(gf.stacked_product(draws, verify._column_basis(sigma), q), q)
    assert kernel.tolist() == expected
    report = verify.crs_hardness_gap(q, d, c, trials, gf.substream(31, "deficient"))
    assert report.d1_rank_mean == sum(expected) / trials


# --- balance certification -------------------------------------------------------


def test_certifier_fails_crs_instance_at_target():
    instance = CrsInstance(5, 5, 2)
    rng = gf.substream(9, "certfail")
    families = [verify.FGroundSet()]
    report = verify.certify_balance(
        lambda r: instance.sample(r), instance.matroid, 3.5 / 5, families, 3000, rng
    )
    assert not report.verdict
    assert report.min_ratio.mean < 0.45


def test_certifier_pairwise_partition_passes():
    bench = verify.PartitionActiveBench()
    rng = gf.substream(11, "certpass")
    report = verify.certify_balance(
        bench.pairwise_sampler(),
        bench.matroid,
        verify.PARTITION_BALANCE_TARGET,
        bench.families(rng),
        20_000,
        rng,
    )
    assert report.verdict
    assert report.min_ratio.mean >= 0.5


def test_certifier_product_partition_passes():
    bench = verify.PartitionActiveBench()
    rng = gf.substream(12, "certprod")
    report = verify.certify_balance(
        bench.product_sampler(),
        bench.matroid,
        verify.PRODUCT_BALANCE_TARGET,
        bench.families(rng),
        20_000,
        rng,
    )
    assert report.verdict


def test_certifier_monotone_in_target():
    # Pass at a target implies pass at every smaller target.
    bench = verify.PartitionActiveBench()
    rng = gf.substream(13, "mono")
    report = verify.certify_balance(
        bench.pairwise_sampler(), bench.matroid, 0.5, bench.families(rng), 4000, rng
    )
    grid = [report.passes(c) for c in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert grid == sorted(grid, reverse=True)
    assert report.passes(0.1)


def test_certifier_insufficient_family_reported():
    bench = verify.PartitionActiveBench()
    rng = gf.substream(14, "insuf")
    never = verify.FExplicit("empty", frozenset())
    report = verify.certify_balance(
        bench.pairwise_sampler(), bench.matroid, 0.4, [never], 100, rng
    )
    assert report.families[0].insufficient
    assert report.verdict  # no data is not a failure


def test_partition_bench_marginals_in_polytope():
    bench = verify.PartitionActiveBench()
    assert verify.PART_SIZE * bench.marginal <= 1.0


def test_pairwise_sampler_marginals():
    bench = verify.PartitionActiveBench()
    sampler = bench.pairwise_sampler()
    rng = gf.substream(15, "marg")
    trials = 20_000
    count0 = sum(0 in sampler(rng) for _ in range(trials))
    p = bench.marginal
    assert abs(count0 / trials - p) < 3 * math.sqrt(p * (1 - p) / trials)


# --- prophet hardness gap ---------------------------------------------------------


def test_prophet_gap_small_scale():
    rng = gf.substream(20, "pgap")
    report = verify.prophet_hardness_gap(16, 2, 60, rng, aux_trials=40)
    assert report.prophet.ci_low >= 16 * 2 / 10
    for policy in report.policies:
        assert policy.reward.ci_high <= 2 * 16 * 1.02
        assert policy.ratio_to_prophet.mean <= 1.0 + 1e-9
    assert report.best_policy.ratio_to_prophet.ci_high <= 10 / 2
    assert report.observed_prophet_constant >= 0.25


def test_prophet_gap_policies_never_beat_prophet():
    rng = gf.substream(21, "pgap2")
    report = verify.prophet_hardness_gap(16, 2, 40, rng, aux_trials=30)
    for policy in report.policies:
        assert policy.reward.mean <= report.prophet.mean + 1e-9


# --- OCRS balance ------------------------------------------------------------------


def test_ocrs_balance_null_scheme_zero(null_scheme):
    matroid = DuplicatedLinearMatroid(2, 1, 1)
    scheme = null_scheme(matroid)
    e = LabeledVector(1, 1)
    report = verify.ocrs_balance(
        scheme, lambda r: [e], {"fixed": schemes.order_label_ascending},
        60, gf.substream(22, "null"),
    )
    adv = report.per_adversary[0]
    assert adv.pooled.mean == 0.0
    assert adv.min_ci_low == 0.0


def test_ocrs_balance_always_active_singleton_exactly_half():
    matroid = DuplicatedLinearMatroid(2, 1, 1)
    scheme = schemes.GreedyOcrs(matroid)
    e = LabeledVector(1, 1)
    report = verify.ocrs_balance(
        scheme, lambda r: [e], {"fixed": schemes.order_label_ascending},
        60, gf.substream(23, "half"),
    )
    adv = report.per_adversary[0]
    assert adv.min_mean == 0.5
    assert adv.min_ci_low == 0.5  # deterministic conditional probability


def test_crs_ocrs_balance_pooled_estimates_agree():
    rng = gf.substream(24, "agree")
    report = verify.crs_ocrs_balance(5, 5, 2, 4000, rng)
    for adv in report.per_adversary:
        # replay estimator and plain frequency must agree across orders
        gap = abs(adv.pooled.mean - adv.pooled_plain.mean)
        assert gap <= 3 * math.sqrt(adv.pooled.std_error**2 + adv.pooled_plain.std_error**2)
    means = [adv.pooled.mean for adv in report.per_adversary]
    ses = [adv.pooled.std_error for adv in report.per_adversary]
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            assert abs(means[i] - means[j]) <= 3 * math.sqrt(ses[i] ** 2 + ses[j] ** 2)


def test_ocrs_balance_accepted_sets_stay_independent():
    # The run itself asserts independence through the tracker; spot-check
    # by replaying a few trials manually.
    instance = CrsInstance(5, 5, 2)
    scheme = schemes.GreedyOcrs(instance.matroid)
    rng = gf.substream(25, "ind")
    for _ in range(50):
        active = instance.sample_d1(rng).explicit
        coins = scheme.coins(active, rng)
        accepted = scheme.run(schemes.order_coin_adversarial(active, coins), coins)
        assert instance.matroid.is_independent(accepted)


# --- the OCRS block kernel against its oracles -----------------------------------

# (q, d, c): σ has rank 2 < c at (2, 3, 3) and (3, 4, 3).
KERNEL_INSTANCES = [(2, 3, 3), (2, 4, 3), (3, 4, 3), (3, 3, 2), (3, 5, 3), (5, 5, 2)]


def _oracle_balance(q, d, c, trials, rng, trace=None):
    """The element-by-element balance of the CRS instance, as the kernel's
    per-trial path computes it."""
    instance = CrsInstance(q, d, c)
    return verify.ocrs_balance(
        schemes.GreedyOcrs(instance.matroid),
        lambda r: instance.sample_d1(r).explicit,
        schemes.ADVERSARY_ORDERS,
        trials,
        rng,
        d1_factor=1.0 - float(instance.marginal()),
        trace=trace,
    )


def _assert_kernel_equals_oracle(q, d, c, trials, seed):
    kernel_rng, oracle_rng = gf.substream(seed, "kernel"), gf.substream(seed, "kernel")
    kernel_trace, oracle_trace = [], []
    report = verify.crs_ocrs_balance(q, d, c, trials, kernel_rng, trace=kernel_trace.append)
    oracle = _oracle_balance(q, d, c, trials, oracle_rng, oracle_trace.append)
    # repr compares floats exactly and NaN equal to NaN.
    assert repr(report) == repr(oracle)
    assert kernel_trace == oracle_trace
    assert gf.generator_state(kernel_rng) == gf.generator_state(oracle_rng)
    return report


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_kernel_sweeps_equal_greedy_ocrs_sweep_per_trial(data):
    # Any R and any coins on the non-loops, not only the rare heads that
    # p = 1/(2d) gives, so that several accepts per trial are common.
    q, d, c = data.draw(st.sampled_from(KERNEL_INSTANCES))
    instance = CrsInstance(q, d, c)
    scheme = schemes.GreedyOcrs(instance.matroid)
    sigma = np.array(instance.sigma.entries, np.int64)
    n = data.draw(st.integers(1, 6))
    rs = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=n * d * c,
                                     max_size=n * d * c))).reshape(n, d, c)
    v = gf.stacked_product(rs, sigma, q)
    non_loop = v.any(axis=1)
    coins = np.array(data.draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d)))
    heads = non_loop & coins.reshape(n, d)
    for t in range(n):
        expected = FieldMatrix.from_rows(rs[t].tolist(), q).multiply(instance.sigma)
        assert ocrs_kernel.trial_elements(v[t], q) == [
            LabeledVector(vec, j + 1) for j, vec in enumerate(expected.column_vectors())
        ]
    for name, adversary in schemes.ADVERSARY_ORDERS.items():
        positions = ocrs_kernel.SWEPT_POSITIONS[name](non_loop)
        independent, taken = ocrs_kernel.greedy_sweeps(v, heads, positions, q)
        for t in range(n):
            elements = ocrs_kernel.trial_elements(v[t], q)
            trial_coins = dict(zip(elements, heads[t].tolist()))
            non_loops = [e for e, keep in zip(elements, non_loop[t]) if keep]
            forced = {**trial_coins, **dict.fromkeys(non_loops, True)}
            accepted, contributions = scheme.sweep(elements, trial_coins, adversary, non_loops)
            assert [elements[j] for j in positions[t]] == adversary(elements, forced)
            assert tuple(elements[j] for j in positions[t] if taken[t, j]) == accepted
            assert {
                elements[j]: scheme.coin_probability if independent[t, j] else 0.0
                for j in range(d) if non_loop[t, j]
            } == contributions


@given(instance=st.sampled_from(KERNEL_INSTANCES), seed=st.integers(0, 2**32),
       trials=st.integers(1, 300))
@settings(max_examples=30, deadline=None)
def test_crs_ocrs_balance_equals_the_oracle_over_small_blocks(instance, seed, trials):
    with mock.patch.object(verify, "OCRS_BLOCK", 64):
        _assert_kernel_equals_oracle(*instance, trials, seed)


@pytest.mark.parametrize("q,d,c,trials", [
    (2, 3, 3, 2500), (2, 4, 3, 1500), (3, 3, 2, 1500), (3, 4, 3, 2100), (3, 5, 3, 1100),
])
def test_crs_ocrs_balance_equals_the_oracle_with_qualifying_elements(q, d, c, trials):
    report = _assert_kernel_equals_oracle(q, d, c, trials, seed=31)
    if (q, d, c) != (3, 5, 3):
        assert all(a.qualifying_elements > 0 for a in report.per_adversary)


@pytest.mark.parametrize("q,d,c,trials", [
    (2, 5, 13, 60),  # q^c = 8192 is above LOOP_TABLE_LIMIT: no loop table
    (2, 64, 7, 6),  # d q^d overflows int64: the element keys are Python ints
])
def test_crs_ocrs_balance_fallbacks_equal_the_oracle(q, d, c, trials):
    _assert_kernel_equals_oracle(q, d, c, trials, seed=32)


def test_repeated_sums_are_sequential_float_sums():
    # Past two chunk boundaries, and in any order of the requested counts.
    ks = np.random.default_rng(0).permutation(2 * ocrs_kernel.SUM_CHUNK + 100)
    for x in (0.1, 1 / 6, 0.01, 1 / 36):
        running = [0.0]
        for _ in range(ks.size - 1):
            running.append(running[-1] + x)
        assert ocrs_kernel.repeated_sums(x, ks).tolist() == [running[k] for k in ks]
    # A running sum differs from the product: ten 0.1s add up to less than 1.
    assert ocrs_kernel.repeated_sums(0.1, np.array([10]))[0] == 0.9999999999999999 != 10 * 0.1 == 1.0


def test_a_kernel_order_unlike_its_adversary_raises_in_the_run(monkeypatch, capsys):
    monkeypatch.setitem(ocrs_kernel.SWEPT_POSITIONS, "label-ascending",
                        ocrs_kernel.SWEPT_POSITIONS["label-descending"])
    with pytest.raises(AssertionError, match="label-ascending"):
        verify.crs_ocrs_balance(3, 5, 3, 50, gf.substream(1, "neg"))
    # A crash, not a failed verdict.
    assert cli.run(["ocrs-bench", "--q", "3", "--d", "5", "--c", "3", "--trials", "50"]) == 3


def test_first_draw_check_catches_a_kernel_that_draws_differently():
    instance = CrsInstance(3, 5, 3)
    scheme = schemes.GreedyOcrs(instance.matroid)
    sigma = np.array(instance.sigma.entries, np.int64)
    draw = ocrs_kernel.drawer(3, sigma)
    rng = gf.substream(2, "first")

    def kernel(trials):
        return lambda r: ocrs_kernel.block_inputs(*draw(r, trials), sigma, 3, scheme.coin_probability)

    verify._check_first_draw(instance, scheme, rng, kernel(1))
    with pytest.raises(AssertionError, match="state"):
        verify._check_first_draw(instance, scheme, rng, kernel(2))


def test_ocrs_bench_trace_file_equals_the_oracle_trace(tmp_path):
    path = tmp_path / "kernel.jsonl"
    code = cli.run(["ocrs-bench", "--q", "2", "--d", "3", "--c", "3", "--trials", "300",
                    "--seed", "5", "--trace", str(path), "--output", str(tmp_path / "o.txt")])
    assert code in (0, 1)
    oracle_path = tmp_path / "oracle.jsonl"
    with cli._trace_writer(str(oracle_path)) as trace:
        _oracle_balance(2, 3, 3, 300, gf.substream(5, "ocrs-bench"), trace)
    assert path.read_bytes() == oracle_path.read_bytes()


# --- benchmarks ---------------------------------------------------------------------


def test_rank_one_benchmark_clears_third():
    report = verify.rank_one_benchmark(8000, gf.substream(26, "r1"))
    assert report.ratio.ci_low >= 1 / 3
    assert report.gambler.mean <= report.prophet.mean


def test_graphic_benchmark_clears_sixth():
    report = verify.graphic_partition_benchmark(5000, gf.substream(27, "k4"))
    assert report.ratio.ci_low >= 1 / 6


def test_bucketing_benchmark_meets_guarantee():
    report = verify.prophet_bucketing_benchmark(16, 2, 50, gf.substream(28, "bb"), aux_trials=50)
    assert report.ok
    assert report.k == math.ceil(math.log2(8 * 32))
