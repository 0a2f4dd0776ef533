import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsel import gf, schemes, verify
from pairsel.instances import sample_prophet_instance
from pairsel.matroid import (
    DuplicatedLinearMatroid,
    LabeledVector,
    SimplePartitionMatroid,
    element_key,
)


def test_coin_probability_formula():
    matroid = DuplicatedLinearMatroid(2, 4, 1)
    assert schemes.GreedyOcrs(matroid).coin_probability == 1 / 8


def test_greedy_no_actives_empty():
    matroid = DuplicatedLinearMatroid(2, 4, 1)
    scheme = schemes.GreedyOcrs(matroid)
    assert scheme.run([], {}) == ()


def test_greedy_respects_coins_and_independence():
    matroid = DuplicatedLinearMatroid(2, 2, 2)
    scheme = schemes.GreedyOcrs(matroid)
    e1, e2, e3 = LabeledVector(0b01, 1), LabeledVector(0b10, 1), LabeledVector(0b11, 2)
    coins = {e1: True, e2: True, e3: True}
    accepted = scheme.run([e1, e2, e3], coins)
    assert accepted == (e1, e2)  # e3 spans the first two
    coins = {e1: False, e2: True, e3: True}
    assert scheme.run([e1, e2, e3], coins) == (e2, e3)


def test_single_always_active_element_balance_half():
    # Rank-one linear matroid, one nonzero element: the balance is exactly
    # the coin probability 1/2.
    matroid = DuplicatedLinearMatroid(2, 1, 1)
    scheme = schemes.GreedyOcrs(matroid)
    e = LabeledVector(1, 1)
    for coin in (True, False):
        p = scheme.selection_probability_given_active(
            e, [e], {e: coin}, schemes.order_label_ascending
        )
        assert p == 0.5


def test_coin_adversarial_order_puts_heads_first():
    e1, e2, e3 = LabeledVector(1, 1), LabeledVector(1, 2), LabeledVector(1, 3)
    coins = {e1: False, e2: True, e3: True}
    order = schemes.order_coin_adversarial([e1, e2, e3], coins)
    assert order == [e2, e3, e1]


# --- the one-pass OCRS sweep ------------------------------------------------------


def _trials(q):
    """(matroid, actives, coins) over GF(q)^dim with copy labels; zero
    vectors (loops) included and coins drawn for every element."""

    @st.composite
    def draw(draw):
        dim = draw(st.integers(1, 3))
        copies = draw(st.integers(1, 3))
        vectors = (st.integers(0, 2**dim - 1) if q == 2
                   else st.tuples(*[st.integers(0, q - 1)] * dim))
        actives = draw(st.lists(st.builds(LabeledVector, vectors, st.integers(1, copies)),
                                min_size=1, max_size=8, unique=True))
        coins = {e: draw(st.booleans()) for e in actives}
        return DuplicatedLinearMatroid(q, dim, copies), actives, coins

    return draw()


def _forcing_one_coin_only_repositions(adversary, actives, coins) -> bool:
    """Whether setting any one tails coin to heads leaves the order of every
    other element unchanged."""
    order = adversary(actives, coins)
    for e in actives:
        if not coins[e]:
            forced = adversary(actives, {**coins, e: True})
            if [x for x in forced if x != e] != [x for x in order if x != e]:
                return False
    return True


def _order_by_heads_parity(actives, coins):
    """Negative control: ascending for an even number of heads, else descending."""
    heads = sum(bool(coins[e]) for e in actives)
    return sorted(actives, key=element_key, reverse=heads % 2 == 1)


@pytest.mark.parametrize("name", sorted(schemes.ADVERSARY_ORDERS))
@pytest.mark.parametrize("q", [2, 3, 5])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sweep_equals_run_and_forced_coin_replays(q, name, data):
    matroid, actives, coins = data.draw(_trials(q))
    adversary = schemes.ADVERSARY_ORDERS[name]
    scheme = schemes.GreedyOcrs(matroid)
    accepted, contributions = scheme.sweep(actives, coins, adversary, actives)
    assert accepted == scheme.run(adversary(actives, coins), coins)
    assert contributions == {
        e: scheme.selection_probability_given_active(e, actives, coins, adversary)
        for e in actives
    }


@pytest.mark.parametrize("name", sorted(schemes.ADVERSARY_ORDERS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_registered_adversaries_only_reposition_a_forced_element(name, data):
    _, actives, coins = data.draw(_trials(data.draw(st.sampled_from([2, 3, 5]))))
    assert _forcing_one_coin_only_repositions(schemes.ADVERSARY_ORDERS[name], actives, coins)


def test_heads_parity_order_fails_the_property_and_the_sweep_check():
    # Three parallel copies, only the third coin heads.  Forcing the first
    # coin flips the parity, so the whole order reverses and the forced
    # replay accepts the first copy, which the sweep cannot see.
    matroid = DuplicatedLinearMatroid(2, 1, 3)
    actives = [LabeledVector(1, label) for label in (1, 2, 3)]
    coins = {e: e.label == 3 for e in actives}
    assert not _forcing_one_coin_only_repositions(_order_by_heads_parity, actives, coins)
    scheme = schemes.GreedyOcrs(matroid)
    _, contributions = scheme.sweep(actives, coins, _order_by_heads_parity, actives)
    replay = scheme.selection_probability_given_active(
        actives[0], actives, coins, _order_by_heads_parity
    )
    assert (contributions[actives[0]], replay) == (0.0, 0.5)

    class FixedCoins(schemes.GreedyOcrs):
        def coins(self, elements, rng):
            return dict(coins)

    with pytest.raises(AssertionError, match="replay"):
        verify.ocrs_balance(FixedCoins(matroid), lambda r: actives,
                            {"parity": _order_by_heads_parity}, 3, gf.substream(1, "parity"))


def test_sweep_traces_every_element_once():
    matroid = DuplicatedLinearMatroid(2, 2, 2)
    scheme = schemes.GreedyOcrs(matroid)
    e1, e2, e3 = LabeledVector(0b01, 1), LabeledVector(0b10, 1), LabeledVector(0b11, 2)
    coins = {e1: False, e2: True, e3: True}
    records = []
    accepted, _ = scheme.sweep([e1, e2, e3], coins, schemes.order_coin_adversarial,
                               [e1, e2, e3], records.append)
    assert accepted == (e2, e3)
    assert records == [
        {"element": repr(e1), "coin": False, "accepted": False},
        {"element": repr(e2), "coin": True, "accepted": True},
        {"element": repr(e3), "coin": True, "accepted": True},
    ]


def test_null_scheme_balance_zero(null_scheme):
    matroid = SimplePartitionMatroid.from_parts([["a"]])
    scheme = null_scheme(matroid)
    assert scheme.run(["a"], {"a": False}) == ()
    assert scheme.selection_probability_given_active(
        "a", ["a"], {"a": False}, schemes.order_label_ascending
    ) == 0.0


# --- bucketing ---------------------------------------------------------------


def test_bucket_count_formula():
    layout = schemes.bucket_layout(10.0, 16)
    assert layout.k == math.ceil(math.log2(8 * 16)) == 7


def test_bucket_layout_rejects_nonpositive_opt():
    with pytest.raises(ValueError):
        schemes.bucket_layout(0.0, 4)


def test_bucket_of_boundaries():
    layout = schemes.bucket_layout(8.0, 4)  # base = 1, k = 5
    assert layout.base == 1.0
    assert layout.bucket_of(0.5) == 0
    assert layout.bucket_of(1.0) == 1
    assert layout.bucket_of(1.999) == 1
    assert layout.bucket_of(2.0) == 2
    assert layout.bucket_of(31.999) == 5
    assert layout.bucket_of(32.0) == schemes.INF_BUCKET


def test_choose_bucket_tie_breaks_to_lower_index():
    assert schemes.choose_bucket((3.0, 3.0, 3.0)) == 1
    assert schemes.choose_bucket((1.0, 3.0, 3.0)) == 2
    assert schemes.choose_bucket((1.0, 2.0, 3.0)) == schemes.INF_BUCKET


def test_bucketing_single_bucket_degenerate():
    # All weights deterministic inside one regular bucket: the algorithm
    # greedily packs a maximum independent set, at least half the bucket's
    # weighted rank.
    matroid = SimplePartitionMatroid.from_parts([{0, 1}, {2}, {3}])
    weights = {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}
    stream = sorted(weights.items())

    layout = schemes.bucket_layout(3.0, matroid.full_rank)
    chosen = schemes.choose_bucket(schemes.estimate_bucket_opts(matroid, [stream] * 50, layout))
    result = schemes.bucketing_prophet(matroid, stream, layout, chosen)
    rank_w, _ = matroid.weighted_rank(weights, list(weights))
    assert result.value == rank_w == 3.0
    assert result.value >= 0.5 * rank_w
    assert matroid.is_independent(result.accepted)


def test_bucketing_per_trial_half_guarantee():
    # Within the chosen regular bucket the per-trial reward is at least
    # half that bucket's weighted rank.
    matroid = DuplicatedLinearMatroid(2, 4, 4)
    rng = gf.substream(2, "half")

    def sampler(r):
        draws = []
        for label in (1, 2, 3, 4):
            v = int(r.integers(1, 16))
            draws.append((LabeledVector(v, label), float(r.integers(1, 5))))
        return draws

    layout = schemes.bucket_layout(4.0, 4)
    for _ in range(50):
        stream = sampler(rng)
        for bucket in range(1, layout.k + 1):
            members = [(e, w) for e, w in stream if layout.bucket_of(w) == bucket]
            if not members:
                continue
            result = schemes.bucketing_prophet(matroid, stream, layout, bucket)
            restricted, _ = matroid.weighted_rank(dict(members), [e for e, _ in members])
            assert result.value >= 0.5 * restricted - 1e-9


# --- single choice -----------------------------------------------------------


def test_single_choice_all_below_threshold():
    assert schemes.single_choice_prophet([("a", 1.0), ("b", 2.0)], 3.0) is None


def test_single_choice_accepts_first_above():
    assert schemes.single_choice_prophet([("a", 5.0)], 3.0) == ("a", 5.0)
    stream = [("a", 1.0), ("b", 4.0), ("c", 9.0)]
    assert schemes.single_choice_prophet(stream, 3.0) == ("b", 4.0)


def test_single_choice_ignores_zero_weights():
    assert schemes.single_choice_prophet([("a", 0.0)], 0.0) is None


def test_calibrate_threshold_point_mass():
    tau = schemes.calibrate_threshold(lambda r: 10.0, 64, gf.substream(3, "pm"))
    assert tau == 10.0


def test_calibrate_threshold_binary_uniform():
    rng = gf.substream(4, "bin")
    tau = schemes.calibrate_threshold(lambda r: float(r.integers(0, 2)), 4096, rng)
    assert tau == 1.0


def test_calibrate_threshold_empty_part():
    assert schemes.calibrate_threshold(lambda r: 0.0, 32, gf.substream(5, "e")) == 0.0


# --- partition prophet -------------------------------------------------------


def test_partition_prophet_identity_ratio_at_least_third():
    # The host is already a simple partition matroid; the identity sampler
    # realizes alpha = 1 and the threshold rule must clear 1/3.
    matroid = SimplePartitionMatroid.from_parts([{0, 1, 2}, {3, 4}, {5}])
    rng = gf.substream(6, "ident")

    def weight_sampler(r):
        return {e: float(r.integers(0, 100)) for e in range(6)}

    cache = {}
    gambler = prophet = 0.0
    for _ in range(3000):
        weights = weight_sampler(rng)
        value, accepted = schemes.partition_prophet(
            matroid, lambda r: matroid, weight_sampler, sorted(weights.items()), rng,
            calibration_trials=64, threshold_cache=cache,
        )
        assert matroid.is_independent(accepted)
        gambler += value
        prophet += matroid.weighted_rank(weights, list(weights))[0]
    assert gambler / prophet >= 1 / 3


def test_partition_prophet_zero_weights_empty():
    matroid = SimplePartitionMatroid.from_parts([{0}, {1}])
    value, accepted = schemes.partition_prophet(
        matroid, lambda r: matroid, lambda r: {0: 0.0, 1: 0.0},
        [(0, 0.0), (1, 0.0)], gf.substream(7, "z"), calibration_trials=16,
    )
    assert value == 0.0 and accepted == ()


def test_partition_prophet_detects_contract_violation():
    # Sub-matroid that is NOT a restriction of the host's independence:
    # two singleton parts inside a rank-one host.
    host = SimplePartitionMatroid.from_parts([[0, 1]])
    bad_partition = SimplePartitionMatroid.from_parts([{0}, {1}])
    with pytest.raises(AssertionError):
        schemes.partition_prophet(
            host, lambda r: bad_partition, lambda r: {0: 5.0, 1: 5.0},
            [(0, 5.0), (1, 5.0)], gf.substream(8, "bad"), calibration_trials=16,
        )


def test_partition_prophet_skips_excluded_elements():
    host = SimplePartitionMatroid.from_parts([{0}, {1}])
    sub = SimplePartitionMatroid.from_parts([{0}])  # element 1 excluded from E'
    value, accepted = schemes.partition_prophet(
        host, lambda r: sub, lambda r: {0: 1.0, 1: 9.0},
        [(1, 9.0), (0, 1.0)], gf.substream(9, "ex"), calibration_trials=16,
    )
    assert accepted == (0,)


# --- the policy suite --------------------------------------------------------


def test_policy_suite_names_and_count():
    policies = schemes.gambler_policy_suite((8, 4), bucketing=None)
    names = [p.name for p in policies]
    assert "accept-all-feasible" in names
    assert "level-threshold(1)" in names and "level-threshold(2)" in names
    assert any(n.startswith("per-level-cap") for n in names)
    assert any(n.startswith("random-accept") for n in names)


def test_accept_all_on_free_levels():
    rng = gf.substream(10, "pol")
    sample = sample_prophet_instance(16, 2, rng, condition_on_e_hard=True)
    value, accepted = schemes.run_policy(schemes.AcceptAllPolicy(), sample, rng)
    assert value > 0
    assert sample.matroid().is_independent(accepted)
    # level 1 columns are linearly independent: all of them get accepted
    level1 = [e for e in accepted if sample.params.level_of_label(e.label) == 1]
    assert len(level1) == 8


def test_level_threshold_policy_top_level_only():
    rng = gf.substream(11, "pol2")
    sample = sample_prophet_instance(16, 2, rng, condition_on_e_hard=True)
    policy = schemes.LevelThresholdPolicy(2)
    value, accepted = schemes.run_policy(policy, sample, rng)
    assert all(sample.params.level_of_label(e.label) == 2 for e in accepted)
    assert value == 4.0 * len(accepted)


def test_per_level_cap_policy():
    rng = gf.substream(12, "pol3")
    sample = sample_prophet_instance(16, 2, rng, condition_on_e_hard=True)
    policy = schemes.PerLevelCapPolicy(0.5, sample.params.level_sizes)
    _, accepted = schemes.run_policy(policy, sample, rng)
    level1 = sum(1 for e in accepted if sample.params.level_of_label(e.label) == 1)
    assert level1 <= policy.caps[0] == 4


def test_trace_callback_records_decisions():
    rng = gf.substream(13, "trace")
    sample = sample_prophet_instance(16, 2, rng, condition_on_e_hard=True)
    records = []
    schemes.run_policy(schemes.AcceptAllPolicy(), sample, rng, trace=records.append)
    assert records and all({"label", "weight", "accepted"} <= set(r) for r in records)


@pytest.mark.parametrize("d,kappa", [(16, 2), (64, 3)])
def test_mask_path_matches_the_images(d, kappa):
    # On the hardness event R is injective, so deciding independence on the
    # σ window masks gives what the images give through the same host.
    rng = gf.substream(14, "mask-oracle", d)
    samples = [sample_prophet_instance(d, kappa, rng, condition_on_e_hard=True) for _ in range(50)]
    images = [dataclasses.replace(s, mask_candidates=s.candidates) for s in samples]
    for s in samples:
        assert [(e.label, w) for e, w in s.mask_candidates] == [(e.label, w) for e, w in s.candidates]
    host = samples[0].matroid()

    def prophet(stream):
        weights = dict(stream)
        return host.weighted_rank(weights, list(weights))[0]

    values = [prophet(s.mask_candidates) for s in samples]
    assert values == [prophet(s.candidates) for s in samples]
    layout = schemes.bucket_layout(sum(values) / len(values), host.full_rank)
    opts = schemes.estimate_bucket_opts(host, [s.mask_candidates for s in samples], layout)
    assert opts == schemes.estimate_bucket_opts(host, [s.candidates for s in samples], layout)
    chosen = schemes.choose_bucket(opts)
    buckets = (*range(layout.k + 1), schemes.INF_BUCKET)
    policies = schemes.gambler_policy_suite(samples[0].params.level_sizes, bucketing=(layout, chosen))
    for i, (masked, imaged) in enumerate(zip(samples, images)):
        for b in buckets:
            assert schemes.bucketing_prophet(host, masked.mask_candidates, layout, b).value == \
                schemes.bucketing_prophet(host, imaged.candidates, layout, b).value
        for policy in policies:
            runs = [schemes.run_policy(policy, s, gf.substream(i, policy.name)) for s in (masked, imaged)]
            (v_mask, acc_mask), (v_image, acc_image) = runs
            assert v_mask == v_image
            assert [e.label for e in acc_mask] == [e.label for e in acc_image]
