"""Selection algorithms.

The greedy coin-flipping online contention resolution scheme, the bucketing
prophet algorithm, the single-choice threshold prophet, the partition-based
prophet, and the suite of gambler policies exercised by the hardness
experiments.

Every accepted set stays independent by construction: schemes go through
the matroid's incremental tracker and never force an infeasible element.
Policies are single-threaded per trial; independent trials run on derived
sub-streams with isolated state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .matroid import element_key


def flip_coins(elements: Iterable, probability: float, rng: np.random.Generator) -> dict:
    """Pre-committed accept/reject coins, one per element.

    Committing the coins up front is what lets an almighty adversary be
    simulated: order generators receive the realized coins.
    """
    return {e: bool(rng.random() < probability) for e in elements}


def order_label_ascending(actives: Sequence, coins: Mapping) -> list:
    return sorted(actives, key=element_key)


def order_label_descending(actives: Sequence, coins: Mapping) -> list:
    return sorted(actives, key=element_key, reverse=True)


def order_coin_adversarial(actives: Sequence, coins: Mapping) -> list:
    """Coin-aware almighty order: heads-elements first (post-hoc sort by
    acceptance coin), forcing maximal contention among would-be accepts."""
    return sorted(actives, key=lambda e: (not coins[e], element_key(e)))


ADVERSARY_ORDERS = {
    "label-ascending": order_label_ascending,
    "label-descending": order_label_descending,
    "coin-adversarial": order_coin_adversarial,
}


class GreedyOcrs:
    """Accept an active element iff its pre-committed coin (heads probability
    1/(2 Rank)) is heads and acceptance preserves independence.

    ``sweep`` yields the run's accepted set and every element's conditional
    selection contribution in one pass; ``run`` and
    ``selection_probability_given_active`` are its element-by-element
    oracles.
    """

    name = "greedy-ocrs"

    def __init__(self, matroid):
        self.matroid = matroid
        rank = matroid.full_rank
        if rank < 1:
            raise ValueError("matroid has rank zero")
        self.coin_probability = 1.0 / (2.0 * rank)

    def coins(self, elements: Iterable, rng: np.random.Generator) -> dict:
        return flip_coins(elements, self.coin_probability, rng)

    def run(self, active_order: Sequence, coins: Mapping, trace: Callable | None = None) -> tuple:
        tracker = self.matroid.tracker()
        accepted = []
        for e in active_order:
            take = coins[e] and tracker.add_if_independent(e)
            if take:
                accepted.append(e)
            if trace is not None:
                trace({"element": repr(e), "coin": bool(coins[e]), "accepted": take})
        return tuple(accepted)

    def selection_probability_given_active(self, element, actives, coins, adversary) -> float:
        """Conditional selection probability contribution for one occurrence.

        Forces the element's own coin to heads (its coin is independent of
        everything else), replays the adversary order and the greedy run,
        and scales the acceptance indicator by the coin probability.  The
        average of these contributions over active occurrences is an
        unbiased, low-variance estimate of Pr[selected | active].
        """
        forced = dict(coins)
        forced[element] = True
        tracker = self.matroid.tracker()
        for e in adversary(actives, forced):
            if forced[e]:
                took = tracker.add_if_independent(e)
                if e == element:
                    return self.coin_probability if took else 0.0
        return 0.0

    def sweep(
        self, actives: Sequence, coins: Mapping, adversary, forced: Iterable,
        trace: Callable | None = None,
    ) -> tuple[tuple, dict]:
        """The run's accepted set and the contribution of each element whose
        coin is heads or in ``forced``, from one pass.

        The adversary is called once, with every ``forced`` coin set to
        heads, and one tracker walks that order: a heads element is added
        (the run's decision and its contribution); a tails forced element
        is only probed, at the position that forcing its own coin alone
        would give it.  This equals ``run`` and, element by element,
        ``selection_probability_given_active`` for any adversary under which
        forcing one coin only repositions that element, as for every order
        in ``ADVERSARY_ORDERS``.  ``trace`` gets one record per element in
        the swept order.
        """
        heads = dict(coins)
        heads.update(dict.fromkeys(forced, True))
        tracker = self.matroid.tracker()
        p = self.coin_probability
        accepted = []
        contributions = {}
        for e in adversary(actives, heads):
            take = False
            if coins[e]:
                take = tracker.add_if_independent(e)
                if take:
                    accepted.append(e)
                contributions[e] = p if take else 0.0
            elif heads[e]:
                contributions[e] = p if tracker.would_accept(e) else 0.0
            if trace is not None:
                trace({"element": repr(e), "coin": bool(coins[e]), "accepted": take})
        return tuple(accepted), contributions


INF_BUCKET = -1


@dataclass(frozen=True)
class BucketLayout:
    """Weight buckets: geometric bins of width-factor two above opt/(2 rank),
    one underflow bucket below, one unbounded bucket above the top cut."""

    opt: float
    rank: int
    k: int
    base: float

    def bucket_of(self, w: float) -> int:
        """0 for the discarded low bucket, 1..k for regular buckets, and
        INF_BUCKET for the unbounded top bucket."""
        if w < self.base:
            return 0
        if w >= self.base * 2.0**self.k:
            return INF_BUCKET
        i = 1
        upper = self.base * 2.0
        while w >= upper:
            upper *= 2.0
            i += 1
        return i


def bucket_layout(opt: float, rank: int) -> BucketLayout:
    if opt <= 0:
        raise ValueError(f"need a positive optimum estimate, got {opt}")
    k = math.ceil(math.log2(8 * rank))
    return BucketLayout(opt=float(opt), rank=rank, k=k, base=float(opt) / (2.0 * rank))


def estimate_bucket_opts(matroid, draws: Sequence, layout: BucketLayout) -> tuple[float, ...]:
    """Mean optimal reward within each bucket over weight draws, for buckets
    1..k and then the unbounded bucket.

    Each draw is a realization [(element, weight), ...]; the bucket value of
    a draw is the weighted rank of the elements whose weight falls in it.
    """
    indices = (*range(1, layout.k + 1), INF_BUCKET)
    sums = dict.fromkeys(indices, 0.0)
    for draw in draws:
        per_bucket: dict[int, list] = {}
        for element, w in draw:
            b = layout.bucket_of(w)
            if b != 0:
                per_bucket.setdefault(b, []).append((element, w))
        for i, members in per_bucket.items():
            sums[i] += matroid.weighted_rank(dict(members), [e for e, _ in members])[0]
    n = max(len(draws), 1)
    return tuple(sums[i] / n for i in indices)


def choose_bucket(means: Sequence[float]) -> int:
    """Argmax bucket of the ``estimate_bucket_opts`` means; ties go to the
    lower index, with the unbounded bucket considered last."""
    best = max(range(len(means)), key=means.__getitem__)
    return INF_BUCKET if best == len(means) - 1 else best + 1


@dataclass(frozen=True)
class BucketingResult:
    accepted: tuple
    value: float


def bucketing_prophet(
    matroid,
    stream: Sequence,
    layout: BucketLayout,
    chosen: int,
    *,
    trace: Callable | None = None,
) -> BucketingResult:
    """The bucketing prophet algorithm.

    Greedily accepts arriving elements whose weight lands in the ``chosen``
    bucket of ``layout``, subject to independence.  The layout and bucket
    choice come from a calibration (``bucket_layout``, ``estimate_bucket_opts``
    and ``choose_bucket``) shared across trials of the same distribution.
    """
    tracker = matroid.tracker()
    accepted = []
    value = 0.0
    for element, w in stream:
        take = layout.bucket_of(w) == chosen and tracker.add_if_independent(element)
        if take:
            accepted.append(element)
            value += w
        if trace is not None:
            trace({"element": repr(element), "weight": w, "accepted": take})
    return BucketingResult(tuple(accepted), value)


def single_choice_prophet(stream: Sequence, threshold: float):
    """Accept the first arriving element with positive weight >= threshold;
    never accept a second."""
    for element, w in stream:
        if w > 0 and w >= threshold:
            return element, w
    return None


def calibrate_threshold(
    max_sampler: Callable[[np.random.Generator], float],
    calibration_trials: int,
    rng: np.random.Generator,
) -> float:
    """Empirical median-of-maximum threshold.

    Returns the sampled-maximum value whose tail probability is closest to
    one half (ties to the largest such value); all-zero or empty samples
    calibrate to zero.
    """
    maxima = sorted(float(max_sampler(rng)) for _ in range(calibration_trials))
    if not maxima or maxima[-1] <= 0:
        return 0.0
    n = len(maxima)
    best_tau = 0.0
    best_gap = float("inf")
    for idx, tau in enumerate(maxima):
        tail = (n - idx) / n
        gap = abs(tail - 0.5)
        if gap < best_gap or (gap == best_gap and tau > best_tau):
            best_gap, best_tau = gap, tau
    return best_tau


def partition_prophet(
    matroid,
    partition_sampler: Callable[[np.random.Generator], object],
    weight_sampler: Callable[[np.random.Generator], Mapping],
    stream: Sequence,
    rng: np.random.Generator,
    *,
    calibration_trials: int = 128,
    threshold_cache: dict | None = None,
) -> tuple[float, tuple]:
    """Partition-based prophet: one single-choice prophet per sampled part.

    Samples a simple partition sub-matroid, calibrates a threshold per part
    from fresh weight draws, and runs the threshold rule independently per
    part over the arrival stream.  Elements excluded from the sub-matroid
    are skipped.  The union is checked independent in the host matroid; a
    violation means the partition sampler broke the sub-matroid contract.
    """
    sub = partition_sampler(rng)
    cache_key = sub.parts
    thresholds = threshold_cache.get(cache_key) if threshold_cache is not None else None
    if thresholds is None:
        thresholds = []
        for part in sub.parts:
            def part_max(r, _part=part):
                weights = weight_sampler(r)
                return max((weights[e] for e in _part), default=0.0)

            thresholds.append(calibrate_threshold(part_max, calibration_trials, rng))
        thresholds = tuple(thresholds)
        if threshold_cache is not None:
            threshold_cache[cache_key] = thresholds
    taken: set[int] = set()
    accepted = []
    value = 0.0
    for element, w in stream:
        try:
            p = sub.part_of(element)
        except ValueError:
            continue
        if p in taken or w <= 0 or w < thresholds[p]:
            continue
        taken.add(p)
        accepted.append(element)
        value += w
    if not matroid.is_independent(accepted):
        raise AssertionError(
            f"partition sampler violated the sub-matroid contract: {accepted!r} "
            f"is dependent in the host matroid"
        )
    return value, tuple(accepted)


class OnlinePolicy:
    """A gambler: sees feasible nonzero-weight arrivals and decides
    irrevocably.  State is reset per trial."""

    name = "policy"

    def reset(self, rng: np.random.Generator):
        pass

    def want(self, weight: float, level: int) -> bool:
        raise NotImplementedError

    def accepted(self, weight: float, level: int):
        pass


class AcceptAllPolicy(OnlinePolicy):
    name = "accept-all-feasible"

    def want(self, weight, level):
        return True


class LevelThresholdPolicy(OnlinePolicy):
    def __init__(self, min_level: int):
        self.min_level = min_level
        self.name = f"level-threshold({min_level})"

    def want(self, weight, level):
        return level >= self.min_level


class PerLevelCapPolicy(OnlinePolicy):
    def __init__(self, fraction: float, level_sizes: Sequence[int]):
        self.fraction = fraction
        self.caps = [max(1, int(fraction * size)) for size in level_sizes]
        self.name = f"per-level-cap({fraction})"
        self._counts: list[int] = []

    def reset(self, rng):
        self._counts = [0] * len(self.caps)

    def want(self, weight, level):
        return self._counts[level - 1] < self.caps[level - 1]

    def accepted(self, weight, level):
        self._counts[level - 1] += 1


class RandomAcceptPolicy(OnlinePolicy):
    def __init__(self, probability: float):
        self.probability = probability
        self.name = f"random-accept({probability})"
        self._rng = None

    def reset(self, rng):
        self._rng = rng

    def want(self, weight, level):
        return bool(self._rng.random() < self.probability)


class BucketPolicy(OnlinePolicy):
    """The bucketing prophet wrapped as a gambler policy; the layout and
    bucket choice are estimated once per experiment, not per trial."""

    def __init__(self, layout: BucketLayout, chosen: int):
        self.layout = layout
        self.chosen = chosen
        self.name = f"bucketing(B{'inf' if chosen == INF_BUCKET else chosen})"

    def want(self, weight, level):
        return self.layout.bucket_of(weight) == self.chosen


def gambler_policy_suite(level_sizes: Sequence[int], bucketing: tuple[BucketLayout, int] | None = None):
    """Named witness policies for the gambler-bound experiments.

    The suite witnesses specific gamblers only; the theoretical bound
    quantifies over all gamblers, which no finite suite can certify.
    """
    kappa = len(level_sizes)
    policies: list[OnlinePolicy] = [AcceptAllPolicy()]
    policies.extend(LevelThresholdPolicy(t) for t in range(1, kappa + 1))
    policies.append(PerLevelCapPolicy(0.5, level_sizes))
    policies.append(RandomAcceptPolicy(0.5))
    if bucketing is not None:
        policies.append(BucketPolicy(*bucketing))
    return policies


def run_policy(policy: OnlinePolicy, sample, rng: np.random.Generator, trace: Callable | None = None) -> tuple[float, tuple]:
    """Simulate a gambler policy on a prophet-instance draw under its fixed
    arrival order.  Only feasible nonzero-weight arrivals reach the policy;
    acceptance goes through the matroid tracker, so the accepted set is
    independent by construction.

    The draw must lie on the hardness event: feasibility is decided on the
    candidates' σ window masks, which the accepted elements carry."""
    if sample.mask_candidates is None:
        raise ValueError("run_policy needs a draw on the hardness event")
    matroid = sample.matroid()
    tracker = matroid.tracker()
    policy.reset(rng)
    value = 0.0
    accepted = []
    for element, w in sample.mask_candidates:
        if w <= 0 or not tracker.would_accept(element):
            continue
        level = sample.params.level_of_label(element.label)
        take = policy.want(w, level)
        if take:
            if not tracker.add_if_independent(element):
                raise AssertionError("feasibility probe disagreed with tracker")
            policy.accepted(w, level)
            accepted.append(element)
            value += w
        if trace is not None:
            trace({"label": element.label, "weight": w, "accepted": take})
    return value, tuple(accepted)
