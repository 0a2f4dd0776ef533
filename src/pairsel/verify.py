"""Statistical and exact verification harness.

Exact checks enumerate every random-tape state with rational arithmetic and
must come out at deviation zero; Monte Carlo checks are seeded, report
confidence intervals at a configurable sigma multiple (default 3), and
aggregate through associative (count, sum, sum-of-squares) merges so that
results are independent of chunking and thread scheduling.
"""

from __future__ import annotations

import copy
import gc
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import ocrs_kernel, pifam, schemes
from .gf import (
    FieldMatrix,
    check_modulus,
    generator_state,
    stacked_product,
    stacked_rank,
    vector_basis,
)
from .instances import CrsInstance, ProphetParams, sample_prophet_instance
from .matroid import (
    DuplicatedLinearMatroid,
    LabeledVector,
    SimplePartitionMatroid,
    complete_graph,
    sample_graphic_partition,
)

DEFAULT_SIGMAS = 3.0
EXACT_TAPE_LIMIT = 2**24
CHUNK_SIZE = 1024  # trials per run_chunks sub-stream
# Trials per random draw inside a crs_hardness_gap chunk: consecutive draws
# give the numbers one draw of the whole chunk gives, and a block keeps each
# thread's int64 draw at 80 KiB (d = 16, c = 5) instead of 640 KiB.
DRAW_BLOCK = 128


# ---------------------------------------------------------------------------
# Estimates and accumulators


@dataclass(frozen=True)
class Accumulator:
    """Associative (count, sum, sum of squares) triple."""

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0

    def add(self, x: float) -> "Accumulator":
        return Accumulator(self.count + 1, self.total + x, self.total_sq + x * x)

    def merge(self, other: "Accumulator") -> "Accumulator":
        return Accumulator(
            self.count + other.count,
            self.total + other.total,
            self.total_sq + other.total_sq,
        )

    @classmethod
    def from_samples(cls, xs: Iterable[float]) -> "Accumulator":
        acc = cls()
        for x in xs:
            acc = acc.add(x)
        return acc


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo point estimate with trial count, standard error, and a
    normal confidence interval at ``sigmas`` standard errors."""

    mean: float
    trials: int
    std_error: float
    ci_low: float
    ci_high: float
    sigmas: float = DEFAULT_SIGMAS

    @classmethod
    def from_accumulator(cls, acc: Accumulator, sigmas: float = DEFAULT_SIGMAS) -> "Estimate":
        if acc.count == 0:
            return cls(float("nan"), 0, float("nan"), float("nan"), float("nan"), sigmas)
        mean = acc.total / acc.count
        var = max(acc.total_sq / acc.count - mean * mean, 0.0)
        se = math.sqrt(var / acc.count)
        return cls(mean, acc.count, se, mean - sigmas * se, mean + sigmas * se, sigmas)

    @classmethod
    def from_samples(cls, xs: Iterable[float], sigmas: float = DEFAULT_SIGMAS) -> "Estimate":
        return cls.from_accumulator(Accumulator.from_samples(xs), sigmas)

    def scaled(self, factor: float, offset: float = 0.0) -> "Estimate":
        lo = factor * self.ci_low + offset
        hi = factor * self.ci_high + offset
        return Estimate(
            factor * self.mean + offset,
            self.trials,
            abs(factor) * self.std_error,
            min(lo, hi),
            max(lo, hi),
            self.sigmas,
        )


@dataclass(frozen=True)
class RatioAccumulator:
    """Paired moments for a ratio-of-means estimate E[x]/E[y]."""

    count: int = 0
    sum_x: float = 0.0
    sum_y: float = 0.0
    sum_xx: float = 0.0
    sum_yy: float = 0.0
    sum_xy: float = 0.0

    def add(self, x: float, y: float) -> "RatioAccumulator":
        return RatioAccumulator(
            self.count + 1,
            self.sum_x + x,
            self.sum_y + y,
            self.sum_xx + x * x,
            self.sum_yy + y * y,
            self.sum_xy + x * y,
        )

    @property
    def x(self) -> Accumulator:
        """Moments of the numerator alone."""
        return Accumulator(self.count, self.sum_x, self.sum_xx)

    @property
    def y(self) -> Accumulator:
        """Moments of the denominator alone."""
        return Accumulator(self.count, self.sum_y, self.sum_yy)

    def merge(self, other: "RatioAccumulator") -> "RatioAccumulator":
        return RatioAccumulator(
            self.count + other.count,
            self.sum_x + other.sum_x,
            self.sum_y + other.sum_y,
            self.sum_xx + other.sum_xx,
            self.sum_yy + other.sum_yy,
            self.sum_xy + other.sum_xy,
        )

    def estimate(self, sigmas: float = DEFAULT_SIGMAS) -> Estimate:
        """Delta-method interval for the ratio of means."""
        n = self.count
        if n == 0 or self.sum_y == 0:
            return Estimate(float("nan"), n, float("nan"), float("nan"), float("nan"), sigmas)
        mean_x, mean_y = self.sum_x / n, self.sum_y / n
        r = mean_x / mean_y
        var_x = max(self.sum_xx / n - mean_x**2, 0.0)
        var_y = max(self.sum_yy / n - mean_y**2, 0.0)
        cov = self.sum_xy / n - mean_x * mean_y
        var_r = max(var_x - 2 * r * cov + r * r * var_y, 0.0) / (n * mean_y * mean_y)
        se = math.sqrt(var_r)
        return Estimate(r, n, se, r - sigmas * se, r + sigmas * se, sigmas)


def run_chunks(
    chunk_fn: Callable[[np.random.Generator, int], object],
    trials: int,
    rng: np.random.Generator,
    *,
    threads: int = 1,
):
    """Run ``trials`` split into chunks of ``CHUNK_SIZE`` on derived
    sub-streams and merge the chunk accumulators.

    Chunk streams come from spawning the parent generator, so the merged
    result is a pure function of (generator, trials) and the thread count
    changes wall time only.
    """
    sizes = []
    remaining = trials
    while remaining > 0:
        sizes.append(min(CHUNK_SIZE, remaining))
        remaining -= CHUNK_SIZE
    streams = rng.spawn(len(sizes))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(chunk_fn, streams, sizes))
    else:
        results = [chunk_fn(s, n) for s, n in zip(streams, sizes)]
    out = results[0]
    for r in results[1:]:
        out = out.merge(r)
    return out


# ---------------------------------------------------------------------------
# Exact enumeration checks


@dataclass(frozen=True)
class ExactCheckResult:
    construction: str
    q: int
    m: int
    n: int
    d: int
    states: int
    max_marginal_deviation: Fraction
    max_joint_deviation: Fraction

    @property
    def deviation(self) -> Fraction:
        return max(self.max_marginal_deviation, self.max_joint_deviation)


def _tally_maps(q: int, d: int, m: int, cols, subsets) -> tuple[dict, dict]:
    """Enumerate every random map R in GF(q)^{d x m}, each with equal weight,
    and count the column images ``(j, R col_j)`` and, for each subset s of
    column indices, the joint images ``(s, (R col_j for j in s))``."""
    marginals: dict = {}
    joints: dict = {}
    for flat in itertools.product(range(q), repeat=d * m):
        rows = [flat[i * m : (i + 1) * m] for i in range(d)]
        images = [tuple(sum(a * b for a, b in zip(row, col)) % q for row in rows) for col in cols]
        for j, img in enumerate(images):
            marginals[(j, img)] = marginals.get((j, img), 0) + 1
        for s in subsets:
            key = (s, tuple(images[j] for j in s))
            joints[key] = joints.get(key, 0) + 1
    return marginals, joints


def exact_pairwise_check(
    construction: str,
    q: int,
    m: int,
    n: int,
    d: int,
    *,
    sigma: FieldMatrix | None = None,
    k: int = 2,
    mixture_weight: Fraction | None = None,
    block_probability: Fraction | None = None,
) -> ExactCheckResult:
    """Exhaustively verify independence of a construction with rationals.

    ``ordered`` enumerates every random map and compares all joint column
    distributions of size up to k against products of marginals (and each
    marginal against 1/q^d).  ``unordered`` additionally folds in the
    two-branch mixture analytically, covering every labeled pair including
    same-label ones.  Any nonzero deviation is a construction bug, except
    under the deliberate corruption knobs used by mutation tests.
    """
    check_modulus(q)
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    states = q ** (d * m)
    if states > EXACT_TAPE_LIMIT:
        raise ValueError(f"random tape has {states} states, above the exact limit {EXACT_TAPE_LIMIT}")
    if sigma is None:
        sigma = pifam.sigma_crs(q, m, n)
    if sigma.rows != m or sigma.cols != n:
        raise ValueError(f"sigma must be {m}x{n}, got {sigma.rows}x{sigma.cols}")
    cols = [sigma.column(j) for j in range(n)]

    if construction == "ordered":
        return _exact_ordered(q, m, n, d, cols, states, k)
    if construction == "unordered":
        return _exact_unordered(q, m, n, d, cols, states, mixture_weight, block_probability)
    raise ValueError(f"unknown construction {construction!r}")


def _exact_ordered(q, m, n, d, cols, states, k) -> ExactCheckResult:
    subsets = [s for size in range(2, k + 1) for s in itertools.combinations(range(n), size)]
    marginals, joints = _tally_maps(q, d, m, cols, subsets)

    uniform = Fraction(1, q**d)
    max_marg = Fraction(0)
    for j in range(n):
        for value in itertools.product(range(q), repeat=d):
            p = Fraction(marginals.get((j, value), 0), states)
            max_marg = max(max_marg, abs(p - uniform))

    max_joint = Fraction(0)
    for (s, values), count in joints.items():
        p = Fraction(count, states)
        expected = Fraction(1)
        for j, v in zip(s, values):
            expected *= Fraction(marginals.get((j, v), 0), states)
        max_joint = max(max_joint, abs(p - expected))
    # Unseen joint combinations still have a nonzero product of marginals.
    for s in subsets:
        for values in itertools.product(itertools.product(range(q), repeat=d), repeat=len(s)):
            if (s, values) in joints:
                continue
            expected = Fraction(1)
            for j, v in zip(s, values):
                expected *= Fraction(marginals.get((j, v), 0), states)
            max_joint = max(max_joint, expected)
    return ExactCheckResult("ordered", q, m, n, d, states, max_marg, max_joint)


def _exact_unordered(q, m, n, d, cols, states, mixture_weight, block_probability) -> ExactCheckResult:
    w = Fraction(1, q**d) if mixture_weight is None else Fraction(mixture_weight)
    b = Fraction(1, q**d) if block_probability is None else Fraction(block_probability)

    col_marg, col_joint = _tally_maps(q, d, m, cols, list(itertools.combinations(range(n), 2)))

    vectors = list(itertools.product(range(q), repeat=d))
    uniform = Fraction(1, q**d)

    def marginal(v, i) -> Fraction:
        return (1 - w) * Fraction(col_marg.get((i, v), 0), states) + w * b

    max_marg = Fraction(0)
    for i in range(n):
        for v in vectors:
            max_marg = max(max_marg, abs(marginal(v, i) - uniform))

    max_joint = Fraction(0)
    elements = [(v, i) for i in range(n) for v in vectors]
    for a in range(len(elements)):
        v, i = elements[a]
        for bidx in range(a + 1, len(elements)):
            u, j = elements[bidx]
            if i == j:
                # Explicit branch never lists two vectors under one label;
                # only a full block includes both, with a single coin.
                joint = w * b
            else:
                key = ((i, j), (v, u)) if i < j else ((j, i), (u, v))
                joint = (1 - w) * Fraction(col_joint.get(key, 0), states) + w * b * b
            product = marginal(v, i) * marginal(u, j)
            max_joint = max(max_joint, abs(joint - product))
    return ExactCheckResult("unordered", q, m, n, d, states, max_marg, max_joint)


def exact_prophet_weight_check(d: int = 2, kappa: int = 1) -> ExactCheckResult:
    """Exact enumeration of the toy prophet weight distribution.

    At kappa = 1 the designed block is deterministic, so enumerating the
    random map and folding in the mixture analytically covers the whole
    tape.  Weight events coincide with membership events (weight 2^level
    versus zero), so a zero deviation here is exactly the pairwise weight
    independence claim at toy scale, same-label pairs included.
    """
    params = ProphetParams(d, kappa)
    if kappa != 1:
        raise ValueError("the exact toy check enumerates a single level")
    rng = np.random.default_rng(0)  # kappa = 1: the construction is deterministic
    nested = pifam.sigma_prophet(d, kappa, rng)
    sigma = nested.sigmas[0]
    return exact_pairwise_check(
        "unordered", 2, sigma.rows, sigma.cols, params.ambient_dim, sigma=sigma
    )


# ---------------------------------------------------------------------------
# CRS hardness gap


@dataclass(frozen=True)
class CrsGapReport:
    q: int
    d: int
    c: int
    trials: int
    rank_estimate: Estimate
    rank_estimate_unbiased: Estimate
    d1_rank_mean: float
    d2_rank_exact: Fraction
    active_size_exact: Fraction
    ratio_estimate: Estimate
    paper_bound: Fraction
    vacuous: bool


def crs_hardness_gap(
    q: int,
    d: int,
    c: int,
    trials: int,
    rng: np.random.Generator,
    *,
    threads: int = 1,
    sigmas: float = DEFAULT_SIGMAS,
) -> CrsGapReport:
    """Stratified estimate of E[Rank(A)] / E[|A|] for the CRS instance.

    The explicit branch is sampled; the correlated branch is folded in
    analytically with its worst-case rank d (weight 1/q^d), so the reported
    mean is a certified upper bound in expectation.  E[|A|] = d exactly.

    A chunk draws its R in blocks of ``DRAW_BLOCK`` trials, which yields
    the same numbers as one ``random_matrix`` draw per trial, and ranks each
    block in one stacked elimination.  sigma need not have full row rank,
    so the kernel ranks R sigma_S for columns sigma_S that form a basis of
    sigma's column space: both products have the same column space.  The
    chunk's first trial is recomputed by ``FieldMatrix`` product and rank,
    the slow path, and a mismatch raises.
    """
    instance = CrsInstance(q, d, c)
    sigma = instance.sigma
    sigma_s = _column_basis(sigma)

    def chunk(stream: np.random.Generator, count: int) -> Accumulator:
        parts = []
        for start in range(0, count, DRAW_BLOCK):
            draws = stream.integers(0, q, (min(DRAW_BLOCK, count - start), d, c), np.int64)
            parts.append(stacked_rank(stacked_product(draws, sigma_s, q), q))
            if start == 0:
                first = FieldMatrix.from_rows(draws[0].tolist(), q).multiply(sigma).rank()
        ranks = np.concatenate(parts)
        if first != ranks[0]:
            raise AssertionError(f"stacked rank {ranks[0]} disagrees with FieldMatrix rank {first}")
        # Ranks are integers, so these float sums are exact in any order; the
        # first trial enters as the oracle's rank.
        rest = ranks[1:]
        return Accumulator(count - 1, float(rest.sum()), float(rest @ rest)).add(float(first))

    acc = run_chunks(chunk, trials, rng, threads=threads)
    d1 = Estimate.from_accumulator(acc, sigmas)
    w_exact = Fraction(1, q**d)
    w = float(w_exact)
    # Conditioned on the correlated branch the rank is d iff some label
    # drew its full block: exactly d (1 - (1 - 1/q^d)^d) in expectation.
    d2_exact = d * (1 - (1 - w_exact) ** d)
    stratified = d1.scaled(1.0 - w, offset=w * d)
    unbiased = d1.scaled(1.0 - w, offset=w * float(d2_exact))
    bound = Fraction(c + 1, d)
    return CrsGapReport(
        q=q,
        d=d,
        c=c,
        trials=trials,
        rank_estimate=stratified,
        rank_estimate_unbiased=unbiased,
        d1_rank_mean=d1.mean,
        d2_rank_exact=d2_exact,
        active_size_exact=instance.expected_active_size(),
        ratio_estimate=stratified.scaled(1.0 / d),
        paper_bound=bound,
        vacuous=bound >= 1,
    )


def _column_basis(sigma: FieldMatrix) -> np.ndarray:
    """The first columns of sigma, left to right, that form a basis of its
    column space, as an integer array of shape (rows, rank)."""
    basis = vector_basis(sigma.modulus, sigma.rows)
    picked = [sigma.column(j) for j in range(sigma.cols) if basis.add(sigma.column_vector(j))]
    return np.array(picked, np.int64).T


def crs_naive_rank_estimate(
    q: int, d: int, c: int, trials: int, rng: np.random.Generator, sigmas: float = DEFAULT_SIGMAS
) -> Estimate:
    """Unstratified E[Rank(A)] through the full sampling pipeline; the
    cross-check counterpart of the stratified estimator."""
    instance = CrsInstance(q, d, c)
    matroid = instance.matroid
    acc = Accumulator()
    for _ in range(trials):
        acc = acc.add(float(matroid.rank(instance.sample(rng))))
    return Estimate.from_accumulator(acc, sigmas)


# ---------------------------------------------------------------------------
# Balance certification (the numeric certifier criterion)


class FGroundSet:
    name = "ground-set"

    def intersect(self, active, matroid):
        if isinstance(active, pifam.ActiveSet):
            return active.size(), matroid.rank(active)
        elems = list(active)
        return len(elems), matroid.rank(elems)


@dataclass(frozen=True)
class FExplicit:
    """An explicit element family; suits small ground sets."""

    name: str
    elements: frozenset

    def intersect(self, active, matroid):
        hit = [e for e in active if e in self.elements]
        return len(hit), matroid.rank(hit)


@dataclass(frozen=True)
class FLabelClass:
    """All vectors carrying one of the given labels."""

    labels: frozenset

    @property
    def name(self) -> str:
        return f"labels{sorted(self.labels)}"

    def intersect(self, active: pifam.ActiveSet, matroid):
        blocks = active.full_blocks & self.labels
        explicit = [e for e in active.explicit if e.label in self.labels]
        size = len(explicit) + len(blocks) * active.q**active.dim
        if blocks:
            rank = matroid.full_rank
        else:
            rank = matroid.rank(explicit)
        return size, rank


@dataclass(frozen=True)
class FFlat:
    """A flat (span of fixed vectors) crossed with every label."""

    vectors: frozenset
    rank: int

    @property
    def name(self) -> str:
        return f"flat(rank {self.rank})"

    def intersect(self, active: pifam.ActiveSet, matroid):
        explicit = [e for e in active.explicit if e.vector in self.vectors]
        size = len(explicit) + len(active.full_blocks) * len(self.vectors)
        if active.full_blocks:
            rank = self.rank
        else:
            rank = matroid.rank_of_vectors([e.vector for e in explicit])
        return size, rank


@dataclass(frozen=True)
class FamilyOutcome:
    name: str
    ratio: Estimate
    insufficient: bool


@dataclass(frozen=True)
class CertifierReport:
    """One-sided balance certificate: a failed family is conclusive for
    that family, a pass is evidence only (the criterion quantifies over all
    element sets)."""

    target: float
    families: tuple[FamilyOutcome, ...]
    min_ratio: Estimate
    verdict: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "verdict", self.passes(self.target))

    def passes(self, target: float) -> bool:
        return all(
            f.insufficient or f.ratio.ci_high >= target for f in self.families
        )


def certify_balance(
    sampler: Callable[[np.random.Generator], object],
    matroid,
    target: float,
    families: Sequence,
    trials: int,
    rng: np.random.Generator,
    *,
    sigmas: float = DEFAULT_SIGMAS,
) -> CertifierReport:
    """Estimate E[Rank(A & F)] / E[|A & F|] for each family and compare to
    the target balance ratio.  The verdict fails iff some family's interval
    upper bound sits below the target."""
    accs = [RatioAccumulator() for _ in families]
    for _ in range(trials):
        active = sampler(rng)
        for idx, fam in enumerate(families):
            size, rank = fam.intersect(active, matroid)
            accs[idx] = accs[idx].add(float(rank), float(size))
    outcomes = []
    for fam, acc in zip(families, accs):
        insufficient = acc.sum_y == 0
        outcomes.append(FamilyOutcome(fam.name, acc.estimate(sigmas), insufficient))
    with_data = [o for o in outcomes if not o.insufficient]
    min_ratio = min(
        (o.ratio for o in with_data), key=lambda e: e.mean,
        default=Estimate(float("nan"), 0, float("nan"), float("nan"), float("nan"), sigmas),
    )
    return CertifierReport(target=target, families=tuple(outcomes), min_ratio=min_ratio)


# ---------------------------------------------------------------------------
# Prophet hardness gap


@dataclass(frozen=True)
class PolicyOutcome:
    name: str
    reward: Estimate
    ratio_to_prophet: Estimate


@dataclass(frozen=True)
class ProphetGapReport:
    d: int
    kappa: int
    trials: int
    prophet: Estimate
    policies: tuple[PolicyOutcome, ...]
    prophet_stated_bound: float
    gambler_stated_bound: float
    ratio_stated_bound: float
    # A gambler never beats the prophet, so a bound of 1 or more can only
    # catch an interval blow-up.
    ratio_gate_vacuous: bool
    observed_prophet_constant: float
    rejections: int
    note: str = (
        "the suite witnesses specific gamblers; the stated bound quantifies "
        "over all gamblers and cannot be certified by testing"
    )

    @property
    def best_policy(self) -> PolicyOutcome:
        return max(self.policies, key=lambda p: p.reward.mean)


def _calibrate_bucketing(matroid, d: int, kappa: int, aux_trials: int, rng: np.random.Generator):
    """Bucket layout and bucket choice from an auxiliary sample of hardness-
    event draws: (opt estimate, layout, chosen bucket, rejections)."""
    total = 0.0
    draws = []
    rejections = 0
    for _ in range(aux_trials):
        sample = sample_prophet_instance(d, kappa, rng, condition_on_e_hard=True)
        rejections += sample.rejections
        weights = dict(sample.mask_candidates)
        value, _ = matroid.weighted_rank(weights, list(weights))
        total += value
        draws.append(sample.mask_candidates)
    opt_est = total / max(aux_trials, 1)
    layout = schemes.bucket_layout(opt_est, matroid.full_rank)
    chosen = schemes.choose_bucket(schemes.estimate_bucket_opts(matroid, draws, layout))
    return opt_est, layout, chosen, rejections


def prophet_hardness_gap(
    d: int,
    kappa: int,
    trials: int,
    rng: np.random.Generator,
    *,
    aux_trials: int = 300,
    sigmas: float = DEFAULT_SIGMAS,
) -> ProphetGapReport:
    """Prophet versus gambler-policy rewards, conditioned on the hardness
    event by rejection sampling.

    The prophet value is the offline maximum-weight independent set; each
    suite policy is simulated under the fixed level-ascending order.  The
    bucketing policy's layout and bucket choice are estimated once from an
    auxiliary sample before the measured trials.  Every draw lies on the
    hardness event, so independence is decided on the candidates' σ window
    masks (``ProphetSample.mask_candidates``).
    """
    params = ProphetParams(d, kappa)
    matroid = DuplicatedLinearMatroid(2, params.ambient_dim, params.n)
    _opt_est, layout, chosen, rejections = _calibrate_bucketing(matroid, d, kappa, aux_trials, rng)

    policies = schemes.gambler_policy_suite(params.level_sizes, bucketing=(layout, chosen))
    ratio_accs = {p.name: RatioAccumulator() for p in policies}
    for _ in range(trials):
        sample = sample_prophet_instance(d, kappa, rng, condition_on_e_hard=True)
        rejections += sample.rejections
        weights = dict(sample.mask_candidates)
        prophet_value, _ = matroid.weighted_rank(weights, list(weights))
        for policy in policies:
            value, _ = schemes.run_policy(policy, sample, rng)
            ratio_accs[policy.name] = ratio_accs[policy.name].add(value, prophet_value)

    # Every policy's denominator is the same prophet value, trial by trial.
    prophet_est = Estimate.from_accumulator(ratio_accs[policies[0].name].y, sigmas)
    outcomes = tuple(
        PolicyOutcome(name, Estimate.from_accumulator(acc.x, sigmas), acc.estimate(sigmas))
        for name, acc in ratio_accs.items()
    )
    ratio_bound = 10.0 / kappa
    return ProphetGapReport(
        d=d,
        kappa=kappa,
        trials=trials,
        prophet=prophet_est,
        policies=outcomes,
        prophet_stated_bound=kappa * d / 10.0,
        gambler_stated_bound=2.0 * d,
        ratio_stated_bound=ratio_bound,
        ratio_gate_vacuous=ratio_bound >= 1.0,
        observed_prophet_constant=prophet_est.mean / (kappa * d),
        rejections=rejections,
    )


# ---------------------------------------------------------------------------
# OCRS balance


@dataclass(frozen=True)
class AdversaryBalance:
    adversary: str
    qualifying_elements: int
    insufficient_elements: int
    loop_occurrences: int
    min_ci_low: float
    min_mean: float
    worst_element: object
    pooled: Estimate
    pooled_plain: Estimate


@dataclass(frozen=True)
class OcrsBalanceReport:
    trials: int
    min_occurrences: int
    d1_factor: float
    per_adversary: tuple[AdversaryBalance, ...]

    def worst_min_ci_low(self) -> float:
        return min(a.min_ci_low for a in self.per_adversary)


# Active occurrences an element needs before its interval enters the minimum.
MIN_OCCURRENCES = 30


def ocrs_balance(
    scheme,
    sampler: Callable[[np.random.Generator], Sequence],
    adversaries: Mapping[str, Callable],
    trials: int,
    rng: np.random.Generator,
    *,
    d1_factor: float = 1.0,
    sigmas: float = DEFAULT_SIGMAS,
    trace: Callable | None = None,
) -> OcrsBalanceReport:
    """Per-element conditional selection probabilities under each adversary.

    Uses the scheme's conditional estimator (coin forced to heads, run
    replayed) per active occurrence, which is unbiased for
    Pr[selected | active] with variance small enough for per-element
    intervals.  Loops are tallied but excluded from the minimum: no scheme
    can select a loop, and the balance criterion presumes loop marginals
    are zero.  ``d1_factor`` scales estimates one-sidedly when the sampler
    conditions away an analytically bounded branch.

    Each trial takes one ``scheme.sweep`` per adversary, which gives the
    run's accepted set and every non-loop contribution at once.  On the
    first trial the sweep is checked against its oracles, ``scheme.run``
    and one ``selection_probability_given_active`` replay per element, and
    a mismatch raises.  Contributions are summed in ``non_loops`` order.

    This is the element-by-element path for any scheme and sampler;
    ``crs_ocrs_balance`` runs the CRS instance as a block kernel, and this
    function is its test oracle.
    """
    stats_per: dict[str, dict] = {name: {} for name in adversaries}
    loops = {name: 0 for name in adversaries}
    plain: dict[str, Accumulator] = {name: Accumulator() for name in adversaries}
    # Running (count, sum, sum of squares) of the pooled contributions.
    pooled = {name: [0, 0.0, 0.0] for name in adversaries}

    for trial in range(trials):
        active = sampler(rng)
        elements = list(active)
        loops_here, non_loops = [], []
        for e in elements:
            (loops_here if _is_loop(e) else non_loops).append(e)
        coins = scheme.coins(non_loops, rng)
        coins.update(dict.fromkeys(loops_here, False))
        for name, adversary in adversaries.items():
            accepted, contributions = scheme.sweep(elements, coins, adversary, non_loops, trace)
            if trial == 0:
                _check_sweep(scheme, elements, coins, adversary, non_loops, accepted, contributions)
            per, pool = stats_per[name], pooled[name]
            for e in non_loops:
                contribution = contributions[e]
                entry = per.setdefault(e, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += contribution
                entry[2] += contribution * contribution
                pool[0] += 1
                pool[1] += contribution
                pool[2] += contribution * contribution
            # The plain indicator is 0 or 1, so its sums are exact in any order.
            accepted_set = set(accepted)
            hits = float(sum(e in accepted_set for e in non_loops))
            plain[name] = plain[name].merge(Accumulator(len(non_loops), hits, hits))
            loops[name] += len(elements) - len(non_loops)

    reports = []
    for name in adversaries:
        qualifying = {
            e: v for e, v in stats_per[name].items() if v[0] >= MIN_OCCURRENCES
        }
        insufficient = len(stats_per[name]) - len(qualifying)
        min_ci = float("inf")
        min_mean = float("inf")
        worst = None
        for e, (n, s, s2) in qualifying.items():
            est = Estimate.from_accumulator(Accumulator(n, s, s2), sigmas).scaled(d1_factor)
            if est.ci_low < min_ci:
                min_ci = est.ci_low
                worst = e
            min_mean = min(min_mean, est.mean)
        reports.append(
            AdversaryBalance(
                adversary=name,
                qualifying_elements=len(qualifying),
                insufficient_elements=insufficient,
                loop_occurrences=loops[name],
                min_ci_low=min_ci if qualifying else float("nan"),
                min_mean=min_mean if qualifying else float("nan"),
                worst_element=worst,
                pooled=Estimate.from_accumulator(Accumulator(*pooled[name]), sigmas).scaled(
                    d1_factor
                ),
                pooled_plain=Estimate.from_accumulator(plain[name], sigmas),
            )
        )
    return OcrsBalanceReport(
        trials=trials,
        min_occurrences=MIN_OCCURRENCES,
        d1_factor=d1_factor,
        per_adversary=tuple(reports),
    )


def _check_sweep(scheme, elements, coins, adversary, non_loops, accepted, contributions):
    """Raise unless a sweep equals its oracles: the scheme's run for the
    accepted set, and a forced-coin replay for each non-loop contribution."""
    if accepted != scheme.run(adversary(elements, coins), coins):
        raise AssertionError(f"sweep accepted {accepted!r}, the run disagrees")
    for e in non_loops:
        replay = scheme.selection_probability_given_active(e, elements, coins, adversary)
        if contributions[e] != replay:
            raise AssertionError(f"sweep gave {contributions[e]} for {e!r}, the replay {replay}")


def _is_loop(e) -> bool:
    v = e.vector if isinstance(e, LabeledVector) else e
    return v == 0 if isinstance(v, int) else not any(v)


# Trials per decision block of crs_ocrs_balance: its (block, d, d) work
# arrays stay the same size at any trial count.
OCRS_BLOCK = 512


def crs_ocrs_balance(
    q: int,
    d: int,
    c: int,
    trials: int,
    rng: np.random.Generator,
    *,
    sigmas: float = DEFAULT_SIGMAS,
    trace: Callable | None = None,
) -> OcrsBalanceReport:
    """Greedy OCRS balance on the CRS hard instance under the standard
    adversary orders, sampling the explicit branch and folding the
    correlated branch into a one-sided factor 1 - 1/q^d.

    The report, the trace and the generator's final state equal those of
    ``ocrs_balance`` on ``instance.sample_d1`` (its test oracle), but the
    trials run as a block kernel with no per-element Python objects:

    * Draws, one short loop per trial: R as ``sample_d1`` draws it, then
      one ``random()`` per non-loop column of R·σ in label order, as
      ``GreedyOcrs.coins`` draws the non-loops' coins.
    * Decisions, once per block of ``OCRS_BLOCK`` trials: R·σ by one
      ``stacked_product``, then per adversary the walk of
      ``GreedyOcrs.sweep`` with every non-loop forced, one ``stacked_rank``
      per position deciding whether the column is independent of the
      accepted ones.
    * Sums by counts: a contribution is p = 1/(2d) or 0.0, and adding 0.0
      changes no float, so each element's and each pooled sum is the
      sequential sum of k copies of p (or p·p), k the count of hits.

    The per-trial path stays live in the run: trial 0 is replayed through
    ``sample_d1`` and ``GreedyOcrs.coins`` on copies of the generator, its
    sweeps are checked by ``_check_sweep``, and the first trial of every
    block is checked against ``GreedyOcrs.sweep`` under every adversary.
    A mismatch raises AssertionError.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    instance = CrsInstance(q, d, c)
    scheme = schemes.GreedyOcrs(instance.matroid)
    p = scheme.coin_probability
    sigma = np.array(instance.sigma.entries, np.int64)
    draw = ocrs_kernel.drawer(q, sigma)
    _check_first_draw(
        instance, scheme, rng, lambda r: ocrs_kernel.block_inputs(*draw(r, 1), sigma, q, p)
    )
    names = tuple(schemes.ADVERSARY_ORDERS)
    tally = None
    taken = np.zeros(len(names), np.int64)
    occurrences = 0
    for start in range(0, trials, OCRS_BLOCK):
        drawn = draw(rng, min(OCRS_BLOCK, trials - start))
        v, non_loop, heads = ocrs_kernel.block_inputs(*drawn, sigma, q, p)
        sweeps = {}
        for name in names:
            positions = ocrs_kernel.SWEPT_POSITIONS[name](non_loop)
            sweeps[name] = (positions, *ocrs_kernel.greedy_sweeps(v, heads, positions, q))
        for t in range(v.shape[0] if trace is not None else 1):
            elements, coins = ocrs_kernel.trial_elements(v[t], q), heads[t].tolist()
            trial = {name: tuple(a[t].tolist() for a in sweep) for name, sweep in sweeps.items()}
            if t == 0:
                _check_kernel_trial(scheme, elements, coins, non_loop[t].tolist(), trial,
                                    first=start == 0)
            if trace is not None:
                for positions, _, took in trial.values():
                    for record in ocrs_kernel.swept_records(elements, positions, coins, took):
                        trace(record)
        keys = ocrs_kernel.element_keys(v, q)[non_loop]
        hits = np.array([sweeps[name][1][non_loop] for name in names])
        block = (keys, occurrences + np.arange(keys.size), np.ones(keys.size), hits)
        if tally is not None:
            block = tuple(np.concatenate(part, axis=-1) for part in zip(tally, block))
        tally = ocrs_kernel.tally(*block)
        occurrences += keys.size
        taken += [sweeps[name][2].sum() for name in names]

    keys, first, counts, hits = tally
    order = np.argsort(first)
    keys, counts, hits = keys[order], counts[order].astype(np.int64), hits[:, order].astype(np.int64)
    totals = hits.sum(axis=1)
    factor = 1.0 - float(instance.marginal())
    qualifying = counts >= MIN_OCCURRENCES
    reports = []
    for a, name in enumerate(names):
        # The qualifying elements' sums, then the pooled sum.
        ks = np.append(hits[a, qualifying], totals[a])
        sums, squares = ocrs_kernel.repeated_sums(p, ks), ocrs_kernel.repeated_sums(p * p, ks)
        worst, min_ci, min_mean = ocrs_kernel.min_interval(
            counts[qualifying], sums[:-1], squares[:-1], sigmas, factor
        )
        pooled = Accumulator(occurrences, float(sums[-1]), float(squares[-1]))
        plain = Accumulator(occurrences, float(taken[a]), float(taken[a]))
        reports.append(
            AdversaryBalance(
                adversary=name,
                qualifying_elements=int(qualifying.sum()),
                insufficient_elements=int((~qualifying).sum()),
                loop_occurrences=trials * d - occurrences,
                min_ci_low=min_ci,
                min_mean=min_mean,
                worst_element=(
                    None if worst is None else ocrs_kernel.key_element(keys[qualifying][worst], q, d)
                ),
                pooled=Estimate.from_accumulator(pooled, sigmas).scaled(factor),
                pooled_plain=Estimate.from_accumulator(plain, sigmas),
            )
        )
    # The per-element path allocated enough container objects to set off the
    # collector's full collections; the kernel allocates few, so reference
    # cycles that earlier commands of the process left in the oldest
    # generation would wait there.  One full collection per call (about 7 ms)
    # keeps repeated in-process runs at the per-element path's memory.
    gc.collect()
    return OcrsBalanceReport(
        trials=trials,
        min_occurrences=MIN_OCCURRENCES,
        d1_factor=factor,
        per_adversary=tuple(reports),
    )


def _check_first_draw(instance, scheme, rng: np.random.Generator, kernel_trial: Callable):
    """Raise unless trial 0 of the kernel, drawn on a copy of the generator,
    has the elements, coins and final generator state that ``sample_d1``
    and ``scheme.coins`` give on another copy."""
    replay, probe = copy.deepcopy(rng), copy.deepcopy(rng)
    elements = list(instance.sample_d1(replay).explicit)
    coins = dict.fromkeys(elements, False)
    coins.update(scheme.coins([e for e in elements if not _is_loop(e)], replay))
    v, _, heads = kernel_trial(probe)
    kernel_elements = ocrs_kernel.trial_elements(v[0], instance.q)
    if kernel_elements != elements or dict(zip(kernel_elements, heads[0].tolist())) != coins:
        raise AssertionError(f"kernel drew {kernel_elements!r}, sample_d1 {elements!r}")
    if generator_state(probe) != generator_state(replay):
        raise AssertionError("the kernel's trial 0 left the generator in another state")


def _check_kernel_trial(scheme, elements, heads, non_loop, sweeps, *, first: bool):
    """Raise unless one trial of the kernel equals ``GreedyOcrs.sweep`` under
    every adversary: the accepted set, the contributions and the swept order
    with its records.  On the run's first trial the sweeps are also checked
    by ``_check_sweep`` against the run and the forced-coin replays."""
    coins = dict(zip(elements, heads))
    non_loops = [e for e, keep in zip(elements, non_loop) if keep]
    p = scheme.coin_probability
    for name, adversary in schemes.ADVERSARY_ORDERS.items():
        positions, independent, took = sweeps[name]
        records = []
        accepted, contributions = scheme.sweep(elements, coins, adversary, non_loops, records.append)
        if first:
            _check_sweep(scheme, elements, coins, adversary, non_loops, accepted, contributions)
        kernel = (
            tuple(elements[j] for j in positions if took[j]),
            {elements[j]: p if independent[j] else 0.0 for j in positions if non_loop[j]},
            ocrs_kernel.swept_records(elements, positions, heads, took),
        )
        if kernel != (accepted, contributions, records):
            raise AssertionError(f"the {name} kernel sweep disagrees with GreedyOcrs.sweep")


# ---------------------------------------------------------------------------
# Prophet benchmarks (single-choice, partition, bucketing)


@dataclass(frozen=True)
class BenchmarkReport:
    name: str
    trials: int
    gambler: Estimate
    prophet: Estimate
    ratio: Estimate
    target: float

    @property
    def ok(self) -> bool:
        return self.ratio.ci_high >= self.target


def _packed_family_sampler(n: int):
    """Supports of the designed columns for a GF(2) family of n values;
    returns (supports, m) for the smallest admissible design dimension m."""
    m = 1
    while 2 ** (m - 1) < n:
        m += 1
    sigma = pifam.sigma_crs(2, m, n)
    supports = [
        tuple(i for i in range(m) if sigma.entries[i][j]) for j in range(n)
    ]
    return supports, m


def _sample_values(supports, m: int, d: int, rng: np.random.Generator) -> list[int]:
    """Pairwise-independent uniform values on [0, 2^d) via a random map."""
    cols = [int(x) for x in rng.integers(0, 2**d, size=m, dtype=np.uint64)]
    values = []
    for sup in supports:
        v = 0
        for c in sup:
            v ^= cols[c]
        values.append(v)
    return values


# The prophet benchmarks: values uniform on [0, 2^BENCH_VALUE_BITS); the
# rank-one benchmark has RANK_ONE_ELEMENTS of them, the graphic one weighs
# the edges of K4.  Each *_CALIBRATION is the number of draws per threshold.
BENCH_VALUE_BITS = 10
RANK_ONE_ELEMENTS = 5
RANK_ONE_CALIBRATION = 4096
GRAPHIC_CALIBRATION = 256


def rank_one_benchmark(
    trials: int,
    rng: np.random.Generator,
    *,
    sigmas: float = DEFAULT_SIGMAS,
) -> BenchmarkReport:
    """Single-choice threshold prophet on pairwise-independent uniform
    values built from the random-map family; target ratio 1/3."""
    supports, m = _packed_family_sampler(RANK_ONE_ELEMENTS)

    def draw(r):
        return _sample_values(supports, m, BENCH_VALUE_BITS, r)

    threshold = schemes.calibrate_threshold(
        lambda r: max(draw(r)), RANK_ONE_CALIBRATION, rng
    )
    acc = RatioAccumulator()
    for _ in range(trials):
        values = draw(rng)
        stream = list(enumerate(values))
        pick = schemes.single_choice_prophet(stream, threshold)
        gambler = float(pick[1]) if pick is not None else 0.0
        acc = acc.add(gambler, float(max(values)))
    return BenchmarkReport(
        name="rank-one-single-choice",
        trials=trials,
        gambler=Estimate.from_accumulator(acc.x, sigmas),
        prophet=Estimate.from_accumulator(acc.y, sigmas),
        ratio=acc.estimate(sigmas),
        target=1.0 / 3.0,
    )


def graphic_partition_benchmark(
    trials: int,
    rng: np.random.Generator,
    *,
    sigmas: float = DEFAULT_SIGMAS,
) -> BenchmarkReport:
    """Partition-based prophet on the graphic matroid of K4 with pairwise-
    independent weights; the random-permutation partition gives alpha = 1/2
    for graphs, hence target ratio 1/6."""
    graph = complete_graph(4)
    supports, m = _packed_family_sampler(len(graph.edges))

    def weight_draw(r) -> dict:
        return dict(enumerate(_sample_values(supports, m, BENCH_VALUE_BITS, r)))

    cache: dict = {}
    acc = RatioAccumulator()
    for _ in range(trials):
        weights = weight_draw(rng)
        stream = sorted(weights.items())
        value, _accepted = schemes.partition_prophet(
            graph,
            lambda r: sample_graphic_partition(graph, r),
            weight_draw,
            stream,
            rng,
            calibration_trials=GRAPHIC_CALIBRATION,
            threshold_cache=cache,
        )
        prophet, _ = graph.weighted_rank(weights, list(weights))
        acc = acc.add(value, prophet)
    return BenchmarkReport(
        name="graphic-partition-prophet",
        trials=trials,
        gambler=Estimate.from_accumulator(acc.x, sigmas),
        prophet=Estimate.from_accumulator(acc.y, sigmas),
        ratio=acc.estimate(sigmas),
        target=1.0 / 6.0,
    )


@dataclass(frozen=True)
class BucketingBenchmarkReport:
    d: int
    kappa: int
    trials: int
    opt_estimate: float
    k: int
    chosen_bucket: int
    reward: Estimate
    guarantee: float

    @property
    def ok(self) -> bool:
        return self.reward.ci_low >= self.guarantee


def prophet_bucketing_benchmark(
    d: int,
    kappa: int,
    trials: int,
    rng: np.random.Generator,
    *,
    aux_trials: int = 300,
    sigmas: float = DEFAULT_SIGMAS,
    trace: Callable | None = None,
) -> BucketingBenchmarkReport:
    """Run the bucketing prophet on the leveled hard instance and compare
    its mean reward with the opt/(4 (k+1)) guarantee.  ``trace`` receives
    one record per arrival of the measured trials."""
    params = ProphetParams(d, kappa)
    matroid = DuplicatedLinearMatroid(2, params.ambient_dim, params.n)
    opt_est, layout, chosen, _rejections = _calibrate_bucketing(matroid, d, kappa, aux_trials, rng)

    acc = Accumulator()
    for _ in range(trials):
        sample = sample_prophet_instance(d, kappa, rng, condition_on_e_hard=True)
        result = schemes.bucketing_prophet(
            matroid, sample.mask_candidates, layout, chosen, trace=trace
        )
        acc = acc.add(result.value)
    reward = Estimate.from_accumulator(acc, sigmas)
    return BucketingBenchmarkReport(
        d=d,
        kappa=kappa,
        trials=trials,
        opt_estimate=opt_est,
        k=layout.k,
        chosen_bucket=chosen,
        reward=reward,
        guarantee=opt_est / (4.0 * (layout.k + 1)),
    )


# ---------------------------------------------------------------------------
# Pairwise actives on a partition matroid (the positive certificate)


# The certificate benchmark: PARTITION_PARTS parts of PART_SIZE elements, each
# element active with probability 1/2^VALUE_DIM.  PART_SIZE <= 2^VALUE_DIM
# keeps the marginals inside the matroid polytope.
PARTITION_PARTS = 10
PART_SIZE = 8
VALUE_DIM = 3
PARTITION_RANDOM_FAMILIES = 4  # random explicit subsets per families call


class PartitionActiveBench:
    """A ten-part benchmark whose active events are pairwise independent
    with marginals summing to one per part."""

    n = PARTITION_PARTS * PART_SIZE
    marginal = 1.0 / 2**VALUE_DIM

    @property
    def matroid(self) -> SimplePartitionMatroid:
        return SimplePartitionMatroid.from_parts(
            [range(i * PART_SIZE, (i + 1) * PART_SIZE) for i in range(PARTITION_PARTS)]
        )

    def pairwise_sampler(self) -> Callable[[np.random.Generator], frozenset]:
        """Element i is active iff its family vector hits its fixed target;
        the events are pairwise independent Bernoulli(1/2^VALUE_DIM)."""
        supports, m = _packed_family_sampler(self.n)
        targets = [(i % (2**VALUE_DIM - 1)) + 1 for i in range(self.n)]

        def sample(rng: np.random.Generator) -> frozenset:
            values = _sample_values(supports, m, VALUE_DIM, rng)
            return frozenset(i for i, v in enumerate(values) if v == targets[i])

        return sample

    def product_sampler(self) -> Callable[[np.random.Generator], frozenset]:
        """Mutually independent actives with the same marginals."""
        p = self.marginal
        n = self.n

        def sample(rng: np.random.Generator) -> frozenset:
            mask = rng.random(n) < p
            return frozenset(int(i) for i in np.nonzero(mask)[0])

        return sample

    def families(self, rng: np.random.Generator) -> list:
        fams: list = [FGroundSet()]
        for i in range(PARTITION_PARTS):
            fams.append(FExplicit(f"part-{i}", frozenset(range(i * PART_SIZE, (i + 1) * PART_SIZE))))
        for t in range(PARTITION_RANDOM_FAMILIES):
            size = int(rng.integers(2, self.n))
            chosen = rng.choice(self.n, size=size, replace=False)
            fams.append(FExplicit(f"random-subset-{t}", frozenset(int(i) for i in chosen)))
        return fams


PARTITION_BALANCE_TARGET = (1.0 / 1.299) * (1.0 - math.exp(-1.0))
PRODUCT_BALANCE_TARGET = 1.0 - math.exp(-1.0)
