"""Pairwise- and k-wise-independent vector families.

Two constructions are provided.  The ordered one multiplies a designed
matrix with k-wise linearly independent columns by a uniformly random
matrix; the random linear map turns linear independence into stochastic
independence, and every output column is uniform.  The unordered one
converts the ordered family into a random set of labeled vectors whose
membership events are pairwise independent: with high probability the set
is just the labeled columns, and with small probability it is drawn from a
positively correlated distribution of full label blocks that exactly
cancels the negative correlation between same-label elements.

On top of these sit the two designed input matrices used by the hard
instances: a fat matrix with pairwise linearly independent columns, and the
nested multi-level system of column blocks with its alive-coordinate sets
and level partitions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .gf import FieldMatrix, PackedBasis, check_modulus, random_matrix
from .matroid import LabeledVector


def pairwise_linearly_independent(sigma: FieldMatrix) -> bool:
    """True iff no column is zero or a scalar multiple of another column."""
    q = sigma.modulus
    seen = set()
    for j in range(sigma.cols):
        col = sigma.column(j)
        lead = next((i for i, x in enumerate(col) if x), None)
        if lead is None:
            return False
        inv = pow(col[lead], q - 2, q)
        normalized = tuple((x * inv) % q for x in col)
        if normalized in seen:
            return False
        seen.add(normalized)
    return True


@dataclass(frozen=True)
class OrderedFamily:
    """Output matrix of the random-map construction plus its provenance."""

    x: FieldMatrix
    sigma: FieldMatrix
    r: FieldMatrix

    @property
    def q(self) -> int:
        return self.x.modulus

    @property
    def dim(self) -> int:
        return self.x.rows

    @property
    def n(self) -> int:
        return self.x.cols

    def columns(self) -> list:
        return self.x.column_vectors()


def ordered_family(sigma: FieldMatrix, d: int, rng: np.random.Generator) -> OrderedFamily:
    """Sample X = R * sigma with R uniform in GF(q)^{d x m}.

    Any k columns of X whose sigma-preimages are linearly independent are
    mutually independent, and every column is uniform on GF(q)^d.  Pairwise
    linear independence of sigma's columns is always verified.
    """
    if d < sigma.rows:
        raise ValueError(f"output dimension {d} below input dimension {sigma.rows}")
    if not pairwise_linearly_independent(sigma):
        raise ValueError("sigma columns are not pairwise linearly independent")
    r = random_matrix(d, sigma.rows, sigma.modulus, rng)
    return OrderedFamily(x=r.multiply(sigma), sigma=sigma, r=r)


@dataclass(frozen=True)
class ActiveSet:
    """Lazily represented random subset of GF(q)^dim x labels.

    Branch D1 lists one explicit labeled vector per input label; branch D2
    lists nothing explicitly and instead records the labels whose entire
    copy-class joined the set.
    """

    q: int
    dim: int
    labels: tuple[int, ...]
    explicit: tuple[LabeledVector, ...]
    full_blocks: frozenset[int]
    branch: str

    def __post_init__(self):
        if self.branch not in ("D1", "D2"):
            raise ValueError(f"unknown branch {self.branch!r}")
        if self.branch == "D1" and (self.full_blocks or len(self.explicit) != len(self.labels)):
            raise ValueError("branch D1 must list exactly one element per label")
        if self.branch == "D2" and self.explicit:
            raise ValueError("branch D2 has no explicit elements")

    def __iter__(self):
        return iter(self.explicit)

    def contains(self, vector, label: int) -> bool:
        if label in self.full_blocks:
            return True
        return LabeledVector(vector, label) in self.explicit

    def size(self) -> int:
        """Exact |A|; each full block contributes q^dim elements."""
        return len(self.explicit) + len(self.full_blocks) * self.q**self.dim


def matrix_to_set(x, labels, rng: np.random.Generator) -> ActiveSet:
    """Random set generation from a random matrix (the D1/D2 mixture).

    With probability 1 - 1/q^dim the set is the labeled columns of x; with
    probability 1/q^dim each label independently contributes its full copy
    class with probability 1/q^dim.
    """
    if isinstance(x, OrderedFamily):
        x = x.x
    if not isinstance(x, FieldMatrix):
        raise ValueError(f"expected a FieldMatrix or OrderedFamily, got {type(x).__name__}")
    return matrix_to_set_from_columns(x.column_vectors(), x.modulus, x.rows, labels, rng)


def matrix_to_set_from_columns(columns, q: int, dim: int, labels, rng: np.random.Generator) -> ActiveSet:
    """The D1/D2 mixture on pre-extracted column vectors.

    Same semantics as :func:`matrix_to_set`; this variant skips matrix
    bookkeeping for callers that already hold packed columns.
    """
    labels = tuple(int(i) for i in labels)
    if len(labels) != len(columns):
        raise ValueError(f"{len(labels)} labels for {len(columns)} columns")
    if len(labels) >= q**dim:
        raise ValueError(f"need fewer than q^dim = {q**dim} labels, got {len(labels)}")
    p = float(Fraction(1, q**dim))
    if rng.random() < p:
        blocks = frozenset(i for i in labels if rng.random() < p)
        return ActiveSet(q, dim, labels, (), blocks, "D2")
    explicit = tuple(LabeledVector(col, lab) for col, lab in zip(columns, labels))
    return ActiveSet(q, dim, labels, explicit, frozenset(), "D1")


def projective_point_count(q: int, c: int) -> int:
    """Number of pairwise-linearly-independent directions in GF(q)^c."""
    return (q**c - 1) // (q - 1)


def sigma_crs(q: int, c: int, d: int) -> FieldMatrix:
    """The designed c x d matrix with d pairwise linearly independent columns.

    Enumerates the vectors of GF(q)^c whose first nonzero coordinate is 1 in
    lexicographic order and takes the first d.  There are exactly
    (q^c - 1)/(q - 1) such directions, which is at least q^(c-1), so the
    usual sufficient condition q^(c-1) >= d is covered.
    """
    check_modulus(q)
    if c < 1 or d < 1:
        raise ValueError("need c >= 1 and d >= 1")
    if projective_point_count(q, c) < d:
        raise ValueError(
            f"only {projective_point_count(q, c)} pairwise linearly independent "
            f"directions exist in GF({q})^{c}, below {d}"
        )
    columns = []
    for vec in itertools.product(range(q), repeat=c):
        lead = next((x for x in vec if x), None)
        if lead == 1:
            columns.append(vec)
            if len(columns) == d:
                break
    return FieldMatrix.from_columns(columns, q)


def _window_columns(part: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Sliding-window column supports for one part: half as many columns as
    members, the t-th summing members t .. t + |part|/2 - 1 in ascending
    coordinate order."""
    half = len(part) // 2
    return [part[t : t + half] for t in range(half)]


def window_sums(part: tuple[int, ...], values: Sequence[int]) -> list[int]:
    """XOR of ``values[coord]`` over each window of ``_window_columns(part)``,
    from one walk: window t + 1 is window t without member t and with
    member t + |part|/2."""
    half = len(part) // 2
    acc = 0
    for coord in part[:half]:
        acc ^= values[coord]
    sums = [acc]
    for t in range(half - 1):
        acc ^= values[part[t]] ^ values[part[t + half]]
        sums.append(acc)
    return sums


@functools.cache
def _unit_masks(d: int) -> tuple[int, ...]:
    """Packed basis vectors of GF(2)^d: entry c has bit c set."""
    return tuple(1 << c for c in range(d))


def _survive_and_merge(parts: tuple[tuple[int, ...], ...], rng: np.random.Generator):
    """One level step: keep a uniformly random half of the parts, then merge
    consecutive survivors pairwise (in their original order)."""
    m = len(parts)
    if m % 4:
        raise ValueError(f"cannot continue from {m} parts")
    keep = np.sort(rng.choice(m, size=m // 2, replace=False))
    survivors = [parts[int(i)] for i in keep]
    merged = tuple(
        tuple(sorted(survivors[2 * i] + survivors[2 * i + 1])) for i in range(m // 4)
    )
    return merged, [int(i) for i in keep]


class NestedSigma:
    """The nested multi-level system: per level a partition of the alive
    coordinates into parts of size 2^level and a full-column-rank block of
    sliding-window columns supported on that level's alive coordinates."""

    def __init__(self, d: int, kappa: int, partitions):
        self.d = d
        self.kappa = kappa
        self.partitions = tuple(tuple(tuple(p) for p in level) for level in partitions)
        self._sigmas: list[FieldMatrix] | None = None

    @property
    def bases(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(c for p in level for c in p)) for level in self.partitions)

    def column_masks(self, level: int) -> list[int]:
        """Packed columns of the level's block (level is 1-based)."""
        units = _unit_masks(self.d)
        return [m for part in self.partitions[level - 1] for m in window_sums(part, units)]

    @property
    def sigmas(self) -> list[FieldMatrix]:
        if self._sigmas is None:
            self._sigmas = [
                FieldMatrix.from_columns(
                    [[(m >> i) & 1 for i in range(self.d)] for m in self.column_masks(ell)], 2
                )
                for ell in range(1, self.kappa + 1)
            ]
        return self._sigmas


def check_prophet_params(d: int, kappa: int) -> None:
    """Raise ValueError unless kappa >= 1 and d is a power of two with
    d >= 2^(2 kappa - 1), the sizes the nested construction needs."""
    if kappa < 1:
        raise ValueError("need kappa >= 1")
    if d < 2 or d & (d - 1):
        raise ValueError(f"d must be a power of two, got {d}")
    if d < 2 ** (2 * kappa - 1):
        raise ValueError(f"need d >= 2^(2*kappa - 1) = {2 ** (2 * kappa - 1)}, got {d}")


def sigma_prophet(d: int, kappa: int, rng: np.random.Generator) -> NestedSigma:
    """Construct the nested system of pairwise linearly independent columns.

    Level 1 pairs consecutive principal coordinates; each later level keeps
    a uniformly random half of the previous level's parts and merges
    survivors pairwise.  Columns are the sliding-window sums over each
    part's ascending coordinate enumeration, so level-l columns are sums of
    exactly 2^(l-1) distinct principal basis vectors, all columns across
    levels are distinct, and each block has full column rank.
    """
    check_prophet_params(d, kappa)
    parts: tuple[tuple[int, ...], ...] = tuple((2 * i, 2 * i + 1) for i in range(d // 2))
    partitions = [parts]
    for _ in range(2, kappa + 1):
        parts, _keep = _survive_and_merge(parts, rng)
        partitions.append(parts)
    return NestedSigma(d, kappa, partitions)


# Continuations on which survival_frequency asserts survival against the spans.
SURVIVAL_CROSS_CHECKS = 4


def survival_frequency(
    ns: NestedSigma, level: int, target_level: int, trials: int, rng: np.random.Generator,
    part_index: int = 0,
) -> float:
    """Empirical probability that a level's part stays alive at a later level
    over fresh continuations of the construction.

    A column of the level block lies in the span of a later level's alive
    coordinates exactly when its part survives every intermediate halving;
    the first few continuations assert that equivalence on the actual spans.
    """
    if not 1 <= level < target_level <= ns.kappa:
        raise ValueError("need 1 <= level < target_level <= kappa")
    base_parts = ns.partitions[level - 1]
    part = base_parts[part_index]
    mask = sum(1 << c for c in _window_columns(part)[0])
    alive_count = 0
    for t in range(trials):
        parts = base_parts
        container = part_index
        alive = True
        for _ in range(target_level - level):
            parts, keep = _survive_and_merge(parts, rng)
            if alive:
                if container in keep:
                    container = keep.index(container) // 2
                else:
                    alive = False
        if t < SURVIVAL_CROSS_CHECKS:
            alive_coords = sum(1 << c for p in parts for c in p)
            in_span = mask & ~alive_coords == 0
            if in_span != alive:
                raise AssertionError("part survival disagrees with span membership")
        alive_count += alive
    return alive_count / trials


@dataclass(frozen=True)
class NestedPropertyReport:
    nesting_ok: bool
    block_rank_ok: bool
    distinct_columns_ok: bool
    survival_rows: tuple[tuple[int, int, float, float, float], ...]
    survival_ok: bool
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.nesting_ok and self.block_rank_ok and self.distinct_columns_ok and self.survival_ok


def check_nested_properties(ns: NestedSigma, trials: int, rng: np.random.Generator) -> NestedPropertyReport:
    """Verify the four structural properties of a nested system.

    Nesting/sizes, full column rank with correct support, and distinctness
    are checked deterministically on the sample; the survival property is
    checked by re-sampling continuations, comparing frequencies against
    1/2^(gap) within a 3-sigma binomial interval.
    """
    violations: list[str] = []

    bases = ns.bases
    nesting_ok = True
    for ell in range(1, ns.kappa + 1):
        want = ns.d // 2 ** (ell - 1)
        if len(bases[ell - 1]) != want:
            nesting_ok = False
            violations.append(f"|B_{ell}| = {len(bases[ell - 1])} != {want}")
        if ell > 1 and not set(bases[ell - 1]) <= set(bases[ell - 2]):
            nesting_ok = False
            violations.append(f"B_{ell} not nested in B_{ell - 1}")

    block_rank_ok = True
    all_masks: list[int] = []
    for ell in range(1, ns.kappa + 1):
        masks = ns.column_masks(ell)
        all_masks.extend(masks)
        want_cols = ns.d // 2**ell
        base_mask = sum(1 << c for c in bases[ell - 1])
        if len(masks) != want_cols:
            block_rank_ok = False
            violations.append(f"level {ell}: {len(masks)} columns != {want_cols}")
        if any(m & ~base_mask for m in masks):
            block_rank_ok = False
            violations.append(f"level {ell}: column support outside alive coordinates")
        if any(bin(m).count("1") != 2 ** (ell - 1) for m in masks):
            block_rank_ok = False
            violations.append(f"level {ell}: column is not a sum of 2^{ell - 1} basis vectors")
        basis = PackedBasis(ns.d)
        if sum(basis.add(m) for m in masks) != len(masks):
            block_rank_ok = False
            violations.append(f"level {ell}: columns not linearly independent")

    distinct_ok = len(set(all_masks)) == len(all_masks)
    if not distinct_ok:
        violations.append("columns across levels are not distinct")

    rows = []
    survival_ok = True
    if trials > 0:
        for ell in range(1, ns.kappa):
            for target in range(ell + 1, ns.kappa + 1):
                j = int(rng.integers(0, len(ns.partitions[ell - 1])))
                freq = survival_frequency(ns, ell, target, trials, rng, part_index=j)
                expected = 0.5 ** (target - ell)
                sigma = (expected * (1 - expected) / trials) ** 0.5
                rows.append((ell, target, freq, expected, sigma))
                if abs(freq - expected) > 3 * sigma:
                    survival_ok = False
                    violations.append(
                        f"survival {ell}->{target}: {freq:.4f} outside 3 sigma of {expected:.4f}"
                    )

    return NestedPropertyReport(
        nesting_ok=nesting_ok,
        block_rank_ok=block_rank_ok,
        distinct_columns_ok=distinct_ok,
        survival_rows=tuple(rows),
        survival_ok=survival_ok,
        violations=tuple(violations),
    )
