"""Hard-instance generators for contention resolution and prophet runs.

The contention-resolution instance draws a pairwise-independent active set
over the duplicated linear matroid whose expected size equals the rank but
whose expected rank stays near the small design dimension.  The prophet
instance draws pairwise-independent weights on a duplicated binary matroid,
level by level, together with the fixed level-ascending arrival order that
makes the weights arrive in increasing order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import pifam
from .gf import FieldMatrix, PackedBasis, check_modulus, pack_bits, stacked_product
from .matroid import DuplicatedLinearMatroid, LabeledVector


@dataclass(frozen=True)
class CrsInstance:
    """Active-set distribution over GF(q)^d x [d] with d labeled copies."""

    q: int
    d: int
    c: int

    def __post_init__(self):
        check_modulus(self.q)
        if self.d <= 2:
            raise ValueError(f"need d > 2, got {self.d}")
        if self.q ** (self.c - 1) < self.d:
            raise ValueError(
                f"need q^(c-1) >= d, got {self.q}^{self.c - 1} < {self.d}"
            )

    @cached_property
    def sigma(self) -> FieldMatrix:
        return pifam.sigma_crs(self.q, self.c, self.d)

    @cached_property
    def matroid(self) -> DuplicatedLinearMatroid:
        return DuplicatedLinearMatroid(self.q, self.d, self.d)

    def labels(self) -> tuple[int, ...]:
        return tuple(range(1, self.d + 1))

    def marginal(self) -> Fraction:
        return Fraction(1, self.q**self.d)

    def expected_active_size(self) -> Fraction:
        """Exact E[|A|] = d, stratified over the two mixture branches."""
        w = self.marginal()
        return (1 - w) * self.d + w * (self.d * w * self.q**self.d)

    def sample(self, rng: np.random.Generator) -> pifam.ActiveSet:
        fam = pifam.ordered_family(self.sigma, self.d, rng)
        return pifam.matrix_to_set(fam, self.labels(), rng)

    @cached_property
    def _sigma_array(self) -> np.ndarray:
        return np.array(self.sigma.entries, np.int64)

    def sample_d1(self, rng: np.random.Generator) -> pifam.ActiveSet:
        """Sample conditioned on the explicit branch (for stratified estimates).

        R is drawn as ``random_matrix`` draws it, and the columns of R sigma
        come from ``stacked_product`` in the canonical vector form.
        """
        r = rng.integers(0, self.q, size=(self.d, self.c), dtype=np.int64)
        columns = stacked_product(r[None], self._sigma_array, self.q)[0].T.tolist()
        explicit = tuple(
            LabeledVector(pack_bits(v) if self.q == 2 else tuple(v), j + 1)
            for j, v in enumerate(columns)
        )
        return pifam.ActiveSet(self.q, self.d, self.labels(), explicit, frozenset(), "D1")


@dataclass(frozen=True)
class ProphetParams:
    """Parameters of the leveled weight distribution on GF(2)^{2d} x [n]."""

    d: int
    kappa: int

    def __post_init__(self):
        pifam.check_prophet_params(self.d, self.kappa)

    @property
    def ambient_dim(self) -> int:
        return 2 * self.d

    @cached_property
    def level_sizes(self) -> tuple[int, ...]:
        return tuple(self.d // 2**ell for ell in range(1, self.kappa + 1))

    @cached_property
    def _label_levels(self) -> tuple[int, ...]:
        """The level of each label, at index label - 1."""
        return tuple(ell for ell, size in enumerate(self.level_sizes, start=1) for _ in range(size))

    @property
    def n(self) -> int:
        return len(self._label_levels)

    def labels_of_level(self, ell: int) -> range:
        if not 1 <= ell <= self.kappa:
            raise ValueError(f"level {ell} outside [1, {self.kappa}]")
        offset = sum(self.level_sizes[: ell - 1])
        return range(offset + 1, offset + self.level_sizes[ell - 1] + 1)

    def level_of_label(self, label: int) -> int:
        levels = self._label_levels
        if not 1 <= label <= len(levels):
            raise ValueError(f"label {label} outside [1, {len(levels)}]")
        return levels[label - 1]

    def weight_of_level(self, ell: int) -> int:
        return 2**ell


@dataclass(frozen=True)
class ProphetSample:
    """One draw of the leveled weight assignment plus the fixed order.

    ``candidates`` lists the nonzero-weight labeled vectors in arrival
    order (levels ascending, labels ascending within a level); only these
    are materialized, since zero-weight elements contribute nothing to
    either player.  Levels that drew the correlated branch have no explicit
    candidates.

    ``mask_candidates`` is set on the hardness event only: the same
    candidates, in the same order, with each image R·σ replaced by its σ
    window mask.  There R is injective, so a set of images is independent in
    the host matroid exactly when its masks are, and the experiments decide
    independence on the d-bit masks instead of the 2d-bit images.  Off the
    event R may have a kernel, and the field is None.
    """

    params: ProphetParams
    actives: tuple[pifam.ActiveSet, ...]
    e_hard: bool
    rejections: int
    candidates: tuple[tuple[LabeledVector, int], ...]
    mask_candidates: tuple[tuple[LabeledVector, int], ...] | None

    def matroid(self) -> DuplicatedLinearMatroid:
        return DuplicatedLinearMatroid(2, self.params.ambient_dim, self.params.n)

    def weight(self, vector, label: int) -> int:
        ell = self.params.level_of_label(label)
        return self.params.weight_of_level(ell) if self.actives[ell - 1].contains(vector, label) else 0


def _r_column_masks(d: int, rng: np.random.Generator) -> list[int]:
    """Uniform R in GF(2)^{2d x d}, packed by column (bit t = row t)."""
    bits = rng.integers(0, 2, size=(2 * d, d), dtype=np.uint8)
    packed = np.packbits(bits, axis=0, bitorder="little")
    width = packed.shape[0]
    by_column = packed.T.tobytes()
    return [
        int.from_bytes(by_column[c * width : (c + 1) * width], "little") for c in range(d)
    ]


# Rejections after which conditioning on the hardness event gives up.
MAX_REJECTIONS = 100_000


def sample_prophet_instance(
    d: int,
    kappa: int,
    rng: np.random.Generator,
    *,
    condition_on_e_hard: bool = False,
) -> ProphetSample:
    """Draw weights and the fixed order for the leveled prophet instance.

    Per level, the designed block is pushed through a shared uniform map
    into GF(2)^{2d} and converted to an active set independently; active
    elements at level l carry weight 2^l.  The hardness event requires the
    map to be injective and every level to take the explicit branch; with
    ``condition_on_e_hard`` draws are rejected until it holds.
    """
    params = ProphetParams(d, kappa)
    rejections = 0
    while True:
        nested = pifam.sigma_prophet(d, kappa, rng)
        r_cols = _r_column_masks(d, rng)

        actives = []
        for ell in range(1, kappa + 1):
            columns = [
                col for part in nested.partitions[ell - 1] for col in pifam.window_sums(part, r_cols)
            ]
            labels = list(params.labels_of_level(ell))
            actives.append(
                pifam.matrix_to_set_from_columns(columns, 2, params.ambient_dim, labels, rng)
            )

        basis = PackedBasis(params.ambient_dim)
        full_rank = all(basis.add(c) for c in r_cols)
        e_hard = full_rank and all(a.branch == "D1" for a in actives)

        if condition_on_e_hard and not e_hard:
            rejections += 1
            if rejections > MAX_REJECTIONS:
                raise RuntimeError("rejection sampling for the hardness event did not converge")
            continue

        candidates = []
        for ell, active in enumerate(actives, start=1):
            w = params.weight_of_level(ell)
            candidates.extend(
                (e, w) for e in sorted(active.explicit, key=lambda e: e.label)
            )
        mask_candidates = None
        if e_hard:
            # Every level is explicit, so its labels and the block's masks
            # line up column for column, as the images do.
            mask_candidates = tuple(
                (LabeledVector(mask, label), params.weight_of_level(ell))
                for ell in range(1, kappa + 1)
                for mask, label in zip(nested.column_masks(ell), params.labels_of_level(ell))
            )
        return ProphetSample(
            params=params,
            actives=tuple(actives),
            e_hard=e_hard,
            rejections=rejections,
            candidates=tuple(candidates),
            mask_candidates=mask_candidates,
        )


@dataclass(frozen=True)
class WeightPairRow:
    case: str
    level_a: int
    level_b: int
    label_a: int
    label_b: int
    chi2: float
    dof: int
    pvalue: float
    rejected: bool


@dataclass(frozen=True)
class WeightIndependenceReport:
    rows: tuple[WeightPairRow, ...]
    marginal_rows: tuple[WeightPairRow, ...]
    bonferroni_level: float
    case1_zero_ok: bool
    d2_probability: float

    @property
    def any_rejected(self) -> bool:
        return any(r.rejected for r in self.rows) or any(r.rejected for r in self.marginal_rows)


# Projected bits per side of each weight-pair contingency table.
PROJECTION_BITS = 2


def pairwise_weight_test(
    d: int,
    kappa: int,
    trials: int,
    rng: np.random.Generator,
    *,
    level: float = 0.01,
    sigma_draws: int = 4,
) -> WeightIndependenceReport:
    """Chi-square check of the pairwise weight independence across levels.

    The raw weight events of a fixed labeled vector have probability
    2^(-2d), unobservable at desk scale, so each tested label pair is
    aggregated through a random projection: a few random coordinates of the
    two active vectors.  Under the claimed independence the projected pair
    is uniform on a small product table, and any pairwise correlation of
    the weight events over the projection fibers shows up as dependence.
    Same-level and cross-level label pairs are tested (the different-label
    proof cases); the same-label case and the mixture arithmetic are
    covered exactly by the toy enumeration in the verification module.
    Weight values constrained to {0, 2^level} (the remaining proof case)
    are asserted structurally on full instance draws.
    """
    from scipy import stats

    if d > 64:
        raise ValueError("vectorized weight test supports d <= 64")
    params = ProphetParams(d, kappa)
    per_draw = max(trials // sigma_draws, 1)
    cells = 1 << PROJECTION_BITS

    specs = []
    for ell in range(1, kappa + 1):
        if params.level_sizes[ell - 1] >= 2:
            specs.append(("same-level", ell, ell))
    for ell in range(1, kappa + 1):
        for ell2 in range(ell + 1, kappa + 1):
            specs.append(("cross-level", ell, ell2))

    rows: list[WeightPairRow] = []
    marginal_rows: list[WeightPairRow] = []
    n_tests = len(specs) * sigma_draws
    threshold = level / max(n_tests, 1)
    marg_threshold = level / max(2 * n_tests, 1)

    for _ in range(sigma_draws):
        nested = pifam.sigma_prophet(d, kappa, rng)
        masks_by_level = {ell: nested.column_masks(ell) for ell in range(1, kappa + 1)}
        for case, la, lb in specs:
            cols_a = masks_by_level[la]
            cols_b = masks_by_level[lb]
            ia = int(rng.integers(0, len(cols_a)))
            if case == "same-level":
                ib = int(rng.integers(0, len(cols_b) - 1))
                if ib >= ia:
                    ib += 1
            else:
                ib = int(rng.integers(0, len(cols_b)))
            mask_a = np.uint64(cols_a[ia])
            mask_b = np.uint64(cols_b[ib])
            label_a = list(params.labels_of_level(la))[ia]
            label_b = list(params.labels_of_level(lb))[ib]

            # Fresh uniform rows of the random map at 2*PROJECTION_BITS distinct
            # coordinates; the projected bits are parities against the
            # two designed columns.
            phi_a = np.zeros(per_draw, dtype=np.int64)
            phi_b = np.zeros(per_draw, dtype=np.int64)
            for k in range(PROJECTION_BITS):
                row = rng.integers(0, 2**64, size=per_draw, dtype=np.uint64)
                bit = (np.bitwise_count(row & mask_a) & np.uint64(1)).astype(np.int64)
                phi_a |= bit << k
                row = rng.integers(0, 2**64, size=per_draw, dtype=np.uint64)
                bit = (np.bitwise_count(row & mask_b) & np.uint64(1)).astype(np.int64)
                phi_b |= bit << k

            table = np.bincount(phi_a * cells + phi_b, minlength=cells * cells).reshape(
                cells, cells
            )
            chi2, dof, pvalue = _chi2_independence(table)
            rows.append(
                WeightPairRow(case, la, lb, label_a, label_b, chi2, dof, pvalue, pvalue < threshold)
            )
            for side, phi, lab, lev in (("a", phi_a, label_a, la), ("b", phi_b, label_b, lb)):
                counts = np.bincount(phi, minlength=cells)
                stat, pval = stats.chisquare(counts)
                marginal_rows.append(
                    WeightPairRow(
                        f"marginal-{side}", lev, lev, lab, lab,
                        float(stat), cells - 1, float(pval), pval < marg_threshold,
                    )
                )

    case1_zero_ok = True
    for _ in range(3):
        sample = sample_prophet_instance(d, kappa, rng)
        for e, w in sample.candidates:
            if w != params.weight_of_level(params.level_of_label(e.label)):
                case1_zero_ok = False

    return WeightIndependenceReport(
        rows=tuple(rows),
        marginal_rows=tuple(marginal_rows),
        bonferroni_level=threshold,
        case1_zero_ok=case1_zero_ok,
        d2_probability=float(Fraction(1, 2 ** params.ambient_dim)),
    )


def _chi2_independence(table: np.ndarray) -> tuple[float, int, float]:
    """Pearson chi-square of a contingency table against the product of its
    empirical margins."""
    from scipy import stats

    n = table.sum()
    row = table.sum(axis=1)
    col = table.sum(axis=0)
    expected = np.outer(row, col) / n
    live = expected > 0
    chi2 = float(((table[live] - expected[live]) ** 2 / expected[live]).sum())
    dof = (int((row > 0).sum()) - 1) * (int((col > 0).sum()) - 1)
    if dof <= 0:
        return chi2, 0, 1.0
    return chi2, dof, float(stats.chi2.sf(chi2, dof))
