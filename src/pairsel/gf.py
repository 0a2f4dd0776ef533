"""Exact arithmetic and linear algebra over prime fields GF(q).

Conventions used throughout the package:

* Vectors over GF(2) are packed into Python integers, bit ``i`` holding
  coordinate ``i``.  XOR is then both vector addition and the workhorse of
  Gaussian elimination, and arbitrary dimensions come for free.
* Vectors over odd primes are tuples of residues in ``[0, q)``.
* Matrices are immutable after construction and safe to share across
  threads.  The only stateful object is the random generator, which is
  always passed explicitly.

Randomness is counter-based and splittable: ``substream(seed, *labels)``
returns an independent generator that is a pure function of its arguments,
so parallel trials can derive non-overlapping streams deterministically.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MAX_MODULUS = 2**31


def is_prime(n: int) -> bool:
    """Trial-division primality test; sufficient for the moduli in scope."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def check_modulus(q: int) -> int:
    if not isinstance(q, int) or not 2 <= q < MAX_MODULUS:
        raise ValueError(f"modulus must be an integer in [2, 2^31), got {q!r}")
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    return q


def substream(seed: int, *labels: object) -> np.random.Generator:
    """Independent random stream keyed by ``hash(seed, labels)``.

    Built on the counter-based Philox generator so that sub-streams for
    distinct label paths never collide and results are reproducible across
    platforms and thread schedules.  The generator is seeded through a seed
    sequence, so further deterministic children can be derived by spawning.
    """
    payload = repr((int(seed), labels)).encode()
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    entropy = int.from_bytes(digest, "big")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def generator_state(rng: np.random.Generator) -> str:
    """The state of a generator's bit generator as a string, equal exactly
    when the states are."""
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=lambda a: a.tolist())


def pack_bits(vector: Iterable[int]) -> int:
    """Pack a 0/1 coordinate sequence into an integer, bit i = coordinate i."""
    packed = 0
    for i, b in enumerate(vector):
        if b & 1:
            packed |= 1 << i
    return packed


@dataclass(frozen=True)
class FieldMatrix:
    """Dense immutable matrix over GF(q), entries stored row-major."""

    rows: int
    cols: int
    modulus: int
    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], q: int) -> "FieldMatrix":
        check_modulus(q)
        data = tuple(tuple(int(v) % q for v in row) for row in rows)
        n_rows = len(data)
        n_cols = len(data[0]) if data else 0
        if any(len(r) != n_cols for r in data):
            raise ValueError("ragged rows")
        return cls(n_rows, n_cols, q, data)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]], q: int) -> "FieldMatrix":
        if not columns:
            return cls.from_rows([], q)
        rows = list(zip(*columns))
        return cls.from_rows(rows, q)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def column_vector(self, j: int):
        """Column in canonical vector form: packed int for GF(2), tuple otherwise."""
        col = self.column(j)
        return pack_bits(col) if self.modulus == 2 else col

    def column_vectors(self) -> list:
        return [self.column_vector(j) for j in range(self.cols)]

    def multiply(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.modulus != other.modulus:
            raise ValueError(f"modulus mismatch: {self.modulus} vs {other.modulus}")
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        q = self.modulus
        out = []
        bcols = list(zip(*other.entries)) if other.entries else []
        for arow in self.entries:
            out.append(tuple(sum(a * b for a, b in zip(arow, bcol)) % q for bcol in bcols))
        return FieldMatrix(self.rows, other.cols, q, tuple(out))

    def rank(self) -> int:
        """GF(q) rank: the rows folded into an incremental elimination basis."""
        basis = vector_basis(self.modulus, self.cols)
        for row in self.entries:
            basis.add(pack_bits(row) if self.modulus == 2 else row)
        return basis.rank

    def __repr__(self):
        return f"FieldMatrix({self.rows}x{self.cols} mod {self.modulus})"


class PackedBasis:
    """Incremental GF(2) elimination basis over packed vectors of GF(2)^dim.

    Supports span queries and insert-if-independent in O(rank) word ops,
    which is what the duplicated-matroid rank oracle and the online
    selection schemes run on.  The pivot row whose leading bit is bit i sits
    in slot i + 1 (the vector's bit length) of a list of dim + 1 slots, 0
    marking a free slot; slot 0 stays 0, which stops a reduction at the zero
    vector.  A vector with a bit at or above ``dim`` raises IndexError.
    """

    __slots__ = ("_pivots", "_rank")

    def __init__(self, dim: int):
        self._pivots = [0] * (dim + 1)
        self._rank = 0

    def reduce(self, v: int) -> int:
        pivots = self._pivots
        while row := pivots[v.bit_length()]:
            v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def add(self, v: int) -> bool:
        """Insert v if independent of the current span; True if rank grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        self._pivots[v.bit_length()] = v
        self._rank += 1
        return True

    @property
    def rank(self) -> int:
        return self._rank


class ModBasis:
    """Incremental elimination basis over GF(q) tuple vectors (odd q)."""

    __slots__ = ("q", "dim", "_rows", "_pivot_cols")

    def __init__(self, q: int, dim: int):
        self.q = q
        self.dim = dim
        self._rows: list[list[int]] = []
        self._pivot_cols: list[int] = []

    def _reduce(self, v: Sequence[int]) -> list[int]:
        q = self.q
        v = [x % q for x in v]
        for row, col in zip(self._rows, self._pivot_cols):
            f = v[col]
            if f:
                v = [(a - f * b) % q for a, b in zip(v, row)]
        return v

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self._reduce(v))

    def add(self, v: Sequence[int]) -> bool:
        v = self._reduce(v)
        col = next((i for i, x in enumerate(v) if x), None)
        if col is None:
            return False
        inv = pow(v[col], self.q - 2, self.q)
        self._rows.append([(x * inv) % self.q for x in v])
        self._pivot_cols.append(col)
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)


def vector_basis(q: int, dim: int):
    """Fresh incremental basis in the canonical vector representation for q."""
    return PackedBasis(dim) if q == 2 else ModBasis(q, dim)


@functools.cache
def _work_type(q: int) -> tuple[type, int]:
    """Narrowest signed integer type that holds q (q - 1), a residue plus a
    product of two residues and the largest value the stacked kernels form
    between reductions, with the number of products a sum in that type can
    take between reductions."""
    dtype = next(t for t in (np.int16, np.int32, np.int64) if q * (q - 1) <= np.iinfo(t).max)
    return dtype, (int(np.iinfo(dtype).max) - (q - 1)) // (q - 1) ** 2


def stacked_product(left: np.ndarray, right: np.ndarray, q: int) -> np.ndarray:
    """``left[i] @ right`` over GF(q) for a stack ``left`` of shape (n, r, k)
    and one (k, s) matrix, entries residues in [0, q).

    Sums stay in the narrow work type: they are reduced as often as the
    type requires, which for small q is once at the end.
    """
    dtype, span = _work_type(q)
    left = left.astype(dtype, copy=False)
    right = np.asarray(right, dtype=dtype)
    out = np.zeros((*left.shape[:-1], right.shape[1]), dtype)
    for k in range(right.shape[0]):
        out += left[..., k, None] * right[k]
        if k % span == span - 1:
            out %= q
    out %= q
    return out


def stacked_rank(stack: np.ndarray, q: int) -> np.ndarray:
    """GF(q) rank of every matrix in a stack of shape (n, rows, cols) with
    entries in [0, q): one vectorized elimination, column by column.

    In each column, every matrix picks its first row with a nonzero entry
    there as the pivot row and clears the column's later columns by the
    division-free update row <- pivot * row - entry * pivot_row.  The update
    zeroes the pivot row itself in those columns, so no row is picked twice.
    The work array is laid out (cols, rows, n) so that every update is
    contiguous.
    """
    m = np.ascontiguousarray(stack.transpose(2, 1, 0), _work_type(q)[0])
    cols, rows, n = m.shape
    ranks = np.zeros(n, np.int64)
    idx = np.arange(n)
    for j in range(cols):
        col = m[j]
        p = (col != 0).argmax(axis=0)
        pivot = col[p, idx]  # 0 where the column is zero: nothing to clear
        ranks += pivot != 0
        rest = m[j + 1 :]
        pivot_row = rest[:, p, idx]
        rest *= np.maximum(pivot, 1)
        rest -= col * pivot_row[:, None, :]
        rest %= q
    return ranks


def random_matrix(rows: int, cols: int, q: int, rng: np.random.Generator) -> FieldMatrix:
    """Uniform matrix over GF(q); every entry an independent uniform draw.

    The byte stream consumed is a pure function of (generator state, rows,
    cols, q), so identical seeds yield identical matrices.
    """
    check_modulus(q)
    data = rng.integers(0, q, size=(rows, cols), dtype=np.int64)
    return FieldMatrix(rows, cols, q, tuple(tuple(int(v) for v in row) for row in data))

