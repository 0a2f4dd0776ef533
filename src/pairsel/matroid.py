"""Matroid oracles: rank, independence, span, and weighted rank.

Covers the matroid classes the experiments run on: duplicated linear
matroids over GF(q)^dim (labeled parallel copies), simple partition
matroids, and graphic matroids.  Ground sets of linear matroids are never
materialized; every query takes an explicit element collection, plus lazily
represented full-label blocks for active sets.

All matroid descriptors are immutable; queries are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import gf


class LabeledVector(NamedTuple):
    """A vector of GF(q)^dim paired with a positive integer copy label.

    ``vector`` is a packed integer over GF(2) and a residue tuple otherwise,
    matching the package-wide convention.
    """

    vector: object
    label: int


def element_key(e):
    """Canonical sort key; greedy tie-breaking is ascending in this key."""
    if isinstance(e, LabeledVector):
        v = e.vector
        return (e.label, v if isinstance(v, int) else tuple(v))
    return e


def _as_element_set(S) -> list:
    seen = set()
    out = []
    for e in S:
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


def _greedy(tracker, weighted: Iterable[tuple[object, float]]):
    """Shared greedy loop: weight descending, element key ascending."""
    value = 0.0
    chosen = []
    for e, w in sorted(weighted, key=lambda ew: (-ew[1], element_key(ew[0]))):
        if tracker.add_if_independent(e):
            value += w
            chosen.append(e)
    return value, tuple(chosen)


def _check_weights(weights: Mapping, S) -> list[tuple[object, float]]:
    pairs = []
    for e in S:
        w = float(weights[e]) if not callable(weights) else float(weights(e))
        if w < 0:
            raise ValueError(f"negative weight {w} for element {e!r}")
        pairs.append((e, w))
    return pairs


def _full_blocks_of(S):
    """The full-label blocks of a lazily represented active set, or None."""
    blocks = getattr(S, "full_blocks", None)
    return blocks if blocks else None


# The two oracles below are the same for every matroid class.  Each class body
# binds them by name, so every class still owns its ``is_independent`` and
# ``weighted_rank`` attributes and a per-class wrapper replaces one class only.


def _is_independent(matroid, S) -> bool:
    """True iff S (duplicates collapsed) is independent in ``matroid``."""
    if _full_blocks_of(S) is not None:
        raise ValueError("full-label blocks are never independent sets")
    elems = _as_element_set(S)
    return matroid.rank(elems) == len(elems)


def _weighted_rank(matroid, weights, S) -> tuple[float, tuple]:
    """Greedy maximum-weight independent subset of S: (value, elements)."""
    return _greedy(matroid.tracker(), _check_weights(weights, _as_element_set(S)))


class _LinearTracker:
    """Incremental independence oracle for a duplicated linear matroid."""

    __slots__ = ("matroid", "_basis")

    def __init__(self, matroid: "DuplicatedLinearMatroid"):
        self.matroid = matroid
        self._basis = gf.vector_basis(matroid.q, matroid.dim)

    def would_accept(self, e: LabeledVector) -> bool:
        return not self._basis.contains(e.vector)

    def add_if_independent(self, e: LabeledVector) -> bool:
        self.matroid.check_element(e)
        # A parallel copy or a loop reduces to 0 against the basis.
        return self._basis.add(e.vector)

    @property
    def rank(self) -> int:
        return self._basis.rank


@dataclass(frozen=True)
class DuplicatedLinearMatroid:
    """M^{x copies}: each vector of GF(q)^dim appears in `copies` labeled copies.

    A set is independent iff its distinct underlying vectors are linearly
    independent and no vector is used through more than one copy.  Labeled
    zero vectors are loops.
    """

    q: int
    dim: int
    copies: int

    def __post_init__(self):
        gf.check_modulus(self.q)
        if self.dim < 0 or self.copies < 1:
            raise ValueError("need dim >= 0 and copies >= 1")

    @property
    def full_rank(self) -> int:
        return self.dim

    def check_element(self, e: LabeledVector):
        if not isinstance(e, LabeledVector):
            raise ValueError(f"element {e!r} is not a labeled vector")
        if not 1 <= e.label <= self.copies:
            raise ValueError(f"label {e.label} outside [1, {self.copies}]")
        if self.q == 2:
            if not isinstance(e.vector, int) or not 0 <= e.vector < (1 << self.dim):
                raise ValueError(f"vector {e.vector!r} outside GF(2)^{self.dim}")
        else:
            if len(e.vector) != self.dim or any(not 0 <= x < self.q for x in e.vector):
                raise ValueError(f"vector {e.vector!r} outside GF({self.q})^{self.dim}")

    def tracker(self) -> _LinearTracker:
        return _LinearTracker(self)

    def rank(self, S) -> int:
        # A full-label block contains every vector, hence a basis.
        if _full_blocks_of(S) is not None:
            return self.dim
        tracker = self.tracker()
        for e in _as_element_set(S):
            tracker.add_if_independent(e)
        return tracker.rank

    def rank_of_vectors(self, vectors: Iterable) -> int:
        basis = gf.vector_basis(self.q, self.dim)
        for v in vectors:
            basis.add(v)
        return basis.rank

    is_independent = _is_independent

    def span_contains(self, S, e: LabeledVector) -> bool:
        self.check_element(e)
        if _full_blocks_of(S) is not None:
            return True
        basis = gf.vector_basis(self.q, self.dim)
        for f in _as_element_set(S):
            self.check_element(f)
            basis.add(f.vector)
        return basis.contains(e.vector)

    weighted_rank = _weighted_rank


class _PartitionTracker:
    __slots__ = ("matroid", "_used")

    def __init__(self, matroid: "SimplePartitionMatroid"):
        self.matroid = matroid
        self._used = set()

    def would_accept(self, e) -> bool:
        return self.matroid.part_of(e) not in self._used

    def add_if_independent(self, e) -> bool:
        part = self.matroid.part_of(e)
        if part in self._used:
            return False
        self._used.add(part)
        return True


@dataclass(frozen=True)
class SimplePartitionMatroid:
    """Disjoint union of rank-one matroids: at most one element per part."""

    parts: tuple[frozenset, ...]

    def __post_init__(self):
        union: set = set()
        for part in self.parts:
            if union & part:
                raise ValueError("parts are not pairwise disjoint")
            union |= part

    @classmethod
    def from_parts(cls, parts: Iterable[Iterable]) -> "SimplePartitionMatroid":
        return cls(tuple(frozenset(p) for p in parts))

    @property
    def full_rank(self) -> int:
        return sum(1 for p in self.parts if p)

    def part_of(self, e) -> int:
        for i, part in enumerate(self.parts):
            if e in part:
                return i
        raise ValueError(f"element {e!r} outside ground set")

    def tracker(self) -> _PartitionTracker:
        return _PartitionTracker(self)

    def rank(self, S) -> int:
        elems = _as_element_set(S)
        return len({self.part_of(e) for e in elems})

    is_independent = _is_independent

    def span_contains(self, S, e) -> bool:
        part = self.part_of(e)
        return any(self.part_of(f) == part for f in S)

    weighted_rank = _weighted_rank


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


class _GraphicTracker:
    __slots__ = ("matroid", "_uf")

    def __init__(self, matroid: "GraphicMatroid"):
        self.matroid = matroid
        self._uf = _UnionFind(matroid.vertices)

    def would_accept(self, e: int) -> bool:
        u, v = self.matroid.edge(e)
        return self._uf.find(u) != self._uf.find(v)

    def add_if_independent(self, e: int) -> bool:
        u, v = self.matroid.edge(e)
        return self._uf.union(u, v)


@dataclass(frozen=True)
class GraphicMatroid:
    """Edges of a graph; independent sets are the acyclic edge sets.

    Elements are edge indices into ``edges``.
    """

    vertices: int
    edges: tuple[tuple[int, int], ...]

    def edge(self, e: int) -> tuple[int, int]:
        if not 0 <= e < len(self.edges):
            raise ValueError(f"edge id {e} outside ground set")
        return self.edges[e]

    @property
    def full_rank(self) -> int:
        return self.rank(range(len(self.edges)))

    def tracker(self) -> _GraphicTracker:
        return _GraphicTracker(self)

    def rank(self, S) -> int:
        tracker = self.tracker()
        return sum(1 for e in _as_element_set(S) if tracker.add_if_independent(e))

    is_independent = _is_independent

    def span_contains(self, S, e) -> bool:
        u, v = self.edge(e)
        uf = _UnionFind(self.vertices)
        for f in _as_element_set(S):
            fu, fv = self.edge(f)
            uf.union(fu, fv)
        return uf.find(u) == uf.find(v)

    weighted_rank = _weighted_rank


def complete_graph(n: int) -> GraphicMatroid:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return GraphicMatroid(n, tuple(edges))


def partition_from_permutation(graph: GraphicMatroid, order: Sequence[int]) -> SimplePartitionMatroid:
    """Partition sub-matroid induced by a vertex order: every edge joins the
    part of its later endpoint.  Any one-edge-per-part selection is acyclic
    (the latest vertex of a cycle would have to own two of its edges), so
    the partition matroid's independent sets are independent in the graph."""
    position = {int(v): i for i, v in enumerate(order)}
    owner: dict[int, list[int]] = {}
    for e, (u, v) in enumerate(graph.edges):
        late = u if position[u] > position[v] else v
        owner.setdefault(late, []).append(e)
    return SimplePartitionMatroid.from_parts(owner.values())


def sample_graphic_partition(graph: GraphicMatroid, rng: np.random.Generator) -> SimplePartitionMatroid:
    """Random simple partition sub-matroid of a graphic matroid, from a
    uniform vertex permutation."""
    return partition_from_permutation(graph, rng.permutation(graph.vertices))
