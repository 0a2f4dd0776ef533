import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsel import gf
from pairsel.matroid import (
    DuplicatedLinearMatroid,
    GraphicMatroid,
    LabeledVector,
    SimplePartitionMatroid,
    complete_graph,
    partition_from_permutation,
    sample_graphic_partition,
)

K3 = complete_graph(3)


def lv(bits, label):
    return LabeledVector(bits, label)


def brute_force_weighted_rank(matroid, weights, elements):
    """Independent oracle: enumerate every subset."""
    best = 0.0
    for size in range(len(elements) + 1):
        for subset in itertools.combinations(elements, size):
            if matroid.is_independent(subset):
                best = max(best, sum(weights[e] for e in subset))
    return best


def test_duplicated_rank_example():
    m = DuplicatedLinearMatroid(2, 3, 3)
    s = [lv(0b001, 1), lv(0b001, 2), lv(0b010, 1)]
    assert m.rank(s) == 2


def test_partition_rank_example():
    m = SimplePartitionMatroid.from_parts([{"a", "b"}, {"c"}])
    assert m.rank({"a", "b", "c"}) == 2


def test_graphic_k3_rank():
    assert K3.rank([0, 1, 2]) == 2


def test_empty_set_independent():
    assert DuplicatedLinearMatroid(2, 3, 2).is_independent([])
    assert SimplePartitionMatroid.from_parts([{"a"}]).is_independent([])
    assert K3.is_independent([])


def test_parallel_copies_dependent():
    m = DuplicatedLinearMatroid(2, 2, 2)
    assert not m.is_independent([lv(0b11, 1), lv(0b11, 2)])


def test_triangle_dependent():
    assert not K3.is_independent([0, 1, 2])


def test_zero_vector_is_loop():
    m = DuplicatedLinearMatroid(2, 3, 2)
    assert not m.is_independent([lv(0, 1)])
    assert m.rank([lv(0, 1), lv(0b001, 1)]) == 1
    m5 = DuplicatedLinearMatroid(5, 2, 1)
    assert not m5.is_independent([lv((0, 0), 1)])


def test_element_outside_ground_set_rejected():
    m = DuplicatedLinearMatroid(2, 3, 2)
    with pytest.raises(ValueError):
        m.rank([lv(0b001, 3)])  # label too large
    with pytest.raises(ValueError):
        m.rank([lv(0b1000, 1)])  # vector outside GF(2)^3
    p = SimplePartitionMatroid.from_parts([{"a"}])
    with pytest.raises(ValueError):
        p.rank({"z"})
    with pytest.raises(ValueError):
        K3.rank([5])


def test_weighted_rank_zero_weights():
    m = SimplePartitionMatroid.from_parts([{"a", "b"}])
    value, chosen = m.weighted_rank({"a": 0, "b": 0}, ["a", "b"])
    assert value == 0


def test_weighted_rank_rank_one():
    m = SimplePartitionMatroid.from_parts([["x", "y", "z"]])
    value, chosen = m.weighted_rank({"x": 3, "y": 7, "z": 5}, ["x", "y", "z"])
    assert value == 7
    assert chosen == ("y",)


def test_weighted_rank_matches_brute_force_example():
    m = DuplicatedLinearMatroid(2, 2, 1)
    e1, e2, e3 = lv(0b01, 1), lv(0b10, 1), lv(0b11, 1)
    weights = {e1: 4.0, e2: 2.0, e3: 3.0}
    oracle = brute_force_weighted_rank(m, weights, [e1, e2, e3])
    assert oracle == 7.0
    value, chosen = m.weighted_rank(weights, [e1, e2, e3])
    assert value == 7.0
    assert set(chosen) == {e1, e3}


@given(st.integers(0, 5000))
@settings(max_examples=20, deadline=None)
def test_weighted_rank_matches_brute_force_random(seed):
    rng = gf.substream(seed, "wr-brute")
    m = DuplicatedLinearMatroid(2, 3, 2)
    elements = []
    for _ in range(5):
        elements.append(lv(int(rng.integers(0, 8)), int(rng.integers(1, 3))))
    elements = list(dict.fromkeys(elements))
    weights = {e: float(rng.integers(0, 10)) for e in elements}
    value, chosen = m.weighted_rank(weights, elements)
    assert value == brute_force_weighted_rank(m, weights, elements)
    assert m.is_independent(chosen)


def test_negative_weight_rejected():
    m = SimplePartitionMatroid.from_parts([["x"]])
    with pytest.raises(ValueError):
        m.weighted_rank({"x": -1}, ["x"])


def test_span_contains_member():
    m = DuplicatedLinearMatroid(2, 3, 1)
    s = [lv(0b001, 1), lv(0b010, 1)]
    assert m.span_contains(s, s[0])


def test_span_contains_sum_and_not_new_direction():
    m = DuplicatedLinearMatroid(2, 3, 1)
    s = [lv(0b001, 1), lv(0b010, 1)]
    assert m.span_contains(s, lv(0b011, 1))
    assert not m.span_contains(s, lv(0b100, 1))


def test_span_partition_and_graphic():
    p = SimplePartitionMatroid.from_parts([{"a", "b"}, {"c"}])
    assert p.span_contains({"a"}, "b")
    assert not p.span_contains({"a"}, "c")
    assert K3.span_contains([0, 1], 2)  # closing the triangle
    path = GraphicMatroid(3, ((0, 1), (1, 2)))
    assert not path.span_contains([0], 1)


def test_full_label_block_rank_shortcut():
    class FakeActive:
        full_blocks = frozenset({1})
        def __iter__(self):
            return iter(())

    m = DuplicatedLinearMatroid(2, 6, 3)
    assert m.rank(FakeActive()) == 6


@given(st.integers(0, 5000))
@settings(max_examples=25, deadline=None)
def test_rank_submodular_and_monotone(seed):
    rng = gf.substream(seed, "submod")
    m = DuplicatedLinearMatroid(2, 4, 2)
    pool = [lv(int(rng.integers(0, 16)), int(rng.integers(1, 3))) for _ in range(6)]
    a = {e for e in pool if rng.random() < 0.5}
    b = {e for e in pool if rng.random() < 0.5}
    assert m.rank(a) + m.rank(b) >= m.rank(a | b) + m.rank(a & b)
    assert m.rank(a & b) <= m.rank(a)


@given(st.integers(0, 5000))
@settings(max_examples=15, deadline=None)
def test_unit_weighted_rank_equals_rank(seed):
    rng = gf.substream(seed, "unit")
    m = DuplicatedLinearMatroid(3, 3, 2)
    pool = [
        lv(tuple(int(x) for x in rng.integers(0, 3, size=3)), int(rng.integers(1, 3)))
        for _ in range(5)
    ]
    pool = list(dict.fromkeys(pool))
    value, _ = m.weighted_rank({e: 1.0 for e in pool}, pool)
    assert value == m.rank(pool)


def test_partition_parts_must_be_disjoint():
    with pytest.raises(ValueError):
        SimplePartitionMatroid.from_parts([{"a"}, {"a", "b"}])


# --- graphic partition sampler -------------------------------------------


def test_partition_single_edge():
    g = GraphicMatroid(2, ((0, 1),))
    part = partition_from_permutation(g, [0, 1])
    assert part.parts == (frozenset({0}),)


def test_partition_path_example():
    # path a-b-c with order a < b < c: edge ab goes to b, edge bc goes to c
    g = GraphicMatroid(3, ((0, 1), (1, 2)))
    part = partition_from_permutation(g, [0, 1, 2])
    assert set(part.parts) == {frozenset({0}), frozenset({1})}


def test_k3_every_permutation_keeps_full_weighted_rank():
    # Unit weights: every permutation admits a one-per-part selection of
    # weight 2 = Rank(K3), so the alpha = 1/2 guarantee holds with slack.
    weights = {e: 1.0 for e in range(3)}
    for perm in itertools.permutations(range(3)):
        sub = partition_from_permutation(K3, perm)
        value, chosen = sub.weighted_rank(weights, range(3))
        assert value == 2
        assert K3.is_independent(chosen)


def test_k3_permutation_average_alpha_half():
    rng = gf.substream(3, "k3-alpha")
    subs = [
        partition_from_permutation(K3, perm)
        for perm in itertools.permutations(range(3))
    ]
    for _ in range(20):
        weights = {e: float(rng.random()) for e in range(3)}
        full, _ = K3.weighted_rank(weights, range(3))
        average = sum(s.weighted_rank(weights, range(3))[0] for s in subs) / len(subs)
        assert full >= average >= 0.5 * full


def test_sampled_partition_selections_stay_acyclic():
    g = complete_graph(4)
    rng = gf.substream(9, "k4-ind")
    for _ in range(10):
        sub = sample_graphic_partition(g, rng)
        for pick in itertools.product(*[sorted(p) for p in sub.parts]):
            assert g.is_independent(pick)


def test_sampled_partition_weighted_rank_never_exceeds_host():
    g = complete_graph(4)
    rng = gf.substream(10, "k4-wr")
    for _ in range(20):
        weights = {e: float(rng.random()) for e in range(6)}
        sub = sample_graphic_partition(g, rng)
        full, _ = g.weighted_rank(weights, range(6))
        part, _ = sub.weighted_rank(weights, range(6))
        assert part <= full + 1e-9
