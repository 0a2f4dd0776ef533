"""Block kernels of the greedy OCRS balance on the CRS instance.

``verify.crs_ocrs_balance`` runs its trials in blocks: the random draws
per trial, the greedy sweeps of every adversary for a whole block as stacked
GF(q) products and ranks, and the per-element accounting as integer counts
whose float sums come from ``repeated_sums``.  Column j of a trial's d x d
block R·σ is the element labelled j + 1.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .gf import pack_bits, stacked_product, stacked_rank
from .matroid import LabeledVector

# Largest q^c for which crs_ocrs_balance finds a trial's loops in a table.
LOOP_TABLE_LIMIT = 4096
# Terms per np.cumsum call of repeated_sums.
SUM_CHUNK = 4096

# Each order of schemes.ADVERSARY_ORDERS on a block of CRS trials, as the
# column swept at each position: column j holds the element labelled j + 1,
# so the element key sorts by column.  The sweep forces every non-loop, so
# the coins the order sees are heads exactly on the non-loops.
SWEPT_POSITIONS = {
    "label-ascending": lambda heads: np.broadcast_to(np.arange(heads.shape[1]), heads.shape),
    "label-descending": lambda heads: np.broadcast_to(np.arange(heads.shape[1])[::-1], heads.shape),
    "coin-adversarial": lambda heads: np.argsort(~heads, axis=1, kind="stable"),
}


def drawer(q: int, sigma: np.ndarray) -> Callable:
    """``draw(rng, n)``: the random draws of n ``crs_ocrs_balance`` trials,
    as the stack of R and the concatenated coin uniforms.

    Per trial it draws R as ``CrsInstance.sample_d1`` does, then one
    ``random()`` per non-loop column of R·σ, as ``flip_coins`` draws the
    coins of the non-loops.  A column is a loop when every row of R
    annihilates its σ column; for q^c up to ``LOOP_TABLE_LIMIT`` a table
    per row code gives the mask of the σ columns that row annihilates,
    above it the columns of R·σ are formed.
    """
    c, d = sigma.shape
    if q**c <= LOOP_TABLE_LIMIT:
        powers = q ** np.arange(c)
        rows = np.arange(q**c)[:, None] // powers % q  # row code x = sum_k r_k q^k
        annihilated = stacked_product(rows[None], sigma, q)[0] == 0
        table = [sum(1 << int(j) for j in np.flatnonzero(z)) for z in annihilated]
        everything = (1 << d) - 1

        def non_loops(r) -> int:
            loops = everything
            for code in (r @ powers).tolist():
                loops &= table[code]
            return d - loops.bit_count()
    else:
        def non_loops(r) -> int:
            return int(stacked_product(r[None], sigma, q)[0].any(axis=0).sum())

    def draw(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        integers, random = rng.integers, rng.random
        rs, us = np.empty((n, d, c), np.int64), np.empty(n * d)
        drawn = 0
        for t in range(n):
            r = rs[t] = integers(0, q, (d, c), np.int64)
            k = non_loops(r)
            if k:
                us[drawn : drawn + k] = random(k)
                drawn += k
        return rs, us[:drawn]

    return draw


def block_inputs(rs: np.ndarray, us: np.ndarray, sigma: np.ndarray, q: int, p: float):
    """A block's elements, as the columns of its (n, d, d) stack R·σ, with
    the non-loop mask and the coins: heads where the non-loop's uniform is
    below p, tails on every loop."""
    v = stacked_product(rs, sigma, q)
    non_loop = v.any(axis=1)
    if non_loop.sum() != us.size:
        raise AssertionError(f"drew {us.size} coins for {non_loop.sum()} non-loops")
    heads = np.zeros_like(non_loop)
    heads[non_loop] = us < p
    return v, non_loop, heads


def greedy_sweeps(v: np.ndarray, heads: np.ndarray, positions: np.ndarray, q: int):
    """``GreedyOcrs.sweep`` with every non-loop forced, on a block of trials.

    ``v`` (n, d, d) holds each trial's elements as columns, ``heads`` (n, d)
    their coins and ``positions`` (n, d) the swept order.  Returns, per
    column, whether the element was independent of the elements accepted
    before it (its contribution is p exactly then; a loop never is) and
    whether it was accepted (independent with heads).  A trial's accepted
    columns fill the leading slots of ``basis`` and each candidate takes the
    next one, where the following candidate overwrites it unless it is
    accepted; the slots past it are zero, so one rank over the widest
    trial's slots decides every trial.
    """
    n, dim, d = v.shape
    idx = np.arange(n)
    basis = np.zeros((n, dim, dim + 1), v.dtype)
    rank = np.zeros(n, np.int64)
    independent = np.zeros((n, d), bool)
    taken = np.zeros((n, d), bool)
    for i in range(d):
        j = positions[:, i]
        basis[idx, :, rank] = v[idx, :, j]
        grew = stacked_rank(basis[:, :, : rank.max() + 1], q) > rank
        take = grew & heads[idx, j]
        rank += take
        independent[idx, j] = grew
        taken[idx, j] = take
    return independent, taken


def trial_elements(columns: np.ndarray, q: int) -> list[LabeledVector]:
    """A trial's elements from its (d, d) block of R·σ, as ``sample_d1``
    forms them."""
    return [
        LabeledVector(pack_bits(v) if q == 2 else tuple(v), j + 1)
        for j, v in enumerate(columns.T.tolist())
    ]


def swept_records(elements, positions, heads, taken) -> list[dict]:
    """The trace records ``GreedyOcrs.sweep`` writes for one trial."""
    return [
        {"element": repr(elements[j]), "coin": bool(heads[j]), "accepted": bool(taken[j])}
        for j in positions
    ]


def element_keys(v: np.ndarray, q: int) -> np.ndarray:
    """An integer key for every column of a (n, d, d) stack: (label - 1)
    q^d plus the base-q code of its vector, which over GF(2) is the packed
    vector.  Python ints where int64 would overflow."""
    n, dim, d = v.shape
    size = q**dim
    dtype = np.int64 if d * size < 2**63 else object
    keys = np.tile(np.array([j * size for j in range(d)], dtype), (n, 1))
    for i in range(dim):
        keys += v[:, i].astype(dtype) * q**i
    return keys


def key_element(key, q: int, d: int) -> LabeledVector:
    """The element whose ``element_keys`` key is ``key``."""
    label, code = divmod(int(key), q**d)
    return LabeledVector(code if q == 2 else tuple(code // q**i % q for i in range(d)), label + 1)


def tally(keys, first, counts, hits):
    """Group occurrences by key: the distinct keys, each key's first
    occurrence, and its summed counts and hits (one row per adversary).
    The first occurrence is the one listed first, so running tallies merge
    by listing the earlier one first."""
    distinct, index, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return (
        distinct,
        first[index],
        np.bincount(inverse, counts, len(distinct)),
        np.array([np.bincount(inverse, h, len(distinct)) for h in hits]),
    )


def repeated_sums(x: float, ks: np.ndarray) -> np.ndarray:
    """For each k in ``ks``, the float sum of k copies of x added one at a
    time, as a running sum adds them.  ``np.cumsum`` adds in that order; it
    runs over ``SUM_CHUNK`` terms at a time, carrying the running sum, so
    that memory stays small for any k."""
    sums = np.zeros(ks.shape)
    total, done = 0.0, 0
    while done < ks.max(initial=0):
        run = np.cumsum(np.concatenate(([total], np.full(SUM_CHUNK, x))))  # run[i] = g(done + i)
        chunk = (ks > done) & (ks <= done + SUM_CHUNK)
        sums[chunk] = run[ks[chunk] - done]
        total, done = run[-1], done + SUM_CHUNK
    return sums


def min_interval(n, s, s2, sigmas: float, factor: float):
    """(index, interval low end) of the element with the lowest scaled
    interval low end, the first one if tied, and the lowest scaled mean,
    each element's interval as ``Estimate.from_accumulator(Accumulator(n, s,
    s2), sigmas).scaled(factor)`` computes it; (None, nan, nan) if empty."""
    if not n.size:
        return None, float("nan"), float("nan")
    mean = s / n
    se = np.sqrt(np.maximum(s2 / n - mean * mean, 0.0) / n)
    low = np.minimum(factor * (mean - sigmas * se) + 0.0, factor * (mean + sigmas * se) + 0.0)
    worst = int(np.argmin(low))
    return worst, float(low[worst]), float((factor * mean + 0.0).min())
