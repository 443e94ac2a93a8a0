"""Finite analogues of the homogenization and important-coordinate lemmas,
by a conflict-learning search over sub-products of increasing tuples.

Sub-products are tried in one fixed rank order: decreasing total size,
then lexicographic. Both properties are closed under shrinking the
sub-product, so a failed check yields one conflicting pair of tuples, and
every later sub-product holding both tuples is skipped unchecked (clause
learning, as in Marques-Silva and Sakallah's GRASP). The answer is the
first sub-product of the rank order that passes, as if all were checked.

NotFound is a legitimate outcome: the measure-theoretic guarantees do not
transfer to arbitrary finite functions, so the module certifies rather
than promises.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Hashable

from . import _Record, _set

__all__ = ["FiniteProductFn", "homogenize", "important_coordinates"]

# Factor tuples (and min sizes) whose tables are kept. The tables pay off
# only when a factor tuple repeats: across the functions of a sweep that
# share their factors, and across the coordinate sets of one
# `important_coordinates` call. A sweep that alternates between two factor
# tuples, as the benchmark's `ramsey-search` does, keeps both; one would
# rebuild a ranking at every switch. A ranking has one mask per sub-product,
# so the cache never holds more than two calls' worth of masks.
_CACHE_SIZE = 2

# The most sub-products one search may rank. Ranking materialises and
# sorts every one of them, so a larger input is refused up front rather
# than left to exhaust memory; factors of 8, 8 and 2 elements with min
# sizes 0 make exactly this many.
MAX_SUBPRODUCTS = 2**18


def _bits(factors) -> list[list[tuple[int, object]]]:
    """Each factor's elements with their bits: `factors[i][j]` has bit
    `offset(i) + j`, so a set of (factor, element) choices is one int mask."""
    out, offset = [], 0
    for f in factors:
        out.append([(1 << (offset + j), x) for j, x in enumerate(f)])
        offset += len(f)
    return out


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _positions(factors: tuple[tuple, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The increasing tuples of the product, in product order, as one index
    per factor, each with its mask.

    Factors that compare equal (1 and 1.0 alike) share an entry, as dict keys
    do, so an entry holds positions only and never a caller's values.
    """
    offsets = list(itertools.accumulate(map(len, factors), initial=0))
    out = []
    for js in itertools.product(*(range(len(f)) for f in factors)):
        t = tuple(map(operator.getitem, factors, js))
        if all(a < b for a, b in zip(t, t[1:])):
            out.append((js, sum(1 << (o + j) for o, j in zip(offsets, js))))
    return tuple(out)


def _tuples(factors: tuple[tuple, ...]) -> list[tuple[tuple, int]]:
    """The increasing tuples of the product, in product order, with masks,
    built from these factors' own values."""
    return [(tuple(map(operator.getitem, factors, js)), mask) for js, mask in _positions(factors)]


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _ranked(factors: tuple[tuple, ...], min_sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Masks of the sub-products with at least `min_sizes` elements per
    factor, by decreasing total size, then lexicographic sub-factors."""
    count = math.prod(
        sum(math.comb(len(f), k) for k in range(m, len(f) + 1))
        for f, m in zip(factors, min_sizes)
    )
    if count > MAX_SUBPRODUCTS:
        raise ValueError(
            f"{count} sub-products to search, more than the cap of {MAX_SUBPRODUCTS}"
        )
    options = [
        [
            (sum(bit for bit, _ in c), tuple(x for _, x in c))
            for size in range(len(bits), m - 1, -1)
            for c in itertools.combinations(bits, size)
        ]
        for bits, m in zip(_bits(factors), min_sizes)
    ]
    ranked = sorted(
        itertools.product(*options),
        key=lambda s: (-sum(len(h) for _, h in s), tuple(h for _, h in s)),
    )
    return tuple(sum(mask for mask, _ in s) for s in ranked)


def _subfactors(factors, mask: int) -> tuple[tuple, ...]:
    """The sub-factors a mask keeps, taken from the caller's own factors
    (a ranked entry may be shared by equal factors, as in `_positions`)."""
    return tuple(tuple(x for bit, x in bits if mask & bit) for bits in _bits(factors))


class FiniteProductFn(_Record):
    """A total function on increasing tuples drawn from finite factors."""

    __slots__ = ("factors", "table")
    _key = property(lambda r: (r.factors, r.table))

    def __init__(self, factors: tuple[tuple[int, ...], ...],
                 table: dict[tuple[int, ...], Hashable]):
        for f in factors:
            if list(f) != sorted(set(f)):
                raise ValueError("factors must be strictly increasing")
        # A hashable key for the tuple and ranking caches.
        _set(self, "factors", tuple(tuple(f) for f in factors))
        _set(self, "table", table)
        for t in self.domain():
            if t not in self.table:
                raise ValueError(f"table missing the tuple {t}")

    def domain(self) -> list[tuple[int, ...]]:
        return [t for t, _ in _tuples(self.factors)]

    def __call__(self, t: tuple[int, ...]):
        return self.table[t]


def build_product_fn(factors, fn) -> FiniteProductFn:
    """Tabulate a callable on the increasing-tuple product."""
    factors = tuple(tuple(sorted(set(f))) for f in factors)
    return FiniteProductFn(factors, {t: fn(*t) for t, _ in _tuples(factors)})


def _search(F: FiniteProductFn, min_sizes: list[int], witness):
    """The first sub-product in rank order whose rows the witness accepts,
    as (sub-factors, rows inside), or None.

    A row is `(tuple, value, mask)`. The witness returns None to accept the
    rows, or the mask of a conflicting pair of them, which is learned: no
    later sub-product holding that pair is checked.
    """
    if len(min_sizes) != len(F.factors):
        raise ValueError("min_sizes must match the factor count")
    if any(m < 0 for m in min_sizes):
        raise ValueError("min_sizes must be non-negative")
    rows = [(t, F(t), mask) for t, mask in _tuples(F.factors)]
    conflicts: list[int] = []
    for mask in _ranked(F.factors, tuple(min_sizes)):
        for c in conflicts:
            if c & mask == c:
                break  # holds a learned conflict: fails unchecked
        else:
            inside = [r for r in rows if r[2] & mask == r[2]]
            if not inside:
                continue
            conflict = witness(inside)
            if conflict is None:
                return _subfactors(F.factors, mask), inside
            conflicts.append(conflict)
    return None


def _one_colour(rows):
    """None when every row has the first row's colour, else a conflict.

    Colours are compared by set membership, so an unhashable colour is a
    TypeError, as it always was."""
    _, first, first_mask = rows[0]
    colours = {first}
    for _, v, mask in rows:
        if v not in colours:
            return first_mask | mask
    return None


def homogenize(F: FiniteProductFn, min_sizes: list[int]):
    """(sub-factors, color) with F constant on the sub-product, or None.

    Sub-products are searched by decreasing total size so the first hit is
    the strongest certificate.
    """
    got = _search(F, min_sizes, _one_colour)
    if got is None:
        return None
    hs, inside = got
    return hs, inside[0][1]


def _coordinate_sets(n: int):
    """Subsets of {1..n} by increasing size, then lexicographic."""
    for size in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def _respects(I: tuple[int, ...], rows):
    """None when F(a) = F(b) iff a|I = b|I on the rows, checked via the
    projection classes, else the first conflict found."""
    by_proj: dict[tuple, tuple] = {}
    by_value: dict = {}
    for t, v, mask in rows:
        key = tuple(t[i - 1] for i in I)
        if key in by_proj:
            w, w_mask = by_proj[key]
            if w != v:
                return w_mask | mask  # same projection, different value
        elif v in by_value:
            return by_value[v] | mask  # same value, different projection
        else:
            by_proj[key] = v, mask
            by_value[v] = mask
    return None


def important_coordinates(F: FiniteProductFn, min_sizes: list[int]):
    """(sub-factors, I) with F(a)=F(b) iff a|I=b|I on the sub-product.

    I is globally minimal (by size, then lexicographically); for each I the
    sub-products are searched by decreasing total size.
    """
    for I in _coordinate_sets(len(F.factors)):
        got = _search(F, min_sizes, functools.partial(_respects, I))
        if got is not None:
            return got[0], I
    return None
