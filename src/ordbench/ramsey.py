"""Finite analogues of the homogenization and important-coordinate lemmas,
by a ranked search over sub-products of increasing tuples.

Sub-products are tried in one fixed rank order: decreasing total size,
then lexicographic; the answer is the first that passes. The rows of the
product (its increasing tuples, in product order) are the bits of an int.
A sub-product's rows are all rows but those holding an element it leaves
out, and each check is a few ANDs of them with F's value classes (the
rows sharing a value) and with the projection classes of a coordinate
set (the rows sharing those coordinates).

NotFound is a legitimate outcome: the measure-theoretic guarantees do not
transfer to arbitrary finite functions, so the module certifies rather
than promises.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Hashable, Mapping, Sequence

from . import _Record, _set

__all__ = ["FiniteProductFn", "build_product_fn", "homogenize", "important_coordinates"]

# Factor tuples (and min sizes) whose tables are kept. They pay off across
# the functions of a sweep on the same factors and the coordinate sets of
# one call; the benchmark's `ramsey-search` alternates between two factor
# tuples. A ranking holds one mask per sub-product and at most four row
# sets per element, so the cache holds at most two calls' worth of them.
_CACHE_SIZE = 2

# The most sub-products one search may rank. Ranking materialises and
# sorts every one of them, so a larger input is refused up front rather
# than left to exhaust memory; factors of 8, 8 and 2 elements with min
# sizes 0 make exactly this many.
MAX_SUBPRODUCTS = 2**18


class _Rows(tuple):
    """A sparse value class: its rows, increasing. `rows & cls` gives the bits
    of those of them in `rows`, as it does for a class kept as bits, so the
    search never asks which kind a class is."""

    __slots__ = ()

    def __rand__(self, rows: int) -> int:
        return sum(1 << r for r in self if rows >> r & 1)


def _classes(keys: Sequence, sparse: bool = False) -> list:
    """For each key, the positions whose keys equal it as dict keys do (so an
    unhashable key is a TypeError), as bits; or 0 for a key at one position
    only, as `1 << position` would cost a bit per position before it. With
    `sparse`, a class with fewer than one position per 64 bits of its width
    is a `_Rows` instead, so no table costs more than a few words per
    position."""
    first, members = {}, {}
    for r, key in enumerate(keys):
        s = first.setdefault(key, r)
        if s != r:
            rows = members.get(key)
            if rows is None:
                members[key] = [s, r]
            else:
                rows.append(r)
    for key, rows in members.items():
        if sparse and len(rows) * 64 <= rows[-1]:
            members[key] = _Rows(rows)
        else:
            bits = 0
            for r in rows:
                bits |= 1 << r
            members[key] = bits
    return list(map(members.get, keys, itertools.repeat(0)))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _positions(factors: tuple[tuple, ...]):
    """The increasing tuples of the product, in product order, as one index
    per factor; and each tuple's row (its place in that order), by the tuple.
    Factors that compare equal (1 and 1.0 alike) share an entry, as dict
    keys do, so an entry's tuples only find rows and never reach an answer."""
    rows, index = [], {}
    for js in itertools.product(*(range(len(f)) for f in factors)):
        t = tuple(map(operator.getitem, factors, js))
        if all(a < b for a, b in zip(t, t[1:])):
            index[t] = len(rows)
            rows.append(js)
    return tuple(rows), index


def _domain(factors: tuple[tuple, ...]) -> list[tuple]:
    """The increasing tuples of the product, in product order, of these factors' own values."""
    return [tuple(map(operator.getitem, factors, js)) for js in _positions(factors)[0]]


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _ranked(factors: tuple[tuple, ...], min_sizes: tuple[int, ...]):
    """The sub-products with at least `min_sizes` elements per factor, by
    decreasing total size, then lexicographic sub-factors, as masks
    (`factors[i][j]` is bit `offset(i) + j`); for each factor, each row's
    class there (the rows with the same index, as `_classes`); the blocks
    that find a mask's rows (`_first`); and where the smallest begin."""
    if len(min_sizes) != len(factors):
        raise ValueError("min_sizes must match the factor count")
    if any(m < 0 for m in min_sizes):
        raise ValueError("min_sizes must be non-negative")
    count = math.prod(sum(math.comb(len(f), k) for k in range(m, len(f) + 1))
                      for f, m in zip(factors, min_sizes))
    if count > MAX_SUBPRODUCTS:
        raise ValueError(f"{count} sub-products to search, more than the cap of {MAX_SUBPRODUCTS}")
    rows = _positions(factors)[0]
    shared = [_classes([js[i] for js in rows]) for i in range(len(factors))]
    # Lexicographic: the product of each factor's choices in their own order.
    masks, blocks, offset = [0], [], 0
    for i, (f, m) in enumerate(zip(factors, min_sizes)):
        choices = sorted(c for size in range(m, len(f) + 1)
                         for c in itertools.combinations(range(len(f)), size))
        bits = [sum(1 << offset + j for j in c) for c in choices]
        masks = [a | b for a in masks for b in bits]
        if m < len(f):  # a mask can leave out elements of f: each one's class, the rows holding it
            columns = [0] * (len(f) + 3)
            for r, js in enumerate(rows):
                columns[js[i]] = shared[i][r] or 1 << r
            # Four elements at a time: by the ones a mask leaves out, the rows holding one of them.
            for k in range(0, len(f), 4):
                table = [0]
                for column in columns[k:k + 4]:
                    table += [t | column for t in table] if column else table
                blocks.append((offset + k, table))
        offset += len(f)
    # The sort is stable, so equal sizes keep their lexicographic order.
    masks.sort(key=int.bit_count, reverse=True)
    # The smallest sub-products that can have rows (max(m, 1) elements per factor) start here.
    least = sum(max(m, 1) for m in min_sizes)
    return tuple(masks), shared, tuple(blocks), sum(mask.bit_count() > least for mask in masks)


def _subfactors(factors, mask: int) -> tuple[tuple, ...]:
    """The sub-factors a mask keeps, taken from the caller's own factors
    (a ranking may be shared by equal factors, as in `_positions`)."""
    offsets = itertools.accumulate(map(len, factors), initial=0)
    return tuple(tuple(x for j, x in enumerate(f, o) if mask >> j & 1)
                 for f, o in zip(factors, offsets))


class FiniteProductFn(_Record):
    """A total function on increasing tuples drawn from finite factors.
    `table` holds its values in the product order of those tuples: given so,
    or read from a mapping that covers them (other entries are dropped)."""

    __slots__ = ("factors", "table", "_rows")  # `_rows`: each tuple's place in `table`

    def __init__(self, factors: tuple[tuple[int, ...], ...],
                 table: Mapping[tuple[int, ...], Hashable] | tuple):
        for f in factors:
            if list(f) != sorted(set(f)):
                raise ValueError("factors must be strictly increasing")
        # A hashable key for the position and ranking caches.
        _set(self, "factors", tuple(tuple(f) for f in factors))
        _set(self, "_rows", _positions(self.factors)[1])
        if isinstance(table, Mapping):
            try:
                table = tuple(table[t] for t in _domain(self.factors))
            except KeyError as err:
                raise ValueError(f"table missing the tuple {err.args[0]}") from None
        if not isinstance(table, tuple) or len(table) != len(self._rows):
            raise ValueError(f"table must be a mapping or a tuple of {len(self._rows)} values")
        _set(self, "table", table)

    def __call__(self, t: tuple[int, ...]):
        return self.table[self._rows[t]]


def build_product_fn(factors, fn) -> FiniteProductFn:
    """Tabulate a callable on the increasing-tuple product."""
    factors = tuple(tuple(sorted(set(f))) for f in factors)
    return FiniteProductFn(factors, tuple(fn(*t) for t in _domain(factors)))


def _respects(rows: int, colour: list, shared: list[list[int]]) -> bool:
    """Whether F(a) = F(b) iff a and b share the coordinates in I, for all
    rows a, b of `rows`: each value class meeting `rows` meets it in the
    projection class of its lowest row (`colour`: each row's value class,
    as `_classes` with `sparse`; `shared`: each row's class in each factor
    of I; a 0 class is the row alone)."""
    rest = rows
    while rest:
        low = (rest & -rest).bit_length() - 1
        same = rows
        for by_row in shared:
            same &= by_row[low] or 1 << low
        if (rows & colour[low] or 1 << low) != same:
            return False
        rest ^= same
    return True


def _first(masks, blocks, everything: int, colour, shared):
    """The first mask, with its rows (all rows but those holding an element
    it leaves out), on which F respects I; or None."""
    for mask in masks:
        gone, out = 0, ~mask
        for start, table in blocks:
            gone |= table[out >> start & 15]
        rows = everything ^ gone
        if rows and _respects(rows, colour, shared):
            return mask, rows
    return None


def _search(F: FiniteProductFn, ranking, colour, I: tuple[int, ...]):
    """The first ranked sub-product on which F respects I, as (sub-factors,
    its rows), or None. F respects I on each sub-product with rows inside
    one on which it does, and each row lies in one of the smallest, which
    come last: the first of those that passes is the answer unless a larger
    one passes, and if none of them passes, none does."""
    masks, shared, blocks, least = ranking
    tables = blocks, (1 << len(colour)) - 1, colour, [shared[i - 1] for i in I]
    got = _first(masks[least:], *tables)
    got = got and (_first(masks[:least], *tables) or got)
    return got and (_subfactors(F.factors, got[0]), got[1])


def homogenize(F: FiniteProductFn, min_sizes: list[int]):
    """(sub-factors, color) with F constant on the sub-product, or None.

    Sub-products are searched by decreasing total size so the first hit is
    the strongest certificate.
    """
    got = _search(F, _ranked(F.factors, tuple(min_sizes)), _classes(F.table, sparse=True), ())
    return None if got is None else (got[0], F.table[(got[1] & -got[1]).bit_length() - 1])


def _coordinate_sets(n: int):
    """Subsets of {1..n} by increasing size, then lexicographic."""
    for size in range(n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def important_coordinates(F: FiniteProductFn, min_sizes: list[int]):
    """(sub-factors, I) with F(a)=F(b) iff a|I=b|I on the sub-product.

    I is globally minimal (by size, then lexicographically); for each I the
    sub-products are searched by decreasing total size. On I = () the search
    is exactly homogenize's.
    """
    ranking, colour = _ranked(F.factors, tuple(min_sizes)), _classes(F.table, sparse=True)
    if not (ranking[0] and F.table):
        # The first ranked sub-product is the whole product: with no rows
        # there, no sub-product has a row, and no I can pass.
        return None
    for I in _coordinate_sets(len(F.factors)):
        got = _search(F, ranking, colour, I)
        if got is not None:
            return got[0], I
    return None
