from __future__ import annotations

import gc
import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordbench import io, ramsey
from ordbench.ramsey import (
    FiniteProductFn,
    _classes,
    _coordinate_sets,
    _domain,
    _positions,
    _ranked,
    _subfactors,
    build_product_fn,
    homogenize,
    important_coordinates,
)

from test_acceptance import _brute_min_important

# The exact-identity oracle: the exhaustive scan that checks every
# sub-product in rank order and learns nothing.


def _subproducts(factors, min_sizes):
    """Sub-factor choices ordered by decreasing total size, then lexicographic."""
    options = []
    for f, m in zip(factors, min_sizes):
        if m > len(f):
            return
        per = []
        for size in range(len(f), m - 1, -1):
            per.extend(itertools.combinations(f, size))
        options.append(per)
    ranked = sorted(
        itertools.product(*options),
        key=lambda hs: (-sum(len(h) for h in hs), hs),
    )
    yield from ranked


def _increasing_tuples(subfactors):
    return [
        t
        for t in itertools.product(*subfactors)
        if all(a < b for a, b in zip(t, t[1:]))
    ]


def _scan_homogenize(F, min_sizes):
    """Oracle: check every sub-product in rank order, learning nothing."""
    for hs in _subproducts(F.factors, min_sizes):
        tuples = _increasing_tuples(hs)
        if not tuples:
            continue
        colors = {F(t) for t in tuples}
        if len(colors) == 1:
            return tuple(hs), colors.pop()
    return None


def _scan_respects(F, tuples, I):
    by_proj, values = {}, {}
    for t in tuples:
        key = tuple(t[i - 1] for i in I)
        v = F(t)
        if key in by_proj:
            if by_proj[key] != v:
                return False
        else:
            by_proj[key] = v
            if v in values and values[v] != key:
                return False
            values[v] = key
    return True


def _scan_important(F, min_sizes):
    """Oracle: for each I in order, check every sub-product in rank order."""
    n = len(F.factors)
    for size in range(n + 1):
        for I in itertools.combinations(range(1, n + 1), size):
            for hs in _subproducts(F.factors, min_sizes):
                tuples = _increasing_tuples(hs)
                if tuples and _scan_respects(F, tuples, I):
                    return tuple(hs), I
    return None


@st.composite
def product_fns(draw):
    """0-3 factors, each overlapping the next, and a table of 1-5 colours:
    random, or one coordinate's value mod 1-5 with random noise, so that
    non-empty coordinate sets are found too."""
    factors = []
    for i in range(draw(st.integers(0, 3))):
        size = draw(st.integers(0, 4))
        elements = st.integers(2 * i + 1, 2 * i + 5)
        factors.append(sorted(draw(st.lists(elements, min_size=size, max_size=size, unique=True))))
    colours = st.integers(0, draw(st.integers(1, 5)) - 1)
    coord = draw(st.integers(-1, len(factors) - 1))
    if coord < 0:
        return build_product_fn(factors, lambda *t: draw(colours))
    k = draw(st.integers(1, 5))
    return build_product_fn(
        factors, lambda *t: t[coord] % k if draw(st.integers(0, 5)) else draw(colours)
    )


@st.composite
def searches(draw):
    F = draw(product_fns())
    min_sizes = [draw(st.integers(0, len(f) + 1)) for f in F.factors]
    return F, min_sizes


@settings(max_examples=300)
@given(searches())
def test_homogenize_matches_scan(search):
    F, min_sizes = search
    assert homogenize(F, min_sizes) == _scan_homogenize(F, min_sizes)


@settings(max_examples=300)
@given(searches())
def test_important_matches_scan(search):
    F, min_sizes = search
    assert important_coordinates(F, min_sizes) == _scan_important(F, min_sizes)


@settings(max_examples=300)
@given(searches())
def test_important_agrees_with_homogenize(search):
    # On the empty coordinate set the search is exactly homogenize's.
    F, min_sizes = search
    got = homogenize(F, min_sizes)
    if got is not None:
        assert important_coordinates(F, min_sizes) == (got[0], ())


def test_nan_values_are_one_colour_in_both_searches():
    nan = float("nan")
    F = build_product_fn([[1, 2], [3, 4]], lambda a, b: nan)
    full = ((1, 2), (3, 4))
    hs, colour = homogenize(F, [1, 1])
    assert hs == full and colour is nan
    assert important_coordinates(F, [1, 1]) == (full, ())


def _row_masks(factors):
    """Each row's mask by the formula of the ranked scan: its (factor,
    element) bits, `factors[i][j]` at `offset(i) + j`."""
    offsets = list(itertools.accumulate(map(len, factors), initial=0))
    return [sum(1 << o + j for o, j in zip(offsets, js)) for js in _positions(factors)[0]]


@settings(max_examples=200)
@given(searches())
def test_ranked_tables_match_their_formulas(search):
    F, min_sizes = search
    factors = F.factors
    masks, shared, blocks, least = _ranked(factors, tuple(min_sizes))
    assert [_subfactors(factors, mask) for mask in masks] == list(_subproducts(factors, min_sizes))
    # The smallest sub-products that can have rows start at `least`.
    smallest = sum(max(m, 1) for m in min_sizes)
    assert all(mask.bit_count() > smallest for mask in masks[:least])
    assert all(mask.bit_count() <= smallest for mask in masks[least:])
    row_masks = _row_masks(factors)
    everything = (1 << len(row_masks)) - 1
    for mask in masks:
        gone = 0  # as `_first` finds it
        for start, table in blocks:
            gone |= table[~mask >> start & 15]
        assert everything ^ gone == sum(1 << r for r, m in enumerate(row_masks) if m & mask == m)
    domain = _domain(factors)
    for I in _coordinate_sets(len(factors)):
        classes: dict = {}
        for r, t in enumerate(domain):
            key = tuple(t[i - 1] for i in I)
            classes[key] = classes.get(key, 0) | 1 << r
        for r, t in enumerate(domain):
            same = everything
            for i in I:
                same &= shared[i - 1][r] or 1 << r
            assert same == classes[tuple(t[i - 1] for i in I)]


def _held_after(fn):
    """fn's result, and the bytes still allocated after it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_large_factors_at_high_min_sizes_keep_no_row_set_per_subproduct():
    # 31^3 sub-products of a product of 27,000 rows: a row set kept per
    # sub-product would hold about 100 MB.
    factors = [range(0, 30), range(30, 60), range(60, 90)]
    F = build_product_fn(factors, lambda *t: 0)
    got, held = _held_after(lambda: homogenize(F, [29, 29, 29]))
    assert got == (F.factors, 0)
    assert held < 20_000_000
    assert important_coordinates(F, [29, 29, 29]) == (F.factors, ())


def test_a_large_single_factor_costs_little_to_build_and_search():
    # A bitset per lone key would cost about 25 MB for 20,000 of them.
    F, held = _held_after(lambda: build_product_fn([range(20000)], lambda a: a))
    assert held < 12_000_000
    full = (tuple(range(20000)),)
    got, held = _held_after(lambda: (homogenize(F, [20000]), important_coordinates(F, [20000])))
    assert got == (None, (full, (1,)))
    assert held < 5_000_000


def _peak_of(fn):
    """fn's result, and the most bytes allocated while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_many_small_spread_value_classes_cost_linear_memory():
    # 40,000 rows in 20,000 classes of two rows at the two ends: a bitset
    # per class as wide as its highest row would cost about 85 MB.
    F = build_product_fn([range(200), range(200, 400)],
                         lambda a, b: min(a * 200 + b - 200, 39999 - a * 200 - b + 200))
    got, peak = _peak_of(lambda: homogenize(F, [200, 200]))
    assert got is None
    assert peak < 16_000_000


@st.composite
def spread_classes(draw):
    """F on one factor of 136-160 elements or two of 12-13, each row its own
    value but for rows 0 and one of the last eight, which share a class
    stored as its rows, and a few rows between that take an earlier row's
    value; with min sizes of each factor's size or one less."""
    n = draw(st.sampled_from([1, 2]))
    size = draw(st.integers(136, 160) if n == 1 else st.integers(12, 13))
    factors = [range(size)] if n == 1 else [range(size), range(size, 2 * size)]
    m = len(_positions(tuple(tuple(f) for f in factors))[0])
    values = list(range(m))
    values[0] = values[draw(st.integers(m - 8, m - 1))] = -1
    for _ in range(draw(st.integers(0, 3))):
        a, b = sorted(draw(st.lists(st.integers(1, m - 9), min_size=2, max_size=2, unique=True)))
        values[b] = values[a]
    return FiniteProductFn(factors, tuple(values)), [size - draw(st.integers(0, 1))] * n


@settings(max_examples=40, deadline=None)
@given(spread_classes())
def test_sparse_value_classes_match_scan(search):
    F, min_sizes = search
    assert any(type(c) is ramsey._Rows for c in _classes(F.table, sparse=True))
    assert homogenize(F, min_sizes) == _scan_homogenize(F, min_sizes)
    assert important_coordinates(F, min_sizes) == _scan_important(F, min_sizes)


def test_a_product_without_rows_is_answered_without_a_search(monkeypatch):
    # 2^16 coordinate sets, each of which used to be searched in vain.
    searched = []
    search = ramsey._search
    monkeypatch.setattr(ramsey, "_search", lambda *args: searched.append(args[3]) or search(*args))
    no_rows = build_product_fn([[1]] * 16, lambda *t: 0)
    assert important_coordinates(no_rows, [1] * 16) is None
    # Min sizes above a factor's size leave no sub-product at all.
    F = build_product_fn([[1, 2], [3]], lambda a, b: a)
    assert important_coordinates(F, [0, 2]) is None
    assert searched == []
    assert important_coordinates(F, [1, 1]) == (((1,), (3,)), ())
    assert searched == [()]


def test_an_unhashable_colour_is_a_type_error():
    F = FiniteProductFn(((1, 2), (3,)), {(1, 3): 0, (2, 3): [0]})
    for search in (homogenize, important_coordinates):
        with pytest.raises(TypeError):
            search(F, [1, 1])


def test_the_table_is_the_callers_values_at_construction():
    values = {(1, 3): 0, (2, 3): 1, (9, 9): 2}
    F = FiniteProductFn(((1, 2), (3,)), values)
    values[1, 3] = 5
    del values[2, 3]
    # In product order, without the entry outside the product.
    assert F.table == (0, 1) and F((1, 3)) == 0 and F((2, 3)) == 1
    assert F == FiniteProductFn(((1, 2), (3,)), (0, 1))
    assert hash(F) == hash(FiniteProductFn(((1, 2), (3,)), {(2, 3): 1, (1, 3): 0}))
    with pytest.raises(ValueError, match="a tuple of 4 values"):
        FiniteProductFn(((1, 2), (3, 4)), (0, 1))
    with pytest.raises(ValueError, match="a tuple of 2 values"):
        FiniteProductFn(((1, 2), (3,)), [0, 1])


def test_scan_oracle_on_grid_and_near_projections():
    # Larger minimum sizes than the property draws, so that most searches
    # learn many conflicts and non-empty coordinate sets are common.
    grid = [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]
    for bits in range(2 ** len(grid)):
        F = build_product_fn([[1, 2, 3], [4, 5, 6]], lambda a, b: bits >> grid.index((a, b)) & 1)
        assert homogenize(F, [2, 2]) == _scan_homogenize(F, [2, 2])
        assert important_coordinates(F, [2, 2]) == _scan_important(F, [2, 2])
    rng = random.Random(11)
    for k in range(12):
        noise = 0.05 * (k % 4)
        F = build_product_fn(
            [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]],
            lambda a, b, c: (a, b, c)[k % 3] if rng.random() > noise else rng.randrange(3),
        )
        assert homogenize(F, [2, 2, 2]) == _scan_homogenize(F, [2, 2, 2])
        assert important_coordinates(F, [2, 2, 2]) == _scan_important(F, [2, 2, 2])


def test_product_fn_json_round_trip():
    # A list value is frozen to a tuple, recursively, so that it can be a
    # dict key or a set member; integers and strings are kept.
    doc = {
        "factors": [[1, 2], [3, 4]],
        "table": [
            {"args": [1, 3], "value": [1, ["a", []]]},
            {"args": [1, 4], "value": "b"},
            {"args": [2, 3], "value": -7},
            {"args": [2, 4], "value": []},
        ],
    }
    values = {(1, 3): (1, ("a", ())), (1, 4): "b", (2, 3): -7, (2, 4): ()}
    F = build_product_fn([[1, 2], [3, 4]], lambda a, b: values[a, b])
    assert io.product_fn_from_json(doc) == F
    assert io.product_fn_from_json(json.loads(json.dumps(doc))) == F


def test_equal_factors_keep_their_own_values():
    # 1.0 == 1, so both factor tuples share the cached tables; each function
    # must still see, store and certify its own values.
    floats = build_product_fn([[1.0, 2.0], [3.0]], lambda a, b: repr((a, b)))
    ints = build_product_fn([[1, 2], [3]], lambda a, b: repr((a, b)))
    assert floats.table == ("(1.0, 3.0)", "(2.0, 3.0)")
    assert ints.table == ("(1, 3)", "(2, 3)")
    assert floats((1, 3)) == "(1.0, 3.0)" and ints((1.0, 3.0)) == "(1, 3)"
    for F, kind in ((floats, float), (ints, int), (floats, float)):
        constant = FiniteProductFn(F.factors, {t: 0 for t in _domain(F.factors)})
        (hs, _), (hs_i, _) = homogenize(constant, [1, 1]), important_coordinates(constant, [1, 1])
        assert hs == hs_i == F.factors
        assert all(type(x) is kind for h in hs for x in h)


def test_cached_rankings_are_released():
    """A long-running process that moves on to other factor tuples does not
    keep an earlier ranking alive."""
    big = build_product_fn([range(7), range(7, 14), [14]], lambda a, b, c: (a + b) % 3)
    others = [build_product_fn([[k], [k + 1]], lambda a, b: 0) for k in range(8)]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        homogenize(big, [0, 0, 0])  # ranks 2^15 sub-products
        held = tracemalloc.get_traced_memory()[0] - base
        for F in others:
            homogenize(F, [1, 1])
            important_coordinates(F, [1, 1])
        gc.collect()
        after = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held > 1_000_000
    assert after < held / 20


def brute_homogeneous(F, min_sizes):
    """Oracle: any monochromatic sub-product of at least the given sizes."""
    best = None
    for hs in itertools.product(
        *[
            [
                c
                for size in range(len(f), m - 1, -1)
                for c in itertools.combinations(f, size)
            ]
            for f, m in zip(F.factors, min_sizes)
        ]
    ):
        tuples = [
            t
            for t in itertools.product(*hs)
            if all(a < b for a, b in zip(t, t[1:]))
        ]
        if tuples and len({F(t) for t in tuples}) == 1:
            size = sum(len(h) for h in hs)
            if best is None or size > best:
                best = size
    return best


def test_constant_function_full_factors():
    F = build_product_fn([[1, 2, 3], [4, 5, 6]], lambda a, b: 7)
    got = homogenize(F, [2, 2])
    assert got is not None
    hs, color = got
    assert hs == ((1, 2, 3), (4, 5, 6)) and color == 7


def test_parity_function():
    F = build_product_fn([[1, 2, 3, 4, 5, 6], [7, 8, 9, 10, 11, 12]], lambda a, b: a % 2)
    got = homogenize(F, [3, 3])
    assert got is not None
    hs, color = got
    assert len(hs[0]) >= 3 and len({a % 2 for a in hs[0]}) == 1
    assert len(hs[1]) == 6  # second coordinate is free, kept whole


def test_injective_function_not_found():
    F = build_product_fn([[1, 2, 3], [4, 5, 6]], lambda a, b: (a, b))
    assert homogenize(F, [2, 2]) is None


def test_homogenize_matches_brute_oracle(rng):
    for _ in range(40):
        F = build_product_fn(
            [[1, 2, 3], [4, 5, 6]], lambda a, b: rng.randrange(2)
        )
        got = homogenize(F, [2, 2])
        best = brute_homogeneous(F, [2, 2])
        if best is None:
            assert got is None
        else:
            assert got is not None
            hs, color = got
            assert sum(len(h) for h in hs) == best  # strongest certificate
            for t in itertools.product(*hs):
                if all(a < b for a, b in zip(t, t[1:])):
                    assert F(t) == color


def test_important_constant():
    F = build_product_fn([[1, 2], [3, 4]], lambda a, b: 0)
    got = important_coordinates(F, [2, 2])
    assert got is not None
    hs, I = got
    assert I == ()


def test_important_first_coordinate():
    F = build_product_fn([[1, 2, 3], [4, 5, 6]], lambda a, b: a)
    got = important_coordinates(F, [2, 2])
    assert got is not None
    hs, I = got
    assert I == (1,)
    assert hs == ((1, 2, 3), (4, 5, 6))


def test_important_random_validated(rng):
    factors = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]
    for _ in range(25):
        F = build_product_fn(factors, lambda a, b, c: rng.randrange(3))
        got = important_coordinates(F, [2, 2, 2])
        brute = _brute_min_important(F, [2, 2, 2])
        if got is None:
            assert brute is None
            continue
        hs, I = got
        tuples = [
            t
            for t in itertools.product(*hs)
            if all(a < b for a, b in zip(t, t[1:]))
        ]
        # soundness: the biconditional holds on every pair
        for s in tuples:
            for t in tuples:
                same_proj = all(s[i - 1] == t[i - 1] for i in I)
                assert (F(s) == F(t)) == same_proj
        # minimality: no smaller I works on any admissible sub-product
        assert len(I) == brute


def test_case_dichotomy_first_coordinate_unimportant(rng):
    # When 1 is not important, fixing the tail makes F constant in the head.
    factors = [[1, 2, 3], [4, 5, 6]]
    for _ in range(25):
        F = build_product_fn(factors, lambda a, b: b % 3)
        got = important_coordinates(F, [2, 2])
        assert got is not None
        hs, I = got
        if 1 in I:
            continue
        tuples = [
            t
            for t in itertools.product(*hs)
            if all(a < b for a, b in zip(t, t[1:]))
        ]
        for tail in {t[1:] for t in tuples}:
            vals = {F(t) for t in tuples if t[1:] == tail}
            assert len(vals) == 1


def test_bad_input():
    with pytest.raises(ValueError):
        FiniteProductFn(((3, 1),), {})
    F = build_product_fn([[1, 2]], lambda a: 0)
    with pytest.raises(ValueError):
        homogenize(F, [1, 1])
    for search in (homogenize, important_coordinates):
        with pytest.raises(ValueError, match="non-negative"):
            search(F, [-1])
