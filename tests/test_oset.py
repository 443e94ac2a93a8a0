from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import Phase, example, given, seed, settings
from hypothesis import strategies as st

from ordbench.errors import ParseError, UnsupportedRegion
from ordbench.ordinal import (
    ONE, ZERO, Ordinal, add, cnf_difference, format_ordinal, from_int,
    least_in_level, level_sup_below, olim, omega_power, ordinal_enumeration,
)
from ordbench.oset import (
    OrdinalSet,
    Piece,
    _feasible_levels,
    _g_omega_power,
    _g_positive,
    _level_op,
    _normalize,
    _reduce_piece,
    _sup,
    format_set,
    parse_set,
)
from ordbench.projection import LIM, OPEN, OUT, IndexSet

from conftest import (
    HIGH_POINTS,
    W,
    W2,
    W3,
    W_W,
    nat,
    o,
    ordinal_sets,
    raw_pieces,
    small_ordinals_below,
)

DOMAIN = small_ordinals_below(o("w^3*3"), 550)
W4 = o("w^4")
DOMAIN_HIGH = sorted((*DOMAIN, *HIGH_POINTS))


def members(s: OrdinalSet, domain=DOMAIN):
    return [g for g in domain if g in s]


def piece_has(p: Piece, g: Ordinal) -> bool:
    """Membership in one piece, as the module docstring defines it: g in
    [lo, hi) and, for a filtered piece, o_L(g) in its levels (o_L(0) read
    as 0)."""
    return p.lo <= g < p.hi and (p.levels is None or olim(g) in p.levels)


def random_set(rng: random.Random) -> OrdinalSet:
    pieces = []
    for _ in range(rng.randrange(1, 4)):
        a, b = sorted(rng.sample(DOMAIN, 2))
        pieces.append(Piece(a, b))
    return OrdinalSet(tuple(pieces))


def test_least_in_level_oracle():
    for g in DOMAIN[:200]:
        for k in range(3):
            xi = nat(k)
            got = least_in_level(xi, g)
            assert got >= g and olim(got) == xi
            # Minimality relative to the sample domain.
            for h in DOMAIN:
                if g <= h < got:
                    assert olim(h) != xi, (str(xi), str(g), str(h))


def test_level_sup_below_oracle():
    for b in DOMAIN[1:200]:
        for k in range(3):
            xi = nat(k)
            pts = [h for h in DOMAIN if h < b and olim(h) == xi]
            got = level_sup_below(xi, b)
            if not pts:
                # Oracle domain is a prefix, so emptiness agrees on it.
                assert got is None or got[0] not in DOMAIN or got[0] >= b or not pts
                continue
            assert got is not None
            val, attained = got
            assert val >= pts[-1]
            if attained:
                assert olim(val) == xi and val < b


# Levels finite and infinite, and ordinals nested and flat.
LEVELS = [nat(k) for k in range(6)] + [o(t) for t in ("w", "w+1", "w^2", "w*2")]


@settings(max_examples=600)
@given(st.sampled_from(ordinal_enumeration()), st.sampled_from(LEVELS),
       st.sampled_from(ordinal_enumeration()))
def test_least_in_level_and_level_sup_below_fix_each_other(g, xi, h):
    """Each answer is pinned by the other helper: r = least_in_level(xi, g)
    is a level-xi point at or past g with no level-xi point in [g, r), and
    the supremum of the level-xi points below g is attained at a point
    with no later one below g, or is a limit of them, or there is none."""
    r = least_in_level(xi, g)
    assert r >= g and olim(r) is xi
    s = level_sup_below(xi, r)
    assert s is None or (s[0] < g if s[1] else s[0] <= g)
    s = level_sup_below(xi, g)
    if s is None:
        assert least_in_level(xi, ZERO) >= g
        return
    val, attained = s
    if attained:
        assert val < g and olim(val) is xi
        assert least_in_level(xi, val.successor()) >= g
    else:
        assert ZERO < val <= g and least_in_level(xi, val) >= g
        if h < val:
            assert least_in_level(xi, h) < val


def _times_omega(a: Ordinal) -> Ordinal:
    """a*w: w^(leading exponent + 1) for a > 0."""
    return omega_power(add(a.terms[0][0], ONE)) if a else ZERO


def test_g_omega_power_matches_its_definition():
    """otp({0 < g < w^e | o_L(g) in L}) by its recursion on finite e:
    G(0) = 0 and G(k+1) = (G(k) + [k in L])*w, for L of at most 3 levels
    below 6."""
    for n in range(4):
        for chosen in itertools.combinations(range(6), n):
            levels, g = frozenset(map(nat, chosen)), ZERO
            for k in range(7):
                assert _g_omega_power(nat(k), levels) == g, (chosen, k)
                g = _times_omega(add(g, ONE if nat(k) in levels else ZERO))


def test_g_omega_power_at_a_limit_exponent():
    assert _g_omega_power(W, frozenset({ZERO})) == W_W
    assert _g_omega_power(W, frozenset({nat(3), W})) == W_W
    assert _g_omega_power(W, frozenset({W, o("w+1")})) == ZERO
    # The level-xi points below w^(w*2) are w^xi*(d+1) for d < w^w.
    assert _g_omega_power(o("w*2"), frozenset({o("w+1")})) == W_W
    assert _g_omega_power(o("w*2"), frozenset({W, o("w+5")})) == W_W
    assert _g_omega_power(o("w*2"), frozenset({nat(2)})) == o("w^(w*2)")


def test_spec_intersection_example():
    a = OrdinalSet.interval(ZERO, W)
    b = OrdinalSet.interval(nat(5), W2)
    assert a.intersect(b) == OrdinalSet.interval(nat(5), W)


def test_spec_membership_example():
    s = parse_set("{0} u [w,w^2)")
    assert o("w+3") in s
    assert nat(1) not in s


def test_spec_difference_example():
    a = OrdinalSet.interval(ZERO, W2)
    b = OrdinalSet.interval(W, o("w*2"))
    got = a.difference(b)
    assert got == OrdinalSet.interval(ZERO, W).union(OrdinalSet.interval(o("w*2"), W2))


def test_boolean_laws_pointwise(rng):
    for _ in range(120):
        a, b, c = random_set(rng), random_set(rng), random_set(rng)
        ma, mb, mc = set(members(a)), set(members(b)), set(members(c))
        assert set(members(a.union(b))) == ma | mb
        assert set(members(a.intersect(b))) == ma & mb
        assert set(members(a.difference(b))) == ma - mb
        assert a.union(b) == b.union(a)
        assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))
        assert a.difference(b).intersect(b).is_empty()


def test_canonical_equality(rng):
    for _ in range(60):
        a = random_set(rng)
        b = random_set(rng)
        u1 = a.union(b)
        u2 = b.union(a.difference(b)).union(a.intersect(b))
        assert u1 == u2 and hash(u1) == hash(u2)


def test_restrict_and_min(rng):
    for _ in range(60):
        a = random_set(rng)
        cut = DOMAIN[rng.randrange(len(DOMAIN))]
        assert set(members(a.restrict_below(cut))) == {g for g in members(a) if g < cut}
        assert set(members(a.restrict_above(cut))) == {g for g in members(a) if g > cut}
        m = a.min_element()
        got = members(a)
        if got and (m is None or m <= DOMAIN[-1]):
            assert m == got[0]


def test_stratum_pieces_and_filters():
    y1 = OrdinalSet.stratum_piece(ZERO, W2, nat(1))
    assert o("w*3") in y1 and o("w*3+1") not in y1 and W2 not in y1
    assert members(y1, DOMAIN) == [g for g in DOMAIN if g < W2 and olim(g) == nat(1) ]
    # Filter covering every feasible level collapses to a plain piece.
    y01 = OrdinalSet((Piece(ZERO, W2, frozenset((ZERO, nat(1)))),))
    assert y01 == OrdinalSet.interval(ZERO, W2)  # equal pieces: one plain piece


def test_filtered_boolean_pointwise(rng):
    for _ in range(80):
        a = random_set(rng)
        xi = nat(rng.randrange(3))
        strat = OrdinalSet.stratum_piece(ZERO, o("w^3*3"), xi)
        inter = a.intersect(strat)
        diff = a.difference(strat)
        ma = set(members(a))
        assert set(members(inter)) == {g for g in ma if olim(g) == xi}
        assert set(members(diff)) == {g for g in ma if olim(g) != xi}
        assert inter.union(diff) == a


def test_min_in_level_above(rng):
    a = parse_set("[w,w^2) u [w^2*2, w^3)")
    assert a.min_in_level_above(nat(1), o("w*4")) == o("w*5")
    assert a.min_in_level_above(nat(2), ZERO) == o("w^2*2")
    assert a.min_in_level_above(nat(1), o("w^2*2")) == o("w^2*2+w")
    assert a.min_in_level_above(nat(3), ZERO) is None


def test_sup_and_boundedness():
    a = parse_set("[0,w)")
    assert a.sup() == (W, False)
    assert a.is_bounded_below(W2)
    assert not a.is_bounded_below(W)
    b = parse_set("[0,w) u {w*2}")
    assert b.sup() == (o("w*2"), True)
    assert OrdinalSet.empty().is_bounded_below(W)


def test_an_empty_window_has_no_levels_and_no_sup():
    assert _feasible_levels(W, W) == _feasible_levels(W2, W) == frozenset()
    assert _sup(W, W, None) is None
    assert _sup(W, nat(5), frozenset((nat(1),))) is None


@settings(max_examples=300)
@given(st.sampled_from(ordinal_enumeration()[:2000]), st.sampled_from(ordinal_enumeration()[:2000]))
def test_feasible_levels_are_the_levels_with_a_point(a, b):
    """A level has a point in [lo, hi) exactly when its least point from lo
    lies below hi; the flat pool's exponents are at most 6."""
    lo, hi = min(a, b), max(a, b)
    assert _feasible_levels(lo, hi) == {xi for xi in map(nat, range(8))
                                        if least_in_level(xi, lo) < hi}


def test_sup_filtered():
    y1 = OrdinalSet.stratum_piece(ZERO, add(W2, nat(5)), nat(1))
    assert y1.sup() == (W2, False)
    y2 = OrdinalSet.stratum_piece(ZERO, add(W2, nat(5)), nat(2))
    assert y2.sup() == (W2, True)


def test_closure_points():
    a = parse_set("[0,w)")
    cl = a.closure_points(W3)
    assert W in cl and o("w*2") not in cl and ZERO not in cl
    b = parse_set("[w,w^2)")
    cl = b.closure_points(W3)
    assert W2 in cl and o("w*5") in cl and W not in cl
    # Limits of a single stratum lie strictly above its level.
    y1 = OrdinalSet.stratum_piece(ZERO, W3, nat(1))
    cl = y1.closure_points(W3)
    assert W2 in cl and o("w*5") not in cl and W3 in cl


def test_closure_points_pointwise(rng):
    for _ in range(40):
        a = random_set(rng)
        cl = a.closure_points(o("w^3*3"))
        for g in DOMAIN[1:300]:
            if not g.is_limit:
                assert g not in cl
            elif g in cl:
                assert not a.restrict_below(g).is_bounded_below(g), str(g)
            else:
                assert a.restrict_below(g).is_bounded_below(g), str(g)


def test_enumerate():
    s = parse_set("{3} u [w,w*2)")
    first = s.enumerate(5)
    assert first == [nat(3), W, o("w+1"), o("w+2"), o("w+3")]


def test_otp_plain():
    assert parse_set("[0,w)").otp() == W
    assert parse_set("[w,w*2) u {w^2}").otp() == o("w+1")
    assert parse_set("{0} u [w,w^2)").otp() == W2
    assert parse_set("{3} u [w,w*2) u {w^2}").otp() == o("w+1")
    assert OrdinalSet.empty().otp() == ZERO


def test_otp_filtered_oracle():
    dom = small_ordinals_below(o("w^3"), 400)
    y1 = OrdinalSet.stratum_piece(ZERO, W2, nat(1))
    # {w, w*2, ...} has order type w
    assert y1.otp() == W
    y1b = OrdinalSet.stratum_piece(ZERO, W3, nat(1))
    # strata of level 1 below w^3: order type w^2
    assert y1b.otp() == W2
    y0 = OrdinalSet.stratum_piece(ZERO, W2, ZERO)
    # successors (and 0) below w^2: w copies of w
    assert y0.otp() == W2


def old_g_positive(y: Ordinal, levels: frozenset[Ordinal]) -> Ordinal:
    """The loop `_g_positive` replaced: one sum per unit of coefficient."""
    if y.is_zero or y == ONE:
        return ZERO
    total = ZERO
    marked_last = False
    for e, c in y.terms:
        block = _g_omega_power(e, levels)
        mark = e in levels
        for _ in range(c):
            total = add(total, block)
            if mark:
                total = add(total, ONE)
        marked_last = mark
    if marked_last:
        total = total.predecessor()
    return total


@settings(max_examples=300)
@given(
    st.dictionaries(st.integers(0, 3), st.integers(1, 5), max_size=4),
    st.frozensets(st.integers(0, 4).map(from_int)),
)
def test_g_positive_matches_the_unit_loop(coeffs, levels):
    y = Ordinal(tuple((nat(e), c) for e, c in sorted(coeffs.items(), reverse=True)))
    assert _g_positive(y, levels) == old_g_positive(y, levels)


@pytest.mark.parametrize(
    "text",
    ["[0,wu)", "[w,w*2u)@{1}", "{wu}", "[0,w,w^2)", "[0,w,)", "(w,w^2,3]", "{1,2}"],
)
def test_u_or_extra_comma_inside_brackets_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_set(text)


def test_format_parse_roundtrip(rng):
    for _ in range(80):
        a = random_set(rng)
        assert parse_set(format_set(a)) == a
    f = OrdinalSet.stratum_piece(ZERO, W2, nat(1))
    assert parse_set(format_set(f)) == f


def test_filtered_algebra_soak(rng):
    # arbitrary mixes of plain and stratified pieces against the
    # pointwise membership oracle
    top = o("w^3*3")
    strata = [OrdinalSet.stratum_piece(ZERO, top, nat(k)) for k in range(3)]
    for _ in range(60):
        a = random_set(rng)
        b = random_set(rng).intersect(strata[rng.randrange(3)])
        c = strata[rng.randrange(3)].difference(random_set(rng))
        combined = a.union(b).difference(c)
        ma, mb, mc = set(members(a)), set(members(b)), set(members(c))
        assert set(members(combined)) == (ma | mb) - mc
        again = combined.union(c).intersect(combined)
        assert set(members(again)) == set(members(combined))
        # canonical equality under re-expression
        assert combined == a.difference(c).union(b.difference(c))


def test_unsupported_region_guard():
    # Plain pieces are fine in arbitrarily high regions ...
    big = OrdinalSet.interval(ZERO, o("w^w*2"))
    assert o("w^w+5") in big.difference(OrdinalSet.interval(W, W2))
    assert OrdinalSet.of(ZERO, o("w^w*3")).sup() == (o("w^w*3"), True)
    # ... also where a filtered piece touches them, and a filtered run
    # takes in the start of one ...
    got = big.difference(parse_set("[0,w^2)@{1}"))
    assert format_set(got) == "[0,w^2 + w)@{0,2} u [w^2 + w,w^w*2)"
    got = parse_set("[0,w^2)@{1}").union(parse_set("[w^2,w^w)"))
    assert format_set(got) == "[w,w^2 + 1)@{1,2} u [w^2 + 1,w^w)"
    got = parse_set("[w,w^2)@{1}").union(parse_set("[w^2,w^w+1)"))
    assert format_set(got) == "[w,w^2 + 1)@{1,2} u [w^2 + 1,w^w + 1)"
    # ... but level filters cannot be created there.
    with pytest.raises(UnsupportedRegion):
        OrdinalSet.stratum_piece(ZERO, o("w^w"), nat(1))


# ---------------------------------------------------------------------------
# The rebuild-then-query code the piece walks replaced, kept as the oracle:
# every restriction rebuilds and renormalises a whole set, and every query
# reads its answer off such a set.
# ---------------------------------------------------------------------------


def old_restrict_below(s: OrdinalSet, b) -> OrdinalSet:
    out = []
    for p in s.pieces:
        if p.lo >= b:
            break
        out.append(Piece(p.lo, min(p.hi, b), p.levels))
    return OrdinalSet(tuple(out))


def old_restrict_above(s: OrdinalSet, b) -> OrdinalSet:
    cut = b.successor()
    out = []
    for p in s.pieces:
        if p.hi <= cut:
            continue
        out.append(Piece(max(p.lo, cut), p.hi, p.levels))
    return OrdinalSet(tuple(out))


def _old_span_levels(s: OrdinalSet, lo, hi):
    for p in s.pieces:
        if p.lo <= lo and hi <= p.hi:
            return p.levels
    return frozenset()


def old_combine(a: OrdinalSet, b: OrdinalSet, op: str) -> OrdinalSet:
    cuts = sorted({x for p in a.pieces + b.pieces for x in (p.lo, p.hi)})
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        lvl = _level_op(_old_span_levels(a, lo, hi), _old_span_levels(b, lo, hi), op, lo, hi)
        if lvl != frozenset():
            out.append(Piece(lo, hi, lvl))
    return OrdinalSet(tuple(out))


def old_sup_below(s: OrdinalSet, b):
    return old_restrict_below(s, b).sup()


def old_min_above(s: OrdinalSet, floor):
    return old_restrict_above(s, floor).min_element()


def old_enumerate(s: OrdinalSet, limit: int):
    out, cur = [], None
    while len(out) < limit:
        cur = s.min_element() if cur is None else old_min_above(s, cur)
        if cur is None:
            break
        out.append(cur)
    return out


def old_in_lim(points: OrdinalSet, g) -> bool:
    if g not in points:
        return False
    if g.is_zero:
        return True
    s = old_restrict_below(old_restrict_below(points, g), g).sup()
    return not (s is None or s[0] < g)


def old_clause_pred(points: OrdinalSet, g):
    s = old_restrict_below(points, g).sup()
    return ZERO if s is None else s[0] if s[1] else None


def old_position(points: OrdinalSet, g):
    """`IndexSet.position` from the rebuilt limit and predecessor oracles."""
    if g not in points:
        return OUT
    if old_in_lim(points, g):
        return LIM
    pred = old_clause_pred(points, g)
    return OPEN if pred is None else pred


@st.composite
def sets_and_cuts(draw, cuts: int = 1, high: bool = False):
    """A set with cut points drawn from the grid or from its own piece
    bounds and their neighbours, where the junction cases live."""
    s = draw(ordinal_sets(high=high))
    near = [g for p in s.pieces for x in (p.lo, p.hi) for g in (x, x.successor())]
    near += [p.lo.predecessor() for p in s.pieces if p.lo.is_successor]
    grid = DOMAIN_HIGH if high else DOMAIN
    point = st.sampled_from(grid) | (st.sampled_from(near) if near else st.nothing())
    return (s, *(draw(point) for _ in range(cuts)))


@settings(max_examples=300)
@given(ordinal_sets())
# Pinning the junction at w once left the empty piece [w,w+1)@{0} behind.
@example(OrdinalSet((Piece(ZERO, ONE), Piece(ZERO, o("w+1"), frozenset((ZERO,))))))
def test_normal_form_is_idempotent(s):
    assert _normalize(s.pieces) == s.pieces
    assert all(p.levels is None or p.levels for p in s.pieces)


@settings(max_examples=300)
@given(sets_and_cuts())
def test_restrictions_match_rebuild(case):
    s, b = case
    assert s.restrict_below(b).pieces == old_restrict_below(s, b).pieces
    assert s.restrict_above(b).pieces == old_restrict_above(s, b).pieces


@settings(max_examples=300)
@given(sets_and_cuts(), st.integers(0, 4).map(nat))
def test_level_queries_match_the_stratum(case, xi):
    """The least member of level xi, above a floor or not, is the least
    member of the set's part in the stratum of level xi, filtered pieces
    that leave xi out included."""
    s, floor = case
    stratum = OrdinalSet.stratum_piece(ZERO, W4, xi)  # the drawn sets lie below w^4
    assert s.min_in_level(xi) == s.intersect(stratum).min_element()
    want = s.restrict_above(floor).intersect(stratum).min_element()
    assert s.min_in_level_above(xi, floor) == want


@settings(max_examples=300)
@given(ordinal_sets(), ordinal_sets())
def test_combine_matches_span_scan(a, b):
    assert a.union(b).pieces == old_combine(a, b, "union").pieces
    assert a.intersect(b).pieces == old_combine(a, b, "inter").pieces
    assert a.difference(b).pieces == old_combine(a, b, "diff").pieces


@settings(max_examples=300)
@given(sets_and_cuts())
def test_set_walks_match_rebuild(case):
    s, b = case
    sup = old_sup_below(s, b)
    assert s.sup_below(b) == sup
    assert s.is_bounded_below(b) == (sup is None or sup[0] < b)
    assert s.min_above(b) == old_min_above(s, b)
    assert s.enumerate(12) == old_enumerate(s, 12)


@settings(max_examples=300)
@given(sets_and_cuts())
def test_index_set_walks_match_rebuild(case):
    s, g = case
    assert IndexSet(s).position(g) == old_position(s, g)


@settings(max_examples=300)
@given(sets_and_cuts())
def test_gap_levels_run_from_the_predecessor(case):
    """Every successor position c with a predecessor has the gap levels
    `cnf_difference(pred, c)` less its last exponent."""
    s, g = case
    I = IndexSet(s)
    for c in [g, *s.enumerate(12)]:
        pred = old_position(s, c)
        if isinstance(pred, Ordinal):
            assert I.gap_levels(c) == tuple(cnf_difference(pred, c)[:-1])


@settings(max_examples=200)
@given(sets_and_cuts(cuts=6), st.randoms(use_true_random=False))
def test_a_warmed_index_set_answers_like_a_fresh_one(case, rnd):
    """IndexSet keeps its positions and gap levels; asked again, in another
    order, it answers as a fresh index set and as the rebuilt oracles do."""
    s, *points = case
    points.append(s.pieces[-1].hi if s.pieces else ZERO)  # never a member
    oracles = {
        "__contains__": lambda g: g in s,
        "position": lambda g: old_position(s, g),
        "gap_levels": lambda g: tuple(cnf_difference(old_position(s, g), g)[:-1]),
    }
    asks = [(name, g) for name in ("__contains__", "position") for g in points]
    # gap_levels is defined for successor positions with a predecessor.
    asks += [("gap_levels", g) for g in points if isinstance(old_position(s, g), Ordinal)]
    want = {(name, g): oracles[name](g) for name, g in asks}

    def answers(I: IndexSet):
        rnd.shuffle(asks)
        return {(name, g): getattr(I, name)(g) for name, g in asks}

    warm = IndexSet(s)
    assert answers(warm) == want
    assert answers(warm) == want
    assert answers(IndexSet(s)) == want


def test_pieces_without_interval_or_level_add_no_cuts():
    base = parse_set("[0,w^2)@{1}").pieces
    assert parse_set("[0,w^2)@{1} u [w+1,w)").pieces == base
    assert parse_set("[0,w^2)@{1} u [w,w+1)@{}").pieces == base
    assert parse_set("[0,w^w)@{}").is_empty()
    # Pieces whose levels have no point inside them: [w+1,w+2) holds only
    # w+1, of level 0, and w^(w+1)'s least level-1 point is w^(w+1)+w.
    assert parse_set("[0,w^2)@{1} u [w+1,w+2)@{1}").pieces == base
    assert format_set(parse_set("{w^(w+1)}@{1} u [0,w)")) == "[0,w)"


def test_equal_sets_with_different_layouts():
    # The greedy run from w takes w*2 in: the level-0 points between them
    # are left out, and w*2 is of the run's level 1.
    a, b = parse_set("{w} u {w*2}"), parse_set("[w,w*2+1)@{1}")
    assert a.pieces == b.pieces == (Piece(W, o("w*2+1"), frozenset((nat(1),))),)
    assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------------------
# The fixpoint normaliser that the one-pass `_settle` replaced, kept as the
# oracle of the old, non-canonical normal form: a covering scan over every
# cut, then junction pushing, merging and re-reducing until nothing changes.
# ---------------------------------------------------------------------------


def _least_distinguishing_point(lo, hi, fa, fb):
    """Least point of [lo, hi) whose level separates the two filters."""
    if fa is None or fb is None:
        # Against a plain piece any level above the filter separates them.
        # With m the larger of lo's leading exponent and the filter's top
        # level, w^(m+1) is such a point, so the search may stop below
        # w^(m+2) even when the plain piece reaches w^w or beyond.
        f = fb if fa is None else fa
        m = max((x.as_int() for x in f), default=0)
        if lo.terms:
            m = max(m, lo.terms[0][0].as_int())
        hi = min(hi, omega_power(nat(m + 2)))
        delta = [xi for xi in _feasible_levels(lo, hi) if xi not in f]
    else:
        delta = [xi for xi in _feasible_levels(lo, hi) if (xi in fa) != (xi in fb)]
    cands = [c for c in (least_in_level(xi, lo) for xi in delta) if c < hi]
    return min(cands, default=None)


def _old_is_empty(p: Piece) -> bool:
    if p.hi <= p.lo:
        return True
    if p.levels is None:
        return False
    return not any(least_in_level(xi, p.lo) < p.hi for xi in p.levels)


def _old_merge_once(pieces):
    out = []
    for p in pieces:
        if out and out[-1].hi == p.lo and out[-1].levels == p.levels:
            out[-1] = Piece(out[-1].lo, p.hi, p.levels)
        else:
            out.append(p)
    return out


def _old_push_junctions(pieces):
    if not pieces:
        return pieces
    out = [pieces[0]]
    for p in pieces[1:]:
        prev = out[-1]
        if prev.hi == p.lo and prev.levels != p.levels:
            e = _least_distinguishing_point(p.lo, p.hi, prev.levels, p.levels)
            if e is None:
                e = p.hi
            if e > p.lo:
                out[-1] = Piece(prev.lo, e, prev.levels)
                if e < p.hi:
                    out.append(Piece(e, p.hi, p.levels))
                continue
        out.append(p)
    return out


def _old_settle(spans):
    cur = [q for q in map(_reduce_piece, spans) if q is not None]
    while True:
        nxt = [
            q
            for q in map(_reduce_piece, _old_merge_once(_old_push_junctions(cur)))
            if q is not None
        ]
        if nxt == cur:
            return tuple(nxt)
        cur = nxt


def old_normalize(pieces):
    live = [p for p in pieces if not _old_is_empty(p)]
    cuts = sorted({x for p in live for x in (p.lo, p.hi)})
    spans = []
    for lo, hi in zip(cuts, cuts[1:]):
        covering = [p for p in live if p.lo <= lo and hi <= p.hi]
        if not covering:
            continue
        if any(p.levels is None for p in covering):
            levels = None
        else:
            levels = frozenset().union(*(p.levels for p in covering))
        spans.append(Piece(lo, hi, levels))
    return _old_settle(spans)


def _joinable(p: Piece, q: Piece) -> bool:
    """Whether one piece describes the set on [p.lo, q.lo]: p's members
    and q.lo."""
    if not q.lo < W_W:
        return p.levels is None and p.hi == q.lo
    f = _feasible_levels(p.lo, p.hi) if p.levels is None else p.levels
    one = OrdinalSet._of_normal((Piece(p.lo, q.lo.successor(), f | {olim(q.lo)}),))
    two = OrdinalSet((p, Piece(q.lo, q.lo.successor())))
    return one.difference(two).is_empty()


def assert_normal(pieces):
    """The canonical invariants of the `oset` module docstring."""
    for p in pieces:
        assert p.lo < p.hi and piece_has(p, p.lo)
        top, attained = _sup(p.lo, p.hi, p.levels)
        assert p.hi == (top.successor() if attained else top)
        # Reduced: a proper, non-empty subset of the levels the piece realizes.
        assert p.levels is None or p.levels and p.levels < _feasible_levels(p.lo, p.hi)
    for p, q in zip(pieces, pieces[1:]):
        assert p.hi <= q.lo
        assert not _joinable(p, q), (p, q)


@settings(max_examples=300)
@given(raw_pieces())
def test_constructor_matches_old_normalize(raw):
    # The old form is not canonical, so the two are compared as sets.
    s = OrdinalSet(raw)
    old = OrdinalSet._of_normal(old_normalize(raw))
    assert s.difference(old).is_empty() and old.difference(s).is_empty()
    assert members(s) == members(old)

@settings(max_examples=300)
@given(raw_pieces())
# The fixpoint pushed the second junction from the unreduced [w*3,w*3+1)@{0}
# and printed [w*2 + 1,w*3) u [w*3,w*4)@{0} u {w*4}.
@example(
    (
        Piece(o("w*2+1"), o("w*2+3"), frozenset(map(nat, (0, 1, 3)))),
        Piece(o("w*2+3"), o("w*3+1"), frozenset((ZERO,))),
        Piece(o("w*3+1"), o("w*4+1"), frozenset(map(nat, (0, 1, 2)))),
    )
)
def test_constructor_output_is_normal(raw):
    s = OrdinalSet(raw)
    assert_normal(s.pieces)
    assert _normalize(s.pieces) == s.pieces


@settings(max_examples=300)
@given(sets_and_cuts())
# Cutting at w^2+1 leaves [w^2+1,w^2*2)@{0}, whose junction at w^2*2 no
# longer separates it from the stored piece after it.
@example((parse_set("[w^2,w^2*2)@{0,2} u [w^2*2,w^2*3)@{0,1}"), W2))
def test_restrictions_are_normal(case):
    s, b = case
    assert_normal(s.restrict_below(b).pieces)
    assert_normal(s.restrict_above(b).pieces)


# ---------------------------------------------------------------------------
# The canonical form, read off membership and `least_in_level` alone.
# ---------------------------------------------------------------------------


def greedy_reference(member, bounds) -> tuple[Piece, ...]:
    """The canonical pieces of the set that `member` decides, by the greedy
    rule of the `oset` module docstring, scanned point by point.

    `bounds` holds every bound of the pieces the set was built from, so
    between two consecutive bounds the points of one level are all members
    or all not, and at or above w^w all points are.  The scan therefore
    visits only the first point of each level in each span: a run from its
    least member stops at the first such point that is (a/b) left out and
    of a level the run realizes, or (c) a member of a level whose earlier
    point was left out; at or above w^w it stops at any point once one has
    been left out.  Each level's first point at or above the start is
    looked up again whenever a run starts, since a run may start mid-span.
    """
    cuts = sorted({ZERO, W_W, *bounds})
    top_level = 2 + max((c.terms[0][0].as_int() for c in cuts if ZERO < c < W_W), default=0)

    def events(x):
        out = []
        for lo, hi in zip(cuts, cuts[1:]):
            if hi <= x:
                continue
            lo = max(lo, x)
            if lo >= W_W:
                out.append((lo, None, member(lo)))
                continue
            for k in range(top_level + 1):
                g = least_in_level(nat(k), lo)
                if g < hi:
                    out.append((g, k, member(g)))
        return sorted(out, key=lambda e: e[0])

    out, x = [], ZERO
    while True:
        start = next((g for g, _, m in events(x) if m), None)
        if start is None:
            return tuple(out)
        realized, left_out, high, stop = set(), set(), False, cuts[-1]
        for g, k, m in events(start):
            if k is None:
                if not m or left_out:
                    stop = g
                    break
                high = True
            elif (m and k in left_out) or (not m and k in realized):
                stop = g
                break
            else:
                (realized if m else left_out).add(k)
        if high:
            end = stop
        else:
            sups = (level_sup_below(nat(k), stop) for k in realized)
            end = max(v.successor() if attained else v for v, attained in sups)
        feasible = {k for k in range(top_level + 1) if least_in_level(nat(k), start) < end}
        plain = high or not end < W_W or feasible <= realized
        out.append(Piece(start, end, None if plain else frozenset(map(nat, realized))))
        x = stop


def _bounds(*piece_lists):
    return [x for ps in piece_lists for p in ps for x in (p.lo, p.hi)]


def test_greedy_reference_examples():
    cases = [
        ("[0,w^2)@{1}", "[w,w^2)@{1}"),
        ("{w} u {w*2}", "[w,w*2 + 1)@{1}"),
        ("[0,w) u [w+1,w^2)", "[0,w*2)@{0} u [w*2,w^2)"),
        ("[0,w^2)@{0} u [w^2,w^w*2)", "[0,w^2 + w)@{0,2} u [w^2 + w,w^w*2)"),
        ("[0,w^w) u [w^w+1,w^w*2)", "[0,w^w) u [w^w + 1,w^w*2)"),
        # Rule (c): the run from w left w+1 out, so w+2, of the same level,
        # starts the next piece.
        ("{w} u [w+2,w*3)@{0}", "{w} u [w + 2,w*3)@{0}"),
    ]
    for text, canonical in cases:
        s = parse_set(text)
        got = greedy_reference(s.__contains__, _bounds(s.pieces))
        assert format_set(OrdinalSet._of_normal(got)) == canonical
        assert s.pieces == got


STRATEGIES = pytest.mark.parametrize("high", [False, True], ids=["below-w^3*3", "to-w^(w+1)"])


@settings(max_examples=300)
@given(raw_pieces())
def test_constructor_matches_greedy_reference(raw):
    def member(g):
        return any(piece_has(p, g) for p in raw)

    assert OrdinalSet(raw).pieces == greedy_reference(member, _bounds(raw))


@STRATEGIES
@settings(max_examples=300)
@given(data=st.data())
def test_algebra_matches_greedy_reference(high, data):
    a, b = data.draw(ordinal_sets(high=high)), data.draw(ordinal_sets(high=high))
    bounds = _bounds(a.pieces, b.pieces)
    dom = DOMAIN_HIGH if high else DOMAIN
    ma, mb = set(members(a, dom)), set(members(b, dom))
    for got, op, expect in (
        (a.union(b), lambda g: g in a or g in b, ma | mb),
        (a.intersect(b), lambda g: g in a and g in b, ma & mb),
        (a.difference(b), lambda g: g in a and g not in b, ma - mb),
    ):
        assert set(members(got, dom)) == expect
        assert got.pieces == greedy_reference(op, bounds)


@STRATEGIES
@settings(max_examples=300)
@given(data=st.data())
def test_restrictions_match_greedy_reference(high, data):
    s, b = data.draw(sets_and_cuts(high=high))
    dom = DOMAIN_HIGH if high else DOMAIN
    bounds = _bounds(s.pieces) + [b, b.successor()]
    below, above = s.restrict_below(b), s.restrict_above(b)
    assert members(below, dom) == [g for g in members(s, dom) if g < b]
    assert members(above, dom) == [g for g in members(s, dom) if g > b]
    assert below.pieces == greedy_reference(lambda g: g < b and g in s, bounds)
    assert above.pieces == greedy_reference(lambda g: g > b and g in s, bounds)
    assert_normal(below.pieces)
    assert_normal(above.pieces)


@STRATEGIES
@settings(max_examples=300)
@given(data=st.data())
def test_equal_sets_have_identical_pieces(high, data):
    a, b = data.draw(ordinal_sets(high=high)), data.draw(ordinal_sets(high=high))
    x = data.draw(st.sampled_from(DOMAIN_HIGH if high else DOMAIN))
    for one, two in (
        (a.union(b), b.union(a)),
        (a.union(b), a.difference(b).union(b)),
        (a.intersect(b), b.intersect(a)),
        (a.restrict_above(x), a.difference(OrdinalSet.interval(ZERO, x.successor()))),
        (a.restrict_below(x), a.intersect(OrdinalSet.interval(ZERO, x))),
        (a, OrdinalSet(a.pieces[::-1] + b.intersect(a).pieces)),
    ):
        assert one.pieces == two.pieces
        assert one == two and hash(one) == hash(two)
    assert_normal(a.pieces)


@STRATEGIES
@settings(max_examples=300)
@given(data=st.data())
def test_missing_limits_pointwise(high, data):
    s = data.draw(ordinal_sets(high=high))
    dom = DOMAIN_HIGH if high else DOMAIN
    top = data.draw(st.sampled_from(dom))
    got = s.missing_limits(top)
    for g in dom[1:]:
        lacking = g < top and g not in s and not s.restrict_below(g).is_bounded_below(g)
        assert (g in got) == lacking, str(g)


def old_window(s: OrdinalSet, lo, hi) -> OrdinalSet:
    """s ∩ [lo, hi), built; None is unbounded."""
    if lo is not None:
        s = s.difference(OrdinalSet.interval(ZERO, lo))
    return s if hi is None else s.restrict_below(hi)


@STRATEGIES
@settings(max_examples=300)
@given(data=st.data())
def test_issubset_matches_the_built_difference(high, data):
    a, b = data.draw(sets_and_cuts(cuts=2, high=high)), data.draw(ordinal_sets(high=high))
    a, x, y = a
    lo, hi = data.draw(st.sampled_from([(None, None), (x, None), (None, y), (x, y)]))
    # Pairs where inclusion holds, fails by a little, or fails at a junction.
    for small, big in (
        (a, b),
        (a, a.union(b)),
        (a.intersect(b), b),
        (a, a.difference(OrdinalSet.singleton(x))),
        (a, a.difference(b)),
        (a.restrict_above(x), a.restrict_below(y)),
    ):
        want = old_window(small, lo, hi).difference(big).is_empty()
        assert small.issubset(big, lo, hi) == want, (small, big, lo, hi)


@STRATEGIES
@settings(max_examples=300)
@given(data=st.data())
def test_between_matches_the_chain(high, data):
    s, a, b = data.draw(sets_and_cuts(cuts=2, high=high))
    got = s.between(a, b)
    assert got.pieces == s.restrict_above(a).restrict_below(b).pieces
    assert_normal(got.pieces)


@STRATEGIES
@settings(max_examples=300)
@given(data=st.data())
def test_otp_in_a_window_matches_the_built_window(high, data):
    """`otp(lo, hi)` is the order type of the set cut at lo, then restricted
    below hi; an empty or reversed window has order type 0."""
    s, x, y = data.draw(sets_and_cuts(cuts=2, high=high))
    for lo, hi in ((None, None), (x, None), (None, y), (x, y), (y, x)):
        assert s.otp(lo, hi) == old_window(s, lo, hi).otp(), (s, lo, hi)
    assert s.otp(x, x) == ZERO


def test_otp_in_a_window_inside_a_filtered_piece():
    s = parse_set("[0,w^3)@{1}")
    assert s.otp(o("w+1"), o("w*3")) == ONE  # w*2 alone
    assert s.otp(o("w*2"), o("w^2")) == W
    assert s.otp(o("w^2"), o("w^2*2")) == W  # w^2 itself has level 2
    assert s.otp(o("w*3"), o("w*2")) == ZERO
    assert s.otp(o("w^3"), None) == ZERO


@STRATEGIES
@settings(max_examples=300)
@given(data=st.data())
def test_is_below_matches_the_restriction(high, data):
    s, b = data.draw(sets_and_cuts(high=high))
    assert s.is_below(b) == (s.restrict_below(b) == s)


@STRATEGIES
@settings(max_examples=300)
@given(data=st.data())
def test_sup_and_is_below_match_their_definitions(high, data):
    """`sup` and `is_below` read the last piece's end; each answer is held
    to its definition here, not to that end: nothing at or past b, and a
    greatest member, or a limit of members with none at or past it."""
    s, b = data.draw(sets_and_cuts(high=high))
    assert s.is_below(b) == s.difference(OrdinalSet.interval(ZERO, b)).is_empty()
    if s.is_empty():
        assert s.sup() is None
        return
    t, attained = s.sup()
    assert s.min_above(t) is None
    if attained:
        assert t in s
        return
    assert t not in s and t.is_limit
    for x in {x for p in s.pieces for x in (p.lo, p.hi) if x < t}:
        assert s.min_above(x) < t


# -- the shared strategies draw what they always drew -----------------------


def _seeded_draws(strategy, n: int) -> list:
    """The first n values of `strategy` that Hypothesis generates from one
    fixed seed, with no example database and no shrinking.

    Hypothesis mixes the literals of every loaded local module into its
    draws, so an integer added to any module would change them.  The draws
    here see an empty pool of such literals; the names patched are
    Hypothesis internals, and a missing one fails the test by name."""
    from hypothesis.internal.conjecture import providers
    from hypothesis.internal.constants_ast import Constants

    out = []

    @seed(20261020)
    @settings(max_examples=n, database=None, phases=[Phase.generate])
    @given(strategy)
    def collect(value):
        out.append(value)

    cache = providers.CONSTANTS_CACHE.cache
    with pytest.MonkeyPatch.context() as patch:
        # Called with no arguments, the class is an empty pool.
        patch.setattr(providers, "_get_local_constants", Constants)
        cache.clear()
        try:
            collect()
        finally:
            cache.clear()
    return out


def _piece_text(p: Piece) -> tuple:
    levels = None if p.levels is None else [format_ordinal(x) for x in sorted(p.levels)]
    return format_ordinal(p.lo), format_ordinal(p.hi), levels


def test_set_strategies_draw_a_pinned_sequence():
    """A change to how `ordinal_sets` and `raw_pieces` are built (for speed)
    must leave the values they draw as they were."""
    draws = [
        [[_piece_text(p) for p in s.pieces] for s in _seeded_draws(ordinal_sets(), 150)],
        [[_piece_text(p) for p in s.pieces] for s in _seeded_draws(ordinal_sets(high=True), 150)],
        [[_piece_text(p) for p in raw] for raw in _seeded_draws(raw_pieces(), 150)],
    ]
    assert [len(d) for d in draws] == [150, 150, 150]
    digest = hashlib.sha256(repr(draws).encode()).hexdigest()
    assert digest == "5e745926309a1f2959db6964a3cb8e90408cd234e9e0e36682034692d7fb869e"
