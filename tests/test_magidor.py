from __future__ import annotations

import pytest

from ordbench.errors import (
    AlreadyUnveiled,
    BadCut,
    LargenessViolated,
    NotAnExtension,
    NotIncreasing,
    OutOfRange,
    PointNotInMeasureSet,
    UniverseMismatch,
    WitnessUnavailable,
)
from ordbench.magidor import (
    Block,
    ExtensionType,
    MagidorCondition,
    extend,
    extend_minimal,
    find_type,
    gamma_of,
    join,
    leq,
    leq_star,
    split_at,
    type_of,
    unveil_type,
    validate,
)
from ordbench.ordinal import ZERO
from ordbench.oset import OrdinalSet, parse_set
from ordbench.projection import ICondition, IndexSet, leq_I, validate_I
from ordbench.universe import ToyUniverse

from conftest import (
    canon_universe,
    canonical_condition,
    nat,
    o,
    random_condition,
    random_extension,
)
from test_projection import outcome


@pytest.fixture
def u3() -> ToyUniverse:
    return canon_universe("w^3")


def section2_condition() -> MagidorCondition:
    """o-values <1,0,2,1,3> with canonical full sets."""
    u = canon_universe("w^3", "w")
    return canonical_condition(u, [o("w"), o("w+1"), o("w^2"), o("w^2+w")])


def test_validate_single_top_block(u3):
    p = MagidorCondition(u3, (Block(u3.lambda0, u3.ground()),))
    assert validate(p) == []


def test_validate_not_increasing(u3):
    p = canonical_condition(u3, [o("w*2"), o("w")])
    assert any("not increasing" in v for v in validate(p))


def test_validate_min_clause(u3):
    b1 = Block(o("w"), OrdinalSet.interval(ZERO, o("w")))
    bad = Block(o("w*2"), OrdinalSet.interval(ZERO, o("w*2")))  # min not above w
    top = Block(u3.lambda0, OrdinalSet.interval(o("w*2+1"), u3.lambda0))
    p = MagidorCondition(u3, (b1, bad, top))
    assert any("min of measure set" in v for v in validate(p))


def _blocks(spec):
    return tuple(Block(o(k), None if B is None else parse_set(B)) for k, B in spec)


@pytest.mark.parametrize(
    "blocks, violation",
    [
        ([("w", "[0,w)"), ("w*2", "[w+1,w*2+1)")], "measure set not below its point"),
        ([("w", "[0,w)"), ("w*2", "[w,w*2)")], "min of measure set not above previous point"),
        ([("w^2", "[w,w^2)")], "measure set not in stratified (star-closed) form"),
    ],
    ids=["past-its-point", "min-at-previous", "not-star-closed"],
)
def test_set_clause_in_both_forcings(u3, blocks, violation):
    """The measure-set clause, reported by both validity checks (every
    position is a limit position of the full index set)."""
    last = o(blocks[-1][0])
    top = Block(u3.lambda0, OrdinalSet.interval(last.successor(), u3.lambda0))
    bs = _blocks(blocks) + (top,)
    assert any(violation in v for v in validate(MagidorCondition(u3, bs)))
    assert any(violation in v for v in validate_I(ICondition(u3, IndexSet(u3.ground()), bs)))


@pytest.mark.parametrize(
    "blocks, violation",
    [
        ([], "condition has no blocks"),
        ([("w^4", None), ("w^3", "[w,w^3)")], "block 1 (kappa=w^4): point beyond the ground set"),
        ([("w^2", "(w,w^2)"), ("w", "[0,w)"), ("w^3", "(w^2,w^3)")],
         "block 2 (kappa=w): kappas not increasing"),
        ([("w+1", None)], "block 1 (kappa=w + 1): top block needs positive limit order"),
    ],
    ids=["no-blocks", "beyond-the-ground", "not-increasing", "zero-order-top"],
)
def test_shape_clauses_in_both_forcings(u3, blocks, violation):
    """The block-shape clauses, tagged alike by both validity checks."""
    bs = _blocks(blocks)
    assert violation in validate(MagidorCondition(u3, bs))
    assert violation in validate_I(ICondition(u3, IndexSet(u3.ground()), bs))


def test_point_beyond_the_ground_set_is_not_the_previous_point(u3):
    # w comes after w^4 but is compared with the last point in the ground.
    bs = _blocks([("w^4", None), ("w", "[0,w)"), ("w^3", "(w,w^3)")])
    for found in (validate(MagidorCondition(u3, bs)),
                  validate_I(ICondition(u3, IndexSet(u3.ground()), bs))):
        assert found == ["block 1 (kappa=w^4): point beyond the ground set"]


@pytest.mark.parametrize(
    "p_spec, q_spec",
    [
        ([("w", "[0,w)"), ("w^3", "(w,w^3)")], [("w", "[0,w)"), ("w^3", "[w,w^3)")]),
        ([("w+1", None), ("w^3", "(w+1,w^3)")], [("w+1", "[0,w+1)"), ("w^3", "(w+1,w^3)")]),
        ([("w^3", "[w+2,w^3)")], [("w+1", None), ("w^3", "[w+2,w^3)")]),
    ],
    ids=["top-set-grows", "bare-point-gets-a-set", "new-point-outside-enclosing-set"],
)
def test_order_clauses_in_both_forcings(u3, p_spec, q_spec):
    """Clauses the two orders share: q fails each, in both forcings."""
    p, q = _blocks(p_spec), _blocks(q_spec)
    assert not leq(MagidorCondition(u3, p), MagidorCondition(u3, q))
    I = IndexSet(u3.ground())
    assert not leq_I(ICondition(u3, I, p), ICondition(u3, I, q))


def test_validate_bare_iff_zero_order(u3):
    assert any(
        "must be bare" in v
        for v in validate(
            MagidorCondition(
                u3,
                (Block(o("w+1"), OrdinalSet.interval(ZERO, o("w+1"))),
                 Block(u3.lambda0, u3.ground().restrict_above(o("w+1")))),
            )
        )
    )
    assert any(
        "needs a measure set" in v
        for v in validate(
            MagidorCondition(u3, (Block(o("w")), Block(u3.lambda0, u3.ground())))
        )
    )


def test_leq_reflexive(u3):
    p = canonical_condition(u3, [o("w"), o("w^2")])
    assert leq(p, p) and leq_star(p, p)


def test_leq_refuses_conditions_over_different_universes(u3):
    p = canonical_condition(u3, [o("w")])
    q = canonical_condition(canon_universe("w^3", "w+1"), [o("w")])
    for a, b in ((p, q), (q, p)):
        with pytest.raises(UniverseMismatch, match="conditions live over different universes"):
            leq(a, b)


def test_one_step_extension_is_leq(u3):
    p = MagidorCondition(u3, (Block(u3.lambda0, u3.ground()),))
    q, alphas = extend_minimal(p, ExtensionType(((ZERO,),)))
    assert leq(p, q) and not leq_star(p, q)
    assert alphas == ((ZERO,),)  # least zero-order point in the full set
    assert q.blocks[0] == Block(ZERO)


def test_leq_rejects_equal_order_interleave(u3):
    p = canonical_condition(u3, [o("w^2")])
    # Interleave a level-2 point below a level-2 block: forbidden.
    q = canonical_condition(u3, [o("w^2")])
    s = Block(o("w*2"), OrdinalSet.interval(ZERO, o("w*2")))
    q_bad = MagidorCondition(
        u3,
        (
            Block(o("w"),(OrdinalSet.interval(ZERO, o("w")))),
            q.blocks[0],
            q.blocks[1],
        ),
    )
    # o(w) = 1 < 2 fine; now equal order:
    q_eq = MagidorCondition(
        u3,
        (
            Block(o("w^2"), OrdinalSet.interval(ZERO, o("w^2"))),
            Block(o("w^2*2"), OrdinalSet.interval(o("w^2+1"), o("w^2*2"))),
            Block(u3.lambda0, u3.ground().restrict_above(o("w^2*2"))),
        ),
    )
    p2 = MagidorCondition(
        u3,
        (
            Block(o("w^2*2"), OrdinalSet.interval(ZERO, o("w^2*2"))),
            Block(u3.lambda0, u3.ground().restrict_above(o("w^2*2"))),
        ),
    )
    assert leq(p, q_bad)
    assert not leq(p2, q_eq)  # o(w^2) = 2 is not < o(w^2*2) = 2


def test_gamma_of_examples(u3):
    # o-values <w,0> over a big enough universe
    u = ToyUniverse(o("w^(w+2)"), o("w^w"))
    p = MagidorCondition(
        u,
        (
            Block(o("w^w"), OrdinalSet.interval(ZERO, o("w^w"))),
            Block(o("w^w+1")),
            Block(u.lambda0, OrdinalSet.interval(o("w^w+2"), u.lambda0)),
        ),
    )
    assert gamma_of(p, 1) == o("w^w")
    assert gamma_of(p, 2) == o("w^w+1")
    # single bare-ish block: o = 0 gives coordinate 1
    q = canonical_condition(u3, [nat(5)])
    assert gamma_of(q, 1) == nat(1)
    # absorption: o-values <1,0,2> give w^2 at the third block
    r = section2_condition()
    assert gamma_of(r, 1) == o("w")
    assert gamma_of(r, 2) == o("w+1")
    assert gamma_of(r, 3) == o("w^2")
    assert gamma_of(r, 4) == o("w^2+w")
    assert gamma_of(r, 5) == o("w^3")


def test_type_of_section2_example():
    p = section2_condition()
    alphas = (
        (nat(1), nat(2)),
        (),
        (o("w*2"), o("w*2+1"), o("w*3")),
        (o("w^2+1"),),
        (o("w^2+w+1"), o("w^2+w*2"), o("w^2*2")),
    )
    x = type_of(p, alphas)
    assert x == ExtensionType(
        (
            (ZERO, ZERO),
            (),
            (nat(1), ZERO, nat(1)),
            (ZERO,),
            (ZERO, nat(1), nat(2)),
        )
    )
    q = extend(p, alphas)
    assert validate(q) == []
    assert leq(p, q)
    got_type, got_alphas = find_type(p, q)
    assert got_type == x and got_alphas == alphas


def test_type_of_empty_assignment():
    p = section2_condition()
    empty = ((),) * 5
    assert type_of(p, empty) == ExtensionType(empty)
    assert extend(p, empty) == p


def test_type_of_rejects_bad_points():
    p = section2_condition()
    with pytest.raises(PointNotInMeasureSet):
        type_of(p, ((), (nat(1),), (), (), ()))  # below a bare block
    with pytest.raises(NotIncreasing):
        type_of(p, ((nat(2), nat(1)), (), (), (), ()))
    with pytest.raises(NotIncreasing):
        type_of(p, ((o("w*5"),), (), (), (), ()))  # beyond the gap


def test_extend_cuts_invaded_sets():
    p = section2_condition()
    alphas = ((), (), (o("w*2"),), (), ())
    q = extend(p, alphas)
    t3 = next(b for b in q.blocks if b.kappa == o("w^2"))
    assert t3.measure_set.min_element() > o("w*2")
    inserted = next(b for b in q.blocks if b.kappa == o("w*2"))
    assert inserted.measure_set is not None
    assert inserted.measure_set.difference(p.blocks[2].measure_set).is_empty()
    assert validate(q) == []


def test_extend_with_shrink():
    p = section2_condition()
    tight = parse_set("(w*5, w^2)")
    q = extend(p, ((),) * 5, shrink={o("w^2"): tight})
    assert next(b for b in q.blocks if b.kappa == o("w^2")).measure_set == tight
    assert leq_star(p, q)
    with pytest.raises(LargenessViolated):
        extend(p, ((),) * 5, shrink={o("w^2"): parse_set("[w,w*2)")})  # not large
    # A shrink at a point the extension inserts is applied there, as `lift`
    # asks for; the block above keeps its set cut at that point.
    gaps = ((), (), (o("w+5"), o("w*3")), (), ())
    q = extend(p, gaps, {o("w*3"): parse_set("(w*2,w*3)")})
    at = {b.kappa: b.measure_set for b in q.blocks}
    assert at[o("w*3")] == parse_set("(w*2,w*3)")
    assert at[o("w^2")] == parse_set("(w*3,w^2)")
    # An inserted point of order 0 is a bare block, which no shrink applies to.
    with pytest.raises(LargenessViolated, match=r"^cannot shrink bare block w \+ 5$"):
        extend(p, gaps, {o("w+5"): parse_set("(w+1,w+5)")})
    # Of two failing shrinks the first in block order is reported, whatever
    # the order of the shrink map.
    zero = parse_set("{0}")
    for shrink, first in (
        ({o("w^2"): zero, o("w*3"): zero}, "shrink at w*3 is not a subset"),
        ({o("w*3"): zero, o("w+1"): zero}, "cannot shrink bare block w + 1"),
    ):
        with pytest.raises(LargenessViolated) as err:
            extend(p, gaps, shrink)
        assert str(err.value) == first


def test_find_type_requires_extension(u3):
    p = canonical_condition(u3, [o("w")])
    q = canonical_condition(u3, [o("w*2")])
    with pytest.raises(NotAnExtension):
        find_type(p, q)


def test_unveil_type_section3_example():
    u = ToyUniverse(o("w^(w+2)"), o("w^w"))
    p = MagidorCondition(
        u,
        (
            Block(o("w^w"), OrdinalSet.interval(ZERO, o("w^w"))),
            Block(o("w^w+1")),
            Block(o("w^(w+1)"), OrdinalSet.interval(o("w^w+2"), o("w^(w+1)"))),
            Block(u.lambda0, OrdinalSet.interval(o("w^(w+1)+1"), u.lambda0)),
        ),
    )
    gamma = o("w^w + w^5*3 + 5")
    assert gamma_of(p, 2) < gamma < gamma_of(p, 3)
    x = unveil_type(p, gamma)
    assert x.per_block[2] == tuple([nat(5)] * 3 + [ZERO] * 5)
    assert all(not xs for i, xs in enumerate(x.per_block) if i != 2)


def test_unveil_type_edges():
    p = section2_condition()
    x = unveil_type(p, o("w+2"))  # gamma_of(p,2)+1, below block 3 (o=2)
    assert x.per_block[2] == (ZERO,)
    with pytest.raises(AlreadyUnveiled):
        unveil_type(p, o("w+1"))
    with pytest.raises(OutOfRange, match="0 is not between block coordinates"):
        unveil_type(p, ZERO)


def test_unveil_type_stays_below_the_blocks_order():
    # gamma lies below base + w^o of the block after its gap, so no exponent
    # reaches that order.
    p = section2_condition()
    coords = p.gammas
    for gamma in map(o, ["1", "5", "w+2", "w*2", "w*5+3", "w^2+1", "w^2+w*2+3", "w^2*2+5"]):
        slot = next(i for i, c in enumerate(coords) if gamma < c)
        x = unveil_type(p, gamma)
        assert x.per_block[slot] and all(e < p.o(slot + 1) for e in x.per_block[slot])


def test_extend_minimal_refuses_a_type_it_cannot_place(u3):
    p = canonical_condition(u3, [o("w"), o("w^2+1")])  # block 2 is bare
    with pytest.raises(OutOfRange, match="type does not fit the condition"):
        extend_minimal(p, ExtensionType(((), ())))
    with pytest.raises(WitnessUnavailable, match="gap 2 lies below a bare block"):
        extend_minimal(p, ExtensionType(((), (ZERO,), ())))
    # [0,w) holds no point of order 1.
    with pytest.raises(WitnessUnavailable, match=r"^gap 1: no level-1 point in the block set$"):
        extend_minimal(p, ExtensionType(((nat(1),), (), ())))
    # ... nor above the level-0 point 0 picked first.
    with pytest.raises(WitnessUnavailable,
                       match=r"^gap 1: no level-1 point above 0 in the block set$"):
        extend_minimal(p, ExtensionType(((ZERO, nat(1)), (), ())))


def test_unveil_extend_minimal_hits_target():
    p = section2_condition()
    gamma = o("w^2 + w*2 + 3")  # between gamma_of(4)=w^2+w and gamma_of(5)=w^3
    x = unveil_type(p, gamma)
    q, alphas = extend_minimal(p, x)
    assert validate(q) == [] and leq(p, q)
    # The new maximal inserted block sits at the requested coordinate.
    new_kappas = [a for gap in alphas for a in gap]
    idx = 1 + [b.kappa for b in q.blocks].index(new_kappas[-1])
    assert gamma_of(q, idx) == gamma


def test_split_and_join_roundtrip():
    p = section2_condition()
    lower, upper = split_at(p, 3)
    assert validate(lower) == [] and validate(upper) == []
    assert [b.kappa for b in lower.blocks] == [o("w"), o("w+1"), o("w^2")]
    assert join(lower, upper) == p
    whole, nothing = split_at(p, 5)
    assert whole == p and nothing is None
    assert join(whole, nothing) == p
    with pytest.raises(BadCut):
        split_at(p, 2)  # zero-order block cannot be a lower top


def test_leq_transitive_random(rng):
    u = canon_universe("w^3")
    for _ in range(40):
        p = random_condition(u, rng)
        q = random_extension(p, rng)
        r = random_extension(q, rng)
        assert validate(p) == [] and validate(q) == [] and validate(r) == []
        assert leq(p, q) and leq(q, r) and leq(p, r)


def test_find_type_roundtrip_random(rng):
    for lam in ("w^2", "w^3", "w^3*2+w"):
        u = canon_universe(lam)
        for _ in range(25):
            p = random_condition(u, rng, max_steps=2)
            q = random_extension(p, rng)
            x, alphas = find_type(p, q)
            assert type_of(p, alphas) == x
            assert leq_star(extend(p, alphas), q)


def _leq_derived(p: MagidorCondition, q: MagidorCondition) -> bool:
    """Oracle: the condensed order on star-closed conditions.  Named points
    survive and all of q's material is drawn from p's sets (containment
    direction corrected relative to the condensed statement)."""
    assert p.universe == q.universe
    if p.top.kappa != q.top.kappa:
        return False
    if any(b.kappa not in {s.kappa for s in q.blocks} for b in p.blocks):
        return False
    u = p.universe
    for s in q.blocks:
        r = next((b for b in p.blocks if b.kappa >= s.kappa), None)
        if r is None:
            return False
        if r.kappa == s.kappa:
            if (r.measure_set is None) != (s.measure_set is None):
                return False
            if s.measure_set is not None:
                if not s.measure_set.difference(r.measure_set).is_empty():
                    return False
        else:
            if r.measure_set is None or s.kappa not in r.measure_set:
                return False
            if u.o(s.kappa) >= u.o(r.kappa):
                return False
            if s.measure_set is not None:
                if not s.measure_set.difference(r.measure_set).is_empty():
                    return False
    return True


def test_derived_order_matches_leq(rng):
    u = canon_universe("w^3")
    for _ in range(40):
        p = random_condition(u, rng)
        q = random_extension(p, rng)
        r = random_condition(u, rng)
        assert _leq_derived(p, q) == leq(p, q) == True  # noqa: E712
        assert _leq_derived(p, r) == leq(p, r)
        assert _leq_derived(q, p) == leq(q, p)


def old_kept_named_points(p, q):
    """The order clauses on p's top and named points, as a separate pass:
    the positions in q of p's named points, or None."""
    if p.top.kappa != q.top.kappa:
        return None
    if not q.top.measure_set.difference(p.top.measure_set).is_empty():
        return None
    positions = {b.kappa: j for j, b in enumerate(q.blocks[:-1])}
    matched = []
    for b in p.blocks[:-1]:
        j = positions.get(b.kappa)
        if j is None:
            return None
        matched.append(j)
        qb = q.blocks[j]
        if (b.measure_set is None) != (qb.measure_set is None):
            return None
        if b.measure_set is not None:
            if not qb.measure_set.difference(b.measure_set).is_empty():
                return None
    return matched


def old_new_blocks_admitted(p, q, matched, admits) -> bool:
    """Each block of q that p does not name lies in the set of the first
    matched block after it, else the top, and passes admits."""
    matched_set = set(matched)
    for j, qb in enumerate(q.blocks[:-1]):
        if j in matched_set:
            continue
        enclosing = next((p.blocks[r] for r, mj in enumerate(matched) if mj > j), p.top)
        B = enclosing.measure_set
        if B is None or qb.kappa not in B:
            return False
        if not admits(j, qb, enclosing):
            return False
    return True


def old_inherits(qb, enclosing) -> bool:
    allowed = enclosing.measure_set.restrict_below(qb.kappa)
    return qb.measure_set.difference(allowed).is_empty()


def old_leq(p, q) -> bool:
    """The Magidor order read by the two passes above."""
    o_ = p.universe.o

    def admits(j, qb, enclosing):
        if o_(qb.kappa) >= o_(enclosing.kappa):
            return False
        return qb.measure_set is None or old_inherits(qb, enclosing)

    matched = old_kept_named_points(p, q)
    return matched is not None and old_new_blocks_admitted(p, q, matched, admits)


def old_find_type(p, q):
    """`old_leq`, then a second walk that groups q's new points by gap."""
    if not old_leq(p, q):
        raise NotAnExtension("q does not extend p")
    p_kappas = {b.kappa for b in p.blocks[:-1]}
    gaps = [[] for _ in p.blocks]
    gap = 0
    boundaries = [b.kappa for b in p.blocks]
    for qb in q.blocks[:-1]:
        while qb.kappa > boundaries[gap]:
            gap += 1
        if qb.kappa in p_kappas:
            gap += 1
            continue
        gaps[gap].append(qb.kappa)
    alphas = tuple(tuple(g) for g in gaps)
    return type_of(p, alphas), alphas


def without_a_point_of(p, q, rng):
    """The direct extension of p whose set no longer holds one point that
    q adds, or p when that set would not stay valid."""
    named = {b.kappa for b in p.blocks}
    added = [b.kappa for b in q.blocks[:-1] if b.kappa not in named]
    if not added:
        return p
    x = rng.choice(added)
    b = next(b for b in p.blocks if b.kappa > x)
    smaller = b.measure_set.difference(OrdinalSet.singleton(x))
    try:
        return extend(p, ((),) * len(p.blocks), {b.kappa: smaller})
    except LargenessViolated:
        return p


def order_pairs(u, rng, count: int):
    """Pairs of valid conditions, both ways round: an extension, an
    extension of an extension, a weakening that keeps some of q's named
    points with full sets, a direct extension that drops a point q adds,
    and an unrelated condition."""
    for _ in range(count):
        p = random_condition(u, rng)
        q = random_extension(p, rng)
        r = random_extension(q, rng)
        w = canonical_condition(u, [b.kappa for b in q.blocks[:-1] if rng.random() < 0.6])
        d = without_a_point_of(p, r, rng)
        s = random_condition(u, rng)
        for a, b in (
            (p, q), (q, p), (p, r), (r, p), (w, q), (q, w), (d, r), (p, d), (d, p), (p, s), (s, p)
        ):
            if not validate(a) and not validate(b):
                yield a, b


def test_order_walk_matches_the_two_passes(rng):
    """On valid pairs `leq` and `find_type` answer as the two-pass order
    did, through both refusals: a named point of p that q drops or grows,
    and a new point of q that its enclosing set does not admit."""
    seen = set()
    for lam in ("w^2", "w^3", "w^3*2+w"):
        for p, q in order_pairs(canon_universe(lam), rng, 25):
            want = old_leq(p, q)
            assert leq(p, q) == want
            assert outcome(find_type, p, q) == outcome(old_find_type, p, q)
            seen.add((old_kept_named_points(p, q) is not None, want))
    assert seen == {(True, True), (True, False), (False, False)}


def test_gamma_invariant_under_extension(rng):
    u = canon_universe("w^3")
    for _ in range(30):
        p = random_condition(u, rng)
        q = random_extension(p, rng)
        kq = [b.kappa for b in q.blocks]
        for i, b in enumerate(p.blocks, start=1):
            j = kq.index(b.kappa) + 1
            assert gamma_of(p, i) == gamma_of(q, j)
        coords = [gamma_of(q, i) for i in range(1, len(q.blocks) + 1)]
        assert coords == sorted(coords) and len(set(coords)) == len(coords)
