from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordbench.magidor import Block, _set_violations
from ordbench.ordinal import ZERO, mul_nat, olim
from ordbench.oset import OrdinalSet, Piece, parse_set
from ordbench.universe import ToyUniverse

from conftest import (
    HIGH_ENDS,
    SET_TOP,
    W,
    W2,
    W3,
    nat,
    o,
    ordinal_sets,
    small_ordinals_below,
)


def uni(lam="w^2", bound="w", cores=None) -> ToyUniverse:
    return ToyUniverse(o(lam), o(bound), cores or {})


def test_universe_validation():
    with pytest.raises(ValueError):
        uni("w+1")  # successor ground
    with pytest.raises(ValueError):
        uni("w^3", "2")  # bound does not dominate o-values
    with pytest.raises(ValueError):
        ToyUniverse(W2, W, {(W2, ZERO): parse_set("{w}")})  # core off-stratum
    u = uni("w^3", "w")
    assert u.o(ZERO) == ZERO
    assert u.o(o("w*2")) == nat(1)
    assert u.o(o("w^3")) == nat(3)


def test_star_closure_and_stratum_refuse_a_bound_beyond_the_ground():
    u = uni("w^2", "w")
    B = parse_set("[0,w^3)")
    for call in (lambda: u.star_closure(B, W3), lambda: u.stratum(nat(1), W3),
                 lambda: u.is_large(B, W3, nat(1)), lambda: u.stratify(B, W3),
                 lambda: u.is_star_closed(B, W3)):
        with pytest.raises(ValueError, match="w\\^3 is beyond the ground set"):
            call()
    # lambda0 itself is a valid bound.
    assert u.star_closure(B, W2) == parse_set("[0,w^2)")
    assert u.stratum(nat(1), W2) == parse_set("[w,w^2)@{1}")


def test_stratum_matches_limit_order_oracle():
    u = uni("w^3", "w")
    dom = small_ordinals_below(o("w^3"), 300)
    for k in range(3):
        s = u.stratum(nat(k), o("w^3"))
        expect = [g for g in dom if olim(g) == nat(k)]
        assert [g for g in dom if g in s] == expect
    # Spec examples
    u2 = uni("w^2", "w")
    s0 = u2.stratum(ZERO, W2)
    assert nat(0) in s0 and nat(5) in s0 and W not in s0
    s1 = u2.stratum(nat(1), W2)
    assert all(mul_nat(W, n) in s1 for n in range(1, 6))
    assert W2 not in s1 and o("w+1") not in s1
    s2 = uni("w^3", "w").stratum(nat(2), W3)
    assert all(mul_nat(W2, n) in s2 for n in range(1, 4))
    assert o("w^2+w") not in s2


def test_is_large_defaults():
    u = uni("w^2", "w")
    assert u.is_large(u.stratum(ZERO, W2), W2, ZERO)
    assert u.is_large(u.stratum(nat(1), W2), W2, nat(1))
    assert not u.is_large(OrdinalSet.empty(), W2, ZERO)
    # Tail containment: bounded holes are invisible.
    holed = parse_set("[w*3,w^2)")
    assert u.is_large(holed, W2, ZERO) and u.is_large(holed, W2, nat(1))
    # A cofinally-missed stratum is visible.
    no_limits = u.ground().difference(u.stratum(nat(1), W2))
    assert u.is_large(no_limits, W2, ZERO)
    assert not u.is_large(no_limits, W2, nat(1))


def test_is_large_override():
    core = parse_set("[w*3,w^2)").intersect(ToyUniverse(W2, W).stratum(nat(1), W2))
    u = ToyUniverse(W2, W, {(W2, nat(1)): core})
    assert u.is_large(parse_set("[w*3,w^2)"), W2, nat(1))
    assert u.is_large(parse_set("[w*5,w^2)"), W2, nat(1))  # tail of the core
    assert not u.is_large(u.stratum(ZERO, W2), W2, nat(1))


def test_strata_are_large_at_every_pair():
    # the coherence axiom of the toy model: Y(xi) ∩ beta is large at
    # (beta, xi) for every admissible pair with default cores
    u = uni("w^3", "w")
    for beta in [o("w"), o("w*4"), o("w^2"), o("w^2*3+w"), o("w^3")]:
        ob = u.o(beta)
        k = 0
        while nat(k) < ob:
            assert u.is_large(u.stratum(nat(k), beta), beta, nat(k))
            k += 1


def test_is_large_all_stratum_union():
    u = uni("w^3", "w")
    b = W3
    full = OrdinalSet.interval(ZERO, b)
    assert u.is_large_all(full, b)
    assert u.is_large_all(full.restrict_above(o("w^2*2")), b)
    assert not u.is_large_all(full.difference(u.stratum(nat(2), b)), b)


def _overridden(lam: str, cores: dict[tuple[str, int], str]) -> ToyUniverse:
    return ToyUniverse(
        o(lam), W, {(o(beta), nat(xi)): parse_set(core) for (beta, xi), core in cores.items()}
    )


LARGENESS_CASES = [
    (u, o(beta))
    for u, betas in [
        (uni("w^2"), ["w", "w*3", "w^2"]),
        (uni("w^3"), ["w*2", "w^2", "w^2*2+w", "w^3"]),
        (uni("w^3*2+w"), ["w^3", "w^3+w^2", "w^3*2", "w^3*2+w"]),
        (_overridden("w^2", {("w^2", 0): "[0,5)", ("w^2", 1): "[w,w*3)@{1}"}), ["w*4", "w^2"]),
        (
            _overridden("w^3", {("w^3", 1): "[w*3,w^2)@{1}", ("w^2", 1): "{w*3}",
                                ("w^3", 2): "{w^2} u {w^2*2}"}),
            ["w^2", "w^2*3", "w^3"],
        ),
    ]
    for beta in betas
]


@settings(max_examples=300)
@given(ordinal_sets(), st.sampled_from(LARGENESS_CASES))
def test_large_at_all_indices_is_large_at_each(B, case):
    u, beta = case
    levels = [nat(k) for k in range(u.o(beta).as_int())]
    assert u.is_large_all(B, beta) == all(u.is_large(B, beta, xi) for xi in levels)


@pytest.mark.parametrize(
    "u, B, beta, large",
    [
        # The plain complement [w*5,w^2) misses every level, each overridden.
        (_overridden("w^2", {("w^2", 0): "[0,5)", ("w^2", 1): "[w,w*3)@{1}"}),
         "[0,w*5)", "w^2", True),
        # Infinitely many levels below o(w^w) = w cannot all be overridden.
        (uni("w^w", "w+1"), "[0,w^3)", "w^w", False),
        # The complement [w^2,w^2+w)@{2} reaches w^2+w, but level 2 is not
        # below o(w^2+w) = 1.
        (uni("w^3"), "[0,w^2) u [w^2,w^2+w)@{0}", "w^2+w", True),
    ],
    ids=["all-levels-overridden", "infinitely-many-levels", "level-above-the-order"],
)
def test_is_large_all_reads_the_complements_last_piece(u, B, beta, large):
    assert u.is_large_all(parse_set(B), o(beta)) is large


def test_star_closure_of_a_bounded_plain_set():
    u = uni("w^2", "w")
    assert u.star_closure(parse_set("[0,w*3)"), W2) == parse_set("[0,w*3)")
    # w has nothing of the set below it.
    assert u.star_closure(parse_set("{w} u [w+1,w*3)"), W2) == parse_set("(w,w*3)")
    # The complement [0,w*2)@{0} u [w*2,w*5) is not plain although B is;
    # w*2 is a limit of it that B lacks.
    assert u.star_closure(parse_set("{w} u [w*5,w^2)"), W2) == parse_set("(w*5,w^2)")


def test_star_closure_at_w_to_the_w():
    # The complement holds a plain piece reaching w^w next to filtered ones;
    # only the filtered pieces go through closure_points.
    u = uni("w^w", "w+1")
    top = o("w^w")
    B = parse_set("[w,w^2)@{0}")
    assert u.star_closure(B, top) == B
    B = parse_set("{0} u [5,w+2)@{0} u [w*2,w^2+1)")
    assert u.star_closure(B, top) == parse_set("{0} u [5,w+2)@{0} u (w*2,w^2]")


def test_star_closure_full_set():
    u = uni("w^2", "w")
    full = u.ground()
    assert u.star_closure(full, W2) == full


def _passes_pointwise(u: ToyUniverse, S: OrdinalSet, a):
    if a.is_zero or olim(a).is_zero:
        return True
    k = 0
    while nat(k) < olim(a):
        if not u.is_large(S.restrict_below(a), a, nat(k)):
            return False
        k += 1
    return True


def test_star_closure_removes_starved_limits():
    u = uni("w^3", "w")
    b = o("w^3")
    B = parse_set("[w,w^3)")
    got = u.star_closure(B, b)
    # w itself has its whole history removed; everything above keeps a tail.
    assert got == parse_set("(w,w^3)")
    # Pointwise oracle on an enumerated prefix: members satisfy the paper's
    # closure feature against the result, non-members fail it.
    dom = small_ordinals_below(b, 200)
    for g in dom:
        if g in got:
            assert _passes_pointwise(u, got, g), str(g)
        elif g in B:
            assert not _passes_pointwise(u, got, g), str(g)


def test_star_closure_stratum_removed():
    u = uni("w^3", "w")
    b = o("w^3")
    B = u.ground().difference(u.stratum(ZERO, o("w^2")))
    got = u.star_closure(B, b)
    # Limits up to w^2 starve (no successors below them); w^2 itself fails
    # at xi=0; higher limits keep tails.
    assert o("w*2") not in got and W2 not in got
    assert o("w^2+w") in got and o("w^2*2") in got


def test_star_closure_idempotent_monotone():
    u = uni("w^3", "w")
    b = o("w^3")
    for text in ["[w,w^3)", "[0,w^3)", "[w*2,w^2) u [w^2*2,w^3)", "{5} u [w^2,w^3)"]:
        B = parse_set(text)
        star = u.star_closure(B, b)
        assert star.difference(B).is_empty()  # subset
        assert u.star_closure(star, b) == star  # idempotent
    small = parse_set("[w^2,w^3)")
    large = parse_set("[w,w^3)")
    assert u.star_closure(small, b).difference(u.star_closure(large, b)).is_empty()


def test_star_closure_with_override_core():
    # A bounded override core at (w^2, 1) waives the default tail demand.
    core = parse_set("{w*3}")
    u = ToyUniverse(W3, W, {(W2, nat(1)): core})
    default_u = ToyUniverse(W3, W)
    # B keeps w*3 but drops the rest of the level-1 stratum below w^2.
    B = default_u.ground().difference(
        default_u.stratum(nat(1), W2).difference(core)
    )
    assert u.is_large(B.restrict_below(W2), W2, nat(1))
    assert not default_u.is_large(B.restrict_below(W2), W2, nat(1))
    got_override = u.star_closure(B, W3)
    got_default = default_u.star_closure(B, W3)
    assert W2 in got_override
    assert W2 not in got_default


def _iterated_star_closure(u: ToyUniverse, B: OrdinalSet, beta) -> tuple[OrdinalSet, int]:
    """Reference B★: remove every point that fails against the current set
    until none fails.  Also returns the number of removal passes."""
    cur = B.restrict_below(beta)
    override = sorted({b for (b, _), _ in u.cores if b < beta})
    passes = 0
    while True:
        comp = OrdinalSet.interval(ZERO, beta).difference(cur)
        fail = comp.missing_limits(beta).difference(OrdinalSet.of(*override))
        for b in override:
            if b in cur and not u.is_large_all(cur.restrict_below(b), b):
                fail = fail.union(OrdinalSet.singleton(b))
        if fail.is_empty():
            return cur, passes
        cur = cur.difference(fail)
        passes += 1


def _random_core(rng: random.Random, u: ToyUniverse, beta, xi, dom) -> OrdinalSet:
    """A finite, tail or holed subset of Y(xi) below beta."""
    y = u.stratum(xi, beta)
    pts = [g for g in dom if g < beta and g in y]
    kind = rng.randrange(4)
    if kind == 0 or not pts:
        return OrdinalSet.of(*rng.sample(pts, min(len(pts), rng.randrange(3))))
    if kind == 1:
        return y.restrict_above(rng.choice(pts))
    if kind == 2:
        return y.difference(OrdinalSet.of(*rng.sample(pts, min(len(pts), rng.randrange(1, 4)))))
    return y.difference(OrdinalSet.interval(*sorted(rng.sample(dom, 2))))


def _random_star_case(rng: random.Random):
    """A universe with up to 8 override cores, mostly at points of limit
    order 2 or more, and a set holding some of the override points."""
    lam = o(rng.choice(["w^2", "w^3", "w^3*2+w"]))
    dom = small_ordinals_below(lam, 400)
    limits = [g for g in dom if g.is_limit] + [lam]
    base = ToyUniverse(lam, W)
    high = [g for g in limits if base.o(g) > nat(1)]
    cores = {}
    for _ in range(rng.randrange(9)):
        beta = rng.choice(high if rng.random() < 0.7 else limits)
        xi = nat(rng.randrange(base.o(beta).as_int()))
        cores[(beta, xi)] = _random_core(rng, base, beta, xi, dom)
    pieces = []
    for _ in range(rng.randrange(1, 5)):
        a, b = sorted(rng.sample(dom + limits, 2))
        floor = rng.randrange(2)
        levels = frozenset(nat(k) for k in rng.sample(range(floor, 4), rng.randrange(1, 3)))
        pieces.append(Piece(a, b, None if rng.random() < 0.3 else levels))
    B = OrdinalSet(tuple(pieces))
    keys = [b for (b, _) in cores]
    if keys and rng.random() < 0.5:
        B = B.union(OrdinalSet.of(*rng.sample(keys, rng.randrange(1, len(keys) + 1))))
    return ToyUniverse(lam, W, cores), B, rng.choice(limits)


def test_star_closure_matches_the_iterated_closure():
    rng = random.Random(20261018)
    passes = []
    for _ in range(400):
        u, B, beta = _random_star_case(rng)
        want, n = _iterated_star_closure(u, B, beta)
        assert u.star_closure(B, beta) == want, (u.lambda0, u.cores, B, beta)
        passes.append(n)
    # Some override point fails only once the starved points below it are
    # gone, which takes the iteration a second removal pass.
    assert 2 in passes


def test_star_closure_needs_one_pass(monkeypatch):
    # The level-1 core of w^2 is inside B, but every point of it starves
    # (B holds no successor), so w^2 fails only against B without them.
    u = ToyUniverse(
        W3, W, {(W2, ZERO): OrdinalSet.empty(), (W2, nat(1)): parse_set("[0,w^2)@{1}")}
    )
    B = parse_set("[w,w^2+1)@{1,2}")
    assert _iterated_star_closure(u, B, W3) == (OrdinalSet.empty(), 2)
    calls = []
    failing_points = ToyUniverse._failing_points
    monkeypatch.setattr(
        ToyUniverse,
        "_failing_points",
        lambda self, *args: calls.append(args) or failing_points(self, *args),
    )
    assert u.star_closure(B, W3) == OrdinalSet.empty()
    assert len(calls) == 1


def test_stratify_partitions_star():
    u = uni("w^3", "w")
    b = o("w^3")
    B = parse_set("[w,w^3)")
    star = u.star_closure(B, b)
    parts = u.stratify(B, b)
    assert set(parts) == {ZERO, nat(1), nat(2)}
    union = OrdinalSet.empty()
    for k, piece in parts.items():
        assert piece.difference(star).is_empty()
        rest = union.intersect(piece)
        assert rest.is_empty()
        union = union.union(piece)
    # The pieces cover the sub-o(beta) part of the closure.
    low = star.intersect(
        u.stratum(ZERO, b).union(u.stratum(nat(1), b)).union(u.stratum(nat(2), b))
    )
    assert union == low


def test_a_universe_keeps_its_cores_when_the_callers_dict_changes():
    cores = {(W2, nat(1)): parse_set("{w*3}"), (o("w*2"), ZERO): parse_set("[w+1,w*2)")}
    u = ToyUniverse(W2, W, cores)
    # The same cores, given in another order or as the stored pairs.
    same = [ToyUniverse(W2, W, dict(reversed(cores.items()))), ToyUniverse(W2, W, u.cores)]
    B = parse_set("[1,w^2)")
    large = u.is_large_all(B, W2)
    cores[(W2, nat(5))] = parse_set("[0,w)")
    del cores[(o("w*2"), ZERO)]
    assert u.cores == (
        ((o("w*2"), ZERO), parse_set("[w+1,w*2)")), ((W2, nat(1)), parse_set("{w*3}"))
    )
    for v in same:
        assert u == v and hash(u) == hash(v)
    assert u.is_large_all(B, W2) == large
    assert pickle.loads(pickle.dumps(u)) == u and copy.deepcopy(u) == u


# Limit bounds below SET_TOP, and those of the sets that reach past w^w.
BETAS = [g for g in small_ordinals_below(SET_TOP, 550) if g.is_limit] + [
    g for g in HIGH_ENDS if g.is_limit
]
HIGH_UNIVERSE = ToyUniverse(o("w^(w+2)"), o("w+3"))


def old_missed_levels(B: OrdinalSet, beta) -> frozenset | None:
    """The filter of the last piece of [0,beta) ∖ B when it reaches beta."""
    comp = OrdinalSet.interval(ZERO, beta).difference(B).pieces
    if comp and comp[-1].hi == beta:
        return comp[-1].levels
    return frozenset()


def _levels_below(missed, ob):
    """The missed levels under ob; None (every level) spelled out when ob is
    finite."""
    if missed is None:
        return frozenset(map(nat, range(ob.as_int()))) if ob.is_finite else None
    return frozenset(x for x in missed if x < ob)


@pytest.mark.parametrize("high", [False, True], ids=["below-w^3*3", "to-w^(w+1)"])
@settings(max_examples=300)
@given(data=st.data())
def test_missed_levels_match_the_complements_last_piece(high, data):
    B, beta = data.draw(ordinal_sets(high=high)), data.draw(st.sampled_from(BETAS))
    ob = olim(beta)
    got = ToyUniverse._missed_levels(B, beta)
    assert _levels_below(got, ob) == _levels_below(old_missed_levels(B, beta), ob)


@pytest.mark.parametrize("high", [False, True], ids=["below-w^3*3", "to-w^(w+1)"])
@settings(max_examples=300)
@given(data=st.data())
def test_failing_points_match_the_complement_built_form(high, data):
    B, beta = data.draw(ordinal_sets(high=high)), data.draw(st.sampled_from(BETAS))
    cur = B.restrict_below(beta)
    comp = OrdinalSet.interval(ZERO, beta).difference(cur)
    assert HIGH_UNIVERSE._failing_points(cur, []) == comp.missing_limits(beta)
    assert HIGH_UNIVERSE.is_star_closed(B, beta) == (HIGH_UNIVERSE.star_closure(B, beta) == B)


def old_is_large_all(u: ToyUniverse, B: OrdinalSet, beta) -> bool:
    ob = u.o(beta)
    over = {xi for (b, xi), _ in u.cores if b == beta}
    if any(not u.is_large(B, beta, xi) for xi in over):
        return False
    missed = old_missed_levels(B, beta)
    if missed is None:
        return ob.is_finite and len(over) == ob.as_int()
    return all(xi in over for xi in missed if xi < ob)


def old_set_violations(u: ToyUniverse, b: Block, prev) -> list[str]:
    """The measure-set clause as it read with built sets."""
    out = []
    B = b.measure_set
    if B.restrict_below(b.kappa) != B:
        out.append("measure set not below its point")
    if prev is not None:
        low = B.min_element()
        if low is not None and low <= prev:
            out.append("min of measure set not above previous point")
    if not old_is_large_all(u, B, b.kappa):
        out.append("measure set not large at every index")
    elif _iterated_star_closure(u, B, b.kappa)[0] != B:
        out.append("measure set not in stratified (star-closed) form")
    return out


def test_set_violations_match_the_built_sets():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(300):
        u, B, beta = _random_star_case(rng)
        if rng.random() < 0.3:
            u = ToyUniverse(u.lambda0, u.delta0_bound)
        star = u.star_closure(B, beta)
        prev = rng.choice([None, *small_ordinals_below(beta, 40)])
        whole = OrdinalSet.interval(ZERO, beta)
        for S in (B, star, star.union(OrdinalSet.singleton(beta)), whole):
            want = old_set_violations(u, Block(beta, S), prev)
            assert _set_violations(u, Block(beta, S), prev) == want, (u, S, beta, prev)
            seen.add(tuple(want))
    # Each message, and a set with none, comes up.
    assert {m for ms in seen for m in ms} == {
        "measure set not below its point",
        "min of measure set not above previous point",
        "measure set not large at every index",
        "measure set not in stratified (star-closed) form",
    }
    assert () in seen
