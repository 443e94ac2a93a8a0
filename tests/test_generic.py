from __future__ import annotations

import random

import pytest

from ordbench.errors import UniverseMismatch, WorkbenchError
from ordbench.generic import (
    CanonicalSequence,
    filter_pair_compatible,
    in_filter,
    interval_otp,
)
from ordbench.magidor import (
    Block,
    MagidorCondition,
    extend_minimal,
    gamma_of,
    leq,
    unveil_type,
    validate,
)
from ordbench.ordinal import ZERO, add, mul_nat, omega_power
from ordbench.oset import OrdinalSet, parse_set

from conftest import W, W2, canon_universe, nat, o, root_condition


def canonical_chain(u, rng: random.Random, steps: int = 3) -> MagidorCondition:
    """Random in-filter condition: repeatedly unveil canonical coordinates
    (blocks land at their own positions, the identity-sequence members)."""
    p = root_condition(u)
    for _ in range(steps):
        top_coord = gamma_of(p, len(p.blocks))
        coords = {gamma_of(p, i) for i in range(1, len(p.blocks))}
        pool = [
            g
            for g in OrdinalSet.interval(ZERO, top_coord).enumerate(60)
            if g not in coords and not g.is_zero
        ]
        if not pool:
            break
        target = pool[rng.randrange(len(pool))]
        try:
            p, _ = extend_minimal(p, unveil_type(p, target))
        except Exception:
            continue
    return p


def test_in_filter_top_only():
    u = canon_universe("w^2")
    p = MagidorCondition(u, (Block(u.lambda0, u.ground()),))
    assert in_filter(p, CanonicalSequence(u.lambda0))


def test_in_filter_missing_interval_point():
    u = canon_universe("w^2")
    # the block at w with a set missing the point 3 cannot be in the filter
    holed = OrdinalSet.interval(ZERO, o("w")).difference(OrdinalSet.singleton(nat(3)))
    p = MagidorCondition(
        u,
        (Block(o("w"), holed), Block(u.lambda0, u.ground().restrict_above(o("w")))),
    )
    assert validate(p) == []
    assert not in_filter(p, CanonicalSequence(u.lambda0))
    # likewise a top set missing a sequence limit point below the top
    q = MagidorCondition(
        u,
        (Block(u.lambda0, u.ground().difference(OrdinalSet.singleton(o("w*2")))),),
    )
    assert validate(q) == []
    assert not in_filter(q, CanonicalSequence(u.lambda0))


@pytest.mark.parametrize(
    "blocks, restrict, expected",
    [
        ([("w+1", None), ("w^2", "(w+1,w^2)")], None, False),
        ([("w", "[1,w)"), ("w^2", "(w,w^2)")], None, True),
        ([("w", "[0,w)"), ("w^2", "(w,w^2)")], "[0,w) u (w,w^2)", False),
    ],
    ids=["bare-block-above-sequence-points", "zero-unconstrained", "named-point-off-sequence"],
)
def test_in_filter_blockwise(blocks, restrict, expected):
    u = canon_universe("w^2")
    p = MagidorCondition(
        u, tuple(Block(o(k), None if B is None else parse_set(B)) for k, B in blocks)
    )
    seq = CanonicalSequence(u.lambda0, None if restrict is None else parse_set(restrict))
    assert in_filter(p, seq) is expected


def test_in_filter_canonical_extensions(rng):
    for lam in ("w^2", "w^3", "w^3*2+w"):
        u = canon_universe(lam)
        seq = CanonicalSequence(u.lambda0)
        for _ in range(15):
            p = canonical_chain(u, rng)
            assert validate(p) == []
            assert in_filter(p, seq)


def test_in_filter_coordinate_coherence(rng):
    # Blocks of in-filter conditions sit at their own coordinates.  The
    # coordinate formula counts a leading bare block as w^0 = 1, so the
    # property needs the first block to have positive order (a bare first
    # block is pinned to the value 0 by the filter, not to 1).
    for lam in ("w^2", "w^3"):
        u = canon_universe(lam)
        seq = CanonicalSequence(u.lambda0)
        for _ in range(15):
            p = canonical_chain(u, rng)
            if u.o(p.blocks[0].kappa).is_zero:
                continue
            assert in_filter(p, seq)
            for i in range(1, len(p.blocks)):
                assert p.blocks[i - 1].kappa == gamma_of(p, i)


def test_in_filter_downward_closed(rng):
    u = canon_universe("w^3")
    seq = CanonicalSequence(u.lambda0)
    for _ in range(20):
        q = canonical_chain(u, rng)
        # weaken: drop a random legal subset of the named blocks
        keep = [b for b in q.blocks[:-1] if rng.random() < 0.6]
        blocks = []
        prev = None
        ok = True
        for b in keep + [q.top]:
            ob = u.o(b.kappa)
            if ob.is_zero:
                blocks.append(Block(b.kappa))
            else:
                lo = ZERO if prev is None else prev.successor()
                blocks.append(Block(b.kappa, OrdinalSet.interval(lo, b.kappa)))
            prev = b.kappa
        p = MagidorCondition(u, tuple(blocks))
        if validate(p) or not leq(p, q):
            continue  # dropping produced an illegal weakening
        ok = in_filter(p, seq)
        assert ok  # downward closure: p <= q and q in filter


def test_interval_otp_examples():
    u = canon_universe("w^3")
    seq = CanonicalSequence(u.lambda0)
    assert interval_otp(seq, o("w"), o("w*2")) == o("w")
    assert interval_otp(seq, o("w"), o("w^2")) == o("w^2")
    assert interval_otp(seq, nat(3), nat(4)) == ZERO
    restricted = CanonicalSequence(o("w^2"), parse_set("{0} u [w,w^2)"))
    assert interval_otp(restricted, ZERO, o("w")) == ZERO  # empty
    assert interval_otp(restricted, ZERO, o("w*2")) == o("w")


def test_interval_otp_matches_block_orders(rng):
    for lam in ("w^2", "w^3", "w^3*2+w"):
        u = canon_universe(lam)
        seq = CanonicalSequence(u.lambda0)
        for _ in range(15):
            p = canonical_chain(u, rng)
            if not in_filter(p, seq):
                continue
            prev = None
            for i, b in enumerate(p.blocks, start=1):
                if prev is not None:
                    got = interval_otp(seq, prev, b.kappa)
                    ob = u.o(b.kappa)
                    expect = omega_power(ob) if not ob.is_zero else ZERO
                    assert got == expect, (str(prev), str(b.kappa))
                prev = b.kappa


def test_filter_pair_compatible(rng):
    u = canon_universe("w^3")
    seq = CanonicalSequence(u.lambda0)
    p = canonical_chain(u, rng)
    assert filter_pair_compatible(p, p, seq)
    for _ in range(15):
        a = canonical_chain(u, rng)
        b = canonical_chain(u, rng)
        assert filter_pair_compatible(a, b, seq)


# Coordinates w^2*a + w*b + c: unlike the first 60 coordinates, which are
# all finite, they unveil points of positive order.
HIGH_COORDS = sorted(
    {
        add(add(mul_nat(W2, a), mul_nat(W, b)), nat(c))
        for a in range(3)
        for b in range(3)
        for c in range(3)
    }
    - {ZERO}
)


def high_chain(u, rng: random.Random, steps: int = 3) -> MagidorCondition:
    """Random in-filter condition unveiling coordinates from HIGH_COORDS."""
    p = root_condition(u)
    for _ in range(steps):
        top_coord = gamma_of(p, len(p.blocks))
        pool = [g for g in HIGH_COORDS if g < top_coord and g not in p.gammas]
        try:
            p, _ = extend_minimal(p, unveil_type(p, pool[rng.randrange(len(pool))]))
        except WorkbenchError:
            continue
    return p


def test_filter_pair_compatible_over_positive_order_points(rng):
    """Directedness when the two conditions name different positive-order
    points, so each side's set at such a point comes from the other's
    enclosing block."""
    differ = 0
    for lam in ("w^3", "w^3*2+w"):
        u = canon_universe(lam)
        seq = CanonicalSequence(u.lambda0)
        for _ in range(15):
            a, b = high_chain(u, rng), high_chain(u, rng)
            assert validate(a) == [] and in_filter(a, seq) and in_filter(b, seq)
            assert filter_pair_compatible(a, b, seq)
            named = [
                {x.kappa for x in c.blocks[:-1] if not u.o(x.kappa).is_zero} for c in (a, b)
            ]
            differ += named[0] != named[1]
    assert differ >= 10


def test_filter_pair_incompatible():
    u = canon_universe("w^3")
    seq = CanonicalSequence(u.lambda0)
    root = root_condition(u)
    # Different tops, both in the filter.
    low = MagidorCondition(u, (Block(W2, parse_set("[0,w^2)")),))
    assert validate(low) == [] and in_filter(low, seq)
    assert not filter_pair_compatible(root, low, seq)
    # One side not in the filter: its top set misses a canonical point.
    holed = MagidorCondition(
        u, (Block(u.lambda0, u.ground().difference(OrdinalSet.singleton(o("w*2")))),)
    )
    assert validate(holed) == [] and not in_filter(holed, seq)
    assert not filter_pair_compatible(root, holed, seq)
    assert not filter_pair_compatible(holed, root, seq)


def test_filter_pair_of_invalid_conditions_with_no_set_at_a_named_point():
    """The set guard in `filter_pair_compatible` runs on invalid input: p
    names w and w*2 bare although both have positive order, so neither p
    nor its enclosing block has a set at w, and the pair is refused
    instead of raising."""
    u = canon_universe("w^2")
    seq = CanonicalSequence(u.lambda0, parse_set("{w} u {w*2} u [w*2+1,w^2)"))
    p = MagidorCondition(u, (Block(W), Block(o("w*2")), Block(W2, parse_set("[w*2+1,w^2)"))))
    q = MagidorCondition(u, (Block(W2, parse_set("{w} u [w*2,w^2)")),))
    assert validate(p) and in_filter(p, seq) and in_filter(q, seq)
    assert not u.o(W).is_zero and p.blocks[0].measure_set is p.blocks[1].measure_set is None
    assert filter_pair_compatible(p, q, seq) is False


def test_filter_pair_compatible_with_shrunk_top(rng):
    u = canon_universe("w^2")
    seq = CanonicalSequence(u.lambda0)
    a = MagidorCondition(u, (Block(u.lambda0, u.ground()),))
    # The filter pins every canonical point below the top except 0, so the
    # only room to shrink a top-only set is at 0 itself.
    b = MagidorCondition(u, (Block(u.lambda0, parse_set("(0,w^2)")),))
    assert in_filter(b, seq)
    assert filter_pair_compatible(a, b, seq)
    # A top set missing canonical points is not in the filter at all.
    c = MagidorCondition(u, (Block(u.lambda0, parse_set("[w*2,w^2)")),))
    assert not in_filter(c, seq)


def test_universe_mismatch():
    u2, u3 = canon_universe("w^2"), canon_universe("w^3")
    p = MagidorCondition(u2, (Block(u2.lambda0, u2.ground()),))
    with pytest.raises(UniverseMismatch):
        in_filter(p, CanonicalSequence(u3.lambda0))
