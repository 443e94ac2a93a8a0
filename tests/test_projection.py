from __future__ import annotations

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from ordbench.errors import (
    IndexSetMismatch,
    LargenessViolated,
    NonTermination,
    NotAnExtension,
    RepairImpossible,
    WitnessUnavailable,
    WorkbenchError,
)
from ordbench.magidor import (
    Block,
    MagidorCondition,
    _check_same_universe,
    _least_witnesses,
    gamma_of,
    leq,
    leq_star,
    validate,
)
from ordbench.ordinal import add, cnf_difference, omega_power
from ordbench.oset import OrdinalSet, parse_set
from ordbench.projection import (
    LIM,
    OPEN,
    OUT,
    DFailure,
    ICondition,
    IndexSet,
    densify,
    in_D,
    index_chain,
    index_of,
    leq_I,
    leq_I_star,
    lift,
    onto_construct,
    pi,
    correct_computation_check,
    quotient_member,
    refine_to_clubs,
    validate_I,
)
from ordbench.universe import ToyUniverse
from ordbench.ordinal import ZERO

from conftest import (
    HIGH_ENDS,
    SET_TOP,
    canon_universe,
    canonical_condition,
    nat,
    o,
    ordinal_sets,
    random_condition,
    random_extension,
    small_ordinals_below,
)
from test_oset import old_in_lim


def iset(text: str) -> IndexSet:
    return IndexSet(parse_set(text))


# The paper's running example below w^2: I keeps 0 and everything from w on.
SEC41_I = iset("{0} u [w,w^2)")


def sec41_condition() -> MagidorCondition:
    u = canon_universe("w^2")
    return canonical_condition(u, [o("w")])


def test_index_set_classification():
    I = SEC41_I
    assert I.position(ZERO) is LIM
    assert I.position(o("w")) == ZERO  # a successor position: only 0 sits below it
    assert I.position(o("w*2")) is LIM
    assert I.points.sup_below(o("w")) == (ZERO, True)  # 0 is a member
    assert I.position(o("5")) is OUT and o("5") not in I
    J = iset("[w,w^2)")
    assert J.position(o("w")) == ZERO  # virtual zero below the minimum


def test_index_of_sec41():
    p = sec41_condition()
    assert index_of(p, 1, SEC41_I) == o("w")


def test_index_of_full_index_set_is_gamma(rng):
    u = canon_universe("w^3")
    I = IndexSet(u.ground())
    for _ in range(20):
        p = random_condition(u, rng)
        for i in range(1, len(p.blocks)):
            assert index_of(p, i, I) == gamma_of(p, i)


def test_index_of_refuses_a_block_index_out_of_range():
    p = sec41_condition()
    for i in (0, 2):
        with pytest.raises(ValueError, match=rf"^block index {i} out of 1\.\.1$"):
            index_of(p, i, SEC41_I)


def test_index_of_na():
    u = canon_universe("w^2")
    p = canonical_condition(u, [o("w")])
    I = iset("{0} u {1}")
    assert index_of(p, 1, I) is None


def test_pi_sec41():
    p = sec41_condition()
    q = pi(p, SEC41_I)
    assert q.blocks[0] == Block(o("w"))  # stripped at a successor position
    assert q.blocks[1] == p.top
    assert validate_I(q) == []


def test_pi_full_index_set_keeps_everything(rng):
    u = canon_universe("w^3")
    I = IndexSet(u.ground())
    for _ in range(10):
        p = random_condition(u, rng)
        q = pi(p, I)
        assert tuple(q.blocks) == tuple(p.blocks)
        assert in_D(p, I) is None


def test_pi_keeps_the_blocks_it_does_not_change(rng):
    """pi equals its definition rebuilt here: the blocks at I-coordinates,
    each made bare unless at a limit position, then the top.  A kept
    block that is bare, or at a limit position, is p's own object."""
    u = canon_universe("w^3")
    seen = {"bare": 0, "lim": 0, "stripped": 0}
    for _ in range(25):
        I = random_iset(u, rng)
        p = random_condition(u, rng)
        for p in (p, densify(p, I)):
            q = pi(p, I)
            kept = [(b, I.position(c) is LIM)
                    for b, c in zip(p.blocks[:-1], p.gammas) if c in I]
            want = tuple(Block(b.kappa, b.measure_set if lim else None) for b, lim in kept)
            assert q.blocks == (*want, p.top)
            for got, (b, lim) in zip(q.blocks, kept):
                if b.measure_set is None or lim:
                    assert got is b
                    seen["lim" if lim else "bare"] += 1
                else:
                    seen["stripped"] += 1
            assert q.top is p.top
    assert min(seen.values()) > 0, seen


# -- the two Section 4.2 counterexamples ------------------------------------

FIRST_I = iset("[0,w+1) u {w+2} u {w+3}").points.union(
    OrdinalSet.stratum_piece(o("w*2"), o("w^2"), nat(1))
)


def first_counterexample() -> tuple[MagidorCondition, IndexSet]:
    u = canon_universe("w^2")
    p = canonical_condition(u, [o("w"), o("w+1"), o("w*2")])
    return p, IndexSet(FIRST_I)


def second_counterexample() -> tuple[MagidorCondition, IndexSet]:
    u = canon_universe("w^2")
    p = canonical_condition(u, [o("w"), o("w*2"), o("w*3")])
    I = iset("[0,w+1) u {w+2} u {w+3} u (w*2,w^2)")
    return p, I


def test_in_D_first_counterexample():
    p, I = first_counterexample()
    failure = in_D(p, I)
    assert failure is not None
    assert failure.clause == 2
    assert failure.block_index == 3  # the block at coordinate w*2
    assert failure.coordinate == o("w*2")
    assert failure.repair == o("w+3")


def test_in_D_second_counterexample():
    p, I = second_counterexample()
    failure = in_D(p, I)
    assert failure is not None
    assert failure.clause == 1
    assert failure.coordinate == o("w*3")
    # gamma(t_i1) = w < w*2 = gamma(t_{i2-1}) is the reported mismatch
    assert gamma_of(p, failure.block_index - 1) == o("w*2")


def test_pi_first_counterexample():
    p, I = first_counterexample()
    q = pi(p, I)
    kappas = [b.kappa for b in q.blocks]
    assert kappas == [o("w"), o("w*2"), o("w^2")]
    assert q.blocks[0].measure_set is not None  # w is a limit position here
    assert q.blocks[1].measure_set is None  # w*2 is a successor position


def test_in_D_full_index_set_always_ok(rng):
    u = canon_universe("w^2")
    I = IndexSet(u.ground())
    for _ in range(10):
        assert in_D(random_condition(u, rng), I) is None


def test_densify_first_counterexample():
    p, I = first_counterexample()
    q = densify(p, I)
    assert in_D(q, I) is None
    assert leq(p, q)
    added = [b.kappa for b in q.blocks if b.kappa not in {b2.kappa for b2 in p.blocks}]
    assert added == [o("w+2"), o("w+3")]


def test_densify_second_counterexample():
    p, I = second_counterexample()
    q = densify(p, I)
    assert in_D(q, I) is None and leq(p, q)
    kappas = [b.kappa for b in q.blocks]
    assert o("w*2+1") in kappas  # the least index-set element above w*2
    assert o("w+3") in kappas


def unattained_predecessor():
    """p = [w, w+1] over w^2 (gammas w, w+1, w^2) and I = [0,w) u {w+1}:
    w+1 is a successor point of I whose members below have the unattained
    supremum w, so the clause-2 predecessor does not exist."""
    return canonical_condition(canon_universe("w^2"), [o("w"), o("w+1")]), iset("[0,w) u {w+1}")


def test_an_unattained_predecessor_fails_clause_2_with_no_repair():
    p, I = unattained_predecessor()
    assert I.position(o("w+1")) is OPEN
    assert in_D(p, I) == DFailure(2, o("w+1"), 2, None)
    with pytest.raises(RepairImpossible, match="no repair coordinate for the failure at block 2"):
        densify(p, I)


def test_densify_idempotent_on_D():
    p, I = first_counterexample()
    q = densify(p, I)
    assert densify(q, I) == q


def test_validate_I_violations():
    u = canon_universe("w^2")
    I = SEC41_I
    # successor-position block carrying a set: violation 2.a.i
    bad = ICondition(
        u,
        I,
        (
            Block(o("w"), OrdinalSet.interval(ZERO, o("w"))),
            Block(u.lambda0, u.ground().restrict_above(o("w"))),
        ),
    )
    assert any("2.a.i" in v for v in validate_I(bad))
    # broken predecessor linkage: the second block unveils the least
    # zero-order index w*4+1, whose predecessor w*4 was never unveiled.
    I2 = iset("{0} u {w} u {w*2} u {w*3} u [w*4, w^2)")
    bad2 = ICondition(
        u,
        I2,
        (
            Block(o("w")),
            Block(o("w*3+1")),
            Block(u.lambda0, u.ground().restrict_above(o("w*3+1"))),
        ),
    )
    assert index_chain(bad2, I2) == [o("w"), o("w*4+1")]
    assert any("2.a.ii" in v for v in validate_I(bad2))


@pytest.mark.parametrize(
    "index_set, first, violation",
    [
        # no member of level 1 in I: the recursion is N/A
        ("{0}", Block(o("w")), "index recursion undefined (N/A)"),
        # w*2 is a successor position whose predecessors [0,w) have no greatest
        ("[0,w) u {w*2}", Block(o("w")), "predecessor of w*2 unattained in the index set"),
        # the gap from 0 to w*2 needs a level-1 point below w, and there is none
        ("{0} u {w*2}", Block(o("w")), "no stratum witness tuple (2.a.iii)"),
        # w*2 is a limit position of I, but 0 + w^1 = w
        ("[0,w) u [w+1,w*3)", Block(o("w"), parse_set("[0,w)")),
         "gap equation fails (2.b.ii): 0 + w^1 = w != w*2"),
    ],
    ids=["n/a", "unattained-predecessor", "no-stratum-witness", "gap-equation"],
)
def test_validate_I_clause_alone(index_set, first, violation):
    """One block at w, the top above it: each index set breaks one clause."""
    u = canon_universe("w^2")
    q = ICondition(u, iset(index_set), (first, Block(u.lambda0, parse_set("(w,w^2)"))))
    assert validate_I(q) == [f"block 1 (kappa=w): {violation}"]


def test_leq_I_reflexive_and_extension():
    p, I = first_counterexample()
    q = pi(densify(p, I), I)
    assert validate_I(q) == []
    assert leq_I(q, q) and leq_I_star(q, q)


def test_leq_I_refuses_conditions_over_different_index_sets():
    p, I = first_counterexample()
    q = pi(densify(p, I), I)
    other = ICondition(q.universe, iset("[0,w^2)"), q.blocks)
    for a, b in ((q, other), (other, q)):
        with pytest.raises(IndexSetMismatch, match="conditions carry different index sets"):
            leq_I(a, b)


def test_an_unattained_predecessor_is_not_admitted_by_the_order_or_the_lift():
    # w^2+1 is the least level-0 member of I, so the index recursion lands
    # on it, but the members below it (w, w*2, ...) have no greatest one.
    u = canon_universe("w^3")
    I = iset("[w,w^2)@{1} u {w^2+1}")
    top = Block(u.lambda0, u.ground())
    q = ICondition(u, I, (Block(o("w^2+1")), top))
    assert index_chain(q, I) == [o("w^2+1")] and I.position(o("w^2+1")) is OPEN
    assert not leq_I(ICondition(u, I, (top,)), q)
    with pytest.raises(NotAnExtension):
        lift(MagidorCondition(u, (top,)), q)


def test_point_beyond_the_ground_set_in_the_order_and_the_lift():
    # The index recursion gives w^3 N/A and leaves the recursion at 0.
    u = canon_universe("w^2")
    I = iset("[0,w^2)")
    q = ICondition(u, I, (Block(o("w^3")), Block(u.lambda0, parse_set("[w,w^2)"))))
    assert index_chain(q, I) == [None]
    assert leq_I(q, q)
    p = canonical_condition(u, [])
    assert not leq_I(pi(p, I), q)
    with pytest.raises(NotAnExtension):
        lift(p, q)


def test_order_preservation(rng):
    from conftest import gen_projection_condition

    for lam in ("w^2", "w^3"):
        u = canon_universe(lam)
        for _ in range(15):
            I = random_iset(u, rng)
            pd = gen_projection_condition(u, I, rng)
            qd = densify(random_extension(pd, rng), I)
            assert leq(pd, qd)
            assert leq_I(pi(pd, I), pi(qd, I))
            if leq_star(pd, qd):
                assert leq_I_star(pi(pd, I), pi(qd, I))


def test_order_preservation_gap_regression():
    """The literal dense-set clauses admit a pair on which the projected
    order fails: p names coordinates inside the unviewed predecessor gap
    of min(I), so its matched blocks absorb the stratum witnesses that
    the subsequence order demands from the measure set."""
    u = canon_universe("w^2")
    I = iset("[w*2,w*5+5)")
    p = canonical_condition(u, [o("w*2"), o("w*2+1")])  # coordinates w, w+1
    assert in_D(p, I) is None  # vacuously: nothing projects
    q = densify(random_like_extension(p), I)
    assert leq(p, q) and in_D(q, I) is None
    assert not leq_I(pi(p, I), pi(q, I))


def random_like_extension(p: MagidorCondition) -> MagidorCondition:
    """Deterministic extension unveiling min(I)'s coordinate for the gap
    regression: one level-1 point into the top gap."""
    from ordbench.magidor import ExtensionType, extend_minimal

    q, _ = extend_minimal(
        p, ExtensionType(((), (), (nat(1),)))
    )
    return q


def random_iset(u: ToyUniverse, rng: random.Random) -> IndexSet:
    """A few random intervals and singletons below lambda0, closed below
    the sup (index sets of closed subsequences are closed)."""
    from conftest import small_ordinals_below

    dom = small_ordinals_below(u.lambda0, 120)
    pieces = []
    for _ in range(rng.randrange(1, 4)):
        a, b = sorted(rng.sample(dom, 2))
        pieces.append((a, b))
    s = OrdinalSet.empty()
    for a, b in pieces:
        s = s.union(OrdinalSet.interval(a, b))
    if rng.random() < 0.5:
        s = s.union(OrdinalSet.singleton(rng.choice(dom)))
    if s.is_empty():
        s = OrdinalSet.interval(ZERO, u.lambda0)
    s = s.restrict_below(u.lambda0)
    sup = s.sup()
    if sup is not None:
        s = s.union(s.closure_points(u.lambda0).restrict_below(sup[0]))
    return IndexSet(s.restrict_below(u.lambda0))


def old_leq_I(p: ICondition, q: ICondition) -> bool:
    """The subsequence order read by the two passes of `old_leq`."""
    from test_magidor import old_inherits, old_kept_named_points, old_new_blocks_admitted

    matched = old_kept_named_points(p, q)
    if matched is None:
        return False
    I = p.index_set
    chain = index_chain(q, I)

    def admits(j, qb, enclosing):
        c = chain[j]
        if c is None:
            return False
        if not old_in_lim(I.points, c):
            prev_idx = chain[j - 1] if j >= 1 else ZERO
            if prev_idx is None:
                return False
            prev_kappa = q.blocks[j - 1].kappa if j >= 1 else None
            exps = cnf_difference(prev_idx, c)
            return (
                _least_witnesses(exps[:-1], prev_kappa, enclosing.measure_set, qb.kappa)
                is not None
            )
        return qb.measure_set is not None and old_inherits(qb, enclosing)

    return old_new_blocks_admitted(p, q, matched, admits)


def iorder_pairs(u: ToyUniverse, rng: random.Random, count: int):
    """Pairs of valid projected conditions over one random index set, both
    ways round: a densified extension, a further one, and an unrelated
    densified condition."""
    from conftest import gen_projection_condition

    for _ in range(count):
        I = random_iset(u, rng)
        try:
            p = gen_projection_condition(u, I, rng, steps=2)
            q = densify(random_extension(p, rng), I)
            r = densify(random_extension(q, rng), I)
            s = densify(random_condition(u, rng), I)
        except RepairImpossible:
            continue
        a, b, c, d = (pi(x, I) for x in (p, q, r, s))
        for x, y in ((a, b), (b, a), (a, c), (c, b), (a, d), (d, a), (b, d)):
            if not validate_I(x) and not validate_I(y):
                yield x, y


def test_leq_I_matches_the_two_passes(rng):
    """Both refusals occur: at p's named points, and at a new point of q
    that the index-chain clauses do not admit."""
    from test_magidor import old_kept_named_points

    seen = set()
    for lam in ("w^2", "w^3", "w^3*2+w"):
        for p, q in iorder_pairs(canon_universe(lam), rng, 12):
            want = old_leq_I(p, q)
            assert leq_I(p, q) == want
            seen.add((old_kept_named_points(p, q) is not None, want))
    assert seen == {(True, True), (True, False), (False, False)}


def test_index_invariance_under_extension(rng):
    # matched blocks keep their computed indices across the order
    from conftest import gen_projection_condition

    u = canon_universe("w^3")
    for _ in range(15):
        I = random_iset(u, rng)
        pd = gen_projection_condition(u, I, rng)
        qd = densify(random_extension(pd, rng), I)
        a, b = pi(pd, I), pi(qd, I)
        if not leq_I(a, b):
            continue
        ca, cb = index_chain(a, I), index_chain(b, I)
        positions = {blk.kappa: j for j, blk in enumerate(b.blocks[:-1])}
        for i, blk in enumerate(a.blocks[:-1]):
            assert ca[i] == cb[positions[blk.kappa]]


def old_index_chain(cond, I: IndexSet) -> list:
    """The block walk that `index_chain` memoizes on the index set."""
    u = cond.universe
    vals = []
    prev = ZERO
    for b in cond.blocks[:-1]:
        if prev is None or b.kappa > u.lambda0:
            vals.append(None)
            continue
        prev = I.points.min_in_level_above(u.o(b.kappa), prev)
        vals.append(prev)
    return vals


def test_index_chain_matches_the_block_walk(rng):
    """One index set serves conditions over w^2 and w^3 whose blocks may lie
    beyond the ground set; the same blocks get each universe's chain, and a
    caller that edits a returned chain does not edit the next one."""
    u2, u3 = canon_universe("w^2"), canon_universe("w^3")
    beyond = [o("w^2"), o("w^2+1"), o("w^2*2"), o("w^3"), o("w^3+w")]
    na = differs = 0
    for _ in range(40):
        I = random_iset(rng.choice((u2, u3)), rng)
        for _ in range(4):
            blocks = list(random_condition(rng.choice((u2, u3)), rng).blocks[:-1])
            for _ in range(rng.randrange(3)):
                blocks.insert(rng.randrange(len(blocks) + 1), Block(rng.choice(beyond)))
            chains = []
            for u in (u2, u3):
                cond = MagidorCondition(u, (*blocks, Block(u.lambda0)))
                want = old_index_chain(cond, I)
                got = index_chain(cond, I)
                assert got == want
                got.append(ZERO)
                got[:1] = [o("w")]
                assert index_chain(cond, I) == want
                na += None in want
                chains.append(want)
            differs += chains[0] != chains[1]
    assert na and differs


def test_the_memo_is_invisible():
    """Equality, hashing, printing and serialisation see only the points,
    before and after an index set has answered queries."""
    from ordbench.io import icondition_to_json
    from ordbench.projection import _check_compatible

    p, I = first_counterexample()
    q = pi(p, I)
    before = (hash(I), repr(I), icondition_to_json(q))
    onto_construct(pi(densify(p, I), I))
    validate_I(q)
    assert I._positions and I._chains
    assert (hash(I), repr(I), icondition_to_json(q)) == before
    fresh = IndexSet(OrdinalSet(FIRST_I.pieces))
    assert fresh == I and hash(fresh) == hash(I) and repr(fresh) == repr(I)
    twin = ICondition(q.universe, fresh, q.blocks)
    _check_compatible(q, twin)
    assert leq_I(q, twin) and leq_I(twin, q)


def test_onto_sec41():
    u = canon_universe("w^2")
    q = ICondition(
        u,
        SEC41_I,
        (Block(o("w")), Block(u.lambda0, u.ground().restrict_above(o("w")))),
    )
    assert validate_I(q) == []
    p = onto_construct(q)
    assert validate(p) == []
    assert pi(p, SEC41_I) == q
    assert p.blocks[0].measure_set is not None  # canonical large set attached


def test_onto_check_raises_without_asserts(monkeypatch):
    # The lemma check pi(onto(q)) == q must raise a WorkbenchError, which
    # `python -O` keeps, rather than an assert, which it strips.
    from ordbench import projection

    u = canon_universe("w^2")
    q = ICondition(
        u,
        SEC41_I,
        (Block(o("w")), Block(u.lambda0, u.ground().restrict_above(o("w")))),
    )
    monkeypatch.setattr(projection, "pi", lambda p, I: None)
    with pytest.raises(WorkbenchError, match="projection of the construction"):
        onto_construct(q)


def test_onto_refuses_an_invalid_condition():
    u = canon_universe("w^2")
    q = ICondition(u, SEC41_I, (Block(u.lambda0),))
    with pytest.raises(LargenessViolated, match="top block needs a measure set"):
        onto_construct(q)


def test_onto_single_top():
    u = canon_universe("w^2")
    q = ICondition(u, SEC41_I, (Block(u.lambda0, u.ground()),))
    p = onto_construct(q)
    assert tuple(p.blocks) == tuple(q.blocks)


def test_onto_inserts_witness_points():
    # A successor position at distance w+1 from its predecessor needs one
    # zero-order witness.
    u = canon_universe("w^2")
    I = iset("{w} u {w*2+1} u [w*3,w^2)")
    # chain: block of order 1 unveils w; bare block of order 0 unveils w*2+1
    q = ICondition(
        u,
        I,
        (
            Block(o("w")),
            Block(o("w*2+1")),
            Block(u.lambda0, u.ground().restrict_above(o("w*2+1"))),
        ),
    )
    assert validate_I(q) == []
    p = onto_construct(q)
    assert pi(p, I) == q
    inserted = [b.kappa for b in p.blocks if b.kappa not in {o("w"), o("w*2+1"), u.lambda0}]
    assert len(inserted) == 1  # one level-1 witness for the w-power gap


def test_onto_roundtrip_random(rng):
    u = canon_universe("w^3")
    for _ in range(25):
        I = random_iset(u, rng)
        p = densify(random_condition(u, rng), I)
        q = pi(p, I)
        assert validate_I(q) == []
        p2 = onto_construct(q)
        assert pi(p2, I) == q
        assert in_D(p2, I) is None


def test_lift_identity():
    p, I = first_counterexample()
    pd = densify(p, I)
    q = pi(pd, I)
    assert lift(pd, q) == pd


def test_lift_random(rng):
    from conftest import gen_projection_condition

    u = canon_universe("w^3")
    for _ in range(25):
        I = random_iset(u, rng)
        p = gen_projection_condition(u, I, rng)
        p2 = densify(random_extension(p, rng), I)
        q = pi(p2, I)
        lifted = lift(p, q)
        assert leq(p, lifted)
        assert pi(lifted, I) == q


def test_lift_requires_related_target():
    u = canon_universe("w^2")
    I = SEC41_I
    p = densify(canonical_condition(u, [o("w")]), I)
    other = ICondition(
        u, I, (Block(u.lambda0, u.ground().restrict_above(o("w*2"))),)
    )
    with pytest.raises(NotAnExtension):
        lift(p, other)


# ---------------------------------------------------------------------------
# The block-merge lift that the one call to `magidor.extend` replaced, kept
# as the oracle: q's new points are merged into p's blocks by hand, each
# block's set is chosen from q, from p, or p's trimmed above the previous
# point, and the result is validated on its own.
# ---------------------------------------------------------------------------


def _old_witness_blocks(u, levels, floor, point, within, missing):
    out = []
    for w in _least_witnesses(levels, floor, within, point, missing) + [point]:
        if u.o(w).is_zero:
            out.append(Block(w))
        else:
            B = within.restrict_below(w)
            out.append(Block(w, B if floor is None else B.restrict_above(floor)))
        floor = w
    return out


def old_lift(p: MagidorCondition, q: ICondition) -> MagidorCondition:
    I = q.index_set
    _check_same_universe(p, q)
    base = pi(p, I)
    if not leq_I(base, q):
        raise NotAnExtension("q does not extend the projection of p")
    u = p.universe
    base_kappas = {b.kappa for b in base.blocks[:-1]}
    chain = index_chain(q, I)
    inserted = {}
    for j, qb in enumerate(q.blocks[:-1]):
        if qb.kappa in base_kappas:
            continue
        prev_idx = chain[j - 1] if j >= 1 else ZERO
        inserted[qb.kappa] = (prev_idx, chain[j])
    q_sets = {b.kappa: b.measure_set for b in q.blocks[:-1]}
    new_blocks = []
    pending = sorted(inserted)
    prev_point = None
    for pb in p.blocks:
        while pending and pending[0] < pb.kappa:
            kappa = pending.pop(0)
            prev_idx, c = inserted[kappa]
            B = pb.measure_set
            if B is None or kappa not in B:
                raise WitnessUnavailable(
                    f"inserted point {kappa} is not admissible below {pb.kappa}"
                )
            if not old_in_lim(I.points, c):
                new_blocks += _old_witness_blocks(
                    u, cnf_difference(prev_idx, c)[:-1], prev_point, kappa, B,
                    lambda xi, floor: WitnessUnavailable(
                        f"no level-{xi} witness below {kappa} in the block set"),
                )
            else:
                new_blocks.append(Block(kappa, q_sets[kappa]))
            prev_point = kappa
        if pb is p.top:
            new_blocks.append(Block(pb.kappa, q.top.measure_set))
        elif pb.kappa in q_sets and q_sets[pb.kappa] is not None:
            new_blocks.append(Block(pb.kappa, q_sets[pb.kappa]))
        elif pb.measure_set is not None and prev_point is not None:
            new_blocks.append(Block(pb.kappa, pb.measure_set.restrict_above(prev_point)))
        else:
            new_blocks.append(pb)
        prev_point = pb.kappa
    out = MagidorCondition(u, tuple(new_blocks))
    bad = validate(out)
    if bad:
        raise WitnessUnavailable("; ".join(bad))
    if not leq(p, out):
        raise WitnessUnavailable("lift does not extend the base condition")
    if pi(out, I) != q:
        raise WitnessUnavailable("projection of the lift differs from the target")
    return out


def outcome(f, *args):
    """The result of f, or the class of the WorkbenchError it raises."""
    try:
        return f(*args)
    except WorkbenchError as err:
        return type(err)


def lift_pairs(u: ToyUniverse, rng: random.Random, count: int):
    """(p, q) pairs: densified bases with a projected extension, bases that
    are not densified, and unrelated bases."""
    from conftest import gen_projection_condition

    for k in range(count):
        I = random_iset(u, rng)
        try:
            if k % 4 == 0:
                p = gen_projection_condition(u, I, rng, steps=2)
                r = densify(random_extension(p, rng, max_points=2), I)
            elif k % 4 == 1:
                p = densify(random_condition(u, rng), I)
                r = densify(random_extension(random_extension(p, rng), rng), I)
            elif k % 4 == 2:
                p = random_condition(u, rng)
                r = densify(random_extension(p, rng, max_points=3), I)
            else:
                p = random_condition(u, rng)
                r = densify(random_condition(u, rng), I)
        except RepairImpossible:
            continue
        yield p, pi(r, I)


def test_lift_matches_the_block_merge(rng):
    seen = set()
    for lam in ("w^2", "w^3", "w^3*2+w"):
        for p, q in lift_pairs(canon_universe(lam), rng, 100):
            want = outcome(old_lift, p, q)
            assert outcome(lift, p, q) == want
            seen.add(want if isinstance(want, type) else "ok")
    # Both refusals occur: the gate, and a lift that fails after it.
    assert seen == {"ok", NotAnExtension, WitnessUnavailable}


def test_lift_draws_witnesses_above_the_points_before_them_in_a_gap():
    # All of q's points fall into p's one gap; each successor position
    # needs witnesses above the points inserted before it: 0 before 3,
    # then 4, 5, 6, 7 before 8, then w, w+1, w+2 before w+6.
    u = canon_universe("w^2")
    I = iset("{2} u {7} u [w+3,w*5+3)")
    p = MagidorCondition(u, (Block(u.lambda0, u.ground()),))
    q = ICondition(u, I, (
        Block(nat(3)),
        Block(nat(8)),
        Block(o("w+6")),
        Block(o("w*3"), parse_set("[w+7,w*3)")),
        Block(o("w*3+2")),
        Block(u.lambda0, parse_set("[w*3+3,w^2)")),
    ))
    assert validate_I(q) == []
    got = lift(p, q)
    assert [str(b.kappa) for b in got.blocks[:-1]] == [
        "0", "3", "4", "5", "6", "7", "8", "w", "w + 1", "w + 2", "w + 6", "w*3", "w*3 + 2"
    ]
    assert got == old_lift(p, q)


def lift_failing_after_the_gate() -> tuple[MagidorCondition, ICondition]:
    """A base that is not densified: q extends pi(p), but extending p by
    q's points moves the coordinates, so the lift projects elsewhere."""
    u = canon_universe("w^2")
    I = iset("{0} u [4,w*5+6)")
    p = MagidorCondition(u, (
        Block(ZERO),
        Block(o("w"), parse_set("[1,w)")),
        Block(u.lambda0, parse_set("[w+1,w^2)")),
    ))
    q = ICondition(u, I, (
        Block(nat(4)),
        Block(o("w"), parse_set("[5,w)")),
        Block(o("w*2"), parse_set("[w+1,w*2)")),
        Block(o("w*2+1")),
        Block(o("w*2+3")),
        Block(u.lambda0, parse_set("[w*2+4,w^2)")),
    ))
    return p, q


def test_lift_fails_after_the_gate_like_the_block_merge():
    p, q = lift_failing_after_the_gate()
    assert validate(p) == [] and validate_I(q) == []
    assert leq_I(pi(p, q.index_set), q)
    assert outcome(old_lift, p, q) is WitnessUnavailable
    with pytest.raises(WitnessUnavailable, match="projection of the lift differs"):
        lift(p, q)


def test_correct_computation(rng):
    p, I = first_counterexample()
    pd = densify(p, I)
    assert correct_computation_check(pd, I)
    assert index_of(pi(sec41_condition(), SEC41_I), 1, SEC41_I) == o("w")
    u = canon_universe("w^3")
    for _ in range(15):
        J = random_iset(u, rng)
        pd = densify(random_condition(u, rng), J)
        assert correct_computation_check(pd, J)
    # Off D: w is not in K, and the limit position w*2 is not linked to it.
    K = iset("[0,w) u [w+1,w^2)")
    p = canonical_condition(canon_universe("w^2"), [o("w"), o("w*2")])
    assert validate(p) == [] and in_D(p, K) == DFailure(2, o("w*2"), 1, o("w+1"))
    assert not correct_computation_check(p, K)


def test_refine_to_clubs_already_fine():
    roots = [o("w"), o("w^2")]
    cstar = parse_set("[0,w] u [w+2,w^2)")
    assert refine_to_clubs(roots, cstar) == roots


def test_refine_to_clubs_paper_example():
    # Two stray points in the gap between the first two roots, replayed
    # with the countable surrogate ground w^3*2.
    roots = [o("w^3"), o("w^3+w^2"), o("w^3+w^2*2"), o("w^3*2")]
    cstar = parse_set("[0,w^3] u {w^3+w+2} u {w^3+w+3} u (w^3+w^2*2, w^3*2)")
    got = refine_to_clubs(roots, cstar)
    assert o("w^3+w+2") in got and o("w^3+w+3") in got
    assert got[0] == o("w^3") and got[-1] == o("w^3*2")
    # postcondition: every gap is empty or unbounded
    for lo, hi in zip([ZERO] + got, got):
        seg = cstar.restrict_above(lo).restrict_below(hi)
        assert seg.is_empty() or seg.sup()[0] == hi


def test_refine_to_clubs_random(rng):
    u = canon_universe("w^3")
    from conftest import small_ordinals_below

    dom = small_ordinals_below(u.lambda0, 150)
    for _ in range(20):
        pts = sorted(rng.sample(dom, rng.randrange(2, 6)))
        cstar = OrdinalSet.empty()
        for a in pts:
            cstar = cstar.union(OrdinalSet.singleton(a))
        roots = [u.lambda0]
        got = refine_to_clubs(roots, cstar)
        for lo, hi in zip([ZERO] + got, got):
            seg = cstar.restrict_above(lo).restrict_below(hi)
            assert seg.is_empty() or seg.sup()[0] == hi


# The closedness check and gap scan that `missing_limits` and one supremum
# per gap replaced, kept as the oracle on sets below w^w, where
# `closure_points` is defined.


def old_refine_to_clubs(roots, cstar):
    if not roots or any(b <= a for a, b in zip(roots, roots[1:])):
        raise ValueError("roots must be strictly increasing and nonempty")
    s = cstar.sup()
    if s is not None:
        limits = cstar.closure_points(roots[-1]).restrict_below(s[0])
        if not limits.difference(cstar).is_empty():
            raise ValueError("the set is not closed below its supremum")
    fence = list(roots)
    prev_bad_top = None
    for _ in range(200):
        bad_i = None
        for i in range(len(fence), 0, -1):
            lo = fence[i - 2] if i >= 2 else ZERO
            seg = cstar.restrict_above(lo).restrict_below(fence[i - 1])
            if not seg.is_empty() and seg.sup()[0] != fence[i - 1]:
                bad_i = i
                break
        if bad_i is None:
            return fence
        lo = fence[bad_i - 2] if bad_i >= 2 else ZERO
        hi = fence[bad_i - 1]
        if prev_bad_top is not None and hi >= prev_bad_top:
            raise NonTermination("maximal bad interval did not move down")
        prev_bad_top = hi
        sup_val, attained = cstar.restrict_above(lo).restrict_below(hi).sup()
        if not attained:
            raise ValueError("segment supremum unattained; the set is not closed")
        acc = lo
        addition = []
        for e in cnf_difference(lo, sup_val):
            acc = add(acc, omega_power(e))
            addition.append(acc)
        fence = fence[: bad_i - 1] + addition + fence[bad_i - 1 :]
    raise NonTermination("club refinement did not stabilize")


def refine_outcome(f, roots, cstar):
    try:
        return f(roots, cstar)
    except (ValueError, WorkbenchError) as err:
        return type(err), str(err)


@st.composite
def fence_roots(draw, high: bool = False):
    pool = st.sampled_from(small_ordinals_below(SET_TOP, 550))
    tops = pool | st.sampled_from(HIGH_ENDS) if high else pool
    picked = draw(st.lists(tops, min_size=1, max_size=4, unique=True))
    return sorted(pick for pick in picked if not pick.is_zero) or [SET_TOP]


@settings(max_examples=300)
@given(ordinal_sets(high=True), fence_roots(high=True))
def test_refine_to_clubs_fences_every_gap(cstar, roots):
    got = refine_outcome(refine_to_clubs, roots, cstar)
    if isinstance(got, tuple):
        assert got[0] is ValueError and "not closed" in got[1]
        return
    assert set(roots) <= set(got) and got == sorted(set(got))
    for lo, hi in zip([ZERO] + got, got):
        seg = cstar.restrict_above(lo).restrict_below(hi)
        assert seg.is_empty() or seg.sup()[0] == hi


@settings(max_examples=300)
@given(ordinal_sets(), fence_roots())
def test_refine_to_clubs_matches_the_closure_points_check(cstar, roots):
    assert refine_outcome(refine_to_clubs, roots, cstar) == refine_outcome(
        old_refine_to_clubs, roots, cstar
    )


def test_refine_to_clubs_reaching_w_to_the_w():
    w_w = o("w^w")
    assert refine_to_clubs([w_w], parse_set("[0,w^w)")) == [w_w]
    assert refine_to_clubs([o("w^2"), w_w], parse_set("{w} u [w^3,w^w)")) == [
        o("w"), o("w^2"), w_w
    ]
    with pytest.raises(ValueError, match="not closed"):
        refine_to_clubs([o("w^w*2")], parse_set("[0,w^w) u [w^w+1,w^w*2)"))


def test_quotient_member():
    u = canon_universe("w^2")
    I = SEC41_I
    # canonical: block at value w = its own coordinate
    p = canonical_condition(u, [o("w")])
    pd = densify(p, I)
    assert quotient_member(pd, I)
    # misplaced: the block's kappa is not the coordinate it unveils
    bad = canonical_condition(u, [o("w*2")])
    assert not quotient_member(bad, I)
    # the projection is not an I-condition
    J = iset("[0,w) u {w*2}")
    p2 = canonical_condition(u, [o("w"), o("w*2")])
    assert validate(p2) == []
    assert validate_I(pi(p2, J)) == [
        "block 1 (kappa=w*2): predecessor of w*2 unattained in the index set"
    ]
    assert not quotient_member(p2, J)


def test_quotient_witness_demands():
    # A successor member of I whose predecessor gap spans several powers
    # demands stratum witnesses inside the enclosing block set.
    u = canon_universe("w^2")
    I = iset("{5} u {w*2+3} u [w*3,w^2)")
    from ordbench.projection import _succ_gap_candidates

    cands = _succ_gap_candidates(I, ZERO, o("w^2"))
    assert o("w*2+3") in cands
    # diff(5, w*2+3) = <1,1,0,0,0>: the gap needs two limit points and two
    # successors inside the top set between the two sequence values
    rich = MagidorCondition(u, (Block(u.lambda0, u.ground()),))
    assert validate(rich) == []
    assert quotient_member(rich, I)
    poor = MagidorCondition(
        u,
        (
            Block(
                u.lambda0,
                u.ground().difference(
                    OrdinalSet.stratum_piece(ZERO, o("w*2+3"), nat(1))
                ),
            ),
        ),
    )
    assert validate(poor) == []
    assert o("w*2+3") in poor.top.measure_set  # the member itself is kept
    assert not quotient_member(poor, I)  # its gap witnesses are gone


def test_quotient_member_fails_on_a_member_without_a_greatest_predecessor():
    # w+1 is a successor-position member of I whose predecessors 0, 1, ...
    # have no greatest element: clause (c) fails, although w+1 lies inside
    # the one piece [0,w*2)@{0} and the index set has no other piece.
    u = canon_universe("w^2")
    I = parse_set("[0,w) u [w+1,w*2)")
    assert I == parse_set("[0,w*2)@{0}") and len(I.pieces) == 1
    assert IndexSet(I).position(o("w+1")) is OPEN
    from ordbench.projection import _succ_gap_candidates

    assert o("w+1") in _succ_gap_candidates(IndexSet(I), ZERO, o("w^2"))
    rich = MagidorCondition(u, (Block(u.lambda0, u.ground()),))
    assert not quotient_member(rich, IndexSet(I))
    assert quotient_member(rich, iset("[0,w*2)"))


def test_quotient_member_random(rng):
    u = canon_universe("w^2")
    I = SEC41_I
    hits = 0
    for _ in range(20):
        p = random_condition(u, rng)
        got = quotient_member(p, I)
        q = pi(p, I)
        chain = index_chain(q, I)
        coherent = validate_I(q) == [] and all(
            c is not None and c == b.kappa for c, b in zip(chain, q.blocks[:-1])
        )
        if got:
            hits += 1
            assert coherent
    assert hits >= 1
