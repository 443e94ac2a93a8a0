"""Shared helpers: a small ordinal vocabulary, condition builders and
pointwise oracles."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ordbench.errors import LargenessViolated
from ordbench.magidor import Block, MagidorCondition, extend
from ordbench.ordinal import (
    OMEGA,
    ZERO,
    Ordinal,
    add,
    from_int,
    mul_nat,
    omega_power,
    parse_ordinal,
)
from ordbench.oset import OrdinalSet, Piece
from ordbench.prikry import ToyUltraStructure, TreeCondition, UltraAssignment
from ordbench.universe import ToyUniverse

# Example counts stay per test; no property here has a deadline, and the
# condition generators are slow enough to trip the too_slow health check.
settings.register_profile(
    "ordbench", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ordbench")


def o(text: str) -> Ordinal:
    return parse_ordinal(text)


def nat(n: int) -> Ordinal:
    return from_int(n)


W = OMEGA
W2 = omega_power(nat(2))
W3 = omega_power(nat(3))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


def canon_universe(lam: str, bound: str = "w") -> ToyUniverse:
    return ToyUniverse(o(lam), o(bound))


def canonical_condition(u: ToyUniverse, kappas: list[Ordinal]) -> MagidorCondition:
    """Blocks at the given points with full interval sets, plus the top."""
    blocks = []
    prev = None
    for k in list(kappas) + [u.lambda0]:
        if u.o(k).is_zero:
            blocks.append(Block(k))
        else:
            lo = ZERO if prev is None else prev.successor()
            blocks.append(Block(k, OrdinalSet.interval(lo, k)))
        prev = k
    return MagidorCondition(u, tuple(blocks))


def random_extension(
    p: MagidorCondition, rng: random.Random, max_points: int = 3
) -> MagidorCondition:
    """A valid extension by a few randomly placed stratum points."""
    u = p.universe
    gaps = []
    for i in range(1, len(p.blocks) + 1):
        pts: list[Ordinal] = []
        b = p.blocks[i - 1]
        ob = u.o(b.kappa)
        if b.measure_set is not None and not ob.is_zero and rng.random() < 0.7:
            floor = p.blocks[i - 2].kappa if i >= 2 else None
            for _ in range(rng.randrange(1, max_points + 1)):
                xi = nat(rng.randrange(ob.as_int()))
                cand = (
                    b.measure_set.min_in_level(xi)
                    if floor is None
                    else b.measure_set.min_in_level_above(xi, floor)
                )
                for _ in range(rng.randrange(3)):
                    nxt = (
                        b.measure_set.min_in_level_above(xi, cand)
                        if cand is not None
                        else None
                    )
                    if nxt is None:
                        break
                    cand = nxt
                if cand is None or u.o(cand) >= ob:
                    continue
                pts.append(cand)
                floor = cand
        gaps.append(tuple(pts))
    try:
        return extend(p, tuple(gaps))
    except LargenessViolated:
        return p


def root_condition(u: ToyUniverse) -> MagidorCondition:
    """The root of the family adding a sequence of type lambda0: blocks at
    the canonical partial-sum positions of the ground CNF."""
    roots = []
    acc = ZERO
    for e, c in u.lambda0.terms:
        for _ in range(c):
            acc = add(acc, omega_power(e))
            roots.append(acc)
    return canonical_condition(u, roots[:-1])


def random_condition(
    u: ToyUniverse, rng: random.Random, max_steps: int = 3
) -> MagidorCondition:
    p = root_condition(u)
    for _ in range(rng.randrange(max_steps + 1)):
        p = random_extension(p, rng, max_points=2)
    return p


def gen_projection_condition(u: ToyUniverse, I, rng: random.Random, steps: int = 3):
    """A random condition built by unveiling index-set coordinates only.

    After each unveil the condition is re-densified, so every non-projected
    block is a connecting point strictly between adjacent projected blocks;
    in that regime the projection-lemma order-preservation and lift
    arguments go through (the CNF realizers of any fresh index are
    interleaved points of the base condition).
    """
    from ordbench.errors import (
        AlreadyUnveiled,
        OutOfRange,
        RepairImpossible,
        WitnessUnavailable,
    )
    from ordbench.magidor import extend_minimal, gamma_of, unveil_type
    from ordbench.projection import densify

    cur = densify(root_condition(u), I)
    for _ in range(steps):
        top_coord = gamma_of(cur, len(cur.blocks))
        coords = {gamma_of(cur, i) for i in range(1, len(cur.blocks))}
        pool = I.points.restrict_below(top_coord).enumerate(40)
        pool = [c for c in pool if c not in coords and not c.is_zero]
        if not pool:
            break
        cand = pool[rng.randrange(len(pool))]
        try:
            xtype = unveil_type(cur, cand)
            cur, _ = extend_minimal(cur, xtype)
            cur = densify(cur, I)
        except (AlreadyUnveiled, OutOfRange, WitnessUnavailable, RepairImpossible):
            continue
    return cur


import functools


@functools.lru_cache(maxsize=None)
def small_ordinals_below(bound: Ordinal, count: int) -> list[Ordinal]:
    """A fixed grid of ordinals below `bound` in increasing order, used as
    a pointwise oracle domain."""
    out: list[Ordinal] = []
    seen = set()
    # Enumerate sums w^2*a + w*b + c style below w^3*k; good enough for
    # desk-scale oracles.
    for a3 in range(4):
        for a2 in range(6):
            for a1 in range(6):
                for a0 in range(8):
                    g = add(
                        add(mul_nat(W3, a3), mul_nat(W2, a2)),
                        add(mul_nat(W, a1), nat(a0)),
                    )
                    if g < bound and g not in seen:
                        seen.add(g)
                        out.append(g)
    out.sort()
    return out[:count]


SET_TOP = parse_ordinal("w^3*3")
W_W = omega_power(OMEGA)
# Ends of plain pieces at and above w^w, where no filter reaches, and the
# points around them that a pointwise oracle needs.
HIGH_ENDS = tuple(map(parse_ordinal, ("w^w", "w^w+1", "w^w+w", "w^w*2", "w^(w+1)")))
HIGH_POINTS = tuple(
    map(
        parse_ordinal,
        ("w^4", "w^5+w*2+1", "w^w", "w^w+1", "w^w+5", "w^w+w", "w^w+w+1",
         "w^w*2", "w^w*2+1", "w^(w+1)", "w^(w+1)+w"),
    )
)


# The set strategies' parts, built once rather than on every draw.
_LEVELS = st.none() | st.frozensets(st.integers(0, 3).map(from_int), max_size=3)
_STEPS = st.sampled_from((nat(1), nat(2), W, add(W, nat(1)), W2))


@functools.cache
def _ends(high: bool):
    """(low, ends): the sampled points below SET_TOP, and with `high` those
    or a high end."""
    low = st.sampled_from(small_ordinals_below(SET_TOP, 550))
    return low, low | st.sampled_from(HIGH_ENDS) if high else low


@st.composite
def ordinal_sets(draw, max_pieces: int = 4, high: bool = False) -> OrdinalSet:
    """Unions of a few plain and level-filtered pieces below w^3*3, drawn
    piece by piece so that a failure shrinks to few pieces.

    Half the draws chain short pieces end to end instead, so that
    different filters meet at junctions that normalisation has to move,
    and a moved junction can empty the piece after it.

    With `high`, plain pieces may also end at or above w^w (`HIGH_ENDS`),
    and a chain may end in one, so that filtered runs meet pieces that no
    filter can describe whole.
    """
    low, ends = _ends(high)
    if draw(st.booleans()):
        cut, chain = draw(low), []
        for lv in draw(st.lists(_LEVELS, min_size=1, max_size=max_pieces)):
            nxt = add(cut, draw(_STEPS))
            chain.append(Piece(cut, nxt, lv))
            cut = nxt
        if high and draw(st.booleans()):
            chain.append(Piece(cut, draw(st.sampled_from(HIGH_ENDS))))
        return OrdinalSet(tuple(chain))
    drawn = draw(st.lists(st.tuples(ends, ends, _LEVELS), max_size=max_pieces))
    return OrdinalSet(
        tuple(
            Piece(min(a, b), max(a, b), None if max(a, b) >= W_W else lv)
            for a, b, lv in drawn
        )
    )


@st.composite
def raw_pieces(draw, max_pieces: int = 5) -> tuple[Piece, ...]:
    """Raw piece lists as the constructor may be handed them: overlapping,
    touching, inverted (hi <= lo), unreduced and with empty filters."""
    low = _ends(False)[0]
    out: list[Piece] = []
    for _ in range(draw(st.integers(0, max_pieces))):
        if out and draw(st.booleans()):
            lo = draw(st.sampled_from((out[-1].lo, out[-1].hi)))
        else:
            lo = draw(low)
        if draw(st.booleans()):
            hi = add(lo, draw(_STEPS))
        else:
            hi = draw(low)
        out.append(Piece(lo, hi, draw(_LEVELS)))
    return tuple(out)


@st.composite
def ultra_assignments(draw, ground: tuple[int, ...]) -> UltraAssignment:
    """A nonempty core in the ground, and no projection or one that moves
    a few points weakly downward, each listed once."""
    core = frozenset(draw(st.sets(st.sampled_from(ground), min_size=1)))
    moved = draw(st.none() | st.lists(st.sampled_from(ground), unique=True))
    if moved is None:
        return UltraAssignment(core)
    return UltraAssignment(core, tuple((v, draw(st.integers(0, v))) for v in moved))


@st.composite
def ultra_structures(draw) -> ToyUltraStructure:
    """A small ground with node and level tables, an optional default and
    an optional tail default."""
    ground = tuple(sorted(draw(st.sets(st.integers(0, 7), min_size=1, max_size=6))))
    nodes = {
        tuple(sorted(a)): draw(ultra_assignments(ground))
        for a in draw(st.lists(st.sets(st.sampled_from(ground), max_size=2), max_size=3))
    }
    levels = draw(st.dictionaries(st.integers(0, 3), ultra_assignments(ground), max_size=2))
    default = draw(st.none() | ultra_assignments(ground))
    return ToyUltraStructure(ground, nodes, levels, default, draw(st.booleans()))


@st.composite
def tree_conditions(draw, ground: tuple[int, ...], trunk=None) -> TreeCondition:
    """A trunk of at most two increasing points (or the one given), with
    explicit successor sets at a few nodes above it."""
    if trunk is None:
        trunk = tuple(sorted(draw(st.sets(st.sampled_from(ground), max_size=2))))
    points = st.sampled_from(ground)
    successors = {
        trunk + tuple(sorted(a)): frozenset(draw(st.sets(points)))
        for a in draw(st.lists(st.sets(points, max_size=2), max_size=3))
    }
    return TreeCondition(trunk, draw(st.integers(0, 3)), successors)
