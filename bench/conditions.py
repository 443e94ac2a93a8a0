"""Frozen, seeded generators of universes, conditions and index sets.

These are copies of the logic of the test helpers in `tests/conftest.py`
and `tests/test_projection.py`, kept here so that a later edit to a test
cannot silently change a benchmark workload. Importing this module imports
the layers it needs, so a workload imports it during its set-up.
"""

from __future__ import annotations

import functools

from ordbench.errors import (
    AlreadyUnveiled,
    LargenessViolated,
    OutOfRange,
    RepairImpossible,
    WitnessUnavailable,
)
from ordbench.magidor import Block, MagidorCondition, extend, extend_minimal, gamma_of, unveil_type
from ordbench.ordinal import OMEGA, ZERO, add, from_int, mul_nat, omega_power, parse_ordinal
from ordbench.oset import OrdinalSet
from ordbench.projection import IndexSet, densify
from ordbench.universe import ToyUniverse

UNIVERSES = {
    lam: ToyUniverse(parse_ordinal(lam), parse_ordinal("w")) for lam in ("w^2", "w^3", "w^3*2+w")
}


@functools.cache
def grid(lambda0):
    """A fixed grid of ordinals w^3*a + w^2*b + w*c + d below lambda0."""
    w2, w3 = omega_power(from_int(2)), omega_power(from_int(3))
    points = {
        add(add(mul_nat(w3, a3), mul_nat(w2, a2)), add(mul_nat(OMEGA, a1), from_int(a0)))
        for a3 in range(4)
        for a2 in range(6)
        for a1 in range(6)
        for a0 in range(8)
    }
    return sorted(g for g in points if g < lambda0)[:120]


def canonical_condition(u, kappas):
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


def root_condition(u):
    """Blocks at the partial sums of the CNF of lambda0."""
    roots = []
    acc = ZERO
    for e, c in u.lambda0.terms:
        for _ in range(c):
            acc = add(acc, omega_power(e))
            roots.append(acc)
    return canonical_condition(u, roots[:-1])


def random_extension(p, rng, max_points=3):
    """A valid extension by a few randomly placed stratum points, or p."""
    u = p.universe
    gaps = []
    for i in range(1, len(p.blocks) + 1):
        pts = []
        b = p.blocks[i - 1]
        ob = u.o(b.kappa)
        if b.measure_set is not None and not ob.is_zero and rng.random() < 0.7:
            floor = p.blocks[i - 2].kappa if i >= 2 else None
            for _ in range(rng.randrange(1, max_points + 1)):
                xi = from_int(rng.randrange(ob.as_int()))
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


def random_condition(u, rng, max_steps=3):
    p = root_condition(u)
    for _ in range(rng.randrange(max_steps + 1)):
        p = random_extension(p, rng, max_points=2)
    return p


def random_iset(u, rng):
    """A few random intervals and a singleton, closed below their sup."""
    dom = grid(u.lambda0)
    s = OrdinalSet.empty()
    for _ in range(rng.randrange(1, 4)):
        a, b = sorted(rng.sample(dom, 2))
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


def projection_condition(u, I, rng, steps=2):
    """Unveil index-set coordinates only, re-densifying after each."""
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
            cur, _ = extend_minimal(cur, unveil_type(cur, cand))
            cur = densify(cur, I)
        except (AlreadyUnveiled, OutOfRange, WitnessUnavailable, RepairImpossible):
            continue
    return cur


def canonical_chain(u, rng, steps=2):
    """The root extended by unveiling a few random coordinates."""
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
        except (AlreadyUnveiled, OutOfRange, WitnessUnavailable):
            continue
    return p


def weakening(q, rng):
    """Keep a random subset of q's named points with full interval sets."""
    u = q.universe
    keep = [b for b in q.blocks[:-1] if rng.random() < 0.6]
    return canonical_condition(u, [b.kappa for b in keep])
