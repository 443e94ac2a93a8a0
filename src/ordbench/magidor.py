"""Forcing conditions over a toy universe: finite block sequences with
measure-one candidate sets, the two orders, step extensions, extension
types and the coordinate calculus."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    AlreadyUnveiled,
    BadCut,
    LargenessViolated,
    NotAnExtension,
    NotIncreasing,
    OutOfRange,
    PointNotInMeasureSet,
    UniverseMismatch,
    WitnessUnavailable,
    WorkbenchError,
)
from .ordinal import ZERO, Ordinal, add, cnf_difference, omega_power
from .oset import OrdinalSet, least_in_level
from .universe import ToyUniverse

__all__ = [
    "Block",
    "MagidorCondition",
    "ExtensionType",
    "validate",
    "leq",
    "leq_star",
    "gamma_of",
    "type_of",
    "extend",
    "find_type",
    "unveil_type",
    "extend_minimal",
    "split_at",
    "join",
]

Alphas = tuple[tuple[Ordinal, ...], ...]


@dataclass(frozen=True)
class Block:
    """A named point with its candidate set (present iff o(kappa) > 0)."""

    kappa: Ordinal
    measure_set: OrdinalSet | None = None


@dataclass(frozen=True)
class ExtensionType:
    """Per-gap finite sequences of measure indices governing an extension."""

    per_block: tuple[tuple[Ordinal, ...], ...]

    def total_length(self) -> int:
        return sum(len(x) for x in self.per_block)

    def is_empty(self) -> bool:
        return self.total_length() == 0

    def __str__(self) -> str:
        gaps = ",".join("<" + ",".join(str(x) for x in xs) + ">" for xs in self.per_block)
        return f"<{gaps}>"


@dataclass(frozen=True)
class MagidorCondition:
    """Blocks in increasing kappa order; the last block is the top pair."""

    universe: ToyUniverse
    blocks: tuple[Block, ...]

    @property
    def top(self) -> Block:
        return self.blocks[-1]

    def __len__(self) -> int:
        return len(self.blocks)

    def o(self, i: int) -> Ordinal:
        """o-value of the 1-based i-th block."""
        return self.universe.o(self.blocks[i - 1].kappa)

    @cached_property
    def gammas(self) -> tuple[Ordinal, ...]:
        """Coordinates of all blocks: gammas[i-1] = sum of w^o(t_j), j <= i."""
        out = []
        total = ZERO
        for i in range(1, len(self.blocks) + 1):
            total = add(total, omega_power(self.o(i)))
            out.append(total)
        return tuple(out)


def _check_same_universe(p: MagidorCondition, q: MagidorCondition):
    if p.universe != q.universe:
        raise UniverseMismatch("conditions live over different universes")


def _set_violations(u: ToyUniverse, b: Block, prev: Ordinal | None) -> list[str]:
    """The measure-set clause of both forcings: the set of b lies below its
    point and above the previous one, is large at every index (vacuous
    when o(kappa) = 0) and is star-closed."""
    out = []
    B = b.measure_set
    if B.restrict_below(b.kappa) != B:
        out.append("measure set not below its point")
    if prev is not None:
        low = B.min_element()
        if low is not None and low <= prev:
            out.append("min of measure set not above previous point")
    if not u.is_large_all(B, b.kappa):
        out.append("measure set not large at every index")
    elif u.star_closure(B, b.kappa) != B:
        out.append("measure set not in stratified (star-closed) form")
    return out


def _block_violations(cond, own) -> list[str]:
    """The block-shape clauses of both forcings, each block tagged once.

    A point beyond the ground set is reported alone and does not become
    the previous point; for a point in the ground set the walk checks
    that the points increase and that the top has positive order, then
    adds the forcing's own messages `own(i, b, prev)`."""
    if not cond.blocks:
        return ["condition has no blocks"]
    u = cond.universe
    out: list[str] = []
    prev: Ordinal | None = None
    for i, b in enumerate(cond.blocks, start=1):
        if b.kappa > u.lambda0:
            found = ["point beyond the ground set"]
        else:
            found = []
            if prev is not None and b.kappa <= prev:
                found.append("kappas not increasing")
            if i == len(cond.blocks) and u.o(b.kappa).is_zero:
                found.append("top block needs positive limit order")
            found += own(i, b, prev)
            prev = b.kappa
        if found:
            tag = f"block {i} (kappa={b.kappa})"
            out += [f"{tag}: {m}" for m in found]
    return out


def validate(p: MagidorCondition) -> list[str]:
    """All violations of the condition shape; empty means valid."""
    u = p.universe

    def own(i: int, b: Block, prev: Ordinal | None) -> list[str]:
        bare = u.o(b.kappa).is_zero
        if b.measure_set is None:
            return [] if bare else ["positive-order point needs a measure set"]
        return (["zero-order point must be bare"] if bare else []) + _set_violations(u, b, prev)

    return _block_violations(p, own)


def _kept_named_points(p, q) -> list[int] | None:
    """The order clauses on what p already names, shared by both forcings:
    the same top with a shrunk top set, and each named point of p kept in
    q, bare or not as in p, with a shrunk set.  The positions in q of p's
    named points, or None when a clause fails."""
    if p.top.kappa != q.top.kappa:
        return None
    if not q.top.measure_set.difference(p.top.measure_set).is_empty():
        return None
    positions = {b.kappa: j for j, b in enumerate(q.blocks[:-1])}
    matched: list[int] = []
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


def _new_blocks_admitted(p, q, matched: list[int], admits) -> bool:
    """Each block of q that p does not name lies in the set of its
    enclosing p-block (the first named point above it, else the top) and
    passes `admits(j, qb, enclosing)`."""
    matched_set = set(matched)
    for j, qb in enumerate(q.blocks[:-1]):
        if j in matched_set:
            continue
        enclosing = next(
            (p.blocks[r] for r, mj in enumerate(matched) if mj > j), p.top
        )
        B = enclosing.measure_set
        if B is None or qb.kappa not in B:
            return False
        if not admits(j, qb, enclosing):
            return False
    return True


def _inherits(qb: Block, enclosing: Block) -> bool:
    """The set of a new block is drawn from its enclosing set below it."""
    allowed = enclosing.measure_set.restrict_below(qb.kappa)
    return qb.measure_set.difference(allowed).is_empty()


def leq(p: MagidorCondition, q: MagidorCondition) -> bool:
    """Forcing order: q extends p."""
    _check_same_universe(p, q)
    o = p.universe.o

    def admits(j: int, qb: Block, enclosing: Block) -> bool:
        if o(qb.kappa) >= o(enclosing.kappa):
            return False
        return qb.measure_set is None or _inherits(qb, enclosing)

    matched = _kept_named_points(p, q)
    return matched is not None and _new_blocks_admitted(p, q, matched, admits)


def leq_star(p: MagidorCondition, q: MagidorCondition) -> bool:
    """Direct extension: same length."""
    return len(p.blocks) == len(q.blocks) and leq(p, q)


def gamma_of(p: MagidorCondition, i: int) -> Ordinal:
    """Coordinate of the i-th point in every extension: sum of w^o(t_j), j<=i."""
    if not 1 <= i <= len(p.blocks):
        raise OutOfRange(f"block index {i} out of 1..{len(p.blocks)}")
    return p.gammas[i - 1]


def _gap_bounds(p: MagidorCondition, i: int) -> tuple[Ordinal | None, Ordinal]:
    """Open interval below the 1-based i-th block."""
    lo = p.blocks[i - 2].kappa if i >= 2 else None
    return lo, p.blocks[i - 1].kappa


def _check_alphas(p: MagidorCondition, alphas: Alphas) -> None:
    if len(alphas) != len(p.blocks):
        raise NotIncreasing(
            f"assignment has {len(alphas)} gaps, condition has {len(p.blocks)}"
        )
    for i, pts in enumerate(alphas, start=1):
        if not pts:
            continue
        lo, hi = _gap_bounds(p, i)
        B = p.blocks[i - 1].measure_set
        if B is None:
            raise PointNotInMeasureSet(f"gap {i} lies below a bare block")
        prev = lo
        for a in pts:
            if prev is not None and a <= prev:
                raise NotIncreasing(f"gap {i}: point {a} not above {prev}")
            if a >= hi:
                raise NotIncreasing(f"gap {i}: point {a} not below {hi}")
            if a not in B:
                raise PointNotInMeasureSet(f"gap {i}: point {a} outside the block set")
            if p.universe.o(a) >= p.universe.o(hi):
                raise LargenessViolated(
                    f"gap {i}: point {a} has order >= o({hi})"
                )
            prev = a


def type_of(p: MagidorCondition, alphas: Alphas) -> ExtensionType:
    """The extension type determined by an interleaving assignment."""
    _check_alphas(p, alphas)
    return ExtensionType(
        tuple(tuple(p.universe.o(a) for a in pts) for pts in alphas)
    )


def extend(
    p: MagidorCondition,
    alphas: Alphas,
    shrink: dict[Ordinal, OrdinalSet] | None = None,
) -> MagidorCondition:
    """The extension of p adding the assigned points, with inherited sets.

    New points inherit the enclosing block set truncated to the open
    interval they dominate; each invaded block set is cut above the last
    point inserted below it.  Optional shrink replaces the set at a named
    point (it must stay large and shrink the original).
    """
    _check_alphas(p, alphas)
    u = p.universe
    new_blocks: list[Block] = []
    for i, b in enumerate(p.blocks, start=1):
        pts = alphas[i - 1]
        lo, _ = _gap_bounds(p, i)
        prev = lo
        for a in pts:
            if u.o(a).is_zero:
                new_blocks.append(Block(a))
            else:
                inherited = b.measure_set.restrict_below(a)
                if prev is not None:
                    inherited = inherited.restrict_above(prev)
                new_blocks.append(Block(a, inherited))
            prev = a
        if pts and b.measure_set is not None:
            new_blocks.append(Block(b.kappa, b.measure_set.restrict_above(pts[-1])))
        else:
            new_blocks.append(b)
    if shrink:
        shrunk: list[Block] = []
        for b in new_blocks:
            if b.kappa in shrink:
                S = shrink[b.kappa]
                if b.measure_set is None:
                    raise LargenessViolated(f"cannot shrink bare block {b.kappa}")
                if not S.difference(b.measure_set).is_empty():
                    raise LargenessViolated(f"shrink at {b.kappa} is not a subset")
                shrunk.append(Block(b.kappa, S))
            else:
                shrunk.append(b)
        new_blocks = shrunk
    out = MagidorCondition(u, tuple(new_blocks))
    problems = validate(out)
    if problems:
        raise LargenessViolated("; ".join(problems))
    return out


def find_type(
    p: MagidorCondition, q: MagidorCondition
) -> tuple[ExtensionType, Alphas]:
    """The unique (type, assignment) with extend(p, assignment) <=* q."""
    if not leq(p, q):
        raise NotAnExtension("q does not extend p")
    p_kappas = {b.kappa for b in p.blocks[:-1]}
    gaps: list[list[Ordinal]] = [[] for _ in p.blocks]
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


def unveil_type(p: MagidorCondition, gamma: Ordinal) -> ExtensionType:
    """The type unveiling gamma as maximal coordinate."""
    coords = p.gammas
    if gamma in coords:
        raise AlreadyUnveiled(f"{gamma} is already a block coordinate")
    if gamma.is_zero or gamma > coords[-1]:
        raise OutOfRange(f"{gamma} is not between block coordinates")
    slot = next(i for i, c in enumerate(coords) if gamma < c)  # 0-based gap
    base = coords[slot - 1] if slot else ZERO
    if gamma < base:
        raise OutOfRange(f"{gamma} is below the preceding coordinate")
    exponents = tuple(cnf_difference(base, gamma))
    limit = p.o(slot + 1)
    if any(e >= limit for e in exponents):
        raise WorkbenchError(f"unveiling {gamma} needs an exponent at or above o = {limit}")
    per = [()] * len(p.blocks)
    per[slot] = exponents
    return ExtensionType(tuple(per))


def _least_witnesses(
    levels, floor: Ordinal | None, within: OrdinalSet | None = None,
    below: Ordinal | None = None, missing=None,
) -> list[Ordinal] | None:
    """The least increasing points with the given o-values, the first above
    floor (anywhere when None) and each below `below` when given, drawn
    from `within` (default: the whole ground).

    When some level has no such point, raise `missing(xi, floor)`, or
    return None when there is no `missing`.
    """
    out: list[Ordinal] = []
    for xi in levels:
        if within is None:
            w = least_in_level(xi, ZERO if floor is None else floor.successor())
        else:
            w = within.min_in_level(xi) if floor is None else within.min_in_level_above(xi, floor)
        if w is None or (below is not None and not w < below):
            if missing is None:
                return None
            raise missing(xi, floor)
        out.append(w)
        floor = w
    return out


def _points_in_blocks(blocks, pts: OrdinalSet) -> bool:
    """Blockwise, the points of pts in the open interval below a block
    (above the previous block, with a virtual block at 0 below everything,
    so 0 itself is never constrained) fall into its set; a bare block
    admits none."""
    prev = ZERO
    for b in blocks:
        seg = pts.restrict_above(prev).restrict_below(b.kappa)
        if b.measure_set is None:
            if not seg.is_empty():
                return False
        elif not seg.difference(b.measure_set).is_empty():
            return False
        prev = b.kappa
    return True


def extend_minimal(
    p: MagidorCondition, xtype: ExtensionType
) -> tuple[MagidorCondition, Alphas]:
    """Extend by the least admissible witnesses of the given type."""
    if len(xtype.per_block) != len(p.blocks):
        raise OutOfRange("type does not fit the condition")
    gaps: list[tuple[Ordinal, ...]] = []
    for i, levels in enumerate(xtype.per_block, start=1):
        if not levels:
            gaps.append(())
            continue
        b = p.blocks[i - 1]
        if b.measure_set is None:
            raise WitnessUnavailable(f"gap {i} lies below a bare block")
        lo, _ = _gap_bounds(p, i)
        picked = _least_witnesses(
            levels, lo, b.measure_set, missing=lambda xi, floor: WitnessUnavailable(
                f"gap {i}: no level-{xi} point above {floor} in the block set"),
        )
        gaps.append(tuple(picked))
    alphas = tuple(gaps)
    return extend(p, alphas), alphas


def split_at(
    p: MagidorCondition, i: int
) -> tuple[MagidorCondition, MagidorCondition | None]:
    """Lower part up to block i (as its top) and the part above it."""
    if not 1 <= i <= len(p.blocks):
        raise BadCut(f"block index {i} out of range")
    if p.o(i).is_zero:
        raise BadCut(f"block {i} has zero order and cannot serve as a top")
    lower = MagidorCondition(p.universe, p.blocks[:i])
    if i == len(p.blocks):
        return lower, None
    cut = p.blocks[i - 1].kappa
    upper_blocks = tuple(
        Block(b.kappa, None if b.measure_set is None else b.measure_set.restrict_above(cut))
        for b in p.blocks[i:]
    )
    return lower, MagidorCondition(p.universe, upper_blocks)


def join(
    lower: MagidorCondition, upper: MagidorCondition | None
) -> MagidorCondition:
    """Inverse of split_at."""
    if upper is None:
        return lower
    _check_same_universe(lower, upper)
    out = MagidorCondition(lower.universe, lower.blocks + upper.blocks)
    problems = validate(out)
    if problems:
        raise BadCut("; ".join(problems))
    return out
