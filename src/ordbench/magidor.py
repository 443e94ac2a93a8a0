"""Forcing conditions over a toy universe: finite block sequences with
measure-one candidate sets, the two orders, step extensions, extension
types and the coordinate calculus."""

from __future__ import annotations

from . import _Record, _set
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
)
from .ordinal import ZERO, Ordinal, add, cnf_difference, least_in_level, omega_power
from .oset import OrdinalSet
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


class Block(_Record):
    """A named point with its candidate set (present iff o(kappa) > 0)."""

    __slots__ = ("kappa", "measure_set")

    def __init__(self, kappa: Ordinal, measure_set: OrdinalSet | None = None):
        _set(self, "kappa", kappa)
        _set(self, "measure_set", measure_set)


class ExtensionType(_Record):
    """Per-gap finite sequences of measure indices governing an extension."""

    __slots__ = ("per_block",)

    def __init__(self, per_block: tuple[tuple[Ordinal, ...], ...]):
        _set(self, "per_block", per_block)

    def __str__(self) -> str:
        gaps = ",".join("<" + ",".join(str(x) for x in xs) + ">" for xs in self.per_block)
        return f"<{gaps}>"


class MagidorCondition(_Record):
    """Blocks in increasing kappa order; the last block is the top pair."""

    __slots__ = ("universe", "blocks", "_gammas")  # `_gammas`: `gammas`, once asked

    def __init__(self, universe: ToyUniverse, blocks: tuple[Block, ...]):
        _set(self, "universe", universe)
        _set(self, "blocks", blocks)
        _set(self, "_gammas", None)

    @property
    def top(self) -> Block:
        return self.blocks[-1]

    def o(self, i: int) -> Ordinal:
        """o-value of the 1-based i-th block."""
        return self.universe.o(self.blocks[i - 1].kappa)

    @property
    def gammas(self) -> tuple[Ordinal, ...]:
        """Coordinates of all blocks: gammas[i-1] = sum of w^o(t_j), j <= i."""
        if self._gammas is None:
            out = []
            total = ZERO
            for i in range(1, len(self.blocks) + 1):
                total = add(total, omega_power(self.o(i)))
                out.append(total)
            _set(self, "_gammas", tuple(out))
        return self._gammas


def _check_same_universe(p: MagidorCondition, q: MagidorCondition):
    if p.universe != q.universe:
        raise UniverseMismatch("conditions live over different universes")


def _set_violations(u: ToyUniverse, b: Block, prev: Ordinal | None) -> list[str]:
    """The measure-set clause of both forcings: the set of b lies below its
    point and above the previous one, is large at every index (vacuous
    when o(kappa) = 0) and is star-closed."""
    out = []
    B = b.measure_set
    if not B.is_below(b.kappa):
        out.append("measure set not below its point")
    if prev is not None:
        low = B.min_element()
        if low is not None and low <= prev:
            out.append("min of measure set not above previous point")
    if not u.is_large_all(B, b.kappa):
        out.append("measure set not large at every index")
    elif not u.is_star_closed(B, b.kappa):
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


def _order_walk(p, q, admits) -> list[list[Ordinal]] | None:
    """The order clauses both forcings share, in one pass over q's non-top
    blocks with a pointer on p's blocks.  q keeps p's top with a shrunk set.
    A q block at the pointer's named point keeps it, bare or not as in p,
    with a shrunk set, and moves the pointer on; any other q block is new:
    it lies in the set of the block under the pointer (the first point of p
    above it) and passes `admits(j, qb, enclosing)`.  The points q adds in
    each gap of p, or None when a clause fails or a named point of p is
    never reached."""
    if p.top.kappa != q.top.kappa or not q.top.measure_set.issubset(p.top.measure_set):
        return None
    named = len(p.blocks) - 1
    added: list[list[Ordinal]] = [[] for _ in p.blocks]
    r = 0
    for j, qb in enumerate(q.blocks[:-1]):
        b = p.blocks[r]
        if r < named and qb.kappa == b.kappa:
            if (b.measure_set is None) != (qb.measure_set is None):
                return None
            if b.measure_set is not None and not qb.measure_set.issubset(b.measure_set):
                return None
            r += 1
        elif b.measure_set is None or qb.kappa not in b.measure_set or not admits(j, qb, b):
            return None
        else:
            added[r].append(qb.kappa)
    return added if r == named else None


def _inherits(qb: Block, enclosing: Block) -> bool:
    """The set of a new block is drawn from its enclosing set below it."""
    return qb.measure_set.is_below(qb.kappa) and qb.measure_set.issubset(enclosing.measure_set)


def _added_points(p: MagidorCondition, q: MagidorCondition) -> list[list[Ordinal]] | None:
    """The Magidor order: the points q adds in each gap of p, or None when
    q does not extend p."""
    _check_same_universe(p, q)
    o = p.universe.o

    def admits(j: int, qb: Block, enclosing: Block) -> bool:
        if o(qb.kappa) >= o(enclosing.kappa):
            return False
        return qb.measure_set is None or _inherits(qb, enclosing)

    return _order_walk(p, q, admits)


def leq(p: MagidorCondition, q: MagidorCondition) -> bool:
    """Forcing order: q extends p.

    Precondition: `p` and `q` must pass `validate`; on an invalid condition the
    answer is undefined, and the CLI refuses one with exit 2.
    """
    return _added_points(p, q) is not None


def leq_star(p: MagidorCondition, q: MagidorCondition) -> bool:
    """Direct extension: same length."""
    return len(p.blocks) == len(q.blocks) and leq(p, q)


def gamma_of(p: MagidorCondition, i: int) -> Ordinal:
    """Coordinate of the i-th point in every extension: sum of w^o(t_j), j<=i.

    Precondition: `p` must pass `validate`; on an invalid condition the
    answer is undefined, and the CLI refuses one with exit 2.
    """
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
        ohi = p.universe.o(hi)
        prev = lo
        for a in pts:
            if prev is not None and a <= prev:
                raise NotIncreasing(f"gap {i}: point {a} not above {prev}")
            if a >= hi:
                raise NotIncreasing(f"gap {i}: point {a} not below {hi}")
            if a not in B:
                raise PointNotInMeasureSet(f"gap {i}: point {a} outside the block set")
            if p.universe.o(a) >= ohi:
                raise LargenessViolated(
                    f"gap {i}: point {a} has order >= o({hi})"
                )
            prev = a


def type_of(p: MagidorCondition, alphas: Alphas) -> ExtensionType:
    """The extension type determined by an interleaving assignment.

    Precondition: `p` must pass `validate`; on an invalid condition the
    answer is undefined, and the CLI refuses one with exit 2.
    """
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

    def place(b: Block) -> None:
        if shrink and b.kappa in shrink:
            if b.measure_set is None:
                raise LargenessViolated(f"cannot shrink bare block {b.kappa}")
            if not shrink[b.kappa].issubset(b.measure_set):
                raise LargenessViolated(f"shrink at {b.kappa} is not a subset")
            b = Block(b.kappa, shrink[b.kappa])
        new_blocks.append(b)

    for i, b in enumerate(p.blocks, start=1):
        pts = alphas[i - 1]
        prev, _ = _gap_bounds(p, i)
        for a in pts:
            if u.o(a).is_zero:
                place(Block(a))
            else:
                place(Block(a, b.measure_set.restrict_below(a) if prev is None
                          else b.measure_set.between(prev, a)))
            prev = a
        # `_check_alphas` refused points below a bare block.
        place(Block(b.kappa, b.measure_set.restrict_above(pts[-1])) if pts else b)
    out = MagidorCondition(u, tuple(new_blocks))
    problems = validate(out)
    if problems:
        raise LargenessViolated("; ".join(problems))
    return out


def find_type(
    p: MagidorCondition, q: MagidorCondition
) -> tuple[ExtensionType, Alphas]:
    """The unique (type, assignment) with extend(p, assignment) <=* q.

    Precondition: `p` and `q` must pass `validate`; on an invalid condition the
    answer is undefined, and the CLI refuses one with exit 2.
    """
    added = _added_points(p, q)
    if added is None:
        raise NotAnExtension("q does not extend p")
    alphas = tuple(map(tuple, added))
    return type_of(p, alphas), alphas


def unveil_type(p: MagidorCondition, gamma: Ordinal) -> ExtensionType:
    """The type unveiling gamma as maximal coordinate.

    Precondition: `p` must pass `validate`; on an invalid condition the
    answer is undefined, and the CLI refuses one with exit 2.
    """
    coords = p.gammas
    if gamma in coords:
        raise AlreadyUnveiled(f"{gamma} is already a block coordinate")
    if gamma.is_zero or gamma > coords[-1]:
        raise OutOfRange(f"{gamma} is not between block coordinates")
    slot = next(i for i, c in enumerate(coords) if gamma < c)  # 0-based gap
    base = coords[slot - 1] if slot else ZERO
    per = [()] * len(p.blocks)
    # gamma < base + w^o(slot + 1), so each exponent is below that order.
    per[slot] = tuple(cnf_difference(base, gamma))
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
        if b.measure_set is None:
            # (prev, prev + 1) holds no ordinal, so needs no query.
            low = None if b.kappa == prev.successor() else pts.min_above(prev)
            if low is not None and low < b.kappa:
                return False
        elif not pts.issubset(b.measure_set, prev.successor(), b.kappa):
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
                f"gap {i}: no level-{xi} point"
                f"{'' if floor is None else f' above {floor}'} in the block set"),
        )
        gaps.append(tuple(picked))
    alphas = tuple(gaps)
    return extend(p, alphas), alphas


def split_at(
    p: MagidorCondition, i: int
) -> tuple[MagidorCondition, MagidorCondition | None]:
    """Lower part up to block i (as its top) and the part above it.

    Precondition: `p` must pass `validate`; on an invalid condition the
    answer is undefined, and the CLI refuses one with exit 2.
    """
    if not 1 <= i <= len(p.blocks):
        raise BadCut(f"block index {i} out of range")
    if p.o(i).is_zero:
        raise BadCut(f"block {i} has zero order and cannot serve as a top")
    lower = MagidorCondition(p.universe, p.blocks[:i])
    if i == len(p.blocks):
        return lower, None
    cut = p.blocks[i - 1].kappa
    upper_blocks = tuple(
        b if b.measure_set is None else Block(b.kappa, b.measure_set.restrict_above(cut))
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
