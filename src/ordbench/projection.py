"""The subsequence forcing: index recursion, projection, the dense set of
correctly-linked conditions, densification, and the onto/lift halves of
the projection lemma."""

from __future__ import annotations

from bisect import bisect_left

from . import _Record, _set
from .errors import (
    IndexSetMismatch,
    LargenessViolated,
    NonTermination,
    NotAnExtension,
    NotIncreasing,
    PointNotInMeasureSet,
    RepairImpossible,
    WitnessUnavailable,
    WorkbenchError,
)
from .magidor import (
    Block,
    MagidorCondition,
    _block_violations,
    _check_same_universe,
    _inherits,
    _least_witnesses,
    _order_walk,
    _points_in_blocks,
    _set_violations,
    extend,
    extend_minimal,
    leq,
    unveil_type,
    validate,
)
from .ordinal import ZERO, Ordinal, add, cnf_difference, omega_power
from .oset import OrdinalSet
from .universe import ToyUniverse, _remember

__all__ = [
    "IndexSet",
    "ICondition",
    "DFailure",
    "index_of",
    "index_chain",
    "pi",
    "validate_I",
    "leq_I",
    "leq_I_star",
    "in_D",
    "densify",
    "onto_construct",
    "lift",
    "correct_computation_check",
    "refine_to_clubs",
    "quotient_member",
]

DENSIFY_CAP = 200
CLUB_REFINE_CAP = 200

# The positions of `IndexSet.position` other than a predecessor ordinal.
OUT = "out"  # not a member
LIM = "lim"  # a member whose predecessors in the set are cofinal below it
OPEN = "open"  # a member whose predecessors have an unattained supremum


class IndexSet(_Record):
    """A subset of the ground order type, with one position per point.

    `position(g)` is `OUT` for a non-member, `LIM` for a limit position
    (0 included), and for a successor position its predecessor in the set,
    0 below the least member, or `OPEN` when the members below g have an
    unattained supremum, which only happens for index sets that are not
    closed below their sup.

    The projection asks one index set the same questions many times, so
    it keeps its answers, each memo at most `universe._MEMO_SIZE` entries:
    `_positions` maps a point to its position, `_chains` maps the o-values
    of a block sequence to its index chain, and `_gaps` maps a successor
    member to `gap_levels`. None takes part in `==`, `hash` or `repr`."""

    __slots__ = ("points", "_positions", "_chains", "_gaps")

    def __init__(self, points: OrdinalSet):
        _set(self, "points", points)
        for memo in ("_positions", "_chains", "_gaps"):
            _set(self, memo, {})

    def position(self, g: Ordinal) -> Ordinal | str:
        try:
            return self._positions[g]
        except KeyError:
            pass
        if g not in self.points:
            pos = OUT
        elif (s := self.points.sup_below(g)) is None:
            pos = LIM if g.is_zero else ZERO
        else:
            pos = LIM if s[0] >= g else s[0] if s[1] else OPEN
        return _remember(self._positions, g, pos)

    def __contains__(self, g: Ordinal) -> bool:
        return self.position(g) is not OUT

    def gap_levels(self, c: Ordinal) -> tuple[Ordinal, ...]:
        """The levels of the stratum witnesses that fill the gap up to c
        from its predecessor: `cnf_difference(pred, c)` without its last
        exponent. Defined for a successor position with a predecessor."""
        try:
            return self._gaps[c]
        except KeyError:
            return _remember(self._gaps, c, tuple(cnf_difference(self.position(c), c)[:-1]))


class ICondition(_Record):
    """Same block shape as a plain condition; sets live at Lim positions."""

    __slots__ = ("universe", "index_set", "blocks", "_violations")  # what `validate_I` found

    def __init__(self, universe: ToyUniverse, index_set: IndexSet, blocks: tuple[Block, ...]):
        _set(self, "universe", universe)
        _set(self, "index_set", index_set)
        _set(self, "blocks", blocks)
        _set(self, "_violations", None)

    @property
    def top(self) -> Block:
        return self.blocks[-1]


def _check_compatible(p: ICondition, q: ICondition):
    _check_same_universe(p, q)
    if p.index_set != q.index_set:
        raise IndexSetMismatch("conditions carry different index sets")


# ---------------------------------------------------------------------------
# Index recursion and projection
# ---------------------------------------------------------------------------


def index_chain(cond: MagidorCondition | ICondition, I: IndexSet) -> list[Ordinal | None]:
    """I(t_i, p) for the non-top blocks; None encodes N/A and propagates.

    A point beyond the ground set is N/A and leaves the recursion where it
    was, as `magidor._block_violations` leaves the previous point."""
    u = cond.universe
    # The recursion reads only the o-values, so they key I's memo.
    key = tuple(None if b.kappa > u.lambda0 else u.o(b.kappa) for b in cond.blocks[:-1])
    chain = I._chains.get(key)
    if chain is None:
        vals: list[Ordinal | None] = []
        prev: Ordinal | None = ZERO
        for xi in key:
            if prev is None or xi is None:
                vals.append(None)
                continue
            prev = I.points.min_in_level_above(xi, prev)
            vals.append(prev)
        chain = _remember(I._chains, key, tuple(vals))
    return list(chain)


def index_of(cond: MagidorCondition | ICondition, i: int, I: IndexSet) -> Ordinal | None:
    """The coordinate the i-th block unveils in the subsequence, or N/A."""
    if not 1 <= i <= len(cond.blocks) - 1:
        raise ValueError(f"block index {i} out of 1..{len(cond.blocks) - 1}")
    return index_chain(cond, I)[i - 1]


def pi(p: MagidorCondition, I: IndexSet) -> ICondition:
    """Keep blocks at I-coordinates, strip sets at successor positions.

    Precondition: `p` must pass `validate`; on an invalid condition the
    answer is undefined, and the CLI refuses one with exit 2.
    """
    kept = [
        b if pos is LIM else Block(b.kappa)
        for b, c in zip(p.blocks[:-1], p.gammas)
        if (pos := I.position(c)) is not OUT
    ]
    kept.append(p.top)
    return ICondition(p.universe, I, tuple(kept))


# ---------------------------------------------------------------------------
# Validity and the two orders of the subsequence forcing
# ---------------------------------------------------------------------------


def validate_I(q: ICondition) -> list[str]:
    """All violations of the subsequence-condition shape: the block walk of
    `magidor.validate` with the top's set clause and, below the top, the
    clauses of successor (2.a) and limit (2.b) positions. q keeps them, and
    each call returns a fresh list."""
    if q._violations is None:
        _set(q, "_violations", tuple(_violations_I(q)))
    return list(q._violations)


def _violations_I(q: ICondition) -> list[str]:
    u, I = q.universe, q.index_set
    chain = index_chain(q, I)
    idx: Ordinal | None = ZERO  # I(t, q) of the last block walked; None is N/A

    def own(i: int, b: Block, prev_kappa: Ordinal | None) -> list[str]:
        nonlocal idx
        if i == len(q.blocks):
            if b.measure_set is None:
                return ["top block needs a measure set"]
            return _set_violations(u, b, prev_kappa)
        prev_idx, c = idx, chain[i - 1]
        idx = c
        if c is None:
            return ["index recursion undefined (N/A)"]
        out = []
        pos = I.position(c)
        if pos is not LIM:
            if b.measure_set is not None:
                out.append("successor-position block must be bare (2.a.i)")
            if pos is OPEN:
                out.append(f"predecessor of {c} unattained in the index set")
            elif pos != prev_idx:
                out.append(
                    f"predecessor linkage fails (2.a.ii): "
                    f"pred({c})={pos} but previous index is {prev_idx}"
                )
            elif _least_witnesses(I.gap_levels(c), prev_kappa, below=b.kappa) is None:
                out.append("no stratum witness tuple (2.a.iii)")
            return out
        if b.measure_set is None:
            out.append("limit-position block needs a measure set (2.b.i)")
        else:
            out += _set_violations(u, b, prev_kappa)
        ob = u.o(b.kappa)
        want = add(prev_idx, omega_power(ob))
        if want != c:
            out.append(
                f"gap equation fails (2.b.ii): "
                f"{prev_idx} + w^{ob} = {want} != {c}"
            )
        return out

    return _block_violations(q, own)


def leq_I(p: ICondition, q: ICondition) -> bool:
    """Order of the subsequence forcing: q extends p.

    Precondition: `p` and `q` must pass `validate_I`; on an invalid condition the
    answer is undefined, and the CLI refuses one with exit 2.
    """
    _check_compatible(p, q)
    I = p.index_set
    chain = index_chain(q, I)

    def admits(j: int, qb: Block, enclosing: Block) -> bool:
        c = chain[j]
        if c is None:
            return False
        pos = I.position(c)
        if pos is LIM:
            return qb.measure_set is not None and _inherits(qb, enclosing)
        if pos is OPEN:  # no predecessor to fill the gap from: q fails 2.a.ii
            return False
        prev_kappa = q.blocks[j - 1].kappa if j >= 1 else None
        return (_least_witnesses(I.gap_levels(c), prev_kappa, enclosing.measure_set, qb.kappa)
                is not None)

    return _order_walk(p, q, admits) is not None


def leq_I_star(p: ICondition, q: ICondition) -> bool:
    return len(p.blocks) == len(q.blocks) and leq_I(p, q)


# ---------------------------------------------------------------------------
# The dense set D and densification
# ---------------------------------------------------------------------------


class DFailure(_Record):
    """Maximal failing projected block, the violated clause, and the repair."""

    __slots__ = ("block_index", "coordinate", "clause", "repair")

    def __init__(self, block_index: int, coordinate: Ordinal, clause: int, repair: Ordinal | None):
        _set(self, "block_index", block_index)
        _set(self, "coordinate", coordinate)
        _set(self, "clause", clause)  # 1 = limit linkage, 2 = successor linkage
        _set(self, "repair", repair)


def in_D(p: MagidorCondition, I: IndexSet) -> DFailure | None:
    """None when p is correctly linked; otherwise the maximal failure.

    Precondition: `p` must pass `validate`; on an invalid condition the
    answer is undefined, and the CLI refuses one with exit 2.
    """
    coords = p.gammas
    failure: DFailure | None = None
    prev_proj = ZERO
    for i in range(1, len(p.blocks)):
        c = coords[i - 1]
        pos = I.position(c)
        if pos is OUT:
            continue
        before = coords[i - 2] if i >= 2 else ZERO
        if pos is LIM:
            if prev_proj != before:
                m = I.points.min_above(before)  # at most c, which is in I
                failure = DFailure(i, c, 1, m if m < c else None)
        elif pos is OPEN:
            failure = DFailure(i, c, 2, None)
        elif prev_proj != pos:
            failure = DFailure(i, c, 2, pos)
        prev_proj = c
    return failure


def densify(p: MagidorCondition, I: IndexSet) -> MagidorCondition:
    """Extend p into the correctly-linked dense set.

    Repairs the maximal failure each pass: a limit-linkage failure unveils
    the least index-set element below the failing coordinate, a successor
    failure unveils the predecessor; the failing coordinate must strictly
    decrease between passes.

    Precondition: `p` must pass `validate`; on an invalid condition the
    answer is undefined, and the CLI refuses one with exit 2.
    """
    cur = p
    prev_measure: Ordinal | None = None
    for _ in range(DENSIFY_CAP):
        failure = in_D(cur, I)
        if failure is None:
            return cur
        if prev_measure is not None and failure.coordinate >= prev_measure:
            raise NonTermination(
                f"failing coordinate did not decrease: {failure.coordinate}"
            )
        prev_measure = failure.coordinate
        if failure.repair is None:
            raise RepairImpossible(
                f"no repair coordinate for the failure at block {failure.block_index}"
            )
        xtype = unveil_type(cur, failure.repair)
        try:
            cur, _ = extend_minimal(cur, xtype)
        except WitnessUnavailable as err:
            raise RepairImpossible(str(err)) from err
    raise NonTermination(f"densification did not stabilize in {DENSIFY_CAP} passes")


# ---------------------------------------------------------------------------
# The projection lemma: onto, lift, correctness of the computed indices
# ---------------------------------------------------------------------------


def _witness_blocks(
    u: ToyUniverse, levels, floor: Ordinal | None, point: Ordinal,
) -> list[Block]:
    """Blocks at the least stratum witnesses of `levels` between floor and
    point, then at point itself.

    Each positive-order block carries the canonical large set at its point:
    the whole open interval above the block before it."""
    out: list[Block] = []
    for w in _least_witnesses(levels, floor, None, point) + [point]:
        lo = ZERO if floor is None else floor.successor()
        out.append(Block(w) if u.o(w).is_zero else Block(w, OrdinalSet.interval(lo, w)))
        floor = w
    return out


def onto_construct(q: ICondition) -> MagidorCondition:
    """A correctly-linked preimage of q under the projection."""
    problems = validate_I(q)
    if problems:
        raise LargenessViolated("; ".join(problems))
    u, I = q.universe, q.index_set
    chain = index_chain(q, I)
    new_blocks: list[Block] = []
    prev_kappa: Ordinal | None = None
    for b, c in zip(q.blocks[:-1], chain):
        if I.position(c) is LIM:
            new_blocks.append(b)
        else:
            # `validate_I`'s clause (2.a.iii) found these witnesses.
            new_blocks += _witness_blocks(u, I.gap_levels(c), prev_kappa, b.kappa)
        prev_kappa = b.kappa
    new_blocks.append(q.top)
    out = MagidorCondition(u, tuple(new_blocks))
    bad = validate(out)
    if bad:
        raise WitnessUnavailable("; ".join(bad))
    if pi(out, I) != q:
        raise WorkbenchError("projection of the construction differs from the input")
    if in_D(out, I) is not None:
        raise WorkbenchError("the construction is not in D")
    return out


def lift(p: MagidorCondition, q: ICondition) -> MagidorCondition:
    """Some p' extending p with pi(p') = q, for q extending pi(p).

    p' is p extended by the points q adds, each successor position of I
    preceded by its least stratum witnesses from the enclosing set, with
    q's sets at q's limit positions, at the points of p it keeps and at
    the top.

    Precondition: `p` must pass `validate` and `q` must pass `validate_I`;
    on an invalid condition the answer is undefined, and the CLI refuses
    one with exit 2.
    """
    I = q.index_set
    _check_same_universe(p, q)
    base = pi(p, I)
    if not leq_I(base, q):
        raise NotAnExtension("q does not extend the projection of p")
    kept = {b.kappa for b in base.blocks[:-1]}
    kappas = [b.kappa for b in p.blocks]
    gaps: list[list[Ordinal]] = [[] for _ in p.blocks]
    for qb, c in zip(q.blocks[:-1], index_chain(q, I)):
        if qb.kappa not in kept:
            # The gap of p below the first point at or above qb; a point
            # beyond the top lands in the top's gap, where `extend` refuses it.
            i = bisect_left(kappas, qb.kappa, 0, len(kappas) - 1)
            pts = gaps[i]
            floor = pts[-1] if pts else kappas[i - 1] if i else None
            if I.position(c) is not LIM:
                pts += _least_witnesses(
                    I.gap_levels(c), floor, p.blocks[i].measure_set,
                    qb.kappa, lambda xi, floor: WitnessUnavailable(
                        f"no level-{xi} witness below {qb.kappa} in the block set"),
                )
            pts.append(qb.kappa)
    shrink = {b.kappa: b.measure_set for b in q.blocks if b.measure_set is not None}
    try:
        out = extend(p, tuple(map(tuple, gaps)), shrink)
    except (NotIncreasing, PointNotInMeasureSet, LargenessViolated) as err:
        raise WitnessUnavailable(str(err)) from err
    if not leq(p, out):
        raise WitnessUnavailable("lift does not extend the base condition")
    if pi(out, I) != q:
        raise WitnessUnavailable("projection of the lift differs from the target")
    return out


def correct_computation_check(p: MagidorCondition, I: IndexSet) -> bool:
    """gamma and the index recursion agree on every projected block."""
    if in_D(p, I) is not None:
        return False
    chain = index_chain(pi(p, I), I)
    return chain == [c for c in p.gammas[:-1] if c in I]


# ---------------------------------------------------------------------------
# Club refinement and quotient membership
# ---------------------------------------------------------------------------


def refine_to_clubs(roots: list[Ordinal], cstar: OrdinalSet) -> list[Ordinal]:
    """Extend the fence until the set is empty or unbounded in every gap.

    `roots` must be strictly increasing; the last entry is the top bound.
    The set must be closed below its supremum.
    """
    if not roots or any(b <= a for a, b in zip(roots, roots[1:])):
        raise ValueError("roots must be strictly increasing and nonempty")
    s = cstar.sup()
    if s is not None and cstar.missing_limits(min(s[0], roots[-1].successor())):
        raise ValueError("the set is not closed below its supremum")
    fence = list(roots)
    prev_bad_top: Ordinal | None = None
    for _ in range(CLUB_REFINE_CAP):
        # The highest gap that the set meets without being unbounded in it.
        for i in range(len(fence) - 1, -1, -1):
            lo, hi = fence[i - 1] if i else ZERO, fence[i]
            gap_sup = cstar.restrict_above(lo).sup_below(hi)
            if gap_sup is not None and gap_sup[0] != hi:
                break
        else:
            return fence
        if prev_bad_top is not None and hi >= prev_bad_top:
            raise NonTermination("maximal bad interval did not move down")
        prev_bad_top = hi
        sup_val, attained = gap_sup
        if not attained:
            raise ValueError("segment supremum unattained; the set is not closed")
        acc = lo
        addition: list[Ordinal] = []
        for e in cnf_difference(lo, sup_val):
            acc = add(acc, omega_power(e))
            addition.append(acc)
        fence = fence[:i] + addition + fence[i:]
    raise NonTermination(f"club refinement did not stabilize in {CLUB_REFINE_CAP} passes")


def _succ_gap_candidates(I: IndexSet, lo: Ordinal, hi: Ordinal) -> list[Ordinal]:
    """Successor-position members of I in (lo, hi) on which clause (c) can
    fail: first members of the index-set pieces (consecutive members inside
    a piece differ by a single power), and the least member above the least
    limit I lacks, whose predecessors have no greatest element."""
    out = []
    window = I.points.between(lo, hi)
    for p in window.pieces:
        if I.position(p.lo) not in (OUT, LIM):
            out.append(p.lo)
    lacking = window.missing_limits(hi).min_element()
    g = window.min_above(lacking) if lacking is not None else None
    if g is not None and g not in out:
        out.append(g)
    return out


def quotient_member(p: MagidorCondition, I: IndexSet) -> bool:
    """Whether the projection of p joins the simulated subsequence filter,
    the canonical sequence restricted to I; membership follows the
    reconstruction clauses."""
    q = pi(p, I)
    if validate_I(q):
        return False
    chain = index_chain(q, I)
    # (a) every projected block sits at its own coordinate
    for j, b in enumerate(q.blocks[:-1]):
        if chain[j] != b.kappa:
            return False
    # (b) members of the restricted sequence fall into the block sets
    if not _points_in_blocks(q.blocks, I.points):
        return False
    # (c) successor members with composite gaps have stratum witnesses in
    # the enclosing block set
    prev = None
    for b in q.blocks:
        if b.measure_set is not None:
            lo = prev if prev is not None else ZERO
            for cand in _succ_gap_candidates(I, lo, b.kappa):
                pred = I.position(cand)
                if pred is OPEN:
                    return False
                if _least_witnesses(I.gap_levels(cand), pred, b.measure_set, cand) is None:
                    return False
        prev = b.kappa
    return True
