"""The canonical simulated generic sequence and the filter-reconstruction
predicate.  Over the canonical universe the sequence is the identity on
the ground set (restricted to an index set when simulating a subsequence),
so every membership and order-type question is decidable."""

from __future__ import annotations

from . import _Record, _set
from .errors import UniverseMismatch
from .magidor import Block, MagidorCondition, _check_same_universe, _points_in_blocks, leq, validate
from .ordinal import ZERO, Ordinal
from .oset import OrdinalSet

__all__ = ["CanonicalSequence", "in_filter", "interval_otp", "filter_pair_compatible"]


class CanonicalSequence(_Record):
    """C(g) = g for g < lambda0, optionally restricted to an index set."""

    __slots__ = ("lambda0", "restriction", "_points")

    def __init__(self, lambda0: Ordinal, restriction: OrdinalSet | None = None):
        _set(self, "lambda0", lambda0)
        _set(self, "restriction", restriction)
        base = OrdinalSet.interval(ZERO, lambda0)
        _set(self, "_points", base if restriction is None else base.intersect(restriction))

    def points(self) -> OrdinalSet:
        return self._points


def in_filter(p: MagidorCondition, seq: CanonicalSequence) -> bool:
    """Reconstruction predicate: the named points lie on the sequence and
    the remaining sequence points fall into the block sets, blockwise.

    Precondition: `p` must pass `validate`; on an invalid condition the
    answer is undefined, and the CLI refuses one with exit 2.
    """
    if p.universe.lambda0 != seq.lambda0:
        raise UniverseMismatch("sequence and condition ground sets differ")
    pts = seq.points()
    return all(b.kappa in pts for b in p.blocks[:-1]) and _points_in_blocks(p.blocks, pts)


def interval_otp(seq: CanonicalSequence, a: Ordinal, b: Ordinal) -> Ordinal:
    """Order type of the sequence points strictly between a and b."""
    if not a < b <= seq.lambda0:
        raise ValueError(f"need a < b <= {seq.lambda0}")
    return seq.points().otp(a.successor(), b)


def filter_pair_compatible(
    p: MagidorCondition, q: MagidorCondition, seq: CanonicalSequence
) -> bool:
    """Directedness witness: the blockwise-intersection condition extends
    both and stays in the filter."""
    _check_same_universe(p, q)
    if not (in_filter(p, seq) and in_filter(q, seq)):
        return False
    if p.top.kappa != q.top.kappa:
        return False
    u = p.universe
    named = sorted({b.kappa for b in p.blocks[:-1]} | {b.kappa for b in q.blocks[:-1]})
    p_sets = {b.kappa: b.measure_set for b in p.blocks}
    q_sets = {b.kappa: b.measure_set for b in q.blocks}

    def enclosing(cond: MagidorCondition, kappa: Ordinal) -> Block:
        return next(b for b in cond.blocks if b.kappa > kappa)

    blocks: list[Block] = []
    prev: Ordinal | None = None
    for kappa in named:
        if u.o(kappa).is_zero:
            blocks.append(Block(kappa))
        else:
            sp = p_sets.get(kappa) or enclosing(p, kappa).measure_set
            sq = q_sets.get(kappa) or enclosing(q, kappa).measure_set
            if sp is None or sq is None:
                return False
            s = sp.intersect(sq)
            s = s.restrict_below(kappa) if prev is None else s.between(prev, kappa)
            blocks.append(Block(kappa, s))
        prev = kappa
    top_set = p.top.measure_set.intersect(q.top.measure_set)
    if prev is not None:
        top_set = top_set.restrict_above(prev)
    blocks.append(Block(p.top.kappa, top_set))
    merged = MagidorCondition(u, tuple(blocks))
    return (
        not validate(merged)
        and leq(p, merged)
        and leq(q, merged)
        and in_filter(merged, seq)
    )
