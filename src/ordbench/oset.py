"""Finite interval-union sets of ordinals, with optional stratum filters.

An OrdinalSet is a sorted union of pieces [lo, hi).  A piece may carry a
level filter: a frozenset of allowed limit-orders, so that the piece
denotes {g in [lo, hi) | o_L(g) in levels} (with o_L(0) read as 0).
Plain pieces (levels=None) work anywhere below epsilon_0; filtered pieces
are confined to regions below w^w, where the set of feasible levels of an
interval is finite and enumerable.  All operations are exact.  The level
arithmetic (`olim`, `least_in_level`, `level_sup_below`,
`feasible_levels`) is the kernel's, in `ordinal.py`.  The least member of
a filtered span from lo on is lo itself or lo + w^xi for the least
allowed level xi, so one candidate decides it.

The stored pieces are canonical: equal sets have equal piece tuples, so
`==` compares pieces and `hash` hashes them.  The rule is greedy maximal
runs, read left to right.  Each piece starts at the least member not yet
covered and runs as far as one piece describes the set from there (a
plain piece anywhere, a filtered one below w^w); it ends just past its
greatest member, or at its supremum when that is not attained; its filter
holds exactly the levels it realizes, and is stored as plain when that is
every feasible level.  Equivalently, no single piece describes S ∩ [p.lo,
q.lo] for consecutive pieces p and q.

One left-to-right pass, `_settle`, puts sorted, disjoint spans in this
form.  It reduces each span and pins it to its least member and tight
end, then grows the current piece over the gap and the longest prefix of
the next span that one filter describes together with it (`_run`); the
rest of that span starts the next piece.  The boolean operations feed
the pass the spans of one merge of the two sorted piece lists; the
constructor, the union of its raw pieces, merges them pairwise the same
way.  A restriction feeds it only the cut piece, followed by the stored
pieces after it; once one of those starts a new piece unchanged, the
pass returns the rest verbatim.  `between` is the restriction below its
upper end, then above its lower end.

The queries answer from the stored pieces without building a set.
`issubset` merges the two piece lists, optionally inside a window, and
stops at the first point the other set does not cover; a span counts
only if it has a point (`_first_point`, the test `_normalize` drops
empty pieces by).  `is_below` reads the supremum.  `complement_limits`
finds the members at which the complement is cofinal: a filtered piece
holds them where a level under a point's own is left out, and a piece's
least member is one when a gap, or a filtered piece leaving such a level
out, comes right before it.  `missing_limits` is the one query that
builds a set: the complement limits of [0, top) minus the set.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import _Record, _set
from .errors import ParseError
from .ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    feasible_levels,
    from_int,
    least_in_level,
    left_subtract,
    level_sup_below,
    mul_nat,
    olim,
    omega_power,
    parse_ordinal,
)

__all__ = [
    "OrdinalSet",
    "Piece",
    "format_set",
    "parse_set",
]


class Piece(_Record):
    __slots__ = ("lo", "hi", "levels")

    def __init__(self, lo: Ordinal, hi: Ordinal, levels: frozenset[Ordinal] | None = None):
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "levels", levels)  # None = all levels

    def least_from(self, x: Ordinal) -> Ordinal | None:
        """Least element >= x."""
        return _first_point(x if x > self.lo else self.lo, self.hi, self.levels)

    def sup(self, hi: Ordinal | None = None) -> tuple[Ordinal, bool] | None:
        """(sup, attained) over the piece, or over its part below hi when
        hi < self.hi is given; None when that is empty."""
        if hi is None:
            hi = self.hi
        if hi <= self.lo:
            return None
        if self.levels is None:
            if hi.is_successor:
                return hi.predecessor(), True
            return hi, False
        best: tuple[Ordinal, bool] | None = None
        for xi in self.levels:
            s = level_sup_below(xi, hi)
            if s is None:
                continue
            val, att = s
            if att:
                if val < self.lo:
                    continue
                cand = (val, True)
            else:
                if self.lo >= val:
                    continue
                cand = (val, False)
            if best is None or cand[0] > best[0]:
                best = cand
            elif cand[0] == best[0] and cand[1]:
                best = (best[0], True)
        return best


class OrdinalSet(_Record):
    """Finite union of (optionally level-filtered) intervals, in canonical form."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: tuple[Piece, ...] = ()):
        object.__setattr__(self, "pieces", _normalize(tuple(pieces)))

    @classmethod
    def _of_normal(cls, pieces: tuple[Piece, ...]) -> "OrdinalSet":
        """Wrap pieces that are already in canonical form."""
        s = object.__new__(cls)
        object.__setattr__(s, "pieces", pieces)
        return s

    # -- constructors ------------------------------------------------------
    @staticmethod
    def empty() -> "OrdinalSet":
        return OrdinalSet(())

    @staticmethod
    def interval(lo: Ordinal, hi: Ordinal) -> "OrdinalSet":
        return OrdinalSet((Piece(lo, hi),))

    @staticmethod
    def singleton(g: Ordinal) -> "OrdinalSet":
        return OrdinalSet((Piece(g, g.successor()),))

    @staticmethod
    def of(*points: Ordinal) -> "OrdinalSet":
        return OrdinalSet(tuple(Piece(g, g.successor()) for g in points))

    @staticmethod
    def stratum_piece(lo: Ordinal, hi: Ordinal, xi: Ordinal) -> "OrdinalSet":
        return OrdinalSet((Piece(lo, hi, frozenset((xi,))),))

    # -- basics ------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, OrdinalSet):
            return NotImplemented
        return self.pieces == other.pieces

    def __hash__(self):
        return hash(self.pieces)

    def __bool__(self) -> bool:
        return bool(self.pieces)

    def is_empty(self) -> bool:
        return not self.pieces

    def __contains__(self, g: Ordinal) -> bool:
        for p in self.pieces:
            if g < p.hi:
                return p.lo <= g and (p.levels is None or olim(g) in p.levels)
        return False

    def __repr__(self):
        return f"OrdinalSet({format_set(self)!r})"

    # -- boolean algebra ---------------------------------------------------
    def union(self, other: "OrdinalSet") -> "OrdinalSet":
        return _combine(self, other, "union")

    def intersect(self, other: "OrdinalSet") -> "OrdinalSet":
        return _combine(self, other, "inter")

    def difference(self, other: "OrdinalSet") -> "OrdinalSet":
        return _combine(self, other, "diff")

    def restrict_below(self, b: Ordinal) -> "OrdinalSet":
        """self ∩ [0, b)."""
        pieces = self.pieces
        for i, p in enumerate(pieces):
            if p.hi > b:
                if p.lo >= b:
                    return OrdinalSet._of_normal(pieces[:i])
                # The pieces before p stay: what ended each lies at or
                # below p.lo, which stays a member.
                return OrdinalSet._of_normal(
                    pieces[:i] + _settle((Piece(p.lo, b, p.levels),))
                )
        return self

    def restrict_above(self, b: Ordinal) -> "OrdinalSet":
        """self ∩ (b, ∞)."""
        cut = b.successor()
        pieces = self.pieces
        for i, p in enumerate(pieces):
            if p.hi > cut:
                if p.lo >= cut:
                    return OrdinalSet._of_normal(pieces[i:])
                return OrdinalSet._of_normal(
                    _settle((Piece(cut, p.hi, p.levels),), pieces[i + 1 :])
                )
        return OrdinalSet._of_normal(())

    def between(self, a: Ordinal, b: Ordinal) -> "OrdinalSet":
        """self ∩ (a, b)."""
        return self.restrict_below(b).restrict_above(a)

    # -- queries -----------------------------------------------------------
    def issubset(self, other: "OrdinalSet", lo: Ordinal | None = None,
                 hi: Ordinal | None = None) -> bool:
        """Whether self ∩ [lo, hi) ⊆ other (unbounded where None): one merge
        of the two piece lists that stops at the first uncovered point."""
        theirs = other.pieces
        j = 0
        for p in self.pieces:
            if hi is not None and p.lo >= hi:
                break
            a = p.lo if lo is None or p.lo > lo else lo
            end = p.hi if hi is None or p.hi < hi else hi
            levels = p.levels
            # [a, end) is the part of p still to cover.
            while _first_point(a, end, levels) is not None:
                while j < len(theirs) and theirs[j].hi <= a:
                    j += 1
                q = theirs[j] if j < len(theirs) else None
                if q is None or q.lo > a:
                    gap = end if q is None or q.lo > end else q.lo
                    if _first_point(a, gap, levels) is not None:
                        return False
                    a = gap
                    continue
                stop = q.hi if q.hi < end else end
                if q.levels is not None:
                    seen = (feasible_levels(a, stop) if levels is None
                            else [xi for xi in levels if least_in_level(xi, a) < stop])
                    if any(xi not in q.levels for xi in seen):
                        return False
                a = stop
        return True

    def is_below(self, b: Ordinal) -> bool:
        """Whether every member is below b, read from the supremum."""
        s = self.sup()
        return s is None or s[0] < b or (s[0] == b and not s[1])

    def min_element(self) -> Ordinal | None:
        return self.pieces[0].lo if self.pieces else None

    def min_above(self, floor: Ordinal) -> Ordinal | None:
        """Least element strictly above floor."""
        cut = floor.successor()
        for p in self.pieces:
            if p.hi > cut:
                # p ends just past its greatest member or at its supremum.
                return p.least_from(cut)
        return None

    def min_in_level_above(self, xi: Ordinal, floor: Ordinal) -> Ordinal | None:
        """Least element of level xi strictly above floor."""
        return self._min_in_level_from(xi, floor.successor())

    def min_in_level(self, xi: Ordinal) -> Ordinal | None:
        """Least element of level xi."""
        return self._min_in_level_from(xi, ZERO)

    def _min_in_level_from(self, xi: Ordinal, start: Ordinal) -> Ordinal | None:
        """Least element of level xi at or above start."""
        for p in self.pieces:
            if p.hi <= start or p.levels is not None and xi not in p.levels:
                continue
            cand = least_in_level(xi, p.lo if p.lo > start else start)
            if cand < p.hi:
                return cand
        return None

    def sup(self) -> tuple[Ordinal, bool] | None:
        """(sup, attained) over the whole set; None when empty."""
        return self.pieces[-1].sup() if self.pieces else None

    def sup_below(self, b: Ordinal) -> tuple[Ordinal, bool] | None:
        """(sup, attained) of self ∩ [0, b); None when that is empty."""
        last: Piece | None = None
        for p in self.pieces:
            if p.lo >= b:
                break
            if p.hi > b:
                # p.lo < b is a member of p, so p.sup(b) is not None.
                return p.sup(b)
            last = p
        return None if last is None else last.sup()

    def is_bounded_below(self, b: Ordinal) -> bool:
        """True iff sup(self ∩ [0,b)) < b (the tail-largeness test)."""
        s = self.sup_below(b)
        return s is None or s[0] < b

    def closure_points(self, top: Ordinal) -> "OrdinalSet":
        """{a <= top | a > 0, sup(self ∩ a) = a}; needs the w^w level cap."""
        out = []
        for p in self.pieces:
            span_lo, span_hi = p.lo.successor(), p.hi.successor()
            floor = ZERO if p.levels is None else min(p.levels)
            allowed = frozenset(
                xi for xi in feasible_levels(span_lo, span_hi) if xi > floor
            )
            out.append(Piece(span_lo, span_hi, allowed))
        return OrdinalSet(tuple(out)).restrict_below(top.successor())

    def missing_limits(self, top: Ordinal) -> "OrdinalSet":
        """{a < top | a not in self, sup(self ∩ a) = a}: the members of
        [0, top) minus self at which their complement is cofinal."""
        return OrdinalSet.interval(ZERO, top).difference(self).complement_limits()

    def complement_limits(self) -> "OrdinalSet":
        """{a in self | sup(C ∩ a) = a} for the complement C of self: the
        members at which C is cofinal, read from the pieces.

        Below a limit a the levels cofinal are those under o(a).  So a
        point inside a filtered piece fails when some level under its own
        is left out of the filter, and a plain piece has none inside.  The
        least point of a piece fails when it is a limit after a gap, or
        where a filtered piece ending at it leaves out a level under its
        order."""
        out: list[Piece] = []
        prev: Piece | None = None
        for p in self.pieces:
            a = p.lo
            if a.is_limit and (prev is None or prev.hi < a or prev.levels is not None
                               and _least_missing(prev.levels) < olim(a)):
                out.append(Piece(a, a.successor()))
            if p.levels is not None:
                floor = _least_missing(p.levels)
                high = frozenset(xi for xi in p.levels if xi > floor)
                if high:
                    out.append(Piece(a.successor(), p.hi, high))
            prev = p
        return OrdinalSet._of_normal(_settle(out))

    def enumerate(self, limit: int) -> list[Ordinal]:
        """First `limit` elements in increasing order."""
        out: list[Ordinal] = []
        for p in self.pieces:
            cur: Ordinal | None = p.lo
            while cur is not None:
                if len(out) >= limit:
                    return out
                out.append(cur)
                cur = p.least_from(cur.successor())
        return out

    def otp(self) -> Ordinal:
        """Order type of the set."""
        total = ZERO
        for p in self.pieces:
            total = add(total, _piece_otp(p))
        return total


# ---------------------------------------------------------------------------
# Order types
# ---------------------------------------------------------------------------


def _piece_otp(p: Piece) -> Ordinal:
    if p.levels is None:
        return left_subtract(p.lo, p.hi)
    return left_subtract(
        _levelset_otp_below(p.lo, p.levels), _levelset_otp_below(p.hi, p.levels)
    )


def _levelset_otp_below(y: Ordinal, levels: frozenset[Ordinal]) -> Ordinal:
    """otp({g < y | olim(g) in levels}), counting the point 0 when allowed."""
    zero_in = ONE if (ZERO in levels and not y.is_zero) else ZERO
    return add(zero_in, _g_positive(y, levels))


def _g_positive(y: Ordinal, levels: frozenset[Ordinal]) -> Ordinal:
    """otp({0 < g < y | o_L(g) in levels})."""
    if y.is_zero or y == ONE:
        return ZERO
    total = ZERO
    marked_last = False
    for e, c in y.terms:
        mark = e in levels
        total = add(total, mul_nat(add(_g_omega_power(e, levels), ONE if mark else ZERO), c))
        marked_last = mark
    if marked_last:
        total = total.predecessor()  # the final mark counted y itself
    return total


def _g_omega_power(e: Ordinal, levels: frozenset[Ordinal]) -> Ordinal:
    """otp({0 < g < w^e | o_L(g) in levels}): w^(e - m) for the least level
    m below e, whose points below w^e have that order type, and 0 when no
    level lies below e."""
    m = min(levels, default=e)
    return omega_power(left_subtract(m, e)) if m < e else ZERO


# ---------------------------------------------------------------------------
# Normalization and boolean combination
# ---------------------------------------------------------------------------


_W_W = omega_power(OMEGA)


def _reduce_piece(p: Piece) -> Piece | None:
    """p with its filter cut to the levels it realizes, plain when that is
    every feasible level; None when p is empty."""
    if p.levels is None:
        return p
    if not p.hi < _W_W and p.least_from(p.lo) is None:
        return None  # an empty span needs no feasible levels, so may reach w^w
    feas = set(feasible_levels(p.lo, p.hi))
    kept = frozenset(xi for xi in p.levels if xi in feas)
    if kept == feas:
        return Piece(p.lo, p.hi, None)
    return Piece(p.lo, p.hi, kept) if kept else None


def _pin(p: Piece) -> Piece | None:
    """p reduced, then running from its least member to just past its
    greatest member, or to its supremum when that is not attained; None
    when p is empty."""
    p = _reduce_piece(p)
    if p is None or p.levels is None:
        return p
    top, attained = p.sup()
    return _reduce_piece(Piece(p.least_from(p.lo), top.successor() if attained else top, p.levels))


def _run(cur: Piece, p: Piece) -> Piece | None:
    """`cur` grown over the gap before the span `p` and over the longest
    prefix of p that one filter describes together with it; None when p
    starts the next piece.  With f the levels cur realizes, the run stops
    at the first (a) gap point of a level in f, (b) point of p of a level
    in f that p leaves out, or (c) member of p of a level not in f that
    has a point, left out, in [cur.lo, p.lo)."""
    if cur.hi == p.lo and cur.levels == p.levels:
        return Piece(cur.lo, p.hi, p.levels)
    if not cur.hi < _W_W:
        return None  # no filter reaches w^w
    f = frozenset(feasible_levels(cur.lo, cur.hi)) if cur.levels is None else cur.levels
    if any(least_in_level(xi, cur.hi) < p.lo for xi in f):
        return None
    seen = frozenset(feasible_levels(cur.lo, p.lo))
    g = p.levels
    stops = [xi for xi in seen - f if g is None or xi in g]
    if g is not None:
        stops += f - g
    # A plain p follows a left-out point (touching plain pieces merged
    # above), so stops is non-empty and the run ends below w^w.
    end = min((least_in_level(xi, p.lo) for xi in stops), default=p.hi)
    if end == p.lo:
        return None
    end = min(end, p.hi)
    if g is None:
        g = frozenset(feasible_levels(p.lo, end))
    return _pin(Piece(cur.lo, end, f | (g - seen)))


def _first_point(lo: Ordinal, hi: Ordinal,
                 levels: frozenset[Ordinal] | None) -> Ordinal | None:
    """The least point of [lo, hi) of one of the levels (of any level when
    None); None when there is none.  Unless lo's own level is allowed,
    that is lo + w^xi for the least allowed xi, as `add` is strictly
    increasing in its right argument."""
    if not lo < hi:
        return None
    if levels is None or olim(lo) in levels:
        return lo
    if not levels:
        return None
    g = add(lo, omega_power(min(levels)))
    return g if g < hi else None


def _least_missing(levels: frozenset[Ordinal]) -> Ordinal:
    """The least finite level a filter leaves out."""
    k = 0
    while from_int(k) in levels:
        k += 1
    return from_int(k)


def _normalize(pieces: tuple[Piece, ...]) -> tuple[Piece, ...]:
    """Canonical form of raw pieces: their union, merged pairwise so that
    n pieces take O(log n) rounds of sweeps rather than n.  A piece with no
    point (no interval, or no level with a point inside it) adds no cuts."""
    runs: list[Sequence[Piece]] = [(p,) for p in pieces
                                  if _first_point(p.lo, p.hi, p.levels) is not None]
    while len(runs) > 1:
        odd = runs[-1:] if len(runs) % 2 else []
        runs = [_sweep(a, b, "union") for a, b in zip(runs[::2], runs[1::2])] + odd
    return _settle(runs[0] if runs else ())


def _settle(spans: Sequence[Piece], rest: tuple[Piece, ...] = ()) -> tuple[Piece, ...]:
    """Canonical form of the sorted, disjoint `spans` followed by the
    canonical pieces `rest`, in one left-to-right pass (see the module
    docstring)."""
    out: list[Piece] = []
    n = len(spans)
    for i, p in enumerate((*spans, *rest)):
        if i < n:
            p = _pin(p)
            if p is None:
                continue
        run = _run(out[-1], p) if out else None
        if run is not None:
            out[-1] = run
            if run.hi == p.hi:
                continue
            # The rest of p starts the next piece.
            p = _pin(Piece(run.hi, p.hi, p.levels))
        elif i >= n:
            return (*out, *rest[i - n :])
        out.append(p)
    return tuple(out)


_UNCOVERED: frozenset[Ordinal] = frozenset()


def _sweep(pa: Sequence[Piece], pb: Sequence[Piece], op: str) -> list[Piece]:
    """One merge of two sorted, disjoint piece lists over their common
    cuts: the non-empty spans of `op`, not yet in normal form."""
    cuts = sorted({x for p in (*pa, *pb) for x in (p.lo, p.hi)})
    out: list[Piece] = []
    ia = ib = 0
    for lo, hi in zip(cuts, cuts[1:]):
        while ia < len(pa) and pa[ia].hi <= lo:
            ia += 1
        while ib < len(pb) and pb[ib].hi <= lo:
            ib += 1
        la = pa[ia].levels if ia < len(pa) and pa[ia].lo <= lo else _UNCOVERED
        lb = pb[ib].levels if ib < len(pb) and pb[ib].lo <= lo else _UNCOVERED
        lvl = _level_op(la, lb, op, lo, hi)
        if lvl is None or lvl:
            out.append(Piece(lo, hi, lvl))
    return out


def _combine(a: OrdinalSet, b: OrdinalSet, op: str) -> OrdinalSet:
    return OrdinalSet._of_normal(_settle(_sweep(a.pieces, b.pieces, op)))


def _level_op(la, lb, op: str, lo: Ordinal, hi: Ordinal):
    """The filter of a span from the filters covering it, the empty filter
    standing for an uncovered span."""
    if op == "union":
        return None if la is None or lb is None else la | lb
    if op == "inter":
        if la is None:
            return lb
        return la if lb is None else la & lb
    # difference
    if lb is None:
        return _UNCOVERED
    if not lb:
        return la
    if la is None:
        la = frozenset(feasible_levels(lo, hi))
    return la - lb


# ---------------------------------------------------------------------------
# Literals:  "{0} u [w,w^2)"  and the JSON list form  ["0", ["w","w^2"]]
# ---------------------------------------------------------------------------


def format_set(s: OrdinalSet) -> str:
    if not s.pieces:
        return "{}"
    parts = []
    for p in s.pieces:
        if p.levels is not None:
            inner = ",".join(str(x) for x in sorted(p.levels))
            parts.append(f"[{p.lo},{p.hi})@{{{inner}}}")
        elif p.hi == p.lo.successor():
            parts.append(f"{{{p.lo}}}")
        else:
            parts.append(f"[{p.lo},{p.hi})")
    return " u ".join(parts)


def parse_set(text: str) -> OrdinalSet:
    text = text.strip()
    if text in ("{}", "empty"):
        return OrdinalSet.empty()
    pieces: list[Piece] = []
    for chunk in text.split("u"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty set piece")
        levels: frozenset[Ordinal] | None = None
        if "@" in chunk:
            chunk, _, lvl = chunk.partition("@")
            chunk = chunk.strip()
            lvl = lvl.strip()
            if not (lvl.startswith("{") and lvl.endswith("}")):
                raise ParseError(f"bad level filter {lvl!r}")
            levels = frozenset(
                parse_ordinal(x) for x in lvl[1:-1].split(",") if x.strip()
            )
        if chunk.startswith("{") and chunk.endswith("}"):
            g = parse_ordinal(chunk[1:-1])
            pieces.append(Piece(g, g.successor(), levels))
            continue
        if len(chunk) < 2 or chunk[0] not in "[(" or chunk[-1] not in ")]":
            raise ParseError(f"bad set piece {chunk!r}")
        lo, comma, hi = chunk[1:-1].partition(",")
        if not comma:
            raise ParseError(f"expected comma in {chunk!r}")
        lo, hi = parse_ordinal(lo), parse_ordinal(hi)
        if chunk[0] == "(":
            lo = lo.successor()
        if chunk[-1] == "]":
            hi = hi.successor()
        pieces.append(Piece(lo, hi, levels))
    return OrdinalSet(tuple(pieces))
