"""Finitely presented toy universes.

A ToyUniverse is a limit ordinal ground set [0, lambda0) whose points
carry the limit order o(g) = o_L(g) (o(0) = 0), together with a principal
largeness oracle: a finite table of cores Core(beta, xi) defaulting to the
full stratum Y(xi) below beta.  A set is large at (beta, xi) when it
contains a tail of the core: Core(beta, xi) minus the set is bounded
strictly below beta.  Tail containment is what survives the constant
end-truncation the condition calculus performs; plain containment would
make every nontrivial condition invalid.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import itemgetter

from . import _Record, _set
from .ordinal import ZERO, Ordinal, feasible_levels, from_int, olim, omega_power
from .oset import OrdinalSet

__all__ = ["ToyUniverse", "CoreKey"]

CoreKey = tuple[Ordinal, Ordinal]

# How many answers each memo of a universe keeps. A universe lives for a
# whole sweep, so a memo that reaches this size is emptied, as a bounded
# cache, rather than growing with every set it is asked about.
_MEMO_SIZE = 2048


class ToyUniverse(_Record):
    """Ground order type, o-value bound, and core overrides.

    `cores` is stored as a tuple of ((beta, xi), core) pairs sorted by key,
    built from whatever mapping (or pairs) the caller passes: a copy the
    caller cannot change, and canonical for `==` and `hash`.

    A universe answers the same questions many times over a sweep, so it
    keeps its answers, each memo at most `_MEMO_SIZE` entries: `_o` maps a
    point to its o-value, and `_large` and `_closed` map a (set, point)
    question (`_question`) to `is_large_all` and `is_star_closed`."""

    __slots__ = ("lambda0", "delta0_bound", "cores", "_at", "_o", "_large", "_closed")

    def __init__(self, lambda0: Ordinal, delta0_bound: Ordinal,
                 cores: Mapping[CoreKey, OrdinalSet] | None = None):
        _set(self, "lambda0", lambda0)
        _set(self, "delta0_bound", delta0_bound)
        given = dict(cores or ())
        _set(self, "cores", tuple(sorted(given.items(), key=itemgetter(0))))
        at: dict[Ordinal, dict[Ordinal, OrdinalSet]] = {}
        for (beta, xi), core in self.cores:
            at.setdefault(beta, {})[xi] = core
        _set(self, "_at", at)  # the override cores by point, in increasing order
        for memo in ("_o", "_large", "_closed"):
            _set(self, memo, {})
        if not self.lambda0.is_limit:
            raise ValueError(f"lambda0 must be a limit ordinal, got {self.lambda0}")
        if self.max_o_value() >= self.delta0_bound:
            raise ValueError(
                f"delta0_bound {self.delta0_bound} does not dominate the "
                f"o-values below {self.lambda0}"
            )
        for (beta, xi), core in given.items():
            if xi >= self.o(beta):
                raise ValueError(f"core index {xi} not below o({beta})")
            if not core.issubset(self.stratum(xi, beta)):
                raise ValueError(
                    f"core at ({beta},{xi}) is not a subset of Y({xi}) below {beta}"
                )

    # -- o-function ----------------------------------------------------------
    def o(self, g: Ordinal) -> Ordinal:
        """o(g) = o_L(g) with o(0) = 0; defined for g <= lambda0."""
        try:
            return self._o[g]
        except KeyError:
            if g > self.lambda0:
                raise ValueError(f"{g} is beyond the ground set") from None
            return _remember(self._o, g, olim(g))

    def max_o_value(self) -> Ordinal:
        """Largest o-value over [0, lambda0] (sup when unattained)."""
        lead = self.lambda0.terms[0][0]
        best = self.o(self.lambda0)
        cand = lead
        if omega_power(lead) == self.lambda0:
            cand = lead.predecessor() if lead.is_successor else lead
        return max(best, cand)

    def ground(self) -> OrdinalSet:
        return OrdinalSet.interval(ZERO, self.lambda0)

    # -- strata ----------------------------------------------------------------
    def stratum(self, xi: Ordinal, below: Ordinal) -> OrdinalSet:
        """Y(xi) ∩ [0, below) = {g < below | o(g) = xi}; below <= lambda0."""
        if xi >= self.delta0_bound:
            raise ValueError(f"stratum index {xi} not below delta0_bound")
        if below > self.lambda0:
            raise ValueError(f"{below} is beyond the ground set")
        return OrdinalSet.stratum_piece(ZERO, below, xi)

    # -- largeness ---------------------------------------------------------------
    def is_large(self, B: OrdinalSet, beta: Ordinal, xi: Ordinal) -> bool:
        """Tail containment: Core(beta,xi) ∖ B is bounded strictly below beta."""
        if xi >= self.o(beta):
            raise ValueError(f"xi={xi} not below o({beta})={self.o(beta)}")
        override = self._at.get(beta, {}).get(xi)
        if override is not None:
            return override.difference(B).is_bounded_below(beta)
        missed = self._missed_levels(B, beta)
        return missed is not None and xi not in missed

    def is_large_all(self, B: OrdinalSet, beta: Ordinal) -> bool:
        """Large at (beta, xi) for every xi < o(beta)."""
        key = _question(B, beta)
        try:
            return self._large[key]
        except KeyError:
            return _remember(self._large, key, self._large_all(B, beta))

    def _large_all(self, B: OrdinalSet, beta: Ordinal) -> bool:
        ob = self.o(beta)
        over = self._at.get(beta, {})
        if any(not core.difference(B).is_bounded_below(beta) for core in over.values()):
            return False
        missed = self._missed_levels(B, beta)
        if missed is None:
            # Every level below o(beta) is missed, so each must be overridden.
            return ob.is_finite and len(over) == ob.as_int()
        return all(xi in over for xi in missed if xi < ob)

    @staticmethod
    def _missed_levels(B: OrdinalSet, beta: Ordinal) -> frozenset[Ordinal] | None:
        """The levels of the default cores B misses cofinally below beta
        (None: every level), read from B's last piece starting below beta.
        After a gap up to beta, B misses every level; a plain piece reaching
        beta misses none; a filtered one misses the levels of [lo, beta)
        it leaves out.  Levels at or above o(beta) may be in the answer
        without being cofinal; callers ignore them."""
        last = None
        for p in B.pieces:
            if p.lo >= beta:
                break
            last = p
        if last is None or last.hi < beta:
            return None
        if last.levels is None:
            return frozenset()
        return frozenset(feasible_levels(last.lo, beta)) - last.levels

    # -- star closure ----------------------------------------------------------
    def star_closure(self, B: OrdinalSet, beta: Ordinal) -> OrdinalSet:
        """Greatest fixpoint of the pointwise sub-largeness filter.

        Keeps a in B when o(a) = 0 or B★ ∩ a is large at (a, xi) for every
        xi < o(a); one call to `_failing_points` finds every point it drops.
        beta <= lambda0, as for `o`.
        """
        if beta > self.lambda0:
            raise ValueError(f"{beta} is beyond the ground set")
        cur = B.restrict_below(beta)
        fail = self._failing_points(cur, [b for b in self._at if b < beta])
        return cur.difference(fail) if fail else cur

    def is_star_closed(self, B: OrdinalSet, beta: Ordinal) -> bool:
        """Whether star_closure(B, beta) == B, without building the closure:
        B lies below beta and none of its points fails."""
        key = _question(B, beta)
        try:
            return self._closed[key]
        except KeyError:
            if beta > self.lambda0:
                raise ValueError(f"{beta} is beyond the ground set") from None
            closed = B.is_below(beta) and not self._failing_points(
                B, [b for b in self._at if b < beta])
            return _remember(self._closed, key, closed)

    def _failing_points(self, cur: OrdinalSet, override_points: list[Ordinal]) -> OrdinalSet:
        """The points of cur outside its star closure, in one pass.

        A point with no overridden core fails exactly when the complement
        C of cur is cofinal below it; call those points F.  Each point of F
        is a limit of C, so where C ∪ F is cofinal below some a, C already
        is and a is in F: removing F makes no new default failure.  The
        override points are finitely many limits, each tested against
        cur ∖ F; largeness is monotone, so a point failing there fails
        against every subset of cur ∖ F as well.  Dropping finitely many
        points changes no tail below any limit, so neither test changes
        once the failing override points are gone too.
        """
        fail = cur.complement_limits()
        if not override_points:
            return fail
        fail = fail.difference(OrdinalSet.of(*override_points))
        kept = cur.difference(fail)
        starved = [
            b for b in override_points
            if b in kept and not self.is_large_all(kept.restrict_below(b), b)
        ]
        return fail.union(OrdinalSet.of(*starved)) if starved else fail

    def stratify(self, B: OrdinalSet, beta: Ordinal) -> dict[Ordinal, OrdinalSet]:
        """Per-stratum pieces Y(xi) ∩ B★ for xi < o(beta)."""
        star = self.star_closure(B, beta)
        ob = self.o(beta)
        if not ob.is_finite:
            raise ValueError(f"stratify needs a finite o({beta})")
        return {
            from_int(k): star.intersect(self.stratum(from_int(k), beta))
            for k in range(ob.as_int())
        }


def _question(B: OrdinalSet, beta: Ordinal) -> tuple:
    """The memo key of a question about B at beta: beta and the bounds and
    levels of B's pieces, which are B's canonical value. Ordinals compare
    by identity and level sets natively, so a hit runs no Python-level
    `==`, whichever equal set asked first, and the memo keeps no set alive."""
    return beta, *[x for p in B.pieces for x in (p.lo, p.hi, p.levels)]


def _remember(memo: dict, key, value):
    """Store value in a universe memo, emptying the memo first when it is full."""
    if len(memo) >= _MEMO_SIZE:
        memo.clear()
    memo[key] = value
    return value
