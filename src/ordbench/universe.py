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

from . import _Record, _set
from .ordinal import ZERO, Ordinal, from_int, omega_power
from .oset import OrdinalSet, olim

__all__ = ["ToyUniverse", "CoreKey"]

CoreKey = tuple[Ordinal, Ordinal]


class ToyUniverse(_Record):
    """Ground order type, o-value bound, and core overrides."""

    __slots__ = ("lambda0", "delta0_bound", "cores")
    _key = property(lambda r: (r.lambda0, r.delta0_bound, r.cores))

    def __init__(self, lambda0: Ordinal, delta0_bound: Ordinal,
                 cores: dict[CoreKey, OrdinalSet] | None = None):
        _set(self, "lambda0", lambda0)
        _set(self, "delta0_bound", delta0_bound)
        _set(self, "cores", {} if cores is None else cores)
        if not self.lambda0.is_limit:
            raise ValueError(f"lambda0 must be a limit ordinal, got {self.lambda0}")
        if self.max_o_value() >= self.delta0_bound:
            raise ValueError(
                f"delta0_bound {self.delta0_bound} does not dominate the "
                f"o-values below {self.lambda0}"
            )
        for (beta, xi), core in self.cores.items():
            if xi >= self.o(beta):
                raise ValueError(f"core index {xi} not below o({beta})")
            if not core.difference(self.stratum(xi, beta)).is_empty():
                raise ValueError(
                    f"core at ({beta},{xi}) is not a subset of Y({xi}) below {beta}"
                )

    def __hash__(self):
        return hash((self.lambda0, self.delta0_bound, tuple(sorted(self.cores))))

    # -- o-function ----------------------------------------------------------
    def o(self, g: Ordinal) -> Ordinal:
        """o(g) = o_L(g) with o(0) = 0; defined for g <= lambda0."""
        if g > self.lambda0:
            raise ValueError(f"{g} is beyond the ground set")
        return olim(g)

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
        override = self.cores.get((beta, xi))
        if override is not None:
            return override.difference(B).is_bounded_below(beta)
        missed = self._missed_levels(B, beta)
        return missed is not None and xi not in missed

    def is_large_all(self, B: OrdinalSet, beta: Ordinal) -> bool:
        """Large at (beta, xi) for every xi < o(beta)."""
        ob = self.o(beta)
        over = {xi for (b, xi) in self.cores if b == beta}
        if any(not self.is_large(B, beta, xi) for xi in over):
            return False
        missed = self._missed_levels(B, beta)
        if missed is None:
            # Every level below o(beta) is missed, so each must be overridden.
            return ob.is_finite and len(over) == ob.as_int()
        return all(xi in over for xi in missed if xi < ob)

    def _missed_levels(self, B: OrdinalSet, beta: Ordinal) -> frozenset[Ordinal] | None:
        """The levels of the default cores B misses cofinally below beta:
        the filter of the complement's last piece, the only one that can
        reach beta, when it does (None when plain: every level), else none.
        A reduced filter realizes its levels, and below o(beta) a realized
        level is cofinal; callers ignore levels at or above o(beta)."""
        comp = OrdinalSet.interval(ZERO, beta).difference(B).pieces
        if comp and comp[-1].hi == beta:
            return comp[-1].levels
        return frozenset()

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
        override_points = sorted({b for (b, _) in self.cores if b < beta})
        fail = self._failing_points(cur, beta, override_points)
        return cur.difference(fail) if fail else cur

    def _failing_points(
        self, cur: OrdinalSet, beta: Ordinal, override_points: list[Ordinal]
    ) -> OrdinalSet:
        """The points of cur outside its star closure, in one pass.

        A point with no overridden core fails exactly when the complement
        C = [0,beta) ∖ cur is cofinal below it; call those points F.  Each
        point of F is a limit of C, so where C ∪ F is cofinal below some a,
        C already is and a is in F: removing F makes no new default
        failure.  The override points are finitely many limits, each
        tested against cur ∖ F; largeness is monotone, so a point failing
        there fails against every subset of cur ∖ F as well.  Dropping
        finitely many points changes no tail below any limit, so neither
        test changes once the failing override points are gone too.
        """
        comp = OrdinalSet.interval(ZERO, beta).difference(cur)
        fail = comp.missing_limits(beta)
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
