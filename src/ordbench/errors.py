"""Exception types shared across the workbench.

The CLI maps ParseError and friends to exit code 2 (bad input); boolean
falsehoods and validation violations are ordinary results (exit code 1).
"""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all workbench-specific errors."""


class ParseError(WorkbenchError):
    """Malformed ordinal or set literal; carries a 1-based column."""

    def __init__(self, message: str, column: int = 0):
        super().__init__(f"{message} (column {column})" if column else message)
        self.column = column


class DifferenceUndefined(WorkbenchError):
    """cnf_difference(a, b) requested with a > b."""


class UnsupportedRegion(WorkbenchError):
    """Stratified set algebra requested in a region at or above w^w."""


class UniverseMismatch(WorkbenchError):
    """Operands bound to different toy universes."""


class IndexSetMismatch(WorkbenchError):
    """Subsequence-forcing operands carry different index sets."""


class LargenessViolated(WorkbenchError):
    """A constructed or supplied measure set fails its largeness obligations."""


class NotIncreasing(WorkbenchError):
    """Points supplied to an extension are not strictly increasing in place."""


class PointNotInMeasureSet(WorkbenchError):
    """An interleaved point is not drawn from the enclosing measure set."""


class NotAnExtension(WorkbenchError):
    """find_type called on a pair that is not related by the forcing order."""


class AlreadyUnveiled(WorkbenchError):
    """unveil_type target coincides with an existing block coordinate."""


class OutOfRange(WorkbenchError):
    """Requested coordinate or block index lies outside the condition."""


class BadCut(WorkbenchError):
    """split_at index does not name a block with positive limit order."""


class NonTermination(WorkbenchError):
    """Densification loop exceeded its cap; indicates a bug, not bad input."""


class RepairImpossible(WorkbenchError):
    """Densification needs a stratum that is empty in this toy universe."""


class WitnessUnavailable(WorkbenchError):
    """Onto/lift construction found an empty stratum in a mandated interval."""


class PruneBrokeLargeness(WorkbenchError):
    """Tree normalization pruned a successor set below its core."""


class BranchTooShort(WorkbenchError):
    """apply_derivation branch shorter than the largest arity used."""
