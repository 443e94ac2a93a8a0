"""Tree forcing over finite toy ultrafilter assignments: conditions,
orders, dense normalization, iterated-limit ultrafilters, the modified
diagonal intersection, P-point surrogates and derived sequences.

Toy ultrafilters are principal: a set is large when it contains the
assigned core.  Projections send each point weakly downward, standing in
for the map that represents the ground in the ultrapower.  The classical
diagonal intersection is the modified one at a level whose projection is
the identity, so only the modified one is kept.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Mapping
from operator import itemgetter

from . import _Record, _set
from .errors import BranchTooShort, PruneBrokeLargeness

__all__ = [
    "UltraAssignment",
    "ToyUltraStructure",
    "TreeCondition",
    "Derivation",
    "validate_tree",
    "leq_tree",
    "leq_tree_star",
    "normalize_dense",
    "validate_sequence_condition",
    "modified_diag",
    "limit_ultrafilter_member",
    "project_ultrafilter",
    "is_p_point",
    "apply_derivation",
    "derivation_profile",
]

Node = tuple[int, ...]


class UltraAssignment(_Record):
    """Core of a principal toy ultrafilter, with its downward projection."""

    __slots__ = ("core", "proj", "_table")  # `_table`: `proj` as a dict, once asked

    def __init__(self, core: frozenset[int], proj: tuple[tuple[int, int], ...] | None = None):
        _set(self, "core", core)
        _set(self, "proj", proj)  # None = identity (normal)
        _set(self, "_table", None)

    def pi(self, v: int) -> int:
        if self._table is None:
            _set(self, "_table", dict(self.proj or ()))
        return self._table.get(v, v)

    def is_large(self, s) -> bool:
        return self.core <= set(s)


class ToyUltraStructure(_Record):
    """Ground set with per-node, per-level and single ultrafilter tables.

    With tail_default, a node without an explicit entry gets the core of
    points above its last element (intersected with the default core when
    one is given): the finite presentation of an assignment whose measure
    sets concentrate above the node, as the dense normalization assumes.

    `nodes` and `levels` are stored as tuples of (key, assignment) pairs
    sorted by key, built from whatever mapping (or pairs) the caller
    passes; `_nodes` and `_levels` look them up.
    """

    __slots__ = ("ground", "nodes", "levels", "default", "tail_default", "_nodes", "_levels")

    def __init__(self, ground: tuple[int, ...],
                 nodes: Mapping[Node, UltraAssignment] | None = None,
                 levels: Mapping[int, UltraAssignment] | None = None,
                 default: UltraAssignment | None = None, tail_default: bool = False):
        _set(self, "ground", ground)
        _set(self, "_nodes", dict(nodes or ()))
        _set(self, "_levels", dict(levels or ()))
        _set(self, "nodes", _sorted_pairs(self._nodes))
        _set(self, "levels", _sorted_pairs(self._levels))
        _set(self, "default", default)
        _set(self, "tail_default", tail_default)
        if list(self.ground) != sorted(set(self.ground)):
            raise ValueError("ground must be strictly increasing")
        gset = set(self.ground)
        for ua in list(self._nodes.values()) + list(self._levels.values()) + (
            [self.default] if self.default else []
        ):
            if not ua.core or not ua.core <= gset:
                raise ValueError("cores must be nonempty subsets of the ground")
            if ua.proj is not None:
                if any(w > v for v, w in ua.proj):
                    raise ValueError("projections must be weakly decreasing")
                if len(dict(ua.proj)) != len(ua.proj):
                    raise ValueError("a projection lists a point twice")

    def _fallback(self) -> UltraAssignment:
        return self.default or UltraAssignment(frozenset(self.ground))

    def node_ultra(self, a: Node) -> UltraAssignment:
        a = tuple(a)
        got = self._nodes.get(a)
        if got is not None:
            return got
        base = self._fallback()
        if not self.tail_default or not a:
            return base
        # The core concentrates where both the point and its projection
        # clear the node, matching what dense normalization assumes.
        tail = frozenset(
            v for v in base.core if v > a[-1] and base.pi(v) > a[-1]
        )
        return UltraAssignment(tail, base.proj)

    def level_ultra(self, n: int) -> UltraAssignment:
        return self._levels.get(n, self._fallback())


class TreeCondition(_Record):
    """Trunk plus successor sets, explicit to a declared depth.

    Beyond the explicit entries the successor set of a node defaults to the
    core of its ultrafilter, which is the unique finite presentation every
    check needs.

    `successors` is stored as a tuple of (node, set) pairs sorted by node,
    built from whatever mapping (or pairs) the caller passes; `_suc` looks
    them up.
    """

    __slots__ = ("trunk", "depth", "successors", "_suc")

    def __init__(self, trunk: Node, depth: int,
                 successors: Mapping[Node, frozenset[int]] | None = None):
        _set(self, "trunk", trunk)
        _set(self, "depth", depth)
        _set(self, "_suc", dict(successors or ()))
        _set(self, "successors", _sorted_pairs(self._suc))
        for a in self._suc:
            if a[: len(self.trunk)] != self.trunk:
                raise ValueError(f"successor node {a} does not extend the trunk")

    def suc(self, u: ToyUltraStructure, a: Node) -> frozenset[int]:
        got = self._suc.get(tuple(a))
        if got is not None:
            return got
        return u.node_ultra(a).core


def _sorted_pairs(table: dict) -> tuple:
    """A table's (key, value) pairs sorted by key: canonical for `==` and `hash`."""
    return tuple(sorted(table.items(), key=itemgetter(0)))


def _trunk_violations(trunk: Node) -> list[str]:
    return [] if list(trunk) == sorted(set(trunk)) else ["trunk is not strictly increasing"]


def _set_violations(where: str, s, ua: UltraAssignment, ground: set[int]) -> list[str]:
    """The ground and core clauses of one set, reported at `where`."""
    out = []
    if not s <= ground:
        out.append(f"{where} leaves the ground")
    if not ua.is_large(s):
        out.append(f"{where} misses its core")
    return out


def validate_tree(t: TreeCondition, u: ToyUltraStructure) -> list[str]:
    out = _trunk_violations(t.trunk)
    gset = set(u.ground)
    for a, s in t.successors:
        out += _set_violations(f"successor set at {a}", s, u.node_ultra(a), gset)
    return out


def leq_tree(s: TreeCondition, t: TreeCondition, u: ToyUltraStructure) -> bool:
    """t extends s: longer trunk through s's tree, smaller successor sets."""
    if t.trunk[: len(s.trunk)] != s.trunk:
        return False
    for i in range(len(s.trunk), len(t.trunk)):
        if t.trunk[i] not in s.suc(u, t.trunk[:i]):
            return False
    # Off the explicit nodes both successor sets are the node's core.
    return all(
        t.suc(u, a) <= s.suc(u, a)
        for a in {*s._suc, *t._suc}
        if a[: len(t.trunk)] == t.trunk
    )


def leq_tree_star(s: TreeCondition, t: TreeCondition, u: ToyUltraStructure) -> bool:
    return s.trunk == t.trunk and leq_tree(s, t, u)


def normalize_dense(t: TreeCondition, u: ToyUltraStructure) -> TreeCondition:
    """Prune successor sets so every branch satisfies the projection chain:
    each successor projects strictly above the node's last point."""
    new: dict[Node, frozenset[int]] = {}
    frontier: list[Node] = [t.trunk]
    for _ in range(t.depth):
        next_frontier: list[Node] = []
        for a in frontier:
            ua = u.node_ultra(a)
            floor = a[-1] if a else None
            kept = frozenset(
                v
                for v in t.suc(u, a)
                if floor is None or (ua.pi(v) > floor and v > floor)
            )
            if not ua.is_large(kept):
                raise PruneBrokeLargeness(
                    f"pruning at node {a} drops part of the core"
                )
            new[a] = kept
            next_frontier.extend(a + (v,) for v in kept)
        frontier = next_frontier
    return TreeCondition(t.trunk, t.depth, new)


def validate_sequence_condition(trunk: Node, sets, u: ToyUltraStructure) -> list[str]:
    """Clause checks for a condition of the sequence-of-ultrafilters forcing.

    `sets` maps levels (1-based, above len(trunk)) to sets, each checked
    against its level's ultrafilter; the minimum clause is checked and
    reported at every supplied level.  A single set is a condition of the
    single-ultrafilter forcing, which is the constant sequence: U_0 at
    every level, with that set at the first level above the trunk.
    """
    ultra = u.level_ultra
    if not isinstance(sets, Mapping):
        ultra = lambda n: u.level_ultra(0)
        sets = {len(trunk) + 1: sets}
    out = _trunk_violations(trunk)
    for j, i in itertools.combinations(range(1, len(trunk) + 1), 2):
        if not trunk[j - 1] < ultra(i).pi(trunk[i - 1]):
            out.append(
                f"cross inequality fails at levels {j}<{i}: "
                f"{trunk[j - 1]} !< pi_{i}({trunk[i - 1]})"
            )
    gset = set(u.ground)
    for n in sorted(sets):
        A = set(sets[n])
        if n <= len(trunk):
            out.append(f"level {n}: set supplied at a trunk level")
            continue
        ua = ultra(n)
        out += _set_violations(f"level {n}: set", A, ua, gset)
        if A and trunk and not ua.pi(min(A)) > max(trunk):
            out.append(f"level {n}: min clause fails")
    return out


def modified_diag(u: ToyUltraStructure, family: dict[int, set], k: int) -> frozenset[int]:
    """{v | for all a < pi_k(v): v in A_a}."""
    pi = u.level_ultra(k).pi
    try:
        return frozenset(v for v in u.ground if all(v in family[a] for a in range(pi(v))))
    except KeyError as err:
        raise ValueError(f"family not total: missing index {err}") from err


def _as_tuples(X, n: int) -> set[Node]:
    out = set()
    for x in X:
        t = (x,) if isinstance(x, int) else tuple(x)
        if len(t) != n:
            raise ValueError(f"{t} is not a {n}-tuple")
        if any(a >= b for a, b in zip(t, t[1:])):
            raise ValueError(f"{t} is not increasing")
        out.add(t)
    return out


def limit_ultrafilter_member(u: ToyUltraStructure, X, n: int) -> bool:
    """Iterated section test: X (increasing n-tuples) belongs to the n-fold
    limit of the node ultrafilters, that is, its section X_v is in the
    limit along (v,) for U-many v, and so on down the nodes."""
    if n < 0:
        raise ValueError(f"tuple length {n} is negative")
    return _sections_member(u, _as_tuples(X, n), n, ())


def _sections_member(u: ToyUltraStructure, tuples, n: int, prefix: Node) -> bool:
    """The n-tuples are in the n-fold limit along the node `prefix`: the
    section at v is in the limit along prefix + (v,) for U-many v."""
    # The node ultrafilter is principal, so U-many means every point of
    # its core.
    if n == 0:
        return () in tuples
    sections: dict[int, set[Node]] = {}
    for t in tuples:
        sections.setdefault(t[0], set()).add(t[1:])
    return all(
        _sections_member(u, sections.get(v, ()), n - 1, prefix + (v,))
        for v in u.node_ultra(prefix).core
    )


def _apply(f: Mapping, args: tuple, name: str):
    """f[args]; the table must hold args."""
    if args not in f:
        raise ValueError(f"{name} has no entry for {args}")
    return f[args]


def project_ultrafilter(u: ToyUltraStructure, F: Mapping, n: int):
    """Membership test for the image of the n-fold limit under the table F,
    which maps each increasing n-tuple of the ground to its value."""

    def member(Y) -> bool:
        targets = set(Y)
        pre = [t for t in itertools.combinations(u.ground, n) if _apply(F, t, "fn") in targets]
        return limit_ultrafilter_member(u, pre, n)

    return member


def is_p_point(
    u: ToyUltraStructure,
    a: Node,
    fiber_bound: int,
    test_family,
) -> bool:
    """Every non-constant (mod the node ultrafilter) table in the family
    is fiber-bounded on a large set; with principal cores the core itself
    is the minimal large set.  Each table must hold every point of the
    core: one that leaves a point out is refused with a ValueError."""
    core = u.node_ultra(a).core
    fibers = [Counter(_apply(f, v, f"test table {k}") for v in core)
              for k, f in enumerate(test_family)]
    # A table is constant on a large set exactly when it is constant on the core.
    return all(len(c) <= 1 or max(c.values()) <= fiber_bound for c in fibers)


class Derivation(_Record):
    """Non-decreasing arities with per-step tables on initial segments: the
    k-th maps tuples of the k-th arity to values."""

    __slots__ = ("levels", "fns")

    def __init__(self, levels: tuple[int, ...], fns: tuple):
        _set(self, "levels", levels)
        _set(self, "fns", fns)
        if any(a > b for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("arities must be non-decreasing")
        if len(self.levels) != len(self.fns):
            raise ValueError("one function per arity")


def apply_derivation(d: Derivation, branch: Node) -> tuple:
    """alpha_k = F_k(branch restricted to the k-th arity)."""
    if d.levels and len(branch) < max(d.levels):
        raise BranchTooShort(
            f"branch of length {len(branch)} shorter than arity {max(d.levels)}"
        )
    return tuple(
        _apply(f, branch[:n_k], f"derivation table {k}")
        for k, (n_k, f) in enumerate(zip(d.levels, d.fns))
    )


def derivation_profile(d: Derivation) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Distinct arities in increasing order with their multiplicities."""
    runs = [(n, len(list(group))) for n, group in itertools.groupby(d.levels)]
    return tuple(n for n, _ in runs), tuple(c for _, c in runs)
