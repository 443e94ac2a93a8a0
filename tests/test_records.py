"""Value semantics of the frozen record classes: construction, `==`,
`hash`, `repr`, immutability, pickling and copying."""

from __future__ import annotations

import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest

import ordbench
from ordbench import _Record
from ordbench.generic import CanonicalSequence
from ordbench.magidor import Block, ExtensionType, MagidorCondition
from ordbench.ordinal import ONE, OMEGA, ZERO, Ordinal, parse_ordinal
from ordbench.oset import OrdinalSet, Piece
from ordbench.prikry import Derivation, ToyUltraStructure, TreeCondition, UltraAssignment
from ordbench.projection import LIM, DFailure, ICondition, IndexSet
from ordbench.ramsey import FiniteProductFn
from ordbench.universe import ToyUniverse

W2 = parse_ordinal("w^2")
S = OrdinalSet.interval(ZERO, OMEGA)


def _universe():
    return ToyUniverse(W2, OMEGA)


# class -> (fresh field values in constructor order, how many are required,
# one field and a value that differs from it).  Each optional field takes
# its default.
CASES = {
    Piece: (lambda: [ZERO, OMEGA, None], 2, ("hi", ONE)),
    # A universe stores its cores as a sorted tuple of ((beta, xi), core) pairs.
    ToyUniverse: (lambda: [W2, OMEGA, ()], 2, ("delta0_bound", parse_ordinal("w+1"))),
    Block: (lambda: [ONE, None], 1, ("kappa", OMEGA)),
    ExtensionType: (lambda: [((ZERO,), ())], 1, ("per_block", ((ZERO,),))),
    MagidorCondition: (lambda: [_universe(), (Block(W2),)], 2, ("blocks", (Block(OMEGA),))),
    CanonicalSequence: (lambda: [W2, None], 1, ("restriction", S)),
    IndexSet: (lambda: [OrdinalSet.interval(ZERO, OMEGA)], 1, ("points", OrdinalSet.of(ONE))),
    ICondition: (lambda: [_universe(), IndexSet(S), (Block(W2),)], 3,
                 ("index_set", IndexSet(OrdinalSet.of(ONE)))),
    DFailure: (lambda: [1, OMEGA, 2, None], 4, ("clause", 1)),
    # A product function stores its values in product order.
    FiniteProductFn: (lambda: [((1, 2),), (0, 1)], 2, ("table", (0, 0))),
    UltraAssignment: (lambda: [frozenset({1, 2}), None], 1, ("proj", ((2, 1),))),
    # Node, level and successor tables are stored as sorted tuples of (key, value) pairs.
    ToyUltraStructure: (lambda: [(0, 1, 2), (), (), None, False], 1, ("tail_default", True)),
    TreeCondition: (lambda: [(0,), 1, ()], 2, ("depth", 2)),
    Derivation: (lambda: [(1, 2), ("F1", "F2")], 2, ("levels", (1, 1))),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_records_are_frozen_values(cls):
    values, required, (changed, other) = CASES[cls]
    names = list(inspect.signature(cls).parameters)
    a, b = cls(*values()), cls(**dict(zip(names, values())))
    assert a == b and not a != b
    assert hash(a) == hash(b)
    if "__hash__" not in vars(cls):
        assert hash(a) == hash(tuple(values()))
    fields = dict(zip(names, values()))
    assert a != cls(**{**fields, changed: other})
    assert a != tuple(values()) and a.__eq__(tuple(values())) is NotImplemented
    assert repr(a) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in fields.items())})"
    for name in [*names, "other"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    # The defaults; no field holds a dict, which a caller could still change.
    x, y = cls(*values()[:required]), cls(*values()[:required])
    assert x == y == a
    assert not any(isinstance(getattr(x, n), dict) for n in names)
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a


def test_every_record_class_has_a_case():
    """Each record class of the package, other than the two that keep their
    own `==` and `hash`, is in CASES: a new record cannot skip the tests
    above."""
    for module in pkgutil.iter_modules(ordbench.__path__):
        importlib.import_module(f"ordbench.{module.name}")
    found, todo = set(), [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("ordbench."):
                found.add(sub)
            todo.append(sub)
    assert found - set(CASES) == {Ordinal, OrdinalSet}


def test_records_keep_no_dict_of_the_callers():
    """A record copies the mappings it is built from: changing the
    caller's dict afterwards changes neither its answers nor its value."""
    nodes, levels = {(1,): UltraAssignment(frozenset({2}))}, {1: UltraAssignment(frozenset({3}))}
    successors = {(1,): frozenset({2, 3})}
    cores = {(W2, ONE): OrdinalSet.of(parse_ordinal("w*3"))}
    built = (ToyUltraStructure((1, 2, 3), nodes, levels), TreeCondition((1,), 1, successors),
             ToyUniverse(W2, OMEGA, cores))
    same = copy.deepcopy(built)
    u, t, universe = built
    nodes[(1,)] = levels[1] = UltraAssignment(frozenset({99}))
    successors[(1,)] = frozenset({99})
    cores[(W2, parse_ordinal("5"))] = S
    assert u.node_ultra((1,)).core == {2} and u.level_ultra(1).core == {3}
    assert t.suc(u, (1,)) == {2, 3}
    assert universe.is_large_all(OrdinalSet.interval(ONE, W2), W2)
    assert built == same and hash(built) == hash(same)


def test_a_warmed_index_set_keeps_its_value():
    warmed, fresh = (IndexSet(OrdinalSet.interval(ZERO, W2)) for _ in range(2))
    assert warmed.position(OMEGA) is LIM and warmed.position(ONE) == ZERO and W2 not in warmed
    assert warmed._positions
    assert warmed == fresh and hash(warmed) == hash(fresh) and repr(warmed) == repr(fresh)


def test_ordinal_sets_are_frozen_and_copy():
    s = OrdinalSet.of(ONE, OMEGA)
    for change in (lambda: setattr(s, "pieces", ()), lambda: delattr(s, "pieces")):
        with pytest.raises(AttributeError):
            change()
    assert s.pieces and pickle.loads(pickle.dumps(s)) == s and copy.deepcopy(s) == s
