"""Round trips of the JSON document formats through text: universes,
conditions, subsequence conditions, sets with level-filtered pieces and
Prikry trees; and the documents that are only read, ultrafilter
structures and derivations, decoded from literals."""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ordbench import io
from ordbench.ordinal import from_int
from ordbench.oset import OrdinalSet, Piece
from ordbench.prikry import Derivation, ToyUltraStructure, UltraAssignment
from ordbench.projection import pi
from ordbench.universe import ToyUniverse

from conftest import (
    canon_universe,
    gen_projection_condition,
    random_condition,
    small_ordinals_below,
    tree_conditions,
    ultra_structures,
)
from test_projection import random_iset

_GROUNDS = ("w^2", "w^3", "w^3*2+w")


def _through_text(to_json, from_json, x):
    return from_json(json.loads(json.dumps(to_json(x))))


@st.composite
def universes(draw) -> ToyUniverse:
    """A ground with a few core overrides, each a tail of its stratum."""
    u = canon_universe(draw(st.sampled_from(_GROUNDS)))
    dom = small_ordinals_below(u.lambda0, 120)
    betas = [b for b in dom if not u.o(b).is_zero]
    cores = {}
    for beta in draw(st.lists(st.sampled_from(betas), max_size=3, unique=True)):
        xi = from_int(draw(st.integers(0, u.o(beta).as_int() - 1)))
        floor = draw(st.sampled_from([g for g in dom if g < beta]))
        cores[beta, xi] = u.stratum(xi, beta).restrict_above(floor)
    return ToyUniverse(u.lambda0, u.delta0_bound, cores)


@st.composite
def filtered_sets(draw) -> OrdinalSet:
    """A piece filtered to one or two levels, united with a few plain or
    filtered intervals."""
    dom = small_ordinals_below(canon_universe("w^3").lambda0, 120)
    some_levels = st.frozensets(st.integers(0, 2).map(from_int), min_size=1, max_size=2)
    pieces = []
    for levels in [draw(some_levels)] + draw(st.lists(st.none() | some_levels, max_size=3)):
        lo, hi = sorted(draw(st.lists(st.sampled_from(dom), min_size=2, max_size=2, unique=True)))
        pieces.append(Piece(lo, hi, levels))
    return OrdinalSet(tuple(pieces))


_settings = settings(max_examples=60)


@_settings
@given(universes())
def test_universe_round_trip(u):
    assert _through_text(io.universe_to_json, io.universe_from_json, u) == u


@_settings
@given(universes(), st.randoms(use_true_random=False))
def test_condition_round_trip(u, rng):
    p = random_condition(u, rng)
    assert _through_text(io.condition_to_json, io.condition_from_json, p) == p


@_settings
@given(st.sampled_from(("w^2", "w^3")), st.integers(0, 2**32 - 1))
def test_icondition_round_trip(lam, seed):
    u = canon_universe(lam)
    rng = random.Random(seed)
    I = random_iset(u, rng)
    q = pi(gen_projection_condition(u, I, rng, steps=2), I)
    assert _through_text(io.icondition_to_json, io.icondition_from_json, q) == q


@_settings
@given(filtered_sets())
def test_filtered_set_round_trip(s):
    assert _through_text(io.set_to_json, io.set_from_json, s) == s


@_settings
@given(ultra_structures(), st.data())
def test_tree_round_trip(u, data):
    t = data.draw(tree_conditions(u.ground))
    assert _through_text(io.tree_to_json, io.tree_from_json, t) == t


def test_structure_round_trip():
    # Node and level tables, a default with a projection, a tail default;
    # then the fields a document may leave out.
    text = """{"ground": [0, 2, 3, 5],
               "nodes": [{"node": [0, 2], "core": [3, 5], "pi": [[5, 3], [3, 0]]},
                         {"node": [], "core": [0, 2], "pi": null}],
               "levels": [{"level": 1, "core": [5], "pi": [[5, 2]]}],
               "default": {"core": [2, 3], "pi": null},
               "tail_default": true}"""
    assert io.structure_from_json(json.loads(text)) == ToyUltraStructure(
        (0, 2, 3, 5),
        {(0, 2): UltraAssignment(frozenset({3, 5}), ((5, 3), (3, 0))),
         (): UltraAssignment(frozenset({0, 2}))},
        {1: UltraAssignment(frozenset({5}), ((5, 2),))},
        UltraAssignment(frozenset({2, 3})),
        True,
    )
    assert io.structure_from_json(json.loads('{"ground": [1]}')) == ToyUltraStructure((1,))


def test_derivation_round_trip():
    # Non-decreasing arities (0 among them), each with a table on a few
    # increasing tuples, one of them empty.
    text = """{"levels": [0, 1, 1, 3],
               "tables": [[{"args": [], "value": 4}],
                          [{"args": [2], "value": -5}, {"args": [7], "value": 0}],
                          [],
                          [{"args": [0, 3, 6], "value": 1}]]}"""
    assert io.derivation_from_json(json.loads(text)) == Derivation(
        (0, 1, 1, 3), ({(): 4}, {(2,): -5, (7,): 0}, {}, {(0, 3, 6): 1})
    )
