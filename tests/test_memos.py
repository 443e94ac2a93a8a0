"""Soundness of the memos kept on values: a warmed value answers every
question as a fresh copy of it does, a returned violation list belongs to
the caller, and the memos of a universe and of an index set stay within
their size."""

from __future__ import annotations

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ordbench.errors import WorkbenchError
from ordbench.magidor import Block, MagidorCondition, validate
from ordbench.ordinal import ONE, Ordinal, add, mul_nat
from ordbench.oset import OrdinalSet, parse_set
from ordbench.projection import (
    ICondition, IndexSet, densify, in_D, index_chain, leq_I, lift, onto_construct, pi, validate_I,
)
from ordbench.universe import _MEMO_SIZE

from conftest import W, W2, canon_universe, gen_projection_condition, nat, random_extension, o
from test_projection import random_iset

# Shared by every example, so their memos hold the answers of earlier ones.
UNIVERSES = {lam: canon_universe(lam) for lam in ("w^2", "w^3")}


def _outcome(fn, *args):
    """fn's answer, or the class and message of the error it raises."""
    try:
        return fn(*args)
    except (WorkbenchError, ValueError) as err:
        return type(err), str(err)


def _answers(I, p, ext) -> list:
    """The memoized questions of one projection-lemma instance, as the
    benchmark's `condition-sweep` asks them."""
    q = pi(p, I)
    r = _outcome(densify, ext, I)
    pr = pi(r, I) if not isinstance(r, tuple) else None
    out = [validate(p), validate(ext), in_D(p, I), in_D(ext, I), validate_I(q),
           _outcome(onto_construct, q), r]
    if pr is not None:
        out += [validate_I(pr), leq_I(q, pr), _outcome(lift, p, pr)]
    return out


@settings(max_examples=30)
@given(lam=st.sampled_from(sorted(UNIVERSES)), seed=st.integers(0, 2**32 - 1))
def test_warmed_values_answer_as_fresh_copies(lam, seed):
    rng = random.Random(seed)
    u = UNIVERSES[lam]
    I = random_iset(u, rng)
    p = gen_projection_condition(u, I, rng, steps=2)
    ext = random_extension(p, rng, max_points=2)
    first = _answers(I, p, ext)
    # Copies are rebuilt through `__init__`, so they start with empty memos.
    fresh = copy.deepcopy((I, p, ext))
    assert fresh[1].universe is not u and not fresh[0]._positions
    assert _answers(I, p, ext) == first == _answers(*fresh)


def test_a_returned_violation_list_is_the_callers():
    u = UNIVERSES["w^2"]
    I = random_iset(u, random.Random(3))
    valid = pi(gen_projection_condition(u, I, random.Random(3), steps=2), I)
    invalid = ICondition(u, I, valid.blocks[:-1] + (valid.top, valid.top))
    for q in (valid, invalid):
        got = validate_I(q)
        want = list(got)
        got.append("changed by the caller")
        assert validate_I(q) == want
        validate_I(q).clear()
        assert validate_I(q) == want
    assert want


def test_universe_memos_stay_within_their_size():
    u, fresh = canon_universe("w^2"), canon_universe("w^2")
    for k in range(10 * _MEMO_SIZE):
        B = OrdinalSet.interval(nat(k), W) if k % 2 else OrdinalSet.interval(nat(k + 1), W2)
        beta = W if k % 2 else W2
        u.o(nat(k))
        u.is_large_all(B, beta) and u.is_star_closed(B, beta)
        assert max(len(u._o), len(u._large), len(u._closed)) <= _MEMO_SIZE
    assert len(u._large) > 0
    # What the memos hold after being emptied is still right.
    for k in (0, 1, 10 * _MEMO_SIZE - 1):
        B = OrdinalSet.interval(nat(k), W)
        for beta in (W, W2):
            assert u.is_large_all(B, beta) == fresh.is_large_all(B, beta)
            assert u.is_star_closed(B, beta) == fresh.is_star_closed(B, beta)
    assert u.o(o("w*3")) == fresh.o(o("w*3"))


def test_index_set_memos_stay_within_their_size():
    u = UNIVERSES["w^3"]
    I, fresh = (IndexSet(parse_set("{0} u [w,w^3)")) for _ in range(2))
    at_level = (ONE, W, W2)  # a point of o-value 0, 1 and 2

    def point(k: int):
        return add(add(mul_nat(W2, k // 1024), mul_nat(W, k // 32 % 32)), nat(k % 32))

    def blocks(k: int):
        """Ten blocks whose o-values spell k in base 3, so each k keys its
        own index chain, and the top."""
        digits = [k // 3**i % 3 for i in range(10)]
        return MagidorCondition(u, tuple(Block(at_level[d]) for d in digits) + (Block(u.lambda0),))

    def answers(J: IndexSet, k: int):
        g = point(k)
        pos = J.position(g)
        return pos, J.gap_levels(g) if isinstance(pos, Ordinal) else None, index_chain(blocks(k), J)

    for k in range(10 * _MEMO_SIZE):
        answers(I, k)
        assert max(len(I._positions), len(I._chains), len(I._gaps)) <= _MEMO_SIZE
    assert len(I._gaps) > 0
    # What the memos hold after being emptied is still right.
    for k in (0, 1, 33, 1057, 10 * _MEMO_SIZE - 1):
        assert answers(I, k) == answers(fresh, k)
