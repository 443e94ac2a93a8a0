"""Soundness of the memos kept on values: a warmed value answers every
question as a fresh copy of it does, a returned violation list belongs to
the caller, and a universe's memos stay within their size."""

from __future__ import annotations

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ordbench.errors import WorkbenchError
from ordbench.magidor import validate
from ordbench.oset import OrdinalSet
from ordbench.projection import ICondition, in_D, densify, leq_I, lift, onto_construct, pi, validate_I
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
    assert fresh[1].universe is not u and not fresh[0]._facts
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
