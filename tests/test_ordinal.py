from __future__ import annotations

import copy
import functools
import gc
import os
import pickle
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordbench.errors import DifferenceUndefined, ParseError
from ordbench.ordinal import (
    _INTERNED,
    MAX_NESTING,
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    add,
    classify,
    cnf_difference,
    compare,
    format_ordinal,
    from_int,
    left_subtract,
    limit_order,
    omega_power,
    ordinal_enumeration,
    parse_ordinal,
)

from conftest import o, nat


def test_compare_identity():
    assert compare(OMEGA, OMEGA) == 0


def test_compare_section3_example():
    assert compare(o("w^w+1"), o("w^w + w^5*3 + 5")) < 0


def test_compare_exponent_dominance():
    assert compare(o("w^2*2"), o("w^3")) < 0


def test_add_absorption():
    assert add(nat(5), OMEGA) == OMEGA
    assert add(o("w+1"), o("w^2")) == o("w^2")


def test_add_section3_example():
    assert add(o("w^w+1"), o("w^5*3+5")) == o("w^w + w^5*3 + 5")


def test_omega_power():
    assert omega_power(ZERO) == ONE
    assert omega_power(OMEGA) == o("w^w")
    assert omega_power(nat(2)) == o("w^2")


def test_cnf_difference_section3_example():
    d = cnf_difference(o("w^w+1"), o("w^w + w^5*3 + 5"))
    assert d == [nat(5)] * 3 + [ZERO] * 5


def test_cnf_difference_equal_is_empty():
    a = o("w^2*2+3")
    assert cnf_difference(a, a) == []


def test_cnf_difference_from_zero():
    target = o("w^2*2+3")
    exps = cnf_difference(ZERO, target)
    acc = ZERO
    for e in exps:
        acc = add(acc, omega_power(e))
    assert acc == target
    assert exps == sorted(exps, key=lambda e: e, reverse=True)


def test_cnf_difference_undefined():
    with pytest.raises(DifferenceUndefined):
        cnf_difference(OMEGA, nat(3))


def test_limit_order():
    assert limit_order(o("w^w")) == OMEGA
    assert limit_order(o("w^2*2+w")) == ONE
    assert limit_order(nat(7)) == ZERO
    with pytest.raises(ValueError):
        limit_order(ZERO)


def test_classify():
    assert classify(ZERO) == "zero"
    assert classify(o("w+1")) == "successor"
    assert classify(o("w^2")) == "limit"


def test_parse_normalizes_noncanonical():
    assert parse_ordinal("1+w") == OMEGA
    assert parse_ordinal("w+w") == o("w*2")
    assert parse_ordinal("w^2+w^2*2") == o("w^2*3")


def test_parse_whitespace_and_nesting():
    assert parse_ordinal(" w^( w + 1 )*2 + 3 ") == parse_ordinal("w^(w+1)*2+3")


def test_parse_errors_have_columns():
    with pytest.raises(ParseError) as err:
        parse_ordinal("x")
    assert err.value.column >= 1
    with pytest.raises(ParseError):
        parse_ordinal("w^")
    with pytest.raises(ParseError):
        parse_ordinal("w+3 junk")
    with pytest.raises(ParseError):
        parse_ordinal("")


def test_parse_nesting_limit():
    def nested(depth):
        return "w^(" * depth + "1" + ")" * depth

    deepest = parse_ordinal(nested(MAX_NESTING))
    assert parse_ordinal(format_ordinal(deepest)) == deepest
    for depth in (MAX_NESTING + 1, 400):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_ordinal(nested(depth))


def test_print_parse_roundtrip():
    pool = ordinal_enumeration()
    for a in pool[:400] + pool[-100:]:
        assert parse_ordinal(format_ordinal(a)) == a


def test_printer_canonical_examples():
    assert format_ordinal(o("w^w + w^5*3 + 5")) == "w^w + w^5*3 + 5"
    assert format_ordinal(ZERO) == "0"
    assert format_ordinal(o("w*3")) == "w*3"


def test_left_subtract():
    assert left_subtract(o("w"), o("w*3")) == o("w*2")
    assert left_subtract(o("w^2+w"), o("w^2+w*2+5")) == o("w+5")
    assert add(o("w^2+w"), left_subtract(o("w^2+w"), o("w^3+1"))) == o("w^3+1")


def test_enumeration_shape():
    pool = ordinal_enumeration()
    assert len(pool) == 2100
    assert len(set(pool)) == 2100
    assert all(not a.terms or a.terms[0][0].is_finite for a in pool[:2000])
    assert any(a.terms and not a.terms[0][0].is_finite for a in pool[2000:])


def test_add_laws_small_sweep():
    rng = random.Random(7)
    pool = ordinal_enumeration()
    for _ in range(3000):
        a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, ZERO) == a and add(ZERO, a) == a
        if compare(b, c) < 0:
            assert compare(add(a, b), add(a, c)) < 0


def test_compare_total_order_sample():
    rng = random.Random(11)
    pool = ordinal_enumeration()
    for _ in range(2000):
        a, b, c = (pool[rng.randrange(len(pool))] for _ in range(3))
        assert (compare(a, b), compare(b, a)) in ((0, 0), (-1, 1), (1, -1))
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0


def test_limit_order_of_powers():
    pool = ordinal_enumeration()
    for e in pool[:300]:
        assert limit_order(omega_power(e)) == e


# -- independent model: ordinals below w^3 as coefficient triples ---------


def _triple_add(x, y):
    a1, b1, c1 = x
    a2, b2, c2 = y
    if a2 > 0:
        return (a1 + a2, b2, c2)
    if b2 > 0:
        return (a1, b1 + b2, c2)
    return (a1, b1, c1 + c2)


def _triple_to_ordinal(t):
    a, b, c = t
    from ordbench.ordinal import ZERO, add, mul_nat, omega_power, from_int

    w = omega_power(from_int(1))
    w2 = omega_power(from_int(2))
    return add(add(mul_nat(w2, a), mul_nat(w, b)), from_int(c))


def test_cross_model_below_w3():
    triples = [
        (a, b, c) for a in range(4) for b in range(4) for c in range(4)
    ]
    for x in triples:
        for y in triples:
            ox, oy = _triple_to_ordinal(x), _triple_to_ordinal(y)
            assert add(ox, oy) == _triple_to_ordinal(_triple_add(x, y))
            assert (compare(ox, oy) < 0) == (x < y)
            if x <= y:
                d = left_subtract(ox, oy)
                assert add(ox, d) == oy


# -- oracle: the recursive CNF comparison on terms ------------------------


def _cnf_compare(a: Ordinal, b: Ordinal) -> int:
    """Lexicographic on (exponent, coefficient) terms, exponents compared
    recursively; a proper prefix is smaller.  Structural, no identity test."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = _cnf_compare(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a.terms) > len(b.terms)) - (len(a.terms) < len(b.terms))


def _from_terms(pairs) -> Ordinal:
    """Sum of w^e*c over arbitrary (e, c) pairs, normalised with the oracle:
    merge equal exponents, then order them descending."""
    coeff: dict = {}
    for e, c in pairs:
        coeff[e] = coeff.get(e, 0) + c
    exps = sorted(coeff, key=functools.cmp_to_key(_cnf_compare), reverse=True)
    return Ordinal(tuple((e, coeff[e]) for e in exps))


# Small coefficients and few terms, so that equal ordinals are drawn often;
# exponents nest to depth three.
ordinals = st.recursive(
    st.just(ZERO),
    lambda inner: st.lists(st.tuples(inner, st.integers(1, 3)), max_size=3).map(_from_terms),
    max_leaves=8,
)


@settings(max_examples=200)
@given(ordinals, ordinals)
def test_key_order_matches_cnf_oracle(a, b):
    sign = _cnf_compare(a, b)
    assert compare(a, b) == sign
    assert (a < b, a <= b, a > b, a >= b) == (sign < 0, sign <= 0, sign > 0, sign >= 0)


@settings(max_examples=200)
@given(ordinals, ordinals)
def test_equal_ordinals_are_identical(a, b):
    assert (a == b) == (a is b) == (_cnf_compare(a, b) == 0)
    assert parse_ordinal(format_ordinal(a)) is a
    assert add(ZERO, a) is a


@settings(max_examples=100)
@given(ordinals)
def test_hash_pickle_and_deepcopy_keep_identity(a):
    assert hash(a) == hash(Ordinal(a.terms))
    assert pickle.loads(pickle.dumps(a)) is a
    assert copy.deepcopy(a) is a


def test_intern_table_is_weak():
    a = Ordinal(((from_int(424242), 987654321),))
    key, ref = a.key, weakref.ref(a)
    assert _INTERNED[key] is a
    del a
    gc.collect()
    assert ref() is None
    assert key not in _INTERNED


def test_ordinals_are_immutable():
    with pytest.raises(AttributeError):
        OMEGA.terms = ()
    with pytest.raises(AttributeError):
        del OMEGA.key


def test_hash_is_the_same_in_fresh_interpreters():
    """Sets of ordinals iterate, and so the CLI prints, in the same order in
    every run only if the hash is value-based."""
    code = "from ordbench.ordinal import parse_ordinal; print(hash(parse_ordinal('w^(w+1)*2+3')))"
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        outs.append(proc.stdout.strip())
    assert outs[0] == outs[1] == str(hash(parse_ordinal("w^(w+1)*2+3")))


def _assert_rejected(terms):
    for t in terms:
        with pytest.raises(ValueError, match="coefficients|exponents"):
            Ordinal(t)


def test_constructor_rejects_invalid_terms_new_key():
    e = from_int(31337)
    f = add(e, ONE)
    # A zero coefficient, ascending exponents and a repeated exponent; the
    # values of the last two, w^f and w^e*2, are not interned.
    assert ((f.key, 1),) not in _INTERNED and ((e.key, 2),) not in _INTERNED
    _assert_rejected([((e, 0),), ((e, 1), (f, 1)), ((e, 1), (e, 1))])


def test_constructor_rejects_invalid_terms_when_value_interned():
    live = [parse_ordinal("w^w"), parse_ordinal("w*2"), ZERO]
    _assert_rejected([((ZERO, 0),), ((ONE, 1), (OMEGA, 1)), ((ONE, 1), (ONE, 1))])
    assert all(x.key in _INTERNED for x in live)
