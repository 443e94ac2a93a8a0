from __future__ import annotations

import copy
import functools
import gc
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordbench import ordinal
from ordbench.errors import DifferenceUndefined, ParseError
from ordbench.ordinal import (
    _INTERNED,
    MAX_DIFFERENCE_TERMS,
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
    mul_nat,
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


def test_a_numeral_past_the_conversion_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 1)
    for text, column in [(long, 1), ("w^" + long, 3), ("w*" + long, 3), ("w + 3 + " + long, 9)]:
        with pytest.raises(ParseError, match=f"^numeral longer than {limit} digits") as err:
            parse_ordinal(text)
        assert err.value.column == column
    assert parse_ordinal("1" * limit).as_int() == int("1" * limit)


def test_an_integer_past_the_conversion_limit_prints():
    """The printer writes coefficients and finite exponents of any length,
    longer than the literals the parser accepts."""
    sevens = (10**100_000 - 1) // 9 * 7
    assert format_ordinal(from_int(sevens)) == "7" * 100_000
    ends = 10**99_999 + 1  # every chunk but the first is zero-padded
    assert format_ordinal(omega_power(from_int(ends))) == "w^1" + "0" * 99_998 + "1"
    big = mul_nat(from_int(10**4000), 10**1000)
    assert repr(big) == f"Ordinal('1{'0' * 5000}')"
    assert str(add(OMEGA, big)) == f"w + 1{'0' * 5000}"
    assert format_ordinal(mul_nat(OMEGA, 10**5000)) == f"w*1{'0' * 5000}"


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


def _reference_enumeration() -> tuple[Ordinal, ...]:
    """The pool as a plain loop: zero, then 1- to 3-term ordinals below w^7
    (exponent sets in lexicographic order, coefficients from 1, 2, 3, 5)
    up to 2,000, then w^h*c + t for c = 1, 2 over the first 40 (h, not
    finite) and 12 (t) of those, skipping repeats, up to 100."""
    flat = [ZERO]
    for n in (1, 2, 3):
        for shape in itertools.combinations(range(7), n):
            for cs in itertools.product((1, 2, 3, 5), repeat=n):
                if len(flat) < 2000:
                    flat.append(Ordinal(tuple((nat(e), c) for e, c in zip(shape[::-1], cs))))
    nested = []
    for head in flat[:40]:
        for c in (1, 2):
            for tail in flat[:12]:
                g = add(mul_nat(omega_power(head), c), tail)
                if head.is_finite or g in flat or g in nested or len(nested) == 100:
                    continue
                nested.append(g)
    return tuple(flat + nested)


def test_enumeration_is_frozen():
    # `ordinal-laws` draws its triples from this pool.
    assert ordinal_enumeration() == _reference_enumeration()


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


def _normal_terms(pairs) -> tuple:
    """The terms of the sum of w^e*c over arbitrary (e, c) pairs, normalised
    with the oracle: merge equal exponents, then order them descending."""
    coeff: dict = {}
    for e, c in pairs:
        coeff[e] = coeff.get(e, 0) + c
    exps = sorted(coeff, key=functools.cmp_to_key(_cnf_compare), reverse=True)
    return tuple((e, coeff[e]) for e in exps)


def _from_terms(pairs) -> Ordinal:
    return Ordinal(_normal_terms(pairs))


def _term_lists(inner):
    return st.lists(st.tuples(inner, st.integers(1, 3)), max_size=3)


# Small coefficients and few terms, so that equal ordinals are drawn often;
# exponents nest to depth three.
ordinals = st.recursive(
    st.just(ZERO), lambda inner: _term_lists(inner).map(_from_terms), max_leaves=8
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
    assert hash(a) == hash(Ordinal(a.terms)) == hash(a.key)
    assert pickle.loads(pickle.dumps(a)) is a
    assert copy.deepcopy(a) is a


def test_pickle_of_a_dead_ordinal_builds_it_again():
    data = pickle.dumps(Ordinal(((from_int(424240), 6), (ZERO, 2))))
    gc.collect()
    a = pickle.loads(data)
    assert a is parse_ordinal("w^424240*6 + 2") and a.key in _INTERNED


def _revived(terms) -> Ordinal:
    """An ordinal unpickled after the one that was pickled died."""
    data = pickle.dumps(Ordinal(terms))
    gc.collect()
    return pickle.loads(data)


# Every way to build an ordinal, each on a key no other test interns.
_BUILDERS = {
    "from_int": lambda: from_int(515001),
    "omega_power": lambda: omega_power(from_int(515002)),
    "add": lambda: add(omega_power(from_int(515003)), from_int(7)),
    "predecessor": lambda: parse_ordinal("w^515004 + 9").predecessor(),
    "left_subtract": lambda: left_subtract(o("w^515005"), o("w^515005*3 + 1")),
    "mul_nat": lambda: mul_nat(o("w^515006 + 1"), 4),
    "limit_order": lambda: limit_order(o("w^(w^515009*2)")),
    "cnf_difference": lambda: cnf_difference(ZERO, o("w^(w*515010)"))[0],
    "parse_ordinal": lambda: parse_ordinal("w^515011*2 + w + 3"),
    "Ordinal": lambda: Ordinal(((from_int(515012), 5), (ZERO, 1))),
    "pickle": lambda: _revived(((OMEGA, 2), (from_int(515013), 6))),
}


@pytest.mark.parametrize("build", list(_BUILDERS.values()), ids=list(_BUILDERS))
def test_every_new_ordinal_fills_its_hash_and_terms_on_first_use(build):
    """A new ordinal, however it was built, fills its hash on first use and
    keeps it; `terms`, built from the key on each read, names it again."""
    before = set(_INTERNED)
    x = build()
    assert x.key not in before  # a new ordinal, not one already interned
    above = add(x, ONE)
    assert hash(x) == hash(x.key) == hash(x)  # the first read, then the kept hash
    seen = {x}
    assert Ordinal(x.terms) is x
    assert parse_ordinal(format_ordinal(x)) in seen and x in {Ordinal(x.terms), above}
    assert compare(x, x) == _cnf_compare(x, x) == 0
    assert compare(x, above) == _cnf_compare(x, above) == -1
    assert compare(above, x) == _cnf_compare(above, x) == 1


def test_intern_table_is_weak():
    a = Ordinal(((from_int(424242), 987654321),))
    key, ref = a.key, weakref.ref(a)
    assert _INTERNED[key]() is a
    del a
    gc.collect()
    assert ref() is None
    assert key not in _INTERNED


def test_intern_table_drops_an_ordinal_only_a_cycle_holds():
    gc.disable()
    try:
        cycle = [Ordinal(((from_int(424243), 5),))]
        cycle.append(cycle)
        key, ref = cycle[0].key, weakref.ref(cycle[0])
        del cycle
        # Only the collector can free it.
        assert _INTERNED[key]() is ref() is not None
    finally:
        gc.enable()
    gc.collect()
    assert ref() is None
    assert key not in _INTERNED


def test_late_cleanup_keeps_an_equal_ordinal_built_after_the_first_died():
    a = Ordinal(((from_int(424244), 3),))
    key, first = a.key, _INTERNED[a.key]
    cleanup = first.__callback__  # cleared once it has run
    del a
    gc.collect()
    assert first() is None and key not in _INTERNED
    b = Ordinal(((from_int(424244), 3),))
    assert _INTERNED[key]() is b and parse_ordinal("w^424244*3") is b
    # The first ordinal's cleanup, run only now, leaves b in the table ...
    cleanup(first)
    assert _INTERNED[key]() is b
    # ... and so does it when the first one's dead reference was still in
    # the table when the second ordinal was built.
    del b
    _INTERNED[key] = first
    c = parse_ordinal("w^424244*3")
    assert _INTERNED[key]() is c
    cleanup(first)
    assert _INTERNED[key]() is c and Ordinal(((from_int(424244), 3),)) is c


_VALID_KEYS: set = set()


def _valid_key(key) -> bool:
    """A key is a tuple of (exponent key, int >= 1) pairs whose exponent
    keys are valid and strictly decreasing; valid keys are remembered."""
    if key in _VALID_KEYS:
        return True
    if type(key) is not tuple:
        return False
    for i, pair in enumerate(key):
        if type(pair) is not tuple or len(pair) != 2:
            return False
        e, c = pair
        if type(c) is not int or c < 1 or not _valid_key(e):
            return False
        if i and not key[i - 1][0] > e:
            return False
    _VALID_KEYS.add(key)
    return True


_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), ordinals, ordinals),
        st.tuples(st.just("left_subtract"), ordinals, ordinals),
        st.tuples(st.just("cnf_difference"), ordinals, ordinals),
        st.tuples(st.just("mul_nat"), ordinals, st.integers(0, 4)),
        st.tuples(st.just("predecessor"), ordinals),
        st.tuples(st.just("omega_power"), ordinals),
        st.tuples(st.just("limit_order"), ordinals),
        st.tuples(st.just("from_int"), st.integers(0, 10**6) | st.floats(0, 9) | st.booleans()),
        st.tuples(st.just("parse"), ordinals),
        st.tuples(st.just("terms"), ordinals),
        st.tuples(st.just("construct"), _term_lists(ordinals)),
        st.tuples(st.just("construct"), st.lists(st.tuples(ordinals, st.floats(0, 3)), max_size=2)),
    ),
    max_size=8,
)


def _apply(op, *args):
    if op == "parse":
        return parse_ordinal(format_ordinal(args[0]))
    if op == "terms":
        return args[0].terms
    if op == "predecessor":
        return args[0].predecessor()
    if op == "construct":
        return Ordinal(args[0])
    return globals()[op](*args)


def _run(ops, keep: list[bool]) -> list:
    """Apply the operations in turn; the results at the kept positions."""
    kept = []
    for (op, *args), k in zip(ops, keep):
        try:
            out = _apply(op, *args)
        except (ValueError, DifferenceUndefined):
            continue
        if k:
            kept.append(out)
    return kept


@settings(max_examples=100)
@given(_operations, st.lists(st.booleans(), min_size=8, max_size=8))
def test_intern_table_holds_only_valid_keys_of_live_ordinals(ops, keep):
    kept = _run(ops, keep)
    gc.collect()
    for key, ref in list(_INTERNED.items()):
        assert _valid_key(key), key
        live = ref()
        assert live is not None and live.key == key
    for x in kept:
        if isinstance(x, Ordinal):
            assert _INTERNED[x.key]() is x


def test_constructor_reads_an_iterator_once():
    e = from_int(77777)
    a = Ordinal((t for t in [(e, 3)]))
    assert a.terms == ((e, 3),) and a is parse_ordinal("w^77777*3")


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


def test_negative_integers_are_refused():
    with pytest.raises(ValueError, match="ordinals are non-negative"):
        from_int(-1)
    with pytest.raises(ValueError, match="multiplier must be >= 0"):
        mul_nat(OMEGA, -1)


def test_non_int_coefficients_are_rejected_new_key():
    e = from_int(27183)
    # Neither 918273 nor w^27183 (nor w^27183*2) is interned.
    assert all(k not in _INTERNED for k in ((((), 918273),), ((e.key, 1),), ((e.key, 2),)))
    _assert_rejected([((ZERO, 918273.0),), ((e, 2.5),), ((e, 2.0),), ((e, True),)])
    for n in (918273.0, 7.5, True):
        with pytest.raises(ValueError, match="not an integer"):
            from_int(n)
    assert (((), 918273),) not in _INTERNED and ((e.key, 2),) not in _INTERNED
    assert format_ordinal(from_int(918273)) == "918273"
    assert format_ordinal(Ordinal(((e, 2),))) == "w^27183*2"


def test_non_int_coefficients_are_rejected_when_value_interned():
    seven, w9 = from_int(7), parse_ordinal("w^9*2")
    _assert_rejected([((ZERO, 7.0),), ((from_int(9), 2.0),), ((ZERO, True),), ((ONE, True),)])
    for n in (7.0, True, False):
        with pytest.raises(ValueError, match="not an integer"):
            from_int(n)
    with pytest.raises(ValueError, match="not an integer"):
        mul_nat(OMEGA, 2.0)
    assert from_int(7) is seven and format_ordinal(seven) == "7"
    assert type(seven.key[0][1]) is int and w9.key in _INTERNED


def test_constructor_rejects_non_ordinal_exponents():
    with pytest.raises(ValueError, match="exponents must be ordinals"):
        Ordinal(((0, 1),))
    with pytest.raises(ValueError, match="exponents must be ordinals"):
        Ordinal(((OMEGA.key, 1),))


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


# -- oracles: the views the kernel read from terms before it read keys ----


def _terms_is_zero(a: Ordinal) -> bool:
    return not a.terms


def _terms_is_successor(a: Ordinal) -> bool:
    return bool(a.terms) and _terms_is_zero(a.terms[-1][0])


def _terms_is_limit(a: Ordinal) -> bool:
    return bool(a.terms) and not _terms_is_zero(a.terms[-1][0])


def _terms_is_finite(a: Ordinal) -> bool:
    return not a.terms or (len(a.terms) == 1 and _terms_is_zero(a.terms[0][0]))


def _terms_as_int(a: Ordinal) -> int:
    if _terms_is_zero(a):
        return 0
    if not _terms_is_finite(a):
        raise ValueError(f"{a} is not finite")
    return a.terms[0][1]


def _old_format_atom(e: Ordinal) -> str:
    if e == OMEGA:
        return "w"
    if _terms_is_finite(e):
        return str(_terms_as_int(e))
    return f"({_old_format(e)})"


def _old_format(a: Ordinal) -> str:
    if _terms_is_zero(a):
        return "0"
    parts = []
    for e, c in a.terms:
        if _terms_is_zero(e):
            parts.append(str(c))
        elif e == ONE:
            parts.append("w" if c == 1 else f"w*{c}")
        else:
            base = f"w^{_old_format_atom(e)}"
            parts.append(base if c == 1 else f"{base}*{c}")
    return " + ".join(parts)


@settings(max_examples=200)
@given(_term_lists(ordinals))
def test_terms_match_terms_first_oracle(pairs):
    terms = _normal_terms(pairs)
    a = Ordinal(terms)
    assert a.terms == terms
    assert Ordinal(a.terms) is a
    assert [(e.key, c) for e, c in a.terms] == list(a.key)


@settings(max_examples=300)
@given(ordinals)
def test_key_views_match_terms_oracles(a):
    assert a.is_zero == _terms_is_zero(a) == (not a)
    assert a.is_successor == _terms_is_successor(a)
    assert a.is_limit == _terms_is_limit(a)
    assert a.is_finite == _terms_is_finite(a)
    assert _outcome(a.as_int) == _outcome(_terms_as_int, a)
    assert format_ordinal(a) == _old_format(a)
    if a:
        assert limit_order(a) is a.terms[-1][0]


def test_terms_rebuild_exponents_that_died():
    a = parse_ordinal("w^(w^2*71 + 3)*2 + w^(w*53)")
    gc.collect()
    # The parser kept no exponent alive; `terms` builds them again.
    assert a.key[0][0] not in _INTERNED and a.key[1][0] not in _INTERNED
    assert a.terms == ((parse_ordinal("w^2*71 + 3"), 2), (parse_ordinal("w*53"), 1))


# -- oracles: the terms-first operations the kernel used before it built ---
# -- results by key --------------------------------------------------------


def _old_add(a: Ordinal, b: Ordinal) -> Ordinal:
    bt = b.terms
    if not bt:
        return a
    at = a.terms
    if not at:
        return b
    ak = a.key
    lead = b.key[0][0]
    i = 0
    while i < len(ak) and ak[i][0] > lead:
        i += 1
    if i < len(at) and at[i][0] is bt[0][0]:
        return Ordinal(at[:i] + ((bt[0][0], at[i][1] + bt[0][1]),) + bt[1:])
    return Ordinal(at[:i] + bt)


def _old_mul_nat(a: Ordinal, n: int) -> Ordinal:
    """For n = 1 and a of several terms this built w^e*0 and raised; the
    properties below check that case against a*1 = a instead."""
    if n < 0:
        raise ValueError("multiplier must be >= 0")
    if n == 0 or a.is_zero:
        return ZERO
    e, c = a.terms[0]
    if len(a.terms) == 1:
        return Ordinal(((e, c * n),))
    return _old_add(Ordinal(((e, c * (n - 1)),)), a)


def _old_predecessor(a: Ordinal) -> Ordinal:
    if not a.is_successor:
        raise ValueError(f"{a} is not a successor")
    e, c = a.terms[-1]
    head = a.terms[:-1]
    if c > 1:
        return Ordinal(head + ((e, c - 1),))
    return Ordinal(head)


def _old_left_subtract(a: Ordinal, b: Ordinal) -> Ordinal:
    cmp = _cnf_compare(a, b)
    if cmp > 0:
        raise DifferenceUndefined(f"{a} > {b}")
    if cmp == 0:
        return ZERO
    for i, (ea, ca) in enumerate(a.terms):
        eb, cb = b.terms[i]
        c = _cnf_compare(ea, eb)
        if c < 0:
            return Ordinal(b.terms[i:])
        if c == 0 and ca != cb:
            return Ordinal(((eb, cb - ca),) + b.terms[i + 1 :])
    return Ordinal(b.terms[len(a.terms) :])


class _OldParser:
    """The parser that re-ran the token regex at every peek and take."""

    TOKEN = re.compile(r"\s*(?:(\d+)|(w)|(\^)|(\*)|(\+)|(\()|(\)))")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str):
        raise ParseError(message, column=self.pos + 1)

    def peek(self):
        m = self.TOKEN.match(self.text, self.pos)
        return m.group(m.lastindex or 0) if m else None

    def take(self):
        m = self.TOKEN.match(self.text, self.pos)
        if not m:
            return None
        self.pos = m.end()
        return m.group(m.lastindex or 0)

    def expect(self, token: str):
        got = self.take()
        if got != token:
            self.error(f"expected {token!r}, found {got!r}")

    def at_end(self) -> bool:
        return self.pos >= len(self.text) or self.text[self.pos :].isspace()

    def ordinal(self) -> Ordinal:
        value = self.term()
        while self.peek() == "+":
            self.take()
            value = _old_add(value, self.term())
        return value

    def term(self) -> Ordinal:
        tok = self.take()
        if tok is None:
            self.error("expected a term")
        if tok.isdigit():
            return from_int(int(tok))
        if tok != "w":
            self.error(f"unexpected token {tok!r}")
        exponent = ONE
        if self.peek() == "^":
            self.take()
            exponent = self.atom()
        coeff = 1
        if self.peek() == "*":
            self.take()
            c = self.take()
            if c is None or not c.isdigit() or int(c) < 1:
                self.error("expected a nonzero coefficient after '*'")
            coeff = int(c)
        return _old_mul_nat(Ordinal(((exponent, 1),)), coeff)

    def atom(self) -> Ordinal:
        tok = self.peek()
        if tok == "(":
            if self.depth == MAX_NESTING:
                self.error(f"exponents nested deeper than {MAX_NESTING}")
            self.take()
            self.depth += 1
            inner = self.ordinal()
            self.depth -= 1
            self.expect(")")
            return inner
        tok = self.take()
        if tok == "w":
            return OMEGA
        if tok is not None and tok.isdigit():
            return from_int(int(tok))
        self.error(f"expected an exponent atom, found {tok!r}")


def _old_parse(text: str) -> Ordinal:
    p = _OldParser(text)
    if p.at_end():
        p.error("empty ordinal literal")
    value = p.ordinal()
    if not p.at_end():
        p.error(f"trailing input: {text[p.pos:].strip()!r}")
    return value


def _outcome(fn, *args):
    """The result, or the raised error's type, message and column."""
    try:
        return fn(*args)
    except (ValueError, ParseError, DifferenceUndefined) as err:
        return type(err), str(err), getattr(err, "column", None)


@settings(max_examples=300)
@given(ordinals, ordinals)
def test_add_and_left_subtract_match_terms_first_oracle(a, b):
    assert add(a, b) is _old_add(a, b)
    assert add(b, a) is _old_add(b, a)
    assert _outcome(left_subtract, a, b) == _outcome(_old_left_subtract, a, b)
    lo, hi = (a, b) if a <= b else (b, a)
    assert left_subtract(lo, hi) is _old_left_subtract(lo, hi)


@settings(max_examples=200)
@given(ordinals, st.integers(0, 3), st.integers(0, 6))
def test_predecessor_and_mul_nat_match_terms_first_oracle(a, k, n):
    for x in (a, add(a, from_int(k))):
        assert _outcome(x.predecessor) == _outcome(_old_predecessor, x)
    if n == 1:
        assert mul_nat(a, 1) is a
    else:
        assert mul_nat(a, n) is _old_mul_nat(a, n)


def test_mul_nat_by_one():
    a = parse_ordinal("w^2*3 + w + 1")
    assert mul_nat(a, 1) is a
    assert mul_nat(a, 2) is parse_ordinal("w^2*6 + w + 1")


@settings(max_examples=200)
@given(ordinals)
def test_parser_matches_old_parser_on_printed_ordinals(a):
    text = format_ordinal(a)
    assert parse_ordinal(text) is _old_parse(text) is a


# Tokens of the grammar, whitespace, a non-ASCII decimal digit that the
# token pattern accepts, and characters it does not.
_literal_pieces = st.sampled_from(
    ["w", "^", "*", "+", "(", ")", "0", "1", "2", "13", " ", "\t", "٣", "x", "-", ".", "ω"]
)


@st.composite
def _malformed_literals(draw) -> str:
    body = "".join(draw(st.lists(_literal_pieces, max_size=12)))
    if draw(st.booleans()):
        return body
    # Nesting around the depth limit, closed or not.
    depth = draw(st.integers(MAX_NESTING - 2, MAX_NESTING + 2))
    closing = draw(st.integers(max(depth - 2, 0), depth))
    return "w^(" * depth + (body or "1") + ")" * closing


def _error_examples(test):
    """One `@example` per error branch of the parser, and the nesting limit."""
    for text in ("", "  ", "w+", "x", "w^", "w^x", "w*", "w*0", "w*x", "w^(1", "w 2",
                 "w+3 junk", "٣", "w^(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1)):
        test = example(text)(test)
    return test


@settings(max_examples=500)
@given(_malformed_literals())
@_error_examples
def test_parser_errors_match_old_parser(text):
    assert _outcome(parse_ordinal, text) == _outcome(_old_parse, text)


def test_parser_makes_one_ordinal_per_printed_literal(monkeypatch):
    made = []

    def counted(key, _make=ordinal._make):
        made.append(key)
        return _make(key)

    monkeypatch.setattr(ordinal, "_make", counted)
    pool = ordinal_enumeration()
    for a in (*pool[:200], *pool[-100:], parse_ordinal("w^(w^(w+1)*2 + 3)*4 + w^w + 7")):
        made.clear()
        assert parse_ordinal(format_ordinal(a)) is a
        assert made == [a.key]


def test_parser_interns_only_the_literal():
    text = "w^(w^424270*3 + 424271)*5 + w^424272 + 424273"
    before = set(_INTERNED)
    a = parse_ordinal(text)
    # No term, exponent or partial sum of the literal was alive before it.
    parts = [(a.key[0],), a.key[0][0], (a.key[1],), a.key[1][0], (a.key[2],), a.key[:2]]
    assert not before.intersection(parts)
    assert set(_INTERNED) - before == {a.key}


def test_cnf_difference_cap():
    assert cnf_difference(ZERO, from_int(MAX_DIFFERENCE_TERMS)) == [ZERO] * MAX_DIFFERENCE_TERMS
    big = parse_ordinal(f"w*{MAX_DIFFERENCE_TERMS // 2} + {MAX_DIFFERENCE_TERMS // 2 + 1}")
    with pytest.raises(ValueError, match=f"cap of {MAX_DIFFERENCE_TERMS}"):
        cnf_difference(ZERO, big)
    # The cap counts the difference, not the operands.
    assert cnf_difference(from_int(10**12), parse_ordinal("w^2")) == [from_int(2)]
