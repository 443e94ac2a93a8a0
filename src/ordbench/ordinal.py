"""Hereditary Cantor-normal-form ordinals below epsilon_0.

An ordinal is a finite sum  w^e1*c1 + ... + w^ek*ck  with strictly
decreasing exponents (themselves ordinals) and positive integer
coefficients.  The empty sum is 0.  Values are immutable and hash-consed:
two equal ordinals are the same object, so equality is identity.  Each
ordinal carries a native key, a nested tuple whose Python order is the
ordinal order.

Construction invariant: every ordinal is made by `_make(key)`, which costs
one probe of the intern table on a hit and, on a miss, one slot store (the
key) and one table store, and never validates.  The public constructor
`Ordinal(terms)` checks what it is handed (ordinal exponents, strictly
decreasing, coefficients of type exactly `int` and >= 1), as `from_int`
and `mul_nat` check their integer; every other operation (`add`,
`predecessor`, `left_subtract`, `omega_power`) slices its key from valid
operand keys.  The parser builds a literal's key from its tokens and makes
one ordinal, at the end: a key whose exponents strictly decrease, each
exponent itself such a key and each coefficient a positive `int`, or else
the `add` of its terms.  So the table never holds an invalid key.

A new ordinal stores its key alone.  Its hash is computed from the key when
first asked for and kept, so an ordinal that dies unread never pays for it;
`terms` is a view built from the key on each read, and the other views
(`is_zero`, `is_limit`, `as_int`, ...) and the printer read the key.  The
printer writes integers of any length, so a result may be longer than a
literal the parser accepts.  `compare` decides equality by identity and the
order by one key comparison.  The table is a plain dict from key to a weak
reference that carries the key: when the ordinal dies, the reference's
callback removes the entry if it is still that dead reference, so an equal
ordinal built in the meantime stays.

Levels, the strata of the set algebra, are ordinal arithmetic on keys: the
level of g is its final exponent `olim(g)`, the least point of level xi at
or past g is g or g + w^xi, and the greatest below a bound is read off one
split of the bound's key at xi.
"""

from __future__ import annotations

import functools
import itertools
import re
import sys
import weakref
from _weakref import _remove_dead_weakref

from . import _Record
from .errors import DifferenceUndefined, ParseError, UnsupportedRegion

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "from_int",
    "omega_power",
    "compare",
    "add",
    "mul_nat",
    "left_subtract",
    "cnf_difference",
    "limit_order",
    "olim",
    "least_in_level",
    "level_sup_below",
    "feasible_levels",
    "classify",
    "parse_ordinal",
    "format_ordinal",
    "ordinal_enumeration",
]


class _Ref(weakref.ref):
    """The table's weak reference to an ordinal, with the ordinal's key."""

    __slots__ = ("key",)


# key -> a weak reference to the one live Ordinal with that key.
_INTERNED: dict[tuple, _Ref] = {}
_probe = _INTERNED.get


def _drop(ref: _Ref, _remove=_remove_dead_weakref, _table=_INTERNED) -> None:
    # The reference's callback: its ordinal has died.  The entry goes only
    # if it is still this dead reference, never a live one that replaced it.
    _remove(_table, ref.key)


def _make(key: tuple) -> "Ordinal":
    """The interned ordinal with this key, which must be valid."""
    ref = _probe(key)
    if ref is not None:
        self = ref()
        if self is not None:
            return self
    self = _new(Ordinal)
    _set_key(self, key)
    ref = _Ref(self, _drop)
    ref.key = key
    _INTERNED[key] = ref
    return self


class Ordinal(_Record):
    """CNF ordinal: (exponent, coefficient) terms, exponents descending.

    `key` is ((e1.key, c1), ..., (ek.key, ck)).  Tuple order, where a proper
    prefix is smaller, is lexicographic order on terms, which is CNF order.
    """

    __slots__ = ("key", "_hash", "__weakref__")

    key: tuple

    def __new__(cls, terms: tuple[tuple["Ordinal", int], ...] = ()):
        key = []
        for e, c in terms:
            if e.__class__ is not Ordinal:
                raise ValueError("exponents must be ordinals")
            if c.__class__ is not int or c < 1:
                raise ValueError("coefficients must be integers >= 1")
            if key and key[-1][0] <= e.key:
                raise ValueError("exponents must be strictly decreasing")
            key.append((e.key, c))
        return _make(tuple(key))

    @property
    def terms(self) -> tuple[tuple["Ordinal", int], ...]:
        """((e1, c1), ..., (ek, ck)), built from `key` on each read."""
        return tuple([(_make(e), c) for e, c in self.key])

    def __reduce__(self):
        # Unpickling and deep-copying go through the intern table.
        return (Ordinal, (self.terms,))

    __eq__ = object.__eq__  # hash-consed, so equality is identity

    # The order is the key order.
    def __lt__(self, other: "Ordinal") -> bool:
        return self.key < other.key

    def __le__(self, other: "Ordinal") -> bool:
        return self.key <= other.key

    def __gt__(self, other: "Ordinal") -> bool:
        return self.key > other.key

    def __ge__(self, other: "Ordinal") -> bool:
        return self.key >= other.key

    def __add__(self, other: "Ordinal") -> "Ordinal":
        return add(self, other)

    def __bool__(self) -> bool:
        return bool(self.key)

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({format_ordinal(self)!r})"

    def __hash__(self) -> int:
        # Value-based, not id-based, so set order (and output) is the same
        # in every run.  Computed on first use and kept.
        try:
            return self._hash
        except AttributeError:
            h = hash(self.key)
            _set_hash(self, h)
            return h

    # The exponent 0 has the key (), so `not e` below reads "e is 0".
    @property
    def is_zero(self) -> bool:
        return not self.key

    @property
    def is_successor(self) -> bool:
        key = self.key
        return bool(key) and not key[-1][0]

    @property
    def is_limit(self) -> bool:
        key = self.key
        return bool(key) and bool(key[-1][0])

    @property
    def is_finite(self) -> bool:
        key = self.key
        return not key or (len(key) == 1 and not key[0][0])

    def as_int(self) -> int:
        """The integer value of a finite ordinal."""
        key = self.key
        if not key:
            return 0
        if len(key) > 1 or key[0][0]:
            raise ValueError(f"{self} is not finite")
        return key[0][1]

    def successor(self) -> "Ordinal":
        return add(self, ONE)

    def predecessor(self) -> "Ordinal":
        """The unique b with b+1 = self; only successors have one."""
        key = self.key
        if not key or key[-1][0]:
            raise ValueError(f"{self} is not a successor")
        c = key[-1][1]
        return _make(key[:-1] + (((), c - 1),) if c > 1 else key[:-1])


# Slot stores that skip the frozen `__setattr__`: `_make` stores the key
# alone, and `__hash__` fills its slot on first use.
_new = object.__new__
_set_key = Ordinal.key.__set__
_set_hash = Ordinal._hash.__set__

ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    if n.__class__ is not int:
        raise ValueError(f"not an integer: {n!r}")
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return _make((((), n),)) if n else ZERO


def omega_power(e: Ordinal) -> Ordinal:
    """w^e as a single-term ordinal (w^0 = 1)."""
    return _make(((e.key, 1),))


def compare(a: Ordinal, b: Ordinal) -> int:
    """-1, 0, 1 for a<b, a=b, a>b; lexicographic on (exponent, coefficient)."""
    if a is b:  # hash-consed, so equal ordinals are one object
        return 0
    return 1 if a.key > b.key else -1


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum: terms of a below b's leading exponent are absorbed."""
    bk = b.key
    if not bk:
        return a
    ak = a.key
    lead = bk[0][0]
    i, n = 0, len(ak)
    while i < n and ak[i][0] > lead:
        i += 1
    if i < n and ak[i][0] == lead:
        return _make(ak[:i] + ((lead, ak[i][1] + bk[0][1]),) + bk[1:])
    return _make(ak[:i] + bk) if i else b


def mul_nat(a: Ordinal, n: int) -> Ordinal:
    """a*n for a natural multiplier (right factor)."""
    if n.__class__ is not int:
        raise ValueError(f"not an integer: {n!r}")
    if n < 0:
        raise ValueError("multiplier must be >= 0")
    key = a.key
    if n == 0 or not key:
        return ZERO
    # (w^e*c + rest)*n = w^e*(c*n) + rest  for n >= 1.
    e, c = key[0]
    return _make(((e, c * n),) + key[1:])


def _difference_key(a: Ordinal, b: Ordinal) -> tuple:
    """The key of the unique d with a + d = b, for a <= b."""
    order = compare(a, b)
    if order > 0:
        raise DifferenceUndefined(f"{a} > {b}")
    if not order:
        return ()
    ak, bk = a.key, b.key
    # a < b, so at the first term where they differ a's exponent or
    # coefficient is the smaller, or else a is a proper prefix of b.
    for i, (ea, ca) in enumerate(ak):
        eb, cb = bk[i]
        if ea != eb:
            # a's remaining terms are absorbed by b's i-th term.
            return bk[i:]
        if ca != cb:
            # b continues with a larger coefficient at the same exponent.
            return ((eb, cb - ca),) + bk[i + 1 :]
    return bk[len(ak) :]


def left_subtract(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique d with a + d = b, for a <= b."""
    return _make(_difference_key(a, b))


# Most exponents `cnf_difference` lists (one per unit of coefficient), so a
# difference such as 0 to 10^12 is refused before its list is allocated.
MAX_DIFFERENCE_TERMS = 2**18


def cnf_difference(a: Ordinal, b: Ordinal) -> list[Ordinal]:
    """Exponents nu_1 >= ... >= nu_m with a + w^nu_1 + ... + w^nu_m = b.

    Coefficients are expanded into repeated exponents; empty for a = b.
    """
    key = _difference_key(a, b)
    count = sum(c for _, c in key)
    if count > MAX_DIFFERENCE_TERMS:
        raise ValueError(
            f"{count} exponents in the difference, more than the cap of {MAX_DIFFERENCE_TERMS}"
        )
    out: list[Ordinal] = []
    for e, c in key:
        out.extend([_make(e)] * c)
    return out


def limit_order(a: Ordinal) -> Ordinal:
    """o_L(a): the final CNF exponent; 0 exactly for successors."""
    if a.is_zero:
        raise ValueError("limit_order undefined for 0")
    return olim(a)


def olim(g: Ordinal) -> Ordinal:
    """o_L with the universe convention o(0) = 0."""
    key = g.key
    return _make(key[-1][0]) if key else ZERO


def least_in_level(xi: Ordinal, start: Ordinal) -> Ordinal:
    """Least g >= start with olim(g) = xi: a point between start and
    start + w^xi adds some d < w^xi to start, so has d's level, below xi."""
    return start if olim(start) is xi else add(start, omega_power(xi))


def level_sup_below(xi: Ordinal, bound: Ordinal) -> tuple[Ordinal, bool] | None:
    """(sup, attained) of {g < bound | olim(g) = xi}; None when empty.

    Split bound = H + w^xi*c + T, H's exponents above xi and T's below.
    The greatest such g is H + w^xi*c when c > 0 < T, or H + w^xi*(c-1)
    when c > 1; else they are cofinal in H > 0, or are 0 alone, or none."""
    key, x = bound.key, xi.key
    i, n = 0, len(key)
    while i < n and key[i][0] > x:
        i += 1
    c = key[i][1] if i < n and key[i][0] == x else 0
    if c and i + 1 < n:
        return _make(key[: i + 1]), True
    if c > 1:
        return _make(key[:i] + ((x, c - 1),)), True
    if i:
        return _make(key[:i]), False
    return (ZERO, True) if key and not x else None


def feasible_levels(lo: Ordinal, hi: Ordinal) -> list[Ordinal]:
    """All xi with a level-xi point in [lo, hi); requires hi < w^w."""
    if hi <= lo:
        return []
    lead = _make(hi.key[0][0])  # hi > lo >= 0
    if not lead.is_finite:
        raise UnsupportedRegion(f"stratified algebra needs a bound below w^w, got {hi}")
    levels = map(from_int, range(lead.as_int() + 2))
    return [xi for xi in levels if least_in_level(xi, lo) < hi]


def classify(a: Ordinal) -> str:
    """'zero' | 'successor' | 'limit'."""
    if a.is_zero:
        return "zero"
    return "successor" if a.is_successor else "limit"


# ---------------------------------------------------------------------------
# Literal grammar
#
#   ordinal := term ("+" term)* | "0"
#   term    := "w" "^" atom ("*" nat)? | "w" ("*" nat)? | nat
#   atom    := nat | "w" | "(" ordinal ")"
#
# A parse builds the literal's key and makes one ordinal, at the end.
# Exponent atoms are keys, a parenthesised one the key of its own sum.  A sum
# whose exponents strictly decrease (every printed ordinal) is its own key;
# a non-canonical one (ascending or duplicate exponents) is the left-to-right
# ordinal sum of its terms, by `add`.
# ---------------------------------------------------------------------------

# A literal's tokens are the longest run of `_TOKEN` matches from its start.
_TOKEN = re.compile(r"\s*(\d+|[w^*+()])")

# Deepest parenthesised exponent a literal may nest; the parser recurses
# once per level, so deeper input would exhaust the interpreter's stack.
MAX_NESTING = 100

_ONE_KEY = ONE.key
_OMEGA_KEY = OMEGA.key


def _matches(text: str) -> list[re.Match]:
    return list(iter(_TOKEN.scanner(text).match, None))


def _error(text: str, i: int, message: str) -> ParseError:
    """The error at the end of the first i tokens.  Taking the None token,
    the rest of the text, does not move past the last token, so i may be
    one more than the token count."""
    ends = [0] + [m.end() for m in _matches(text)]
    return ParseError(message, column=ends[min(i, len(ends) - 1)] + 1)


def _sum_key(text: str, tokens: list, i: int, depth: int) -> tuple[tuple, int]:
    """The key of the sum whose first term is token i, and the index of the
    token after it.  `tokens` ends with None, which stands for the rest of
    the text."""
    terms: list[tuple[tuple, int]] = []
    ordered = True
    while True:
        tok = tokens[i]
        if tok == "w":
            e, c = _ONE_KEY, 1
            i += 1
            tok = tokens[i]
            if tok == "^":
                tok = tokens[i + 1]
                if tok == "(":
                    if depth == MAX_NESTING:
                        raise _error(text, i + 1, f"exponents nested deeper than {MAX_NESTING}")
                    e, i = _sum_key(text, tokens, i + 2, depth + 1)
                    if tokens[i] != ")":
                        raise _error(text, i + 1, f"expected ')', found {tokens[i]!r}")
                    i += 1
                elif tok == "w":
                    e = _OMEGA_KEY
                    i += 2
                elif tok is not None and tok.isdigit():
                    n = int(tok)
                    e = (((), n),) if n else ()
                    i += 2
                else:
                    raise _error(text, i + 2, f"expected an exponent atom, found {tok!r}")
                tok = tokens[i]
            if tok == "*":
                tok = tokens[i + 1]
                c = int(tok) if tok is not None and tok.isdigit() else 0
                if c < 1:
                    raise _error(text, i + 2, "expected a nonzero coefficient after '*'")
                i += 2
        elif tok is None:
            raise _error(text, i, "expected a term")
        elif tok.isdigit():
            e, c = (), int(tok)
            i += 1
        else:
            raise _error(text, i + 1, f"unexpected token {tok!r}")
        if c:  # a term 0 adds nothing
            if terms and terms[-1][0] <= e:
                ordered = False
            terms.append((e, c))
        if tokens[i] != "+":
            break
        i += 1
    if ordered:
        return tuple(terms), i
    value = ZERO
    for term in terms:
        value = add(value, _make((term,)))
    return value.key, i


def parse_ordinal(text: str) -> Ordinal:
    tokens = _TOKEN.findall(text)
    # Those are all the tokens when each non-space character lies in one;
    # otherwise they end where the first other one begins.
    whole = "".join(tokens) == "".join(text.split())
    if not whole:
        tokens = [m[1] for m in _matches(text)]
    if not text or text.isspace():
        raise ParseError("empty ordinal literal", column=1)
    tokens.append(None)
    try:
        key, i = _sum_key(text, tokens, 0, 0)
    except ValueError:  # `int` refuses a numeral past the interpreter's limit
        limit = sys.get_int_max_str_digits()
        run = next(m for m in _matches(text) if m[1].isdigit() and len(m[1]) > limit)
        raise ParseError(f"numeral longer than {limit} digits", column=run.start(1) + 1) from None
    if tokens[i] is not None or not whole:
        column = _error(text, i, "").column
        raise ParseError(f"trailing input: {text[column - 1:].strip()!r}", column=column)
    return _make(key)


# `str` refuses an integer longer than the interpreter's conversion limit
# (640 digits at the least); `format_ordinal` then prints each integer in
# chunks of fewer digits.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """n >= 0 in decimal, however many digits it has."""
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(f"{r:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _format_key(key: tuple, decimal=str) -> str:
    parts = []
    for e, c in key:
        if not e:
            parts.append(decimal(c))
            continue
        if len(e) == 1 and not e[0][0]:  # a finite exponent n
            n = e[0][1]
            base = "w" if n == 1 else f"w^{decimal(n)}"
        elif e == _OMEGA_KEY:
            base = "w^w"
        else:
            base = f"w^({_format_key(e, decimal)})"
        parts.append(base if c == 1 else f"{base}*{decimal(c)}")
    return " + ".join(parts) or "0"


def format_ordinal(a: Ordinal) -> str:
    try:
        return _format_key(a.key)
    except ValueError:  # an integer too long for `str`
        return _format_key(a.key, _decimal)


@functools.cache
def ordinal_enumeration() -> tuple[Ordinal, ...]:
    """Frozen test enumeration: 2,000 ordinals below w^w plus 100 nested ones.

    The flat part walks term counts, exponents and coefficients in a fixed
    order; the nested part reuses small flat ordinals as exponents.
    """
    exps = [from_int(k) for k in range(7)]
    terms = (
        Ordinal(tuple(zip(shape[::-1], cs)))
        for n in (1, 2, 3)
        for shape in itertools.combinations(exps, n)
        for cs in itertools.product((1, 2, 3, 5), repeat=n)
    )
    flat = (ZERO, *itertools.islice(terms, 1999))
    heads = [o for o in flat[:40] if not o.is_zero and not o.is_finite]
    nested = (add(mul_nat(omega_power(head), c), tail)
              for head in heads for c in (1, 2) for tail in flat[:12])
    seen = set(flat)
    # The filter records each new ordinal in `seen` (`set.add` returns None).
    fresh = (o for o in nested if o not in seen and not seen.add(o))
    return flat + tuple(itertools.islice(fresh, 100))
