"""Command-line workbench: parse, validate, compute, report.

Exit codes: 0 for ok/true results, 1 for violations or false results,
2 for input errors.  Machine mode emits one JSON document tagged with a
schema name; inputs are echoed canonically so outputs re-parse.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from . import _lazy, ordinal
from .errors import ParseError, WorkbenchError
from .ordinal import format_ordinal, parse_ordinal

# The other layers run on first use, so a call loads only what its verb needs.
# Module-level tables below therefore name library functions inside lambdas:
# reading an attribute here would load its module when the CLI is imported.
generic, io, magidor, oset, prikry, projection, ramsey = map(
    _lazy, ("generic", "io", "magidor", "oset", "prikry", "projection", "ramsey"))


def _load_json(text: str):
    if os.path.exists(text):
        return io.load_document(text)
    return io.parse_json(text, f"not a file and not JSON: {text[:40]!r}")


def _set_literal(text: str):
    if os.path.exists(text):
        return io.set_from_json(io.load_document(text))
    try:
        return oset.parse_set(text)
    except ParseError as err:
        # Text that is not JSON either gets the literal's own error.
        try:
            doc = io.parse_json(text, "not JSON")
        except ParseError:
            raise err from None
    return io.set_from_json(doc)


def _document(decode: Callable) -> Callable:
    """A decoder for a JSON document given as a path or as inline text."""
    return lambda text: decode(_load_json(text))


def _family(d) -> dict[int, set[int]]:
    return {int(k): set(io._ints(v, "a set")) for k, v in d.items()}


# Argument kind -> decoder from the command-line text.
KINDS: dict[str, Callable] = {
    "ord": parse_ordinal,
    "set": _set_literal,
    "uni": _document(lambda d: io.universe_from_json(d)),
    "cond": _document(lambda d: io.condition_from_json(d)),
    "icond": _document(lambda d: io.icondition_from_json(d)),
    "int": int,
    "ints": lambda text: tuple(int(x) for x in text.split(",")),
    "str": str,
    "alphas": _document(lambda d: tuple(
        tuple(parse_ordinal(a) for a in io._typed(gap, list, "a gap")) for gap in d)),
    "shrink": _document(
        lambda d: {parse_ordinal(e["kappa"]): io.set_from_json(e["B"]) for e in d}
    ),
    "tree": _document(lambda d: io.tree_from_json(d)),
    "structure": _document(lambda d: io.structure_from_json(d)),
    "fn": _document(lambda d: io.product_fn_from_json(d)),
    "derivation": _document(lambda d: io.derivation_from_json(d)),
    "family": _document(_family),
    # One set per level (an object), or the one set of the constant sequence (a list).
    "sets": _document(lambda d: _family(d) if isinstance(d, dict) else set(io._ints(d, "a set"))),
    "tuples": _document(lambda d: [io._ints(t, "a tuple") for t in d]),
    "tables": _document(lambda d: [{int(k): io.hashable(v) for k, v in t.items()} for t in d]),
    "graph": _document(
        lambda d: {tuple(io._typed(e["args"], list, "args")): io.hashable(e["value"]) for e in d}),
    "target": _document(lambda d: {io.hashable(t) for t in io._typed(d, list, "target")}),
}
# Kinds echoed in machine mode -> (input kind, canonical JSON rendering).
ECHOED = {
    "ord": ("ordinal", format_ordinal),
    "set": ("set", lambda s: io.set_to_json(s)),
    "uni": ("universe", lambda u: io.universe_to_json(u)),
    "cond": ("condition", lambda p: io.condition_to_json(p)),
    "icond": ("icondition", lambda q: io.icondition_to_json(q)),
}
# Kinds whose verb arguments are refused as malformed unless valid -> the check.
# The validity verbs take their document as a string and decode it unchecked.
CHECKED = {"cond": lambda p: magidor.validate(p), "icond": lambda q: projection.validate_I(q)}


def _gaps(gaps) -> list:
    return [[format_ordinal(a) for a in gap] for gap in gaps]


class Report:
    """Collects the result payload, the human rendering and the echoed inputs."""

    def __init__(self, schema: str):
        self.payload: dict = {"schema": schema}
        self.lines: list[str] = []
        self.inputs: list[dict] = []
        self.code = 0

    def decode(self, kind: str, text: str):
        """Decode one argument; a document of the wrong shape is a ParseError."""
        try:
            value = KINDS[kind](text)
        except KeyError as err:
            raise ParseError(f"malformed {kind} argument: missing field {err}") from err
        except (TypeError, AttributeError, IndexError, RecursionError) as err:
            raise ParseError(f"malformed {kind} argument: {err}") from err
        if kind in ECHOED:
            name, render = ECHOED[kind]
            self.inputs.append({"kind": name, "value": render(value)})
        return value

    def set(self, key: str, value, human: str | None = None):
        self.payload[key] = value
        if human is not None:
            self.lines.append(human)
        return self

    def verdict(self, ok: bool, yes: str, no: str):
        self.code = 0 if ok else 1
        self.lines.append(yes if ok else no)
        return self

    def text(self, word: str):
        return self.set("result", word, word)

    def ordinal(self, g):
        return self.text(format_ordinal(g))

    def oset(self, s):
        return self.set("result", io.set_to_json(s), oset.format_set(s))

    def blocks(self, cond, key: str = "result", label: str = ""):
        to_json = (io.icondition_to_json if isinstance(cond, projection.ICondition)
                   else io.condition_to_json)
        return self.set(key, to_json(cond), f"{label}{len(cond.blocks)} blocks")

    def extension_type(self, x: magidor.ExtensionType, key: str = "result"):
        return self.set(key, _gaps(x.per_block), str(x))

    def check(self, ok: bool, yes: str, no: str):
        return self.set("result", ok).verdict(ok, yes, no)

    def extends(self, ok: bool):
        return self.check(ok, "extends", "does not extend")

    def violations(self, found: list):
        self.set("violations", found)
        self.lines.extend(found)
        return self.verdict(not found, "ok", f"{len(found)} violation(s)")


# ---------------------------------------------------------------------------
# The verb table
#
# An argument spec is "name:kind" for a positional, "--flag:kind" for an
# optional flag (None when left out or empty), "--flag:kind!" for a required
# one, or a bare "--flag" for a store-true switch.
# The handler gets the report and the decoded values in spec order.
# ---------------------------------------------------------------------------


class Verb(NamedTuple):
    op: str  # "module.operation", the public operation the verb exposes
    args: str  # space-separated argument specs
    run: Callable  # run(report, *values)


VERBS: dict[tuple[str, str], Verb] = {}


def verb(group: str, name: str, op: str, args: str):
    def register(run: Callable) -> Callable:
        VERBS[group, name] = Verb(op, args, run)
        return run

    return register


def _sequence(p, restriction):
    return generic.CanonicalSequence(p.universe.lambda0, restriction)


verb("ord", "add", "ordinal.add", "a:ord b:ord")(lambda r, a, b: r.ordinal(a + b))


@verb("ord", "diff", "ordinal.cnf_difference", "a:ord b:ord")
def _ord_diff(rep, a, b):
    exps = [format_ordinal(e) for e in ordinal.cnf_difference(a, b)]
    rep.set("result", exps, "<" + ",".join(exps) + ">")


verb("ord", "cmp", "ordinal.compare", "a:ord b:ord")(
    lambda r, a, b: r.text(("equal", "greater", "less")[ordinal.compare(a, b)]))
verb("ord", "olimit", "ordinal.limit_order", "a:ord")(
    lambda r, a: r.ordinal(ordinal.limit_order(a)))
verb("ord", "classify", "ordinal.classify", "a:ord")(lambda r, a: r.text(ordinal.classify(a)))
verb("ord", "wpow", "ordinal.omega_power", "a:ord")(lambda r, a: r.ordinal(ordinal.omega_power(a)))

verb("set", "union", "oset.union", "a:set b:set")(lambda r, a, b: r.oset(a.union(b)))
verb("set", "inter", "oset.intersect", "a:set b:set")(lambda r, a, b: r.oset(a.intersect(b)))
verb("set", "diff", "oset.difference", "a:set b:set")(lambda r, a, b: r.oset(a.difference(b)))
verb("set", "member", "oset.membership", "a:set b:ord")(
    lambda r, s, g: r.check(g in s, "member", "not a member"))
verb("set", "restrict-below", "oset.restrict_below", "a:set b:ord")(
    lambda r, s, g: r.oset(s.restrict_below(g)))
verb("set", "restrict-above", "oset.restrict_above", "a:set b:ord")(
    lambda r, s, g: r.oset(s.restrict_above(g)))
verb("set", "stratum", "universe.stratum", "--universe:uni! a:ord --below:ord")(
    lambda r, u, xi, below: r.oset(u.stratum(xi, u.lambda0 if below is None else below)))


@verb("uni", "check", "universe.check", "universe:str")
def _uni_check(rep, text):
    # A document that decodes but breaks a universe invariant is a
    # violation (exit 1), not malformed input.
    try:
        u = rep.decode("uni", text)
    except ValueError as err:
        rep.set("violations", [str(err)])
        return rep.verdict(False, "", f"invalid: {err}")
    rep.set("universe", io.universe_to_json(u))
    rep.violations([])


verb("uni", "large", "universe.is_large", "universe:uni b_set:set beta:ord xi:ord")(
    lambda r, u, B, beta, xi: r.check(u.is_large(B, beta, xi), "large", "not large"))
verb("uni", "star", "universe.star_closure", "universe:uni b_set:set beta:ord")(
    lambda r, u, B, beta: r.oset(u.star_closure(B, beta)))


@verb("uni", "stratify", "universe.stratify", "universe:uni b_set:set beta:ord")
def _uni_stratify(rep, u, B, beta):
    parts = u.stratify(B, beta)
    doc = {format_ordinal(k): io.set_to_json(v) for k, v in parts.items()}
    pairs = sorted((str(k), v) for k, v in parts.items())
    rep.set("result", doc, "; ".join(f"{k}: {oset.format_set(v)}" for k, v in pairs))


verb("cond", "validate", "magidor.validate", "c1:str")(
    lambda r, text: r.violations(magidor.validate(r.decode("cond", text))))
verb("cond", "leq", "magidor.leq", "c1:cond c2:cond --star")(
    lambda r, p, q, star: r.extends((magidor.leq_star if star else magidor.leq)(p, q)))
verb("cond", "gamma", "magidor.gamma_of", "c1:cond index:int")(
    lambda r, p, i: r.ordinal(magidor.gamma_of(p, i)))
verb("cond", "type-of", "magidor.type_of", "c1:cond alphas:alphas")(
    lambda r, p, alphas: r.extension_type(magidor.type_of(p, alphas)))
verb("cond", "extend", "magidor.extend", "c1:cond alphas:alphas --shrink:shrink")(
    lambda r, p, alphas, shrink: r.blocks(magidor.extend(p, alphas, shrink)))


@verb("cond", "find-type", "magidor.find_type", "c1:cond c2:cond")
def _cond_find_type(rep, p, q):
    x, alphas = magidor.find_type(p, q)
    rep.extension_type(x, "type").set("alphas", _gaps(alphas))


verb("cond", "unveil", "magidor.unveil_type", "c1:cond gamma:ord")(
    lambda r, p, gamma: r.extension_type(magidor.unveil_type(p, gamma)))


@verb("cond", "split", "magidor.split_at", "c1:cond index:int")
def _cond_split(rep, p, i):
    lower, upper = magidor.split_at(p, i)
    rep.blocks(lower, "lower", "lower: ")
    if upper is None:
        rep.set("upper", None, "upper: empty")
    else:
        rep.blocks(upper, "upper", "upper: ")


verb("cond", "join", "magidor.join", "c1:cond --c2:cond")(
    lambda r, lower, upper: r.blocks(magidor.join(lower, upper)))


@verb("proj", "index", "projection.index_of", "c1:cond index:int --index:set!")
def _proj_index(rep, p, i, S):
    out = projection.index_of(p, i, projection.IndexSet(S))
    text = None if out is None else format_ordinal(out)
    rep.set("result", text, "NA" if text is None else text)


verb("proj", "pi", "projection.pi", "c1:cond --index:set!")(
    lambda r, p, S: r.blocks(projection.pi(p, projection.IndexSet(S))))
verb("proj", "validate", "projection.validate_I", "c1:str")(
    lambda r, text: r.violations(projection.validate_I(r.decode("icond", text))))
verb("proj", "leq", "projection.leq_I", "c1:icond c2:icond --star")(
    lambda r, p, q, star: r.extends((projection.leq_I_star if star else projection.leq_I)(p, q)))


@verb("proj", "in-d", "projection.in_D", "c1:cond --index:set!")
def _proj_in_d(rep, p, S):
    bad = projection.in_D(p, projection.IndexSet(S))
    if bad is None:
        return rep.set("result", None).verdict(True, "in D", "")
    repair = None if bad.repair is None else format_ordinal(bad.repair)
    where = {"block": bad.block_index, "coordinate": format_ordinal(bad.coordinate)}
    rep.set("result", {**where, "clause": bad.clause, "repair": repair})
    rep.verdict(
        False,
        "",
        f"fails clause {bad.clause} at block {bad.block_index} (coordinate {bad.coordinate})",
    )


verb("proj", "densify", "projection.densify", "c1:cond --index:set!")(
    lambda r, p, S: r.blocks(projection.densify(p, projection.IndexSet(S))))
verb("proj", "onto", "projection.onto_construct", "c1:icond")(
    lambda r, q: r.blocks(projection.onto_construct(q)))
verb("proj", "lift", "projection.lift", "c1:cond c2:icond")(
    lambda r, p, q: r.blocks(projection.lift(p, q)))
verb("proj", "check-correct", "projection.correct_computation_check", "c1:cond --index:set!")(
    lambda r, p, S: r.check(projection.correct_computation_check(p, projection.IndexSet(S)),
                            "computes the index set correctly", "mismatch"))


@verb("proj", "refine-clubs", "projection.refine_to_clubs", "c1:set --roots:str!")
def _proj_refine_clubs(rep, cstar, roots):
    out = projection.refine_to_clubs([parse_ordinal(r) for r in roots.split(",")], cstar)
    out = [format_ordinal(r) for r in out]
    rep.set("result", out, ", ".join(out))


verb("proj", "quotient-member", "projection.quotient_member", "c1:cond --index:set!")(
    lambda r, p, S: r.check(projection.quotient_member(p, projection.IndexSet(S)),
                            "in the quotient filter", "not in the quotient filter"))

verb("gen", "in-filter", "generic.in_filter", "c1:cond --restrict:set")(
    lambda r, p, R: r.check(generic.in_filter(p, _sequence(p, R)),
                            "in the filter", "not in the filter"))
verb("gen", "otp", "generic.interval_otp", "lambda0:ord a:ord b:ord --restrict:set")(
    lambda r, l0, a, b, R: r.ordinal(generic.interval_otp(generic.CanonicalSequence(l0, R), a, b)))
verb("gen", "compatible", "generic.filter_pair_compatible", "c1:cond c2:cond --restrict:set")(
    lambda r, p, q, R: r.check(generic.filter_pair_compatible(p, q, _sequence(p, R)),
                               "compatible", "not compatible"))


def _certificate(rep, got, key: str, human: Callable):
    """A Ramsey search's (sub-factors, witness), or its absence."""
    if got is None:
        return rep.set("result", None).verdict(False, "", "not found")
    factors = [list(h) for h in got[0]]
    rep.set("result", {"factors": factors, key: got[1]})
    rep.verdict(True, human(factors, got[1]), "")


verb("ramsey", "homog", "ramsey.homogenize", "fn:fn --min-sizes:ints!")(
    lambda r, F, sizes: _certificate(r, ramsey.homogenize(F, sizes), "color",
                                     lambda hs, c: f"color {c} on {hs}"))
verb("ramsey", "important", "ramsey.important_coordinates", "fn:fn --min-sizes:ints!")(
    lambda r, F, sizes: _certificate(r, ramsey.important_coordinates(F, sizes), "coordinates",
                                     lambda hs, I: f"important coordinates {list(I)}"))

verb("prikry", "validate", "prikry.validate_tree", "a:tree --structure:structure!")(
    lambda r, t, u: r.violations(prikry.validate_tree(t, u)))
verb("prikry", "leq", "prikry.leq_tree", "a:tree b:tree --structure:structure! --star")(
    lambda r, s, t, u, star: r.extends((prikry.leq_tree_star if star else prikry.leq_tree)(s, t, u)))


@verb("prikry", "normalize", "prikry.normalize_dense", "a:tree --structure:structure!")
def _prikry_normalize(rep, t, u):
    out = prikry.normalize_dense(t, u)
    rep.set("result", io.tree_to_json(out), f"depth {out.depth} tree")


verb("prikry", "validate-seq", "prikry.validate_sequence_condition",
     "a:sets --structure:structure! --trunk:ints")(
    lambda r, sets, u, trunk: r.violations(prikry.validate_sequence_condition(trunk or (), sets, u)))


@verb("prikry", "diag", "prikry.modified_diag", "a:family k:int --structure:structure!")
def _prikry_diag(rep, family, k, u):
    out = sorted(prikry.modified_diag(u, family, k))
    rep.set("result", out, str(out))


verb("prikry", "limit-member", "prikry.limit_ultrafilter_member",
     "a:tuples n:int --structure:structure!")(
    lambda r, X, n, u: r.check(prikry.limit_ultrafilter_member(u, X, n), "member", "not a member"))
verb("prikry", "p-point", "prikry.is_p_point",
     "a:tables bound:int --structure:structure! --node:ints")(
    lambda r, family, bound, u, node: r.check(prikry.is_p_point(u, node or (), bound, family),
                                              "p-point on the family", "not a p-point"))


@verb("prikry", "derive", "prikry.apply_derivation", "a:derivation branch:ints")
def _prikry_derive(rep, d, branch):
    out = list(prikry.apply_derivation(d, branch))
    distinct, counts = prikry.derivation_profile(d)
    rep.set("result", out, f"sequence {out}")
    rep.set("profile", {"levels": list(distinct), "counts": list(counts)})


verb("prikry", "project", "prikry.project_ultrafilter",
     "fn:graph a:target n:int --structure:structure!")(
    lambda r, table, target, n, u: r.check(
        prikry.project_ultrafilter(u, table, n)(target), "member", "not a member"))

GROUPS = tuple(dict.fromkeys(group for group, _ in VERBS))


def _chooser(prog: str, dest: str, choices, **kw) -> argparse.ArgumentParser:
    """A parser whose one positional picks a name and keeps the rest of argv.

    The name may be left out, so that `main` can answer with the top-level
    help and exit 2.
    """
    parser = argparse.ArgumentParser(prog=prog, **kw)
    parser.add_argument(dest, nargs=argparse.PARSER, choices=choices).required = False
    return parser


def _verb_parser(group: str, name: str):
    """The parser for one verb, and (dest, kind, optional) for each of its specs."""
    parser = argparse.ArgumentParser(prog=f"ordbench {group} {name}")
    fields = []
    for spec in VERBS[group, name].args.split():
        flag, _, kind = spec.partition(":")
        if not flag.startswith("--"):
            parser.add_argument(flag)
            fields.append((flag, kind, False))
            continue
        # `proj index` takes a positional index besides the --index flag
        dest = "index_set" if flag == "--index" else flag[2:].replace("-", "_")
        required = kind.endswith("!")
        if kind:
            parser.add_argument(flag, dest=dest, required=required)
        else:
            parser.add_argument(flag, action="store_true")
        fields.append((dest, kind.rstrip("!"), not required))
    return parser, fields


def main(argv=None) -> int:
    top = _chooser("ordbench", "group", GROUPS, description=__doc__)
    top.add_argument("--machine", action="store_true", help="emit one JSON document")
    args = top.parse_args(argv)
    group, *rest = args.group or [""]
    verbs = [name for g, name in VERBS if g == group]
    picked = _chooser(f"ordbench {group}", "verb", verbs).parse_args(rest).verb
    if not picked:
        top.print_help()
        return 2
    name, *rest = picked
    parser, fields = _verb_parser(group, name)
    ns = parser.parse_args(rest)
    rep = Report(f"ordbench.{group}.{name}/1")
    try:
        values = []
        for dest, kind, optional in fields:
            value = getattr(ns, dest)
            if kind:  # a store-true switch has no kind
                value = None if optional and not value else rep.decode(kind, value)
            found = value is not None and kind in CHECKED and CHECKED[kind](value)
            if found:
                raise ParseError(f"invalid {kind} argument {dest}: {found[0]}")
            values.append(value)
        VERBS[group, name].run(rep, *values)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except WorkbenchError as err:
        print(f"error: {err.__class__.__name__}: {err}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    if not args.machine:
        for line in rep.lines:
            print(line)
        return rep.code
    if rep.inputs:
        rep.payload["inputs"] = rep.inputs
    print(json.dumps(rep.payload, sort_keys=True))
    return rep.code


if __name__ == "__main__":
    sys.exit(main())
