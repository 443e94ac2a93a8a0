"""JSON document formats: readers for universes, conditions, index sets,
trees, ultrafilter structures, product functions and derivations, and
writers for the documents a verb prints.

Set literals appear in two interchangeable forms: the compact string
grammar ("{0} u [w,w^2)") and the JSON list form (["0", ["w","w^2"]],
singletons as bare literals, intervals as two-element lists, filtered
pieces as objects with "lo", "hi" and a "levels" list).
"""

from __future__ import annotations

import json
import math
from typing import Any

from . import _lazy
from .errors import ParseError
from .ordinal import Ordinal, format_ordinal, parse_ordinal

# The layers run on first use, so decoding one kind loads only its own.
magidor, oset, prikry, projection, ramsey, universe = map(
    _lazy, ("magidor", "oset", "prikry", "projection", "ramsey", "universe"))

__all__ = [
    "set_to_json",
    "set_from_json",
    "universe_to_json",
    "universe_from_json",
    "condition_to_json",
    "condition_from_json",
    "icondition_to_json",
    "icondition_from_json",
    "tree_to_json",
    "tree_from_json",
    "structure_from_json",
    "product_fn_from_json",
    "hashable",
    "derivation_from_json",
    "parse_json",
    "load_document",
]


def _ord(text: Any) -> Ordinal:
    if not isinstance(text, str):
        raise ParseError(f"expected an ordinal literal, got {text!r}")
    return parse_ordinal(text)


def set_to_json(s: oset.OrdinalSet) -> list:
    out: list[Any] = []
    for p in s.pieces:
        if p.levels is not None:
            out.append(
                {
                    "lo": format_ordinal(p.lo),
                    "hi": format_ordinal(p.hi),
                    "levels": [format_ordinal(x) for x in sorted(p.levels)],
                }
            )
        elif p.hi == p.lo.successor():
            out.append(format_ordinal(p.lo))
        else:
            out.append([format_ordinal(p.lo), format_ordinal(p.hi)])
    return out


def set_from_json(doc: Any) -> oset.OrdinalSet:
    if isinstance(doc, str):
        return oset.parse_set(doc)
    if not isinstance(doc, list):
        raise ParseError(f"expected a set literal, got {doc!r}")
    pieces = []
    for item in doc:
        if isinstance(item, str):
            g = _ord(item)
            pieces.append(oset.Piece(g, g.successor()))
        elif isinstance(item, list) and len(item) == 2:
            pieces.append(oset.Piece(_ord(item[0]), _ord(item[1])))
        elif isinstance(item, dict):
            levels = frozenset(_ord(x) for x in _typed(item["levels"], list, "levels"))
            pieces.append(oset.Piece(_ord(item["lo"]), _ord(item["hi"]), levels))
        else:
            raise ParseError(f"bad set piece {item!r}")
    return oset.OrdinalSet(tuple(pieces))


def universe_to_json(u: universe.ToyUniverse) -> dict:
    return {
        "lambda0": format_ordinal(u.lambda0),
        "delta0_bound": format_ordinal(u.delta0_bound),
        "cores": [
            {
                "beta": format_ordinal(beta),
                "xi": format_ordinal(xi),
                "core": set_to_json(core),
            }
            for (beta, xi), core in u.cores
        ],
    }


def universe_from_json(doc: dict) -> universe.ToyUniverse:
    cores = {}
    for entry in doc.get("cores", []):
        key = (_ord(entry["beta"]), _ord(entry["xi"]))
        cores[key] = set_from_json(entry["core"])
    return universe.ToyUniverse(_ord(doc["lambda0"]), _ord(doc["delta0_bound"]), cores)


def _blocks_to_json(blocks) -> list:
    return [
        {
            "kappa": format_ordinal(b.kappa),
            "B": None if b.measure_set is None else set_to_json(b.measure_set),
        }
        for b in blocks
    ]


def _blocks_from_json(doc: list) -> tuple[magidor.Block, ...]:
    out = []
    for entry in doc:
        B = entry.get("B")
        out.append(magidor.Block(_ord(entry["kappa"]), None if B is None else set_from_json(B)))
    return tuple(out)


def _resolve_universe(spec: Any) -> universe.ToyUniverse:
    """The "universe" field is a path or an inline document."""
    if isinstance(spec, str):
        return universe_from_json(load_document(spec))
    return universe_from_json(spec)


def condition_to_json(p: magidor.MagidorCondition) -> dict:
    return {
        "universe": universe_to_json(p.universe),
        "blocks": _blocks_to_json(p.blocks),
    }


def condition_from_json(doc: dict) -> magidor.MagidorCondition:
    u = _resolve_universe(doc["universe"])
    return magidor.MagidorCondition(u, _blocks_from_json(doc["blocks"]))


def icondition_to_json(q: projection.ICondition) -> dict:
    return {**condition_to_json(q), "index": set_to_json(q.index_set.points)}


def icondition_from_json(doc: dict) -> projection.ICondition:
    u = _resolve_universe(doc["universe"])
    return projection.ICondition(
        u, projection.IndexSet(set_from_json(doc["index"])), _blocks_from_json(doc["blocks"])
    )


def tree_to_json(t: prikry.TreeCondition) -> dict:
    return {
        "trunk": list(t.trunk),
        "depth": t.depth,
        "successors": [
            {"node": list(a), "set": sorted(s)}
            for a, s in t.successors
        ],
    }


def _typed(value: Any, cls: type, what: str) -> Any:
    """`value`, which must be of the JSON type `cls` itself: a string is no
    list (it would read as its characters) and a boolean no integer."""
    if type(value) is not cls:
        raise ParseError(f"{what} must be a JSON {cls.__name__}, got {value!r}")
    return value


def _ints(values, what: str) -> tuple[int, ...]:
    """The entries of a JSON list that must hold integers (not booleans)."""
    out = tuple(values)
    if any(type(v) is not int for v in out):
        raise ParseError(f"{what} must hold integers, got {list(out)!r}")
    return out


def tree_from_json(doc: dict) -> prikry.TreeCondition:
    depth = _typed(doc["depth"], int, "tree depth")
    if depth < 0:
        raise ParseError(f"tree depth must be at least 0, got {depth}")
    return prikry.TreeCondition(
        _ints(doc["trunk"], "tree trunk"),
        depth,
        {
            _ints(entry["node"], "successor node"): frozenset(
                _ints(entry["set"], "successor set")
            )
            for entry in doc.get("successors", [])
        },
    )


def _assignment_from_json(doc: dict) -> prikry.UltraAssignment:
    proj = doc.get("pi")
    return prikry.UltraAssignment(
        frozenset(_ints(doc["core"], "a core")),
        None if proj is None else tuple(_ints(vw, "a projection pair") for vw in proj),
    )


def structure_from_json(doc: dict) -> prikry.ToyUltraStructure:
    return prikry.ToyUltraStructure(
        _ints(doc["ground"], "the ground"),
        {
            _ints(entry["node"], "a structure node"): _assignment_from_json(entry)
            for entry in doc.get("nodes", [])
        },
        {
            _ints([entry["level"]], "a level")[0]: _assignment_from_json(entry)
            for entry in doc.get("levels", [])
        },
        None if doc.get("default") is None else _assignment_from_json(doc["default"]),
        _typed(doc.get("tail_default", False), bool, "tail_default"),
    )


def hashable(value: Any) -> Any:
    """A JSON value made fit to be a dict key or a set member: lists freeze
    to tuples, recursively, and an object is a ParseError."""
    if isinstance(value, dict):
        raise ParseError(f"a value cannot be a JSON object: {value!r:.40}")
    if isinstance(value, list):
        return tuple(hashable(v) for v in value)
    return value


def product_fn_from_json(doc: dict) -> ramsey.FiniteProductFn:
    return ramsey.FiniteProductFn(
        tuple(tuple(_typed(f, list, "a factor")) for f in doc["factors"]),
        {tuple(_typed(entry["args"], list, "args")): hashable(entry["value"])
         for entry in doc["table"]},
    )


def derivation_from_json(doc: dict) -> prikry.Derivation:
    fns = tuple(
        {tuple(_typed(entry["args"], list, "args")): entry["value"] for entry in table}
        for table in doc["tables"]
    )
    return prikry.Derivation(_ints(doc["levels"], "derivation levels"), fns)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def _finite(text: str) -> float:
    x = float(text)
    if math.isinf(x):
        raise ValueError(f"{text} is beyond a float's range")
    return x


def parse_json(text: str | bytes, what: str) -> Any:
    """The JSON value of `text` (bytes are UTF-8). Anything else is a
    ParseError that begins with `what`, and so are `NaN`, `Infinity` and
    `-Infinity`, which Python's decoder takes but JSON does not have
    (RFC 8259 section 6), and a number such as `1e999` that a float would
    read as one of them."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text, parse_constant=_refuse_constant, parse_float=_finite)
    except ValueError as err:  # JSONDecodeError and UnicodeDecodeError among them
        raise ParseError(f"{what}: {err}") from err


def load_document(path: str) -> Any:
    """The JSON document in a file; text that is not JSON is a ParseError."""
    with open(path, "rb") as fh:
        return parse_json(fh.read(), f"{path}: not a JSON document")
