"""The four seeded workloads of the ordbench benchmark.

Each workload is a class built from a seed and a pool size. Building it is
the workload's set-up: it imports the layers it drives and generates every
input. Its `check(instance, api)` makes one checked verdict: it calls the
library through `api` (so a traced run can put a span around each call),
verifies the answer, and returns "ok", or "refused" for a documented
refusal. A wrong answer raises `Wrong`.

The input generators below are frozen copies of the test helpers' logic
(`tests/conftest.py`, `tests/test_projection.py`). They are kept here on
purpose, so that a later edit to a test cannot silently change a workload.
Every instance draws from its own `random.Random(seed * 1_000_003 + id)`,
so the first instances of a pool are the same at every pool size.
"""

from __future__ import annotations

import contextlib
import io as _io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable


class Wrong(Exception):
    """A verdict that contradicts the lemma being checked or the CLI contract."""


def _expect(ok: bool, what: str):
    if not ok:
        raise Wrong(what)


@dataclass
class Instance:
    id: int
    kind: str
    data: Any


def _rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


class Workload:
    """What every workload has: a pool of instances and its refusals."""

    per_second: float  # pool instances generated per second of run
    trace_instances = 60  # instances in the traced run
    refusals: tuple = ()  # exceptions that are documented refusals
    spawns = False  # whether a verdict runs in a child process
    certificates = 0  # Ramsey certificates returned so far
    instances: list[Instance]
    api_functions: dict[str, Callable]


class Api:
    """The library calls a workload makes, by name.

    Untraced, each attribute is the library function itself; traced, it is
    the same function wrapped by `wrap(name, fn)`.
    """

    def __init__(self, functions: dict[str, Callable], wrap=None):
        for name, fn in functions.items():
            setattr(self, name, fn if wrap is None else wrap(name, fn))


# ---------------------------------------------------------------------------
# ordinal-laws: L0 only
# ---------------------------------------------------------------------------


class OrdinalLaws(Workload):
    """Batches of random triples and pairs from `ordinal_enumeration()`.

    Each instance checks, per triple, associativity of `add`, the right
    identity of 0 and left-monotonicity against `compare`; per pair, the
    `cnf_difference` round trip and the `parse_ordinal(format_ordinal(x))`
    round trip. One triple takes about 0.1 ms, so triples are batched to
    keep each verdict well above the scheduler's resolution.
    """

    per_second = 45
    trace_instances = 40  # each makes about 2,000 library calls
    triples = 300
    pairs = 75

    def __init__(self, seed: int, size: int):
        from ordbench import ordinal

        self.pool = ordinal.ordinal_enumeration()
        self.zero = ordinal.ZERO
        self.api_functions = {
            name: getattr(ordinal, name)
            for name in (
                "add",
                "compare",
                "cnf_difference",
                "omega_power",
                "format_ordinal",
                "parse_ordinal",
            )
        }
        n = len(self.pool)
        self.instances = []
        for i in range(size):
            rng = _rng(seed, i)
            triples = [
                tuple(self.pool[rng.randrange(n)] for _ in range(3))
                for _ in range(self.triples)
            ]
            pairs = [
                (self.pool[rng.randrange(n)], self.pool[rng.randrange(n)])
                for _ in range(self.pairs)
            ]
            self.instances.append(Instance(i, "laws", (triples, pairs)))

    def check(self, inst: Instance, api: Api) -> str:
        triples, pairs = inst.data
        zero = self.zero
        for a, b, c in triples:
            _expect(
                api.add(api.add(a, b), c) == api.add(a, api.add(b, c)),
                "add is not associative",
            )
            _expect(api.add(a, zero) == a, "0 is not a right identity")
            if api.compare(b, c) < 0:
                _expect(
                    api.compare(api.add(a, b), api.add(a, c)) < 0,
                    "add is not left-monotone",
                )
        for a, b in pairs:
            if api.compare(a, b) > 0:
                a, b = b, a
            exps = api.cnf_difference(a, b)
            _expect(
                all(api.compare(x, y) >= 0 for x, y in zip(exps, exps[1:])),
                "cnf_difference exponents increase",
            )
            acc = a
            for e in exps:
                acc = api.add(acc, api.omega_power(e))
            _expect(acc == b, "cnf_difference does not round-trip")
            for x in (a, b):
                _expect(
                    api.parse_ordinal(api.format_ordinal(x)) == x,
                    "format/parse does not round-trip",
                )
        return "ok"


# ---------------------------------------------------------------------------
# condition-sweep: L0-L4 conditions, projection and the generic filter
# ---------------------------------------------------------------------------


class ConditionSweep(Workload):
    """A fixed rotation of four instance kinds over w^2, w^3 and w^3*2+w.

    The kinds mirror acceptance criteria 3-6 without their brute-force
    oracles: partition, densification, projection lemma, generic filter.
    A single partition or densification check takes about a tenth of the
    others, so those kinds are batched. The projection lemma, the dearest
    and most varied check, comes twice per rotation: that puts the median
    verdict inside the generic-filter cluster rather than in a gap between
    kinds, and gives the tail more distinct instances.
    """

    per_second = 36
    trace_instances = 160
    partition_batch = 6
    densify_batch = 12
    kinds = (
        ("partition", ("w^2", "w^3", "w^3*2+w")),
        ("densification", ("w^2", "w^3", "w^3*2+w")),
        ("projection", ("w^2", "w^3")),
        ("generic", ("w^2", "w^3", "w^3*2+w")),
        ("projection", ("w^3", "w^2")),
    )

    def __init__(self, seed: int, size: int):
        import conditions as g
        from ordbench import errors, generic, magidor, ordinal, projection

        self.zero, self.omega_power = ordinal.ZERO, ordinal.omega_power
        # densify may refuse a condition it cannot repair; the lemma is then
        # vacuous for that instance.
        self.refusals = (errors.RepairImpossible,)
        self.api_functions = {
            name: getattr(mod, name)
            for mod, names in (
                (magidor, ("find_type", "type_of", "extend", "leq_star", "leq", "validate")),
                (
                    projection,
                    ("densify", "in_D", "pi", "validate_I", "onto_construct", "lift", "leq_I"),
                ),
                (generic, ("in_filter", "filter_pair_compatible", "interval_otp")),
            )
            for name in names
        }
        self.sequences = {
            lam: generic.CanonicalSequence(u.lambda0) for lam, u in g.UNIVERSES.items()
        }
        self.instances = []
        for i in range(size):
            kind, lams = self.kinds[i % len(self.kinds)]
            lam = lams[(i // len(self.kinds)) % len(lams)]
            u = g.UNIVERSES[lam]
            rng = _rng(seed, i)
            if kind == "partition":
                pairs = []
                for _ in range(self.partition_batch):
                    p = g.random_condition(u, rng, max_steps=2)
                    pairs.append((p, g.random_extension(p, rng, max_points=2)))
                data = (pairs,)
            elif kind == "densification":
                I = g.random_iset(u, rng)
                batch = [g.random_condition(u, rng, max_steps=2) for _ in range(self.densify_batch)]
                data = (I, batch)
            elif kind == "projection":
                I = g.random_iset(u, rng)
                p = g.projection_condition(u, I, rng, steps=2)
                data = (I, p, g.random_extension(p, rng, max_points=2))
            else:
                q = g.canonical_chain(u, rng)
                data = (lam, q, g.weakening(q, rng), g.canonical_chain(u, rng))
            self.instances.append(Instance(i, kind, data))

    def check(self, inst: Instance, api: Api) -> str:
        return getattr(self, "_" + inst.kind)(api, *inst.data)

    def _partition(self, api, pairs):
        for p, q in pairs:
            x, alphas = api.find_type(p, q)
            _expect(api.type_of(p, alphas) == x, "type_of disagrees with find_type")
            _expect(
                api.leq_star(api.extend(p, alphas), q), "extension by the found type is not <=*"
            )
        return "ok"

    def _densification(self, api, I, conditions):
        outcome = "ok"
        for p in conditions:
            try:
                q = api.densify(p, I)
            except self.refusals:
                outcome = "refused"
                continue
            _expect(api.in_D(q, I) is None, "densify left a linkage failure")
            _expect(api.leq(p, q), "densify did not extend")
            _expect(api.densify(q, I) == q, "densify is not idempotent")
        return outcome

    def _projection(self, api, I, p, ext):
        _expect(api.in_D(p, I) is None, "generated condition is not correctly linked")
        q = api.pi(p, I)
        _expect(api.validate_I(q) == [], "projection is not a valid I-condition")
        p2 = api.onto_construct(q)
        _expect(api.pi(p2, I) == q and api.in_D(p2, I) is None, "onto preimage is wrong")
        r = api.densify(ext, I)
        _expect(api.leq(p, r), "densified extension does not extend")
        pr = api.pi(r, I)
        _expect(api.leq_I(q, pr), "projection does not preserve the order")
        lifted = api.lift(p, pr)
        _expect(api.leq(p, lifted), "lift does not extend")
        _expect(api.pi(lifted, I) == pr, "lift does not project back")
        return "ok"

    def _generic(self, api, lam, q, weak, other):
        seq = self.sequences[lam]
        u = q.universe
        _expect(api.in_filter(q, seq), "canonical chain is not in the filter")
        if not api.validate(weak) and api.leq(weak, q):
            _expect(api.in_filter(weak, seq), "filter is not closed upward")
        _expect(api.filter_pair_compatible(q, other, seq), "filter is not directed")
        zero, omega_power = self.zero, self.omega_power
        prev = None
        for b in q.blocks:
            if prev is not None:
                ob = u.o(b.kappa)
                expect = omega_power(ob) if not ob.is_zero else zero
                _expect(api.interval_otp(seq, prev, b.kappa) == expect, "wrong interval order type")
            prev = b.kappa
        return "ok"


# ---------------------------------------------------------------------------
# ramsey-search: integers only, bypasses L0-L3
# ---------------------------------------------------------------------------


def _increasing(hs):
    return [t for t in itertools.product(*hs) if all(a < b for a, b in zip(t, t[1:]))]


class RamseySearch(Workload):
    """Finite product functions through `homogenize` and `important_coordinates`.

    Instances alternate between a batch of functions from the exhaustive
    2-factor 3x3 grid (all 512 colourings, in seeded order) and one random
    3-factor 4x4x4 near-projection with noise below 0.3. `None` is a
    legitimate verdict at finite scale.
    """

    per_second = 10
    trace_instances = 30
    # A near-projection takes about 120 ms and one grid function 0.4 ms;
    # half the grid per instance keeps both kinds in one latency cluster.
    grid_batch = 256

    def __init__(self, seed: int, size: int):
        from ordbench import ramsey

        self.api_functions = {
            "homogenize": ramsey.homogenize,
            "important_coordinates": ramsey.important_coordinates,
        }
        factors2 = [[1, 2, 3], [4, 5, 6]]
        grid = [(a, b) for a in factors2[0] for b in factors2[1]]
        colourings = list(range(2 ** len(grid)))
        random.Random(seed).shuffle(colourings)
        grid_fns = [
            ramsey.build_product_fn(factors2, lambda a, b: (bits >> grid.index((a, b))) & 1)
            for bits in colourings
        ]
        factors3 = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]
        self.instances = []
        for i in range(size):
            rng = _rng(seed, i)
            if i % 2 == 0:
                start = (i // 2 * self.grid_batch) % len(grid_fns)
                fns = grid_fns[start : start + self.grid_batch]
                self.instances.append(Instance(i, "grid", (fns, [2, 2])))
            else:
                # Coordinate and noise level are stratified over the pool,
                # so the mix is the same at every seed.
                k = i // 2
                coord = k % 3
                noise = 0.3 * ((k // 3) % 5 + rng.random()) / 5
                F = ramsey.build_product_fn(
                    factors3,
                    lambda a, b, c: (a, b, c)[coord] if rng.random() > noise else rng.randrange(3),
                )
                self.instances.append(Instance(i, "near", ([F], [2, 2, 2])))

    def check(self, inst: Instance, api: Api) -> str:
        fns, min_sizes = inst.data
        for F in fns:
            hom = api.homogenize(F, min_sizes)
            imp = api.important_coordinates(F, min_sizes)
            if hom is not None:
                hs, colour = hom
                self._check_subproduct(F, hs, min_sizes)
                _expect(
                    all(F(t) == colour for t in _increasing(hs)),
                    "homogenize certificate is not monochromatic",
                )
                # The empty coordinate set is tried first, and on it the
                # search is exactly homogenize's.
                _expect(imp == (hs, ()), "important_coordinates disagrees with homogenize")
            if imp is not None:
                hs, I = imp
                self._check_subproduct(F, hs, min_sizes)
                _expect(
                    list(I) == sorted(set(I)) and all(1 <= i <= len(hs) for i in I),
                    "important_coordinates returned a malformed coordinate set",
                )
                tuples = _increasing(hs)
                for s in tuples:
                    for t in tuples:
                        same = all(s[i - 1] == t[i - 1] for i in I)
                        _expect((F(s) == F(t)) == same, "important coordinates do not decide F")
                _expect(hom is not None or I != (), "empty coordinate set without homogeneity")
            self.certificates += (hom is not None) + (imp is not None)
        return "ok"

    @staticmethod
    def _check_subproduct(F, hs, min_sizes):
        _expect(
            len(hs) == len(F.factors)
            and all(
                len(h) >= m and list(h) == sorted(set(h)) and set(h) <= set(f)
                for h, f, m in zip(hs, F.factors, min_sizes)
            )
            and bool(_increasing(hs)),
            "certificate is not an admissible sub-product",
        )


# ---------------------------------------------------------------------------
# cli-calls: one fresh interpreter per call
# ---------------------------------------------------------------------------


CALL_TIMEOUT_S = 60  # a call still running then is killed and fails


class CliCalls(Workload):
    """Every verb of the CLI round-trip corpus plus the exit-code contract.

    Each instance is one `python -m ordbench.cli --machine ...` call in a
    fresh interpreter; the pool is the corpus in a seeded shuffled order.
    The input documents are written at set-up.
    """

    per_second = 0  # the pool is the corpus
    spawns = True

    def __init__(self, seed: int, size: int, workdir: str):
        from conditions import UNIVERSES, canonical_condition
        from ordbench import io
        from ordbench.ordinal import parse_ordinal
        from ordbench.oset import parse_set
        from ordbench.projection import IndexSet, pi

        self.api_functions = {}
        o = parse_ordinal
        u = UNIVERSES["w^2"]

        def cond(kappas):
            return canonical_condition(u, [o(k) for k in kappas])

        p = cond(["w"])
        I41 = "{0} u [w,w^2)"
        docs = {
            "c.json": io.condition_to_json(p),
            "c3.json": io.condition_to_json(cond(["w", "w+1", "w*2"])),
            "u.json": io.universe_to_json(u),
            "q.json": io.icondition_to_json(pi(p, IndexSet(parse_set(I41)))),
            "s.json": {
                "ground": [0, 1, 2, 3, 4, 5],
                "nodes": [],
                "levels": [],
                "default": {"core": [3, 4, 5], "pi": None},
                "tail_default": True,
            },
            "t.json": {"trunk": [0, 2], "depth": 2, "successors": []},
            "f.json": {
                "factors": [[1, 2], [3, 4]],
                "table": [{"args": [a, b], "value": a} for a in (1, 2) for b in (3, 4)],
            },
            "d.json": {
                "levels": [1, 2],
                "tables": [[{"args": [2], "value": 5}], [{"args": [2, 4], "value": 6}]],
            },
        }
        path = {}
        for name, doc in docs.items():
            path[name] = os.path.join(workdir, name)
            with open(path[name], "w") as fh:
                json.dump(doc, fh)
        c, c3, uni, q, s, t, f, d = (path[n] for n in docs)
        fam = json.dumps({str(a): [0, 1, 2, 3, 4, 5] for a in range(6)})
        pairs = json.dumps([[a, b] for a in range(6) for b in range(a + 1, 6)])
        bad_cond = json.dumps(
            {
                "universe": io.universe_to_json(u),
                "blocks": [
                    {"kappa": "w*2", "B": [["0", "w*2"]]},
                    {"kappa": "w", "B": [["0", "w"]]},
                    {"kappa": "w^2", "B": [["w*2+1", "w^2"]]},
                ],
            }
        )
        corpus = [
            (["ord", "add", "w^w+1", "w^5*3+5"], 0),
            (["ord", "diff", "w^w+1", "w^w + w^5*3 + 5"], 0),
            (["ord", "cmp", "w^2*2", "w^3"], 0),
            (["ord", "olimit", "w^2*2+w"], 0),
            (["ord", "classify", "w+1"], 0),
            (["ord", "wpow", "w"], 0),
            (["set", "union", "[0,w)", "{w*2}"], 0),
            (["set", "inter", "[0,w)", "[5,w^2)"], 0),
            (["set", "diff", "[0,w^2)", "[w,w*2)"], 0),
            (["set", "member", "{0} u [w,w^2)", "w+3"], 0),
            (["set", "restrict-below", "[0,w^2)", "w"], 0),
            (["set", "restrict-above", "[0,w^2)", "w"], 0),
            (["set", "stratum", "1", "--universe", uni], 0),
            (["uni", "check", uni], 0),
            (["uni", "large", uni, "[w,w^2)", "w^2", "1"], 0),
            (["uni", "star", uni, "[w,w^2)", "w^2"], 0),
            (["uni", "stratify", uni, "[0,w^2)", "w^2"], 0),
            (["cond", "validate", c], 0),
            (["cond", "leq", c, c, "--star"], 0),
            (["cond", "gamma", c, "1"], 0),
            (["cond", "type-of", c, "[[],[]]"], 0),
            (["cond", "extend", c, '[["1","2"],[]]'], 0),
            (["cond", "find-type", c, c], 0),
            (["cond", "unveil", c3, "w+3"], 0),
            (["cond", "split", c3, "1"], 0),
            (["cond", "join", c], 0),
            (["proj", "index", c, "1", "--index", I41], 0),
            (["proj", "pi", c, "--index", I41], 0),
            (["proj", "validate", q], 0),
            (["proj", "leq", q, q], 0),
            (["proj", "in-d", c, "--index", I41], 0),
            (["proj", "densify", c, "--index", I41], 0),
            (["proj", "onto", q], 0),
            (["proj", "lift", c, q], 0),
            (["proj", "check-correct", c, "--index", I41], 0),
            (["proj", "refine-clubs", "[0,w] u [w+2,w^2)", "--roots", "w,w^2"], 0),
            (["proj", "quotient-member", c, "--index", I41], 0),
            (["gen", "in-filter", c], 0),
            (["gen", "otp", "w^2", "w", "w*2"], 0),
            (["gen", "compatible", c, c], 0),
            (["ramsey", "homog", f, "--min-sizes", "1,2"], 0),
            (["ramsey", "important", f, "--min-sizes", "2,2"], 0),
            (["prikry", "validate", t, "--structure", s], 0),
            (["prikry", "leq", t, t, "--structure", s], 0),
            (["prikry", "normalize", t, "--structure", s], 0),
            (
                ["prikry", "validate-seq", json.dumps({"3": [3, 4, 5]}), "--structure", s,
                 "--trunk", "0,2"],
                0,
            ),
            (["prikry", "diag", fam, "0", "--structure", s], 0),
            (["prikry", "limit-member", pairs, "2", "--structure", s], 0),
            (
                ["prikry", "p-point", json.dumps([{str(v): v for v in range(6)}]), "1",
                 "--structure", s],
                0,
            ),
            (["prikry", "derive", d, "2,4"], 0),
            (
                ["prikry", "project", json.dumps([{"args": [a], "value": a} for a in range(6)]),
                 json.dumps([3, 4, 5]), "1", "--structure", s],
                0,
            ),
            # The exit-code contract: false verdicts exit 1, malformed input 2.
            (["set", "member", "[0,w)", "w*2"], 1),
            (["cond", "validate", bad_cond], 1),
            (["ord", "add", "x", "1"], 2),
        ]
        order = list(range(len(corpus)))
        random.Random(seed).shuffle(order)
        self.instances = [Instance(i, "call", corpus[j]) for i, j in enumerate(order)]
        if size:
            self.instances = self.instances[:size]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env = dict(os.environ, PYTHONPATH=src)
        as_set = (io.set_from_json, io.set_to_json)
        as_cond = (io.condition_from_json, io.condition_to_json)
        self.reparsers = {
            "ordbench.ord.add/1": (parse_ordinal, str),
            "ordbench.ord.olimit/1": (parse_ordinal, str),
            "ordbench.ord.wpow/1": (parse_ordinal, str),
            "ordbench.gen.otp/1": (parse_ordinal, str),
            "ordbench.set.union/1": as_set,
            "ordbench.set.inter/1": as_set,
            "ordbench.set.diff/1": as_set,
            "ordbench.set.restrict-below/1": as_set,
            "ordbench.set.restrict-above/1": as_set,
            "ordbench.set.stratum/1": as_set,
            "ordbench.uni.star/1": as_set,
            "ordbench.cond.extend/1": as_cond,
            "ordbench.proj.densify/1": as_cond,
            "ordbench.proj.onto/1": as_cond,
            "ordbench.proj.lift/1": as_cond,
            "ordbench.proj.pi/1": (io.icondition_from_json, io.icondition_to_json),
            "ordbench.prikry.normalize/1": (io.tree_from_json, io.tree_to_json),
        }

    def check(self, inst: Instance, api: Api) -> str:
        argv, expected = inst.data
        proc = subprocess.run(
            [sys.executable, "-m", "ordbench.cli", "--machine", *argv],
            capture_output=True,
            text=True,
            env=self.env,
            timeout=CALL_TIMEOUT_S,
        )
        return self.verify(argv, expected, proc.returncode, proc.stdout)

    def dispatch(self, inst: Instance, main) -> str:
        """The same call made in-process through `main()`."""
        argv, expected = inst.data
        out = _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_io.StringIO()):
            code = main(["--machine", *argv])
        return self.verify(argv, expected, code, out.getvalue())

    def verify(self, argv, expected: int, code: int, stdout: str) -> str:
        what = " ".join(argv[:2])
        _expect(code == expected, f"{what}: exit {code}, expected {expected}")
        lines = [ln for ln in stdout.splitlines() if ln.strip()]
        if expected == 2:
            _expect(not lines, f"{what}: output on a parse error")
            return "ok"
        _expect(len(lines) == 1, f"{what}: expected one JSON document")
        doc = json.loads(lines[0])
        schema = doc.get("schema")
        _expect(schema == f"ordbench.{argv[0]}.{argv[1]}/1", f"{what}: schema {schema!r}")
        if schema in self.reparsers and doc.get("result") is not None:
            parse, render = self.reparsers[schema]
            _expect(
                render(parse(doc["result"])) == doc["result"], f"{what}: result does not re-parse"
            )
        return "ok"


WORKLOADS = {
    "ordinal-laws": OrdinalLaws,
    "condition-sweep": ConditionSweep,
    "ramsey-search": RamseySearch,
    "cli-calls": CliCalls,
}
