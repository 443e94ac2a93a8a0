"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime and enforcing the stated budget.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.
"""

from __future__ import annotations

import itertools
import json
import random
import time

from ordbench import io
from ordbench.cli import main
from ordbench.generic import CanonicalSequence, filter_pair_compatible, in_filter, interval_otp
from ordbench.magidor import (
    Block,
    ExtensionType,
    MagidorCondition,
    extend,
    extend_minimal,
    find_type,
    gamma_of,
    leq,
    leq_star,
    type_of,
    unveil_type,
    validate,
)
from ordbench.ordinal import (
    ZERO,
    add,
    cnf_difference,
    compare,
    omega_power,
    ordinal_enumeration,
    parse_ordinal,
)
from ordbench.oset import OrdinalSet, parse_set
from ordbench.prikry import (
    ToyUltraStructure,
    TreeCondition,
    UltraAssignment,
    leq_tree,
    limit_ultrafilter_member,
    modified_diag,
    normalize_dense,
)
from ordbench.projection import (
    IndexSet,
    correct_computation_check,
    densify,
    in_D,
    leq_I,
    leq_I_star,
    lift,
    onto_construct,
    pi,
    validate_I,
)
from ordbench.ramsey import build_product_fn, homogenize, important_coordinates
from ordbench.universe import ToyUniverse

from conftest import (
    canon_universe,
    canonical_condition,
    gen_projection_condition,
    nat,
    o,
    random_condition,
    random_extension,
    root_condition,
)
from test_projection import random_iset


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.monotonic()

    def finish(self, detail: str = ""):
        elapsed = time.monotonic() - self.start
        ok = elapsed < self.seconds
        line = f"ACCEPTANCE {self.name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s"
        if detail:
            line += f"; {detail}"
        print(line + ")")
        assert ok, f"{self.name} exceeded {self.seconds}s"


def test_criterion_1_ordinal_suite():
    budget = Budget("1 ordinal laws", 5.0)
    pool = ordinal_enumeration()
    rng = random.Random(101)
    n = len(pool)
    triples = 100_000
    for _ in range(triples):
        a = pool[rng.randrange(n)]
        b = pool[rng.randrange(n)]
        c = pool[rng.randrange(n)]
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, ZERO) == a and add(ZERO, a) == a
        cmp = compare(b, c)
        if cmp < 0:
            assert compare(add(a, b), add(a, c)) < 0
    pairs = 20_000
    for _ in range(pairs):
        a = pool[rng.randrange(n)]
        b = pool[rng.randrange(n)]
        if compare(a, b) > 0:
            a, b = b, a
        exps = cnf_difference(a, b)
        assert all(compare(x, y) >= 0 for x, y in zip(exps, exps[1:]))
        acc = a
        for e in exps:
            acc = add(acc, omega_power(e))
        assert acc == b
    budget.finish(f"{triples} triples, {pairs} difference pairs")


def test_criterion_2_paper_example_replay():
    budget = Budget("2 paper replays", 1.0)
    # the coordinate-unveiling example: gamma = w^w + w^5*3 + 5
    u = ToyUniverse(o("w^(w+2)"), o("w^w"))
    p = MagidorCondition(
        u,
        (
            Block(o("w^w"), OrdinalSet.interval(ZERO, o("w^w"))),
            Block(o("w^w+1")),
            Block(o("w^(w+1)"), OrdinalSet.interval(o("w^w+2"), o("w^(w+1)"))),
            Block(u.lambda0, OrdinalSet.interval(o("w^(w+1)+1"), u.lambda0)),
        ),
    )
    x = unveil_type(p, o("w^w + w^5*3 + 5"))
    assert x.per_block[2] == tuple([nat(5)] * 3 + [ZERO] * 5)

    # the worked extension-type example with o-values <1,0,2,1,3>
    u3 = canon_universe("w^3")
    q = canonical_condition(u3, [o("w"), o("w+1"), o("w^2"), o("w^2+w")])
    alphas = (
        (nat(1), nat(2)),
        (),
        (o("w*2"), o("w*2+1"), o("w*3")),
        (o("w^2+1"),),
        (o("w^2+w+1"), o("w^2+w*2"), o("w^2*2")),
    )
    assert type_of(q, alphas) == ExtensionType(
        ((ZERO, ZERO), (), (nat(1), ZERO, nat(1)), (ZERO,), (ZERO, nat(1), nat(2)))
    )

    # the projection example: I = {0} u [w, w^2)
    u2 = canon_universe("w^2")
    I41 = IndexSet(parse_set("{0} u [w,w^2)"))
    p41 = canonical_condition(u2, [o("w")])
    proj = pi(p41, I41)
    assert proj.blocks[0] == Block(o("w"))
    assert len(proj.blocks) == 2

    # first dense-set counterexample: successor linkage fails at w*2
    I1 = IndexSet(
        parse_set("[0,w+1) u {w+2} u {w+3}").union(
            OrdinalSet.stratum_piece(o("w*2"), o("w^2"), nat(1))
        )
    )
    p1 = canonical_condition(u2, [o("w"), o("w+1"), o("w*2")])
    f1 = in_D(p1, I1)
    assert f1 is not None and f1.clause == 2 and f1.coordinate == o("w*2")
    d1 = densify(p1, I1)
    added = [b.kappa for b in d1.blocks if b.kappa not in {b2.kappa for b2 in p1.blocks}]
    assert added == [o("w+2"), o("w+3")]

    # second counterexample: limit linkage fails at w*3
    I2 = IndexSet(parse_set("[0,w+1) u {w+2} u {w+3} u (w*2,w^2)"))
    p2 = canonical_condition(u2, [o("w"), o("w*2"), o("w*3")])
    f2 = in_D(p2, I2)
    assert f2 is not None and f2.clause == 1 and f2.coordinate == o("w*3")
    assert gamma_of(p2, f2.block_index - 1) == o("w*2")
    assert in_D(densify(p2, I2), I2) is None
    budget.finish()


def _candidate_assignments(p, q, max_total):
    """All assignments of q's new points with total length <= max_total,
    which realizes the exhaustive search over extension types: a type
    without new-point witnesses admits no direct extension below q."""
    new_per_gap = []
    p_kappas = {b.kappa for b in p.blocks}
    boundaries = [b.kappa for b in p.blocks]
    gaps = [[] for _ in p.blocks]
    gi = 0
    for qb in q.blocks[:-1]:
        while qb.kappa > boundaries[gi]:
            gi += 1
        if qb.kappa in p_kappas:
            gi += 1
            continue
        gaps[gi].append(qb.kappa)
    per_gap_choices = []
    for pts in gaps:
        subsets = []
        for r in range(len(pts) + 1):
            subsets.extend(itertools.combinations(pts, r))
        per_gap_choices.append(subsets)
    for combo in itertools.product(*per_gap_choices):
        if sum(len(g) for g in combo) <= max_total:
            yield tuple(tuple(g) for g in combo)


def test_criterion_3_partition_property():
    budget = Budget("3 partition property", 30.0)
    rng = random.Random(103)
    count = 0
    for lam in ("w^2", "w^3", "w^3*2+w"):
        u = canon_universe(lam)
        while count < 500 * (("w^2", "w^3", "w^3*2+w").index(lam) + 1) / 3:
            p = random_condition(u, rng, max_steps=2)
            q = random_extension(p, rng, max_points=2)
            x, alphas = find_type(p, q)
            assert type_of(p, alphas) == x
            assert leq_star(extend(p, alphas), q)
            if sum(map(len, x.per_block)) <= 4:
                hits = []
                for cand in _candidate_assignments(p, q, 4):
                    try:
                        e = extend(p, cand)
                    except Exception:
                        continue
                    if leq_star(e, q):
                        hits.append(cand)
                assert hits == [alphas]
            count += 1
    budget.finish(f"{count} pairs")


def test_criterion_4_projection_lemma_suite():
    budget = Budget("4 projection lemma", 60.0)
    # The projection lemma is stated for the simplified single-factor
    # setting (after club refinement each factor carries a club index
    # set); multi-term grounds reduce to it through the product split.
    rng = random.Random(104)
    done = 0
    while done < 500:
        lam = ("w^2", "w^3")[done % 2]
        u = canon_universe(lam)
        I = random_iset(u, rng)
        p = gen_projection_condition(u, I, rng, steps=2)
        assert in_D(p, I) is None
        q = pi(p, I)
        assert validate_I(q) == []
        # onto: a correctly-linked preimage projecting back to q
        p2 = onto_construct(q)
        assert pi(p2, I) == q and in_D(p2, I) is None
        # order preservation along a random extension
        r = densify(random_extension(p, rng, max_points=2), I)
        assert leq(p, r)
        assert leq_I(q, pi(r, I))
        if leq_star(p, r):
            assert leq_I_star(q, pi(r, I))
        # lift the projected extension back over p
        lifted = lift(p, pi(r, I))
        assert leq(p, lifted)
        assert pi(lifted, I) == pi(r, I)
        assert correct_computation_check(p, I)
        done += 1
    budget.finish(f"{done} instances")


def test_criterion_5_densification():
    budget = Budget("5 densification", 60.0)
    rng = random.Random(105)
    done = 0
    while done < 500:
        lam = ("w^2", "w^3", "w^3*2+w")[done % 3]
        u = canon_universe(lam)
        I = random_iset(u, rng)
        p = random_condition(u, rng, max_steps=2)
        q = densify(p, I)  # the decreasing measure is asserted inside
        assert in_D(q, I) is None
        assert leq(p, q)
        assert densify(q, I) == q
        done += 1
    budget.finish(f"{done} instances")


def _canonical_chain(u, rng, steps=3):
    p = root_condition(u)
    for _ in range(steps):
        top_coord = gamma_of(p, len(p.blocks))
        coords = {gamma_of(p, i) for i in range(1, len(p.blocks))}
        pool = [
            g
            for g in OrdinalSet.interval(ZERO, top_coord).enumerate(60)
            if g not in coords and not g.is_zero
        ]
        if not pool:
            break
        target = pool[rng.randrange(len(pool))]
        try:
            p, _ = extend_minimal(p, unveil_type(p, target))
        except Exception:
            continue
    return p


def test_criterion_6_generic_suite():
    budget = Budget("6 generic suite", 30.0)
    rng = random.Random(106)
    pairs = 0
    for lam in ("w^2", "w^3", "w^3*2+w"):
        u = canon_universe(lam)
        seq = CanonicalSequence(u.lambda0)
        while pairs < 1000 * (("w^2", "w^3", "w^3*2+w").index(lam) + 1) // 3:
            q = _canonical_chain(u, rng, steps=2)
            assert in_filter(q, seq)
            # downward closure along a random legal weakening
            keep = [b for b in q.blocks[:-1] if rng.random() < 0.6]
            blocks = []
            prev = None
            for b in keep + [q.top]:
                if u.o(b.kappa).is_zero:
                    blocks.append(Block(b.kappa))
                else:
                    lo = ZERO if prev is None else prev.successor()
                    blocks.append(Block(b.kappa, OrdinalSet.interval(lo, b.kappa)))
                prev = b.kappa
            p = MagidorCondition(u, tuple(blocks))
            if not validate(p) and leq(p, q):
                assert in_filter(p, seq)
            # directedness
            other = _canonical_chain(u, rng, steps=2)
            assert filter_pair_compatible(q, other, seq)
            # interval order types between consecutive blocks: w^o for
            # limit-order blocks; bare blocks pack flush (order type 0)
            prev = None
            for b in q.blocks:
                if prev is not None:
                    got = interval_otp(seq, prev, b.kappa)
                    ob = u.o(b.kappa)
                    expect = omega_power(ob) if not ob.is_zero else ZERO
                    assert got == expect
                prev = b.kappa
            pairs += 1
    budget.finish(f"{pairs} sampled pairs")


def _brute_min_important(F, min_sizes):
    """Independent oracle: the least coordinate-set size achieving the
    biconditional on some admissible sub-product, by raw pair checks."""
    n = len(F.factors)
    per_factor = []
    for f, m in zip(F.factors, min_sizes):
        opts = []
        for size in range(m, len(f) + 1):
            opts.extend(itertools.combinations(f, size))
        per_factor.append(opts)
    for size in range(n + 1):
        for I in itertools.combinations(range(1, n + 1), size):
            for hs in itertools.product(*per_factor):
                tuples = [
                    t
                    for t in itertools.product(*hs)
                    if all(a < b for a, b in zip(t, t[1:]))
                ]
                if not tuples:
                    continue
                ok = True
                for s in tuples:
                    for t in tuples:
                        same = all(s[i - 1] == t[i - 1] for i in I)
                        if (F(s) == F(t)) != same:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    return size
    return None


def test_criterion_7_ramsey_suite():
    budget = Budget("7 ramsey suite", 120.0)
    factors2 = [[1, 2, 3], [4, 5, 6]]
    grid = [(a, b) for a in factors2[0] for b in factors2[1]]
    checked = 0
    for bits in range(2 ** len(grid)):
        table = {t: (bits >> i) & 1 for i, t in enumerate(grid)}
        F = build_product_fn(factors2, lambda a, b: table[(a, b)])
        got = homogenize(F, [2, 2])
        if got is not None:
            hs, color = got
            for t in itertools.product(*hs):
                if all(x < y for x, y in zip(t, t[1:])):
                    assert F(t) == color
        gotI = important_coordinates(F, [2, 2])
        brute = _brute_min_important(F, [2, 2])
        if gotI is None:
            assert brute is None  # no certificate exists at this scale
        else:
            hs, I = gotI
            assert len(I) == brute
            tuples = [
                t
                for t in itertools.product(*hs)
                if all(x < y for x, y in zip(t, t[1:]))
            ]
            for s in tuples:
                for t in tuples:
                    same = all(s[i - 1] == t[i - 1] for i in I)
                    assert (F(s) == F(t)) == same
        checked += 1
    rng = random.Random(107)
    factors3 = [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]
    found = 0
    for _ in range(200):
        # Mix near-projections with noise so both outcomes occur; NotFound
        # is legitimate at finite scale.
        coord = rng.randrange(3)
        noise = rng.random() * 0.3
        F = build_product_fn(
            factors3,
            lambda a, b, c: (a, b, c)[coord] if rng.random() > noise else rng.randrange(3),
        )
        got = important_coordinates(F, [2, 2, 2])
        brute = _brute_min_important(F, [2, 2, 2])
        if got is None:
            assert brute is None
            continue
        found += 1
        hs, I = got
        assert len(I) == brute
        tuples = [
            t
            for t in itertools.product(*hs)
            if all(x < y for x, y in zip(t, t[1:]))
        ]
        for s in tuples:
            for t in tuples:
                same = all(s[i - 1] == t[i - 1] for i in I)
                assert (F(s) == F(t)) == same
        hom = homogenize(F, [2, 2, 2])
        if hom is not None:
            hs2, color = hom
            for t in itertools.product(*hs2):
                if all(x < y for x, y in zip(t, t[1:])):
                    assert F(t) == color
    assert found >= 20
    budget.finish(f"{checked} exhaustive grids + 200 random ({found} found)")


def _direct_member(u, X, n, prefix=()):
    if n == 0:
        return () in X
    passing = {
        v
        for v in u.ground
        if _direct_member(u, {t[1:] for t in X if t[0] == v}, n - 1, prefix + (v,))
    }
    return u.node_ultra(prefix).core <= passing


def test_criterion_8_prikry_suite():
    budget = Budget("8 prikry suite", 60.0)
    u5 = ToyUltraStructure(
        tuple(range(5)),
        nodes={(): UltraAssignment(frozenset({0, 1, 2, 3}))},
        tail_default=True,
    )
    pairs = list(itertools.combinations(range(5), 2))
    for bits in range(2 ** len(pairs)):
        X = {t for i, t in enumerate(pairs) if (bits >> i) & 1}
        assert limit_ultrafilter_member(u5, X, 2) == _direct_member(u5, X, 2)
    rng = random.Random(108)
    triples = list(itertools.combinations(range(5), 3))
    for _ in range(10_000):
        X = {t for t in triples if rng.random() < 0.5}
        assert limit_ultrafilter_member(u5, X, 3) == _direct_member(u5, X, 3)
    # modified diagonal intersection with the identity projection, against
    # the classical one, {v | for all a < v: v in A_a}
    u12 = ToyUltraStructure(tuple(range(12)))
    for _ in range(100):
        fam = {a: {v for v in range(12) if rng.random() < 0.6} for a in range(12)}
        classical = {v for v in range(12) if all(v in fam[a] for a in range(v))}
        assert modified_diag(u12, fam, 1) == classical
    # dense normalization verified exhaustively to depth 3
    proj = tuple((v, max(v - 2, 0)) for v in range(10))
    u10 = ToyUltraStructure(
        tuple(range(10)),
        default=UltraAssignment(frozenset(range(10)), proj),
        tail_default=True,
    )
    t = TreeCondition((1,), depth=3)
    normal = normalize_dense(t, u10)
    assert leq_tree(t, normal, u10)
    assert normalize_dense(normal, u10) == normal

    def walk(node, depth):
        if depth == 0:
            return
        for v in normal.suc(u10, node):
            last = node[-1]
            pi_v = dict(proj).get(v, v)
            assert v > last and pi_v > last
            walk(node + (v,), depth - 1)

    walk((1,), 3)
    budget.finish("1024 pair sets, 10000 triple sets, 100 families, depth-3 tree")


def test_criterion_9_cli_roundtrip(tmp_path, capsys):
    budget = Budget("9 cli roundtrip", 10.0)
    u = canon_universe("w^2")
    p = canonical_condition(u, [o("w")])
    p3 = canonical_condition(u, [o("w"), o("w+1"), o("w*2")])
    cond = tmp_path / "c.json"
    cond.write_text(json.dumps(io.condition_to_json(p)))
    cond3 = tmp_path / "c3.json"
    cond3.write_text(json.dumps(io.condition_to_json(p3)))
    uni = tmp_path / "u.json"
    uni.write_text(json.dumps(io.universe_to_json(u)))
    icond = tmp_path / "q.json"
    from ordbench.projection import pi as pi_op

    I41 = "{0} u [w,w^2)"
    icond.write_text(
        json.dumps(io.icondition_to_json(pi_op(p, IndexSet(parse_set(I41)))))
    )
    struct = tmp_path / "s.json"
    struct.write_text(
        json.dumps(
            {
                "ground": [0, 1, 2, 3, 4, 5],
                "nodes": [],
                "levels": [],
                "default": {"core": [3, 4, 5], "pi": None},
                "tail_default": True,
            }
        )
    )
    tree = tmp_path / "t.json"
    tree.write_text(json.dumps({"trunk": [0, 2], "depth": 2, "successors": []}))
    fn = tmp_path / "f.json"
    fn.write_text(
        json.dumps(
            {
                "factors": [[1, 2], [3, 4]],
                "table": [
                    {"args": [a, b], "value": a} for a in (1, 2) for b in (3, 4)
                ],
            }
        )
    )
    der = tmp_path / "d.json"
    der.write_text(
        json.dumps(
            {"levels": [1, 2], "tables": [
                [{"args": [2], "value": 5}],
                [{"args": [2, 4], "value": 6}],
            ]}
        )
    )
    fam = json.dumps({str(a): [0, 1, 2, 3, 4, 5] for a in range(6)})
    pairs = json.dumps([[a, b] for a in range(6) for b in range(a + 1, 6)])

    corpus: list[tuple[list[str], int]] = [
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
        (["set", "stratum", "1", "--universe", str(uni)], 0),
        (["uni", "check", str(uni)], 0),
        (["uni", "large", str(uni), "[w,w^2)", "w^2", "1"], 0),
        (["uni", "star", str(uni), "[w,w^2)", "w^2"], 0),
        (["uni", "stratify", str(uni), "[0,w^2)", "w^2"], 0),
        (["cond", "validate", str(cond)], 0),
        (["cond", "leq", str(cond), str(cond), "--star"], 0),
        (["cond", "gamma", str(cond), "1"], 0),
        (["cond", "type-of", str(cond), "[[],[]]"], 0),
        (["cond", "extend", str(cond), '[["1","2"],[]]'], 0),
        (["cond", "find-type", str(cond), str(cond)], 0),
        (["cond", "unveil", str(cond3), "w+3"], 0),
        (["cond", "split", str(cond3), "1"], 0),
        (["cond", "join", str(cond)], 0),
        (["proj", "index", str(cond), "1", "--index", I41], 0),
        (["proj", "pi", str(cond), "--index", I41], 0),
        (["proj", "validate", str(icond)], 0),
        (["proj", "leq", str(icond), str(icond)], 0),
        (["proj", "in-d", str(cond), "--index", I41], 0),
        (["proj", "densify", str(cond), "--index", I41], 0),
        (["proj", "onto", str(icond)], 0),
        (["proj", "lift", str(cond), str(icond)], 0),
        (["proj", "check-correct", str(cond), "--index", I41], 0),
        (["proj", "refine-clubs", "[0,w] u [w+2,w^2)", "--roots", "w,w^2"], 0),
        (["proj", "quotient-member", str(cond), "--index", I41], 0),
        (["gen", "in-filter", str(cond)], 0),
        (["gen", "otp", "w^2", "w", "w*2"], 0),
        (["gen", "compatible", str(cond), str(cond)], 0),
        (["ramsey", "homog", str(fn), "--min-sizes", "1,2"], 0),
        (["ramsey", "important", str(fn), "--min-sizes", "2,2"], 0),
        (["prikry", "validate", str(tree), "--structure", str(struct)], 0),
        (["prikry", "leq", str(tree), str(tree), "--structure", str(struct)], 0),
        (["prikry", "normalize", str(tree), "--structure", str(struct)], 0),
        (
            ["prikry", "validate-seq", json.dumps({"3": [3, 4, 5]}), "--structure",
             str(struct), "--trunk", "0,2"],
            0,
        ),
        (["prikry", "diag", fam, "0", "--structure", str(struct)], 0),
        (["prikry", "limit-member", pairs, "2", "--structure", str(struct)], 0),
        (
            ["prikry", "p-point", json.dumps([{str(v): v for v in range(6)}]), "1",
             "--structure", str(struct)],
            0,
        ),
        (["prikry", "derive", str(der), "2,4"], 0),
        (
            ["prikry", "project",
             json.dumps([{"args": [a], "value": a} for a in range(6)]),
             json.dumps([3, 4, 5]), "1", "--structure", str(struct)],
            0,
        ),
    ]
    reparsers = {
        "ordbench.ord.add/1": lambda r: parse_ordinal(r),
        "ordbench.ord.olimit/1": lambda r: parse_ordinal(r),
        "ordbench.ord.wpow/1": lambda r: parse_ordinal(r),
        "ordbench.set.union/1": io.set_from_json,
        "ordbench.set.inter/1": io.set_from_json,
        "ordbench.set.diff/1": io.set_from_json,
        "ordbench.set.restrict-below/1": io.set_from_json,
        "ordbench.set.restrict-above/1": io.set_from_json,
        "ordbench.set.stratum/1": io.set_from_json,
        "ordbench.uni.star/1": io.set_from_json,
        "ordbench.cond.extend/1": io.condition_from_json,
        "ordbench.proj.pi/1": io.icondition_from_json,
        "ordbench.proj.densify/1": io.condition_from_json,
        "ordbench.proj.onto/1": io.condition_from_json,
        "ordbench.proj.lift/1": io.condition_from_json,
        "ordbench.gen.otp/1": lambda r: parse_ordinal(r),
        "ordbench.prikry.normalize/1": io.tree_from_json,
    }
    for argv, expected in corpus:
        code = main(["--machine"] + argv)
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if ln.strip()][-1]
        doc = json.loads(line)
        assert code == expected, argv
        assert "schema" in doc
        schema = doc["schema"]
        if schema in reparsers and doc.get("result") is not None:
            back = reparsers[schema](doc["result"])
            if schema.startswith("ordbench.ord") or schema.startswith(
                "ordbench.gen.otp"
            ):
                assert str(back) == doc["result"]
            elif hasattr(back, "pieces"):
                assert io.set_to_json(back) == doc["result"]
            elif schema == "ordbench.proj.pi/1":
                assert io.icondition_to_json(back) == doc["result"]
            elif schema == "ordbench.prikry.normalize/1":
                assert io.tree_to_json(back) == doc["result"]
            else:
                assert io.condition_to_json(back) == doc["result"]
    # exit-code contract: false results exit 1, parse errors exit 2
    assert main(["set", "member", "[0,w)", "w*2"]) == 1
    capsys.readouterr()
    assert main(["ord", "add", "x", "1"]) == 2
    assert main(["cond", "validate", json.dumps({
        "universe": io.universe_to_json(u),
        "blocks": [{"kappa": "w*2", "B": [["0", "w*2"]]},
                   {"kappa": "w", "B": [["0", "w"]]},
                   {"kappa": "w^2", "B": [["w*2+1", "w^2"]]}],
    })]) == 1
    capsys.readouterr()
    budget.finish(f"{len(corpus)} verbs")
