from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordbench import prikry
from ordbench.errors import BranchTooShort, PruneBrokeLargeness
from ordbench.prikry import (
    Derivation,
    ToyUltraStructure,
    TreeCondition,
    UltraAssignment,
    apply_derivation,
    derivation_profile,
    is_p_point,
    leq_tree,
    leq_tree_star,
    limit_ultrafilter_member,
    modified_diag,
    normalize_dense,
    project_ultrafilter,
    validate_sequence_condition,
    validate_tree,
)

from conftest import tree_conditions, ultra_structures


def simple_structure(n: int = 6, core=None) -> ToyUltraStructure:
    ground = tuple(range(n))
    return ToyUltraStructure(
        ground, default=UltraAssignment(frozenset(core or ground))
    )


def halving_structure(n: int = 12) -> ToyUltraStructure:
    ground = tuple(range(n))
    proj = tuple((v, v // 2) for v in ground)
    return ToyUltraStructure(
        ground, default=UltraAssignment(frozenset(ground), proj)
    )


def test_validate_tree_default_filled():
    u = simple_structure()
    t = TreeCondition((0, 2), depth=2)
    assert validate_tree(t, u) == []


def test_validate_tree_missing_core_element():
    u = simple_structure(core=[3, 4, 5])
    t = TreeCondition((), depth=1, successors={(): frozenset({3, 4})})
    assert any("misses its core" in v for v in validate_tree(t, u))
    t2 = TreeCondition((), depth=1, successors={(): frozenset({3, 4, 5})})
    assert validate_tree(t2, u) == []


def test_validate_tree_empty_trunk_full_tree():
    u = simple_structure()
    assert validate_tree(TreeCondition((), depth=3), u) == []


def test_leq_tree_reflexive_and_trunk_extension():
    u = simple_structure()
    s = TreeCondition((), depth=2)
    assert leq_tree(s, s, u) and leq_tree_star(s, s, u)
    t = TreeCondition((2,), depth=2)
    assert leq_tree(s, t, u)
    assert not leq_tree_star(s, t, u)
    assert not leq_tree(t, s, u)


def test_leq_tree_through_removed_point():
    u = simple_structure()
    s = TreeCondition((), depth=2, successors={(): frozenset({1, 2, 3, 4, 5})})
    bad = TreeCondition((0,), depth=1)  # 0 was pruned from s's first level
    assert not leq_tree(s, bad, u)
    ok = TreeCondition((2,), depth=1)
    assert leq_tree(s, ok, u)


def test_leq_tree_transitive(rng):
    u = ToyUltraStructure(tuple(range(8)), tail_default=True)
    for _ in range(30):
        s = TreeCondition((), depth=2)
        mid_trunk = (rng.randrange(6),)
        t = TreeCondition(
            mid_trunk,
            depth=2,
            successors={mid_trunk: frozenset(v for v in range(8) if v > mid_trunk[0])},
        )
        nxt = [v for v in t.suc(u, mid_trunk)]
        if not nxt:
            continue
        r_trunk = mid_trunk + (rng.choice(nxt),)
        r = TreeCondition(r_trunk, depth=1)
        if leq_tree(s, t, u) and leq_tree(t, r, u):
            assert leq_tree(s, r, u)


def test_leq_tree_set_shrink_against_defaults():
    u = simple_structure(core=[0, 1, 2])
    s = TreeCondition((), depth=1, successors={(): frozenset({0, 1, 2})})
    # t defaults to the full core at (), which is fine, but a *larger*
    # explicit set than s's is not an extension.
    t = TreeCondition((), depth=1, successors={(): frozenset({0, 1, 2, 4})})
    assert leq_tree(s, TreeCondition((), depth=1), u)
    assert not leq_tree(s, t, u)


def test_normalize_dense_identity_projection():
    # Tail cores concentrate above each node, so the chain pruning is a
    # no-op and normalization is the identity.
    u = ToyUltraStructure(tuple(range(6)), tail_default=True)
    t = TreeCondition((1,), depth=2)
    got = normalize_dense(t, u)
    for a, s in got.successors:
        assert s == u.node_ultra(a).core
        assert all(v > (a[-1] if a else -1) for v in s)
    assert leq_tree(t, got, u)
    assert normalize_dense(got, u) == got


def test_normalize_dense_halving_prunes():
    proj = tuple((v, v // 2) for v in range(12))
    u = ToyUltraStructure(
        tuple(range(12)),
        nodes={(3,): UltraAssignment(frozenset({8, 9, 10, 11}), proj)},
        default=UltraAssignment(frozenset({8, 9, 10, 11}), proj),
    )
    t = TreeCondition((3,), depth=1, successors={(3,): frozenset(range(4, 12))})
    got = normalize_dense(t, u)
    kept = dict(got.successors)[(3,)]
    # v is kept iff v//2 > 3, the pointwise inequality
    assert kept == frozenset(v for v in range(4, 12) if v // 2 > 3)


def test_normalize_dense_can_break_largeness():
    u = ToyUltraStructure(
        tuple(range(6)),
        default=UltraAssignment(frozenset({1, 2}), tuple((v, 0) for v in range(6))),
    )
    with pytest.raises(PruneBrokeLargeness):
        normalize_dense(TreeCondition((3,), depth=1), u)


def test_validate_sequence_condition_omega():
    # default core is the whole ground, so a shrunken level set misses it
    u = simple_structure()
    bad_core = validate_sequence_condition((0, 2), {3: {3, 4, 5}}, u)
    assert any("misses its core" in v for v in bad_core)
    u2 = ToyUltraStructure(
        tuple(range(6)), default=UltraAssignment(frozenset({4, 5}))
    )
    assert validate_sequence_condition((0, 2), {3: {4, 5}}, u2) == []
    bad = validate_sequence_condition((0, 2), {3: {1, 4, 5}}, u2)
    assert any("min clause" in v for v in bad)
    # the minimum clause is checked and reported at every supplied level
    bad_levels = validate_sequence_condition((0, 2), {3: {1, 4, 5}, 4: {2, 4, 5}}, u2)
    assert sum("min clause" in v for v in bad_levels) == 2


def test_validate_sequence_condition_single():
    u = ToyUltraStructure(
        tuple(range(8)), default=UltraAssignment(frozenset({6, 7}))
    )
    assert validate_sequence_condition((1, 3), {6, 7}, u) == []
    bad = validate_sequence_condition((1, 3), {2, 6, 7}, u)
    assert any("min clause" in v for v in bad)
    # cross inequality with a halving projection
    u2 = ToyUltraStructure(
        tuple(range(12)),
        default=UltraAssignment(
            frozenset({10, 11}), tuple((v, v // 2) for v in range(12))
        ),
    )
    bad2 = validate_sequence_condition((3, 5), {10, 11}, u2)
    assert any("cross inequality" in v for v in bad2)  # pi(5)=2 < 3


def old_validate_tree(t, u) -> list[str]:
    """`validate_tree` as it was before the clauses were shared."""
    out = []
    if list(t.trunk) != sorted(set(t.trunk)):
        out.append("trunk is not strictly increasing")
    gset = set(u.ground)
    for a, s in t.successors:
        if not s <= gset:
            out.append(f"successor set at {a} leaves the ground")
        if not u.node_ultra(a).is_large(s):
            out.append(f"successor set at {a} misses its core")
    return out


def old_validate_sequence_condition(trunk, sets, u, variant) -> list[str]:
    """The two sequence forcings as separate branches, chosen by `variant`."""
    out = []
    gset = set(u.ground)
    if list(trunk) != sorted(set(trunk)):
        out.append("trunk is not strictly increasing")
    if variant == "single":
        ua = u.level_ultra(0)
        for j, i in itertools.combinations(range(len(trunk)), 2):
            if not trunk[j] < ua.pi(trunk[i]):
                out.append(f"cross inequality fails: {trunk[j]} !< pi({trunk[i]})")
        A = set(sets)
        if not A <= gset:
            out.append("the set leaves the ground")
        if not ua.is_large(A):
            out.append("the set misses its core")
        if A and trunk and not ua.pi(min(A)) > max(trunk):
            out.append("min clause fails: pi(min(A)) <= max(trunk)")
        return out
    for j, i in itertools.combinations(range(1, len(trunk) + 1), 2):
        pi_i = u.level_ultra(i).pi
        if not trunk[j - 1] < pi_i(trunk[i - 1]):
            out.append(
                f"cross inequality fails at levels {j}<{i}: "
                f"{trunk[j - 1]} !< pi_{i}({trunk[i - 1]})"
            )
    for n in sorted(sets):
        A = set(sets[n])
        if n <= len(trunk):
            out.append(f"level {n}: set supplied at a trunk level")
            continue
        ua = u.level_ultra(n)
        if not A <= gset:
            out.append(f"level {n}: set leaves the ground")
        if not ua.is_large(A):
            out.append(f"level {n}: set misses its core")
        if A and trunk and not ua.pi(min(A)) > max(trunk):
            out.append(f"level {n}: min clause fails")
    return out


SEQUENCE_CLAUSES = (
    "trunk is not strictly increasing", "cross inequality", "leaves the ground",
    "misses its core", "min clause",
)


def _clause(message: str) -> str:
    (found,) = [c for c in SEQUENCE_CLAUSES if c in message]
    return found


def _random_structure(rng) -> ToyUltraStructure:
    """Ground 0..n-1 with a default and a few level assignments, each with the
    identity, the halving or a random weakly decreasing projection."""
    ground = tuple(range(rng.randrange(4, 10)))

    def assignment():
        core = frozenset(v for v in ground if rng.random() < 0.4) or frozenset(ground[-1:])
        proj = rng.choice([
            None,
            tuple((v, v // 2) for v in ground),
            tuple((v, rng.randrange(v + 1)) for v in ground if rng.random() < 0.5),
        ])
        return UltraAssignment(core, proj)

    levels = {n: assignment() for n in range(5) if rng.random() < 0.3}
    default = assignment() if rng.random() < 0.7 else None
    return ToyUltraStructure(ground, {}, levels, default, rng.random() < 0.5)


def _random_points(rng, u, k: int) -> list[int]:
    """k points, now and then one outside the ground."""
    return [rng.randrange(len(u.ground) + 2) for _ in range(k)]


def test_sequence_forcings_match_the_separate_branches(rng):
    seen = {"omega": set(), "single": set()}
    for _ in range(600):
        u = _random_structure(rng)
        trunk = tuple(_random_points(rng, u, rng.randrange(4)))
        if rng.random() < 0.7:
            trunk = tuple(sorted(set(trunk)))
        levels = {
            n: set(_random_points(rng, u, rng.randrange(6)))
            for n in range(1, 6)
            if rng.random() < 0.4
        }
        got = validate_sequence_condition(trunk, levels, u)
        assert got == old_validate_sequence_condition(trunk, levels, u, "omega_sequence")
        seen["omega"].update(_clause(m) for m in got if "trunk level" not in m)
        A = set(_random_points(rng, u, rng.randrange(6)))
        got = validate_sequence_condition(trunk, A, u)
        want = old_validate_sequence_condition(trunk, A, u, "single")
        assert [_clause(m) for m in got] == [_clause(m) for m in want]
        # The one set sits at the first level above the trunk.
        level = f"level {len(trunk) + 1}: set "
        assert all(m.startswith(level) for m in got if _clause(m) in SEQUENCE_CLAUSES[2:4])
        seen["single"].update(_clause(m) for m in got)
    assert seen == {"omega": set(SEQUENCE_CLAUSES), "single": set(SEQUENCE_CLAUSES)}


def test_validate_tree_matches_the_unshared_clauses(rng):
    seen = set()
    for _ in range(300):
        u = _random_structure(rng)
        trunk = tuple(_random_points(rng, u, rng.randrange(3)))
        if rng.random() < 0.7:
            trunk = tuple(sorted(set(trunk)))
        successors = {
            trunk + tuple(sorted(set(_random_points(rng, u, rng.randrange(3))))):
            frozenset(_random_points(rng, u, rng.randrange(6)))
            for _ in range(rng.randrange(4))
        }
        t = TreeCondition(trunk, rng.randrange(3), successors)
        got = validate_tree(t, u)
        assert got == old_validate_tree(t, u)
        seen.update(_clause(m) for m in got)
    assert seen == {"trunk is not strictly increasing", "leaves the ground", "misses its core"}


def test_modified_diag_all_ground():
    u = halving_structure()
    fam = {a: set(range(12)) for a in range(12)}
    assert modified_diag(u, fam, 1) == frozenset(range(12))


def test_modified_diag_identity_matches_classical(rng):
    u = simple_structure(8)
    for _ in range(100):
        fam = {a: {v for v in range(8) if rng.random() < 0.7} for a in range(8)}
        assert modified_diag(u, fam, 1) == _pointwise_diag(u, fam, lambda v: v)


def test_modified_diag_pointwise_oracle(rng):
    u = halving_structure(12)
    for _ in range(30):
        fam = {a: {v for v in range(12) if rng.random() < 0.6} for a in range(12)}
        got = modified_diag(u, fam, 2)
        for v in range(12):
            expect = all(v in fam[a] for a in range(v // 2))
            assert (v in got) == expect


def test_limit_ultrafilter_member_full_and_missing():
    # Cores above each node, as increasing-tuple sections require.
    u = ToyUltraStructure(
        (0, 1, 2, 3, 4),
        nodes={(): UltraAssignment(frozenset({0, 1, 2, 3}))},
        tail_default=True,
    )
    pairs = [t for t in itertools.combinations(range(5), 2)]
    assert limit_ultrafilter_member(u, pairs, 2)
    # remove one needed column: sections at 1 lose the core
    broken = [t for t in pairs if t[0] != 1]
    assert not limit_ultrafilter_member(u, broken, 2)


def _recursive(u, X, n, prefix):
    if n == 0:
        return () in X
    passing = {
        v
        for v in u.ground
        if _recursive(u, {t[1:] for t in X if t[0] == v}, n - 1, prefix + (v,))
    }
    return u.node_ultra(prefix).core <= passing


def test_limit_member_exhaustive_pairs():
    u = ToyUltraStructure(
        tuple(range(4)),
        nodes={
            (): UltraAssignment(frozenset({0, 1, 2})),
            (0,): UltraAssignment(frozenset({1, 2})),
            (1,): UltraAssignment(frozenset({2, 3})),
            (2,): UltraAssignment(frozenset({3})),
        },
    )
    pairs = [t for t in itertools.combinations(range(4), 2)]
    for bits in range(2 ** len(pairs)):
        X = [t for i, t in enumerate(pairs) if bits >> i & 1]
        assert limit_ultrafilter_member(u, X, 2) == _recursive(u, set(X), 2, ())


def test_limit_member_triples_random(rng):
    u = ToyUltraStructure(
        tuple(range(5)),
        nodes={(): UltraAssignment(frozenset({0, 1}))},
        default=UltraAssignment(frozenset({2, 3, 4})),
    )
    triples = [t for t in itertools.combinations(range(5), 3)]
    for _ in range(300):
        X = [t for t in triples if rng.random() < 0.5]
        assert limit_ultrafilter_member(u, X, 3) == _recursive(u, set(X), 3, ())


def test_limit_member_negative_length():
    with pytest.raises(ValueError):
        limit_ultrafilter_member(simple_structure(), [], -1)


def test_limit_member_refuses_malformed_tuples():
    for X, why in (([(1, 2, 3)], "is not a 2-tuple"), ([(2, 1)], "is not increasing")):
        with pytest.raises(ValueError, match=why):
            limit_ultrafilter_member(simple_structure(), X, 2)


_settings = settings(max_examples=100)


@_settings
@given(ultra_structures(), st.integers(0, 3), st.data())
def test_limit_member_matches_recursive(u, n, data):
    tuples = list(itertools.combinations(u.ground, n))
    X = data.draw(st.sets(st.sampled_from(tuples)) if tuples else st.just(set()))
    if data.draw(st.booleans()):
        X = set(tuples) - X
    prefix = data.draw(st.sampled_from([()] + [(v,) for v in u.ground]))
    got = prikry._sections_member(u, prikry._as_tuples(X, n), n, prefix)
    assert got == _recursive(u, X, n, prefix)
    if prefix == ():
        assert limit_ultrafilter_member(u, X, n) == got


def test_projection_consistency():
    # the first-coordinate projection of the 2-fold limit is the root
    # ultrafilter: sections along the first coordinate
    u = ToyUltraStructure(
        tuple(range(5)),
        nodes={(): UltraAssignment(frozenset({0, 1, 2}))},
        default=UltraAssignment(frozenset({3, 4})),
    )
    first = project_ultrafilter(u, {(a, b): a for a, b in itertools.combinations(range(5), 2)}, 2)
    root = u.node_ultra(())
    for bits in range(2 ** 5):
        Y = {v for v in range(5) if bits >> v & 1}
        # F^-1(Y) restricted to increasing pairs with nonempty sections:
        # {a in Y} x {b > a} -- membership should match root largeness of
        # {a in Y with a large section}, which for default cores is Y
        # whenever every a in Y has its section core above it.
        expect = root.is_large(
            {
                a
                for a in Y
                if u.node_ultra((a,)).core
                and all(b > a for b in u.node_ultra((a,)).core)
            }
        )
        assert first(Y) == expect


def test_project_identity_and_constant():
    u = simple_structure(5, core=[2, 3])
    ident = project_ultrafilter(u, {(a,): a for a in range(5)}, 1)
    assert ident({2, 3}) and not ident({2})
    const = project_ultrafilter(u, {(a,): 9 for a in range(5)}, 1)
    assert const({9}) and not const({8})


def test_is_p_point():
    u = simple_structure(6)
    ident = {v: v for v in range(6)}
    assert is_p_point(u, (), fiber_bound=1, test_family=[ident])
    squash = {v: 0 for v in range(6)}  # constant: exempt
    assert is_p_point(u, (), fiber_bound=1, test_family=[squash])
    two_fibers = {v: v // 3 for v in range(6)}  # fibers of size 3
    assert not is_p_point(u, (), fiber_bound=2, test_family=[two_fibers])
    assert is_p_point(u, (), fiber_bound=3, test_family=[two_fibers])
    # the paper's clause replayed with bound |ground| - 1: the halving
    # projection has fibers of size 2
    u2 = halving_structure(12)
    proj = {v: v // 2 for v in range(12)}
    assert is_p_point(u2, (), fiber_bound=11, test_family=[proj])


def old_is_p_point(u, a, fiber_bound, test_family) -> bool:
    """The test as first written: constancy scans the ground per value."""
    ua = u.node_ultra(a)
    for f in test_family:
        get = f.get
        values = {get(v) for v in ua.core}
        constant = any(
            ua.is_large({v for v in u.ground if get(v) == c}) for c in values
        )
        if constant:
            continue
        fibers: dict[int, int] = {}
        for v in ua.core:
            fibers[get(v)] = fibers.get(get(v), 0) + 1
        if any(c > fiber_bound for c in fibers.values()):
            return False
    return True


@_settings
@given(ultra_structures(), st.data())
def test_is_p_point_matches_oracle(u, data):
    node = data.draw(st.sampled_from([()] + [(v,) for v in u.ground]))
    core = u.node_ultra(node).core
    tables = data.draw(
        st.lists(st.dictionaries(st.sampled_from(u.ground), st.integers(0, 2)), max_size=3)
    )
    # Tables total on the core only, and tables total on the ground, alike.
    family = [{**dict.fromkeys(core, -1), **t} if i % 2 else {v: t.get(v, -1) for v in u.ground}
              for i, t in enumerate(tables)]
    bound = data.draw(st.integers(0, 3))
    assert is_p_point(u, node, bound, family) == old_is_p_point(u, node, bound, family)
    # A table that leaves out a point of the core is refused, wherever it stands.
    if family and core:
        at = data.draw(st.integers(0, len(family) - 1))
        gap = data.draw(st.sampled_from(sorted(core)))
        family[at] = {v: x for v, x in family[at].items() if v != gap}
        with pytest.raises(ValueError, match=rf"^test table {at} has no entry for {gap}$"):
            is_p_point(u, node, bound, family)


def _comparison_nodes(s, t):
    nodes = {a for a, _ in s.successors if a[: len(t.trunk)] == t.trunk[: len(a)]}
    nodes |= {a for a, _ in t.successors}
    nodes.add(t.trunk)
    return {a for a in nodes if len(a) >= len(t.trunk) or t.trunk[: len(a)] == a}


def old_leq_tree(s, t, u) -> bool:
    """The order as first written, over the nodes `_comparison_nodes` picks."""
    if t.trunk[: len(s.trunk)] != s.trunk:
        return False
    for i in range(len(s.trunk), len(t.trunk)):
        if t.trunk[i] not in s.suc(u, t.trunk[:i]):
            return False
    for a in _comparison_nodes(s, t):
        if len(a) < len(t.trunk):
            continue
        if a[: len(t.trunk)] != t.trunk:
            continue
        if not t.suc(u, a) <= s.suc(u, a):
            return False
    return True


@_settings
@given(ultra_structures(), st.data())
def test_tree_order_matches_oracle(u, data):
    s = data.draw(tree_conditions(u.ground))
    above = s.trunk + tuple(data.draw(st.lists(st.sampled_from(u.ground), max_size=2)))
    t = data.draw(tree_conditions(u.ground, above) | tree_conditions(u.ground))
    for a, b in ((s, t), (t, s), (s, s)):
        assert leq_tree(a, b, u) == old_leq_tree(a, b, u)
        assert leq_tree_star(a, b, u) == (a.trunk == b.trunk and old_leq_tree(a, b, u))


def _pointwise_diag(u, family, bound) -> frozenset:
    out = set()
    for v in u.ground:
        for a in range(bound(v)):
            if a not in family:
                raise ValueError(f"family not total: missing index {a}")
            if v not in family[a]:
                break
        else:
            out.add(v)
    return frozenset(out)


@_settings
@given(ultra_structures(), st.integers(0, 3), st.data())
def test_diagonals_match_pointwise_oracle(u, k, data):
    points = st.sets(st.sampled_from(u.ground))
    family = {a: data.draw(points) for a in range(data.draw(st.integers(0, 8)))}
    try:
        expect = _pointwise_diag(u, family, u.level_ultra(k).pi)
    except ValueError:
        with pytest.raises(ValueError, match="family not total"):
            modified_diag(u, family, k)
    else:
        assert modified_diag(u, family, k) == expect


def test_projection_listing_a_point_twice_is_rejected():
    # A dict built from the pairs would keep the last one, and a round
    # trip through a document, which sorts them, the first.
    ua = UltraAssignment(frozenset({3}), ((3, 1), (3, 0)))
    with pytest.raises(ValueError, match="twice"):
        ToyUltraStructure((0, 1, 2, 3), default=ua)


def test_apply_derivation_last_element():
    last = lambda n: {t: t[-1] for t in itertools.combinations(range(10), n)}
    d = Derivation((1, 2, 3), (last(1), last(2), last(3)))
    assert apply_derivation(d, (5, 7, 9)) == (5, 7, 9)
    with pytest.raises(BranchTooShort):
        apply_derivation(d, (5, 7))


def test_derivation_profile():
    d = Derivation((2, 2, 2), (dict(), dict(), dict()))
    assert derivation_profile(d) == ((2,), (3,))
    d2 = Derivation((1, 1, 3), (dict(), dict(), dict()))
    assert derivation_profile(d2) == ((1, 3), (2, 1))


def test_derivation_profile_grouping_consistency(rng):
    # grouping the outputs by profile recovers the per-arity function runs
    levels = (1, 1, 2, 3, 3, 3)
    fns = tuple({} for _ in levels)
    branch = (2, 4, 6)
    tables = []
    for n in levels:
        tables.append({branch[:n]: rng.randrange(100)})
    d = Derivation(levels, tuple(tables))
    out = apply_derivation(d, branch)
    distinct, counts = derivation_profile(d)
    i = 0
    for n, c in zip(distinct, counts):
        group = out[i : i + c]
        assert group == tuple(t[branch[:n]] for t in tables[i : i + c])
        i += c


def test_derivation_validation():
    with pytest.raises(ValueError):
        Derivation((2, 1), (dict(), dict()))


def _structure(node_order, level_order, core=(3, 4, 5)) -> ToyUltraStructure:
    ground = tuple(range(6))
    nodes = {(0,): UltraAssignment(frozenset(core)), (1,): UltraAssignment(frozenset({4, 5}))}
    levels = {1: UltraAssignment(frozenset({2, 3})), 2: UltraAssignment(frozenset(ground))}
    return ToyUltraStructure(
        ground,
        {a: nodes[a] for a in node_order},
        {n: levels[n] for n in level_order},
        UltraAssignment(frozenset(ground)),
    )


def _tree(order, last=frozenset({4, 5})) -> TreeCondition:
    successors = {(0,): frozenset({1, 2, 3}), (0, 1): frozenset({2, 3}), (0, 2): last}
    return TreeCondition((0,), 3, {a: successors[a] for a in order})


def test_equal_structures_and_trees_hash_equal_whatever_their_dict_order():
    pairs = [
        (_structure([(0,), (1,)], [1, 2]), _structure([(1,), (0,)], [2, 1])),
        (_tree([(0,), (0, 1), (0, 2)]), _tree([(0, 2), (0, 1), (0,)])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert {a: "x"}[b] == "x"
        assert len({a, b}) == 1


def test_structures_and_trees_differing_in_one_set_are_distinct_keys():
    order = [(0,), (0, 1), (0, 2)]
    t, t2 = _tree(order), _tree(order, frozenset({5}))
    # The structures differ only in one node's core, which the hash leaves out.
    u, u2 = _structure([(0,), (1,)], [1, 2]), _structure([(0,), (1,)], [1, 2], core=(4, 5))
    for a, b in ((t, t2), (u, u2)):
        assert a != b
        assert len({a, b}) == 2
        assert {a: 1, b: 2}[b] == 2
