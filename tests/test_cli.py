from __future__ import annotations

import json
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordbench import io, magidor, projection
from ordbench.cli import VERBS, main
from ordbench.ordinal import parse_ordinal
from ordbench.oset import parse_set

from conftest import canon_universe, canonical_condition, o


def run(argv, capsys) -> tuple[int, str]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def machine(argv, capsys) -> tuple[int, dict]:
    code = main(["--machine"] + argv)
    out = capsys.readouterr().out
    last = [line for line in out.splitlines() if line.strip()][-1]
    return code, json.loads(last)


@pytest.fixture
def cond_doc(tmp_path):
    u = canon_universe("w^2")
    p = canonical_condition(u, [o("w")])
    path = tmp_path / "cond.json"
    path.write_text(json.dumps(io.condition_to_json(p)))
    return str(path)


@pytest.fixture
def uni_doc(tmp_path):
    u = canon_universe("w^2")
    path = tmp_path / "uni.json"
    path.write_text(json.dumps(io.universe_to_json(u)))
    return str(path)


def test_ord_add_paper_example(capsys):
    code, out = run(["ord", "add", "w^w+1", "w^5*3+5"], capsys)
    assert code == 0
    assert out.strip() == "w^w + w^5*3 + 5"


def test_ord_add_prints_a_sum_longer_than_a_literal(capsys):
    """Two literals at the parser's digit limit add to one digit more, which
    prints in full in both modes."""
    digits = sys.get_int_max_str_digits()
    nines = "9" * digits
    total = "1" + "9" * (digits - 1) + "8"
    code, out = run(["ord", "add", nines, nines], capsys)
    assert (code, out) == (0, total + "\n")
    code, doc = machine(["ord", "add", nines, nines], capsys)
    assert (code, doc["result"]) == (0, total)


def test_ord_parse_error(capsys):
    code = main(["ord", "add", "x", "1"])
    assert code == 2


def test_ord_diff_machine(capsys):
    code, doc = machine(["ord", "diff", "w^w+1", "w^w + w^5*3 + 5"], capsys)
    assert code == 0
    assert doc["result"] == ["5", "5", "5", "0", "0", "0", "0", "0"]
    for e in doc["result"]:
        parse_ordinal(e)


def test_ord_diff_refuses_a_huge_difference(capsys):
    start = time.perf_counter()
    assert main(["ord", "diff", "0", "1000000000000"]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "more than the cap of" in captured.err


def test_set_ops_and_exit_codes(capsys):
    code, out = run(["set", "member", "{0} u [w,w^2)", "w+3"], capsys)
    assert code == 0
    code, out = run(["set", "member", "{0} u [w,w^2)", "5"], capsys)
    assert code == 1
    code, doc = machine(["set", "inter", "[0,w)", "[5,w^2)"], capsys)
    assert io.set_from_json(doc["result"]) == parse_set("[5,w)")


def test_a_malformed_set_literal_reports_the_literal_error(capsys):
    """Text that is neither a set literal nor JSON gets the literal's
    error; a JSON document of the wrong shape still gets its shape's."""
    for text, message in [
        ("[0,w", "bad set piece '[0,w'"),
        ("{w+}", "expected a term (column 3)"),
        ("{0} u ", "empty set piece"),
        ("[0,w)@1", "bad level filter '1'"),
        ("[0 w)", "expected comma in '[0 w)'"),
        ('{"a": 1}', "expected a set literal, got {'a': 1}"),
        ('[["0", 5]]', "expected an ordinal literal, got 5"),
        ("[[5]]", "bad set piece [5]"),
    ]:
        for mode in ([], ["--machine"]):
            assert main(mode + ["set", "union", text, "{}"]) == 2
            assert capsys.readouterr() == ("", f"parse error: {message}\n")


def test_set_union_drops_emptied_piece(capsys):
    # Pinning the junction at w leaves [w,w+1)@{0}, which holds no point.
    code, out = run(["set", "union", "[0,1)", "[0,w+1)@{0}"], capsys)
    assert code == 0
    assert out.strip() == "[0,w)"


@pytest.mark.parametrize(
    "argv, expected",
    [
        # A filtered run takes in the start of a plain piece reaching w^w,
        # up to the first point whose level it left out before.
        pytest.param(
            ["set", "diff", "[0,w^w*2)", "[0,w^2)@{1}"],
            "[0,w^2 + w)@{0,2} u [w^2 + w,w^w*2)",
            id="diff-run-into-w^w*2",
        ),
        pytest.param(
            ["set", "union", "[0,w^2)@{1}", "[w^2,w^w)"],
            "[w,w^2 + 1)@{1,2} u [w^2 + 1,w^w)",
            id="union-run-into-w^w",
        ),
        pytest.param(
            ["set", "union", "[w,w^2)@{1}", "[w^2,w^w+1)"],
            "[w,w^2 + 1)@{1,2} u [w^2 + 1,w^w + 1)",
            id="union-run-into-w^w+1",
        ),
        # The filter leaves out w^3, of level 3, and nothing before it.
        (["set", "union", "[0,w)", "[w,w^3+1)@{0,1,2}"], "[0,w^3)"),
        # The gap holds only a level-0 point, so the stratum stays one piece.
        pytest.param(
            ["set", "diff", "[0,w^2)@{1}", "[w+1,w+2)"], "[w,w^2)@{1}", id="gap-inside-a-stratum"
        ),
    ],
)
def test_junction_between_a_filtered_and_a_plain_piece(argv, expected, capsys):
    # No junction next to a plain piece that reaches w^w asks for the
    # levels of that whole piece.
    code, out = run(argv, capsys)
    assert code == 0
    assert out.strip() == expected


@pytest.mark.parametrize(
    "argv, expected",
    [
        # The filtered pieces hold no point at or above w^w: there the
        # first has only w^w, of level w, and the second w^w and points of
        # level 0.
        (["set", "union", "[w^3,w^w+1)@{6} u [0,w^w)", "{}"], (0, "[0,w^w)\n")),
        (["set", "member", "[w^2,w^w+w)@{3} u [0,w^w)", "w^4"], (0, "member\n")),
        # w^w+1, of level 0, cannot be stored in a filtered piece.
        (["set", "member", "[w^w,w^w*2)@{0}", "w^4"], (2, "")),
    ],
)
def test_filtered_piece_reaching_past_w_to_the_w(argv, expected, capsys):
    assert run(argv, capsys) == expected


def test_set_stratum(uni_doc, capsys):
    code, doc = machine(["set", "stratum", "1", "--universe", uni_doc], capsys)
    assert code == 0
    got = io.set_from_json(doc["result"])
    assert o("w*3") in got and o("w+1") not in got


def test_uni_check(uni_doc, capsys, tmp_path):
    code, out = run(["uni", "check", uni_doc], capsys)
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lambda0": "w+1", "delta0_bound": "w", "cores": []}))
    assert main(["uni", "check", str(bad)]) == 1
    # A file that is not a JSON document is malformed input, not a violation.
    not_json = tmp_path / "not_json.json"
    not_utf8 = tmp_path / "not_utf8.json"
    not_json.write_text('{"lambda0": "w^2",')
    not_utf8.write_bytes(b"\xff\xfe[]")
    capsys.readouterr()
    for path in (not_json, not_utf8):
        assert main(["uni", "check", str(path)]) == 2
        assert main(["set", "member", str(path), "w"]) == 2
        assert capsys.readouterr().out == ""


def test_uni_star(uni_doc, capsys):
    code, doc = machine(["uni", "star", uni_doc, "[w,w^2)", "w^2"], capsys)
    assert code == 0
    assert io.set_from_json(doc["result"]) == parse_set("(w,w^2)")


def test_a_bound_beyond_the_ground_set_exits_2(capsys):
    U = json.dumps({"lambda0": "w^2", "delta0_bound": "w"})
    for argv in (["uni", "star", U, "[0,w^3)", "w^3"],
                 ["set", "stratum", "--universe", U, "1", "--below", "w^3"],
                 ["uni", "large", U, "[0,w^3)", "w^3", "1"],
                 ["uni", "stratify", U, "[0,w^3)", "w^3"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "input error: w^3 is beyond the ground set\n")


def test_cond_validate_and_gamma(cond_doc, capsys):
    code, out = run(["cond", "validate", cond_doc], capsys)
    assert code == 0
    code, out = run(["cond", "gamma", cond_doc, "1"], capsys)
    assert out.strip() == "w"


def test_point_beyond_the_ground_set_is_a_violation_in_both_forcings(capsys):
    doc = json.dumps({
        "universe": io.universe_to_json(canon_universe("w^2")),
        "index": "[0,w^2)",
        "blocks": [{"kappa": "w^3", "B": None}, {"kappa": "w^2", "B": "[w,w^2)"}],
    })
    for group in ("cond", "proj"):
        code, out = run([group, "validate", doc], capsys)
        assert code == 1
        assert "block 1 (kappa=w^3): point beyond the ground set" in out


def test_point_beyond_the_ground_set_extends_itself_in_both_forcings():
    # The index recursion gives that block N/A and goes on past it.  The
    # CLI refuses the document as invalid, so the order is asked directly.
    doc = {
        "universe": io.universe_to_json(canon_universe("w^2")),
        "index": "[0,w^2)",
        "blocks": [{"kappa": "w^3", "B": None}, {"kappa": "w^2", "B": "[w,w^2)"}],
    }
    p, q = io.condition_from_json(doc), io.icondition_from_json(doc)
    assert magidor.leq(p, p) and projection.leq_I(q, q)


def test_cond_unveil(capsys, tmp_path):
    u = canon_universe("w^2")
    p = canonical_condition(u, [o("w"), o("w+1"), o("w*2")])
    path = tmp_path / "c.json"
    path.write_text(json.dumps(io.condition_to_json(p)))
    code, doc = machine(["cond", "unveil", str(path), "w+3"], capsys)
    assert code == 0
    assert doc["result"][2] == ["0", "0"]


def test_proj_pi_section41(cond_doc, capsys):
    code, doc = machine(["proj", "pi", cond_doc, "--index", "{0} u [w,w^2)"], capsys)
    assert code == 0
    q = io.icondition_from_json(doc["result"])
    assert q.blocks[0].measure_set is None
    # round trip: same document serializes back
    assert io.icondition_to_json(q) == doc["result"]


def test_star_asks_for_a_direct_extension(capsys):
    """Each pair extends in the forcing order but adds blocks (for trees,
    lengthens the trunk), so under `--star` it does not extend."""
    u = canon_universe("w^2")
    p, p3 = (canonical_condition(u, [o(k) for k in ks]) for ks in (["w"], ["w", "w+1", "w*2"]))
    I = projection.IndexSet(parse_set("{0} u [w,w^2)"))
    tree = {"trunk": [0, 2], "depth": 2}
    pairs = [
        ["cond", "leq", *(json.dumps(io.condition_to_json(c)) for c in (p, p3))],
        ["proj", "leq", *(json.dumps(io.icondition_to_json(projection.pi(c, I))) for c in (p, p3))],
        ["prikry", "leq", json.dumps(tree), json.dumps({**tree, "trunk": [0, 2, 3]}),
         "--structure", _STRUCTURE],
    ]
    for argv in pairs:
        assert run(argv, capsys) == (0, "extends\n")
        assert run(argv + ["--star"], capsys) == (1, "does not extend\n")
        assert machine(argv + ["--star"], capsys)[1]["result"] is False


def test_proj_in_d_and_densify(capsys, tmp_path):
    u = canon_universe("w^2")
    p = canonical_condition(u, [o("w"), o("w+1"), o("w*2")])
    path = tmp_path / "c.json"
    path.write_text(json.dumps(io.condition_to_json(p)))
    I = "[0,w+1) u {w+2} u {w+3} u [w*2, w*2+1)"
    code, doc = machine(["proj", "in-d", str(path), "--index", I], capsys)
    assert code == 1
    assert doc["result"]["clause"] == 2
    code, doc = machine(["proj", "densify", str(path), "--index", I], capsys)
    assert code == 0
    out = io.condition_from_json(doc["result"])
    assert main(["proj", "in-d", json.dumps(doc["result"]), "--index", I]) == 0


def test_proj_in_d_and_densify_at_an_unattained_predecessor(capsys):
    # I = [0,w) u {w+1} has no greatest member below w+1, a block's coordinate.
    p = canonical_condition(canon_universe("w^2"), [o("w"), o("w+1")])
    argv = [json.dumps(io.condition_to_json(p)), "--index", "[0,w) u {w+1}"]
    assert run(["proj", "in-d", *argv], capsys) == (
        1, "fails clause 2 at block 2 (coordinate w + 1)\n")
    assert main(["proj", "densify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RepairImpossible: no repair coordinate for the failure at block 2" in captured.err


def test_proj_index_refuses_a_block_index_out_of_range(cond_doc, capsys):
    for i in ("0", "2"):
        assert main(["proj", "index", cond_doc, i, "--index", "{0} u [w,w^2)"]) == 2
        got = capsys.readouterr()
        assert (got.out, got.err) == ("", f"input error: block index {i} out of 1..1\n")
    assert run(["proj", "index", cond_doc, "1", "--index", "{0} u [w,w^2)"], capsys) == (0, "w\n")


def test_proj_refine_clubs_on_a_plain_set_reaching_w_to_the_w(capsys):
    assert run(["proj", "refine-clubs", "[0,w^w)", "--roots", "w^w"], capsys) == (0, "w^w\n")


def test_proj_lift_failing_after_the_gate_exits_2(capsys):
    from test_projection import lift_failing_after_the_gate

    p, q = lift_failing_after_the_gate()
    argv = ["proj", "lift", json.dumps(io.condition_to_json(p)),
            json.dumps(io.icondition_to_json(q))]
    assert main(argv) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == (
        "error: WitnessUnavailable: projection of the lift differs from the target\n"
    )


def test_gen_otp(capsys):
    code, out = run(["gen", "otp", "w^3", "w", "w^2"], capsys)
    assert out.strip() == "w^2"
    code, out = run(
        ["gen", "otp", "w^2", "0", "w", "--restrict", "{0} u [w,w^2)"], capsys
    )
    assert out.strip() == "0"


def test_gen_otp_of_a_filtered_set_with_a_huge_coefficient():
    # One sum per term of the bound, not one per unit of its coefficient.
    out = subprocess.run(
        [sys.executable, "-m", "ordbench.cli", "gen", "otp", "w^3", "0", "w^2*100000000",
         "--restrict", "[0,w^3)@{1}"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "w*100000000"


def test_gen_in_filter(cond_doc, capsys):
    assert main(["gen", "in-filter", cond_doc]) == 0


def test_ramsey_cli(capsys, tmp_path):
    fn = {
        "factors": [[1, 2, 3], [4, 5, 6]],
        "table": [
            {"args": [a, b], "value": a}
            for a in (1, 2, 3)
            for b in (4, 5, 6)
        ],
    }
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(fn))
    code, doc = machine(["ramsey", "homog", str(path), "--min-sizes", "1,3"], capsys)
    assert code == 0
    assert len(doc["result"]["factors"][0]) == 1
    assert len(doc["result"]["factors"][1]) == 3
    code, doc = machine(["ramsey", "important", str(path), "--min-sizes", "2,2"], capsys)
    assert code == 0
    assert doc["result"]["coordinates"] == [1]


def test_list_values_freeze(capsys):
    # JSON lists, nested or not, are hashable values once frozen to tuples.
    table = [{"args": [a, b], "value": [a % 2]} for a in (1, 2) for b in (3, 4)]
    fn = json.dumps({"factors": [[1, 2], [3, 4]], "table": table})
    code, doc = machine(["ramsey", "homog", fn, "--min-sizes", "1,1"], capsys)
    assert code == 0
    assert doc["result"] == {"factors": [[1], [3, 4]], "color": [1]}
    graph = json.dumps([{"args": [a], "value": [[a // 3]]} for a in range(6)])
    code, doc = machine(["prikry", "project", graph, "[[[1]]]", "1", "--structure", _STRUCTURE],
                        capsys)
    assert code == 0 and doc["result"] is True


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_non_json_constants_exit_2(constant, capsys, tmp_path):
    # Python's decoder takes these (a number too large for a float as an
    # infinity), but JSON has no such values, so a document that echoed one
    # would not re-parse as JSON.
    table = [f'{{"args": [{a}, {b}], "value": {constant}}}' for a in (1, 2) for b in (3, 4)]
    fn = f'{{"factors": [[1, 2], [3, 4]], "table": [{", ".join(table)}]}}'
    literal = f'["0", {constant}]'
    fn_path, set_path = tmp_path / "fn.json", tmp_path / "set.json"
    fn_path.write_text(fn)
    set_path.write_text(literal)
    for argv in (["ramsey", "homog", fn, "--min-sizes", "1,1"],
                 ["ramsey", "homog", str(fn_path), "--min-sizes", "1,1"],
                 ["set", "member", literal, "0"],
                 ["set", "member", str(set_path), "0"]):
        for mode in ([], ["--machine"]):
            assert main(mode + argv) == 2
            assert capsys.readouterr().out == ""


def test_prikry_cli(capsys, tmp_path):
    struct = {
        "ground": [0, 1, 2, 3, 4, 5],
        "nodes": [],
        "levels": [],
        "default": {"core": [3, 4, 5], "pi": None},
        "tail_default": True,
    }
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(struct))
    tree = {"trunk": [0, 2], "depth": 2, "successors": []}
    tpath = tmp_path / "t.json"
    tpath.write_text(json.dumps(tree))
    assert main(["prikry", "validate", str(tpath), "--structure", str(spath)]) == 0
    code, doc = machine(
        ["prikry", "diag", json.dumps({str(a): [0, 1, 2, 3, 4, 5] for a in range(6)}),
         "0", "--structure", str(spath)],
        capsys,
    )
    assert code == 0 and doc["result"] == [0, 1, 2, 3, 4, 5]
    pairs = [[a, b] for a in range(6) for b in range(a + 1, 6)]
    assert (
        main(
            ["prikry", "limit-member", json.dumps(pairs), "2", "--structure", str(spath)]
        )
        == 0
    )
    der = {"levels": [1, 1, 3], "tables": [
        [{"args": [2], "value": 9}],
        [{"args": [2], "value": 8}],
        [{"args": [2, 4, 6], "value": 7}],
    ]}
    code, doc = machine(["prikry", "derive", json.dumps(der), "2,4,6"], capsys)
    assert code == 0
    assert doc["result"] == [9, 8, 7]
    assert doc["profile"] == {"levels": [1, 3], "counts": [2, 1]}


_STRUCTURE = json.dumps(
    {"ground": [0, 1, 2, 3, 4, 5], "default": {"core": [3, 4, 5], "pi": None}}
)
_STRUCTURE5 = json.dumps({"ground": [0, 1, 2, 3, 4], "default": {"core": [1, 2], "pi": None}})
# Over this structure a tree with trunk [0] prunes sum_{k<d} C(23, k) nodes
# at depth d: 145,499 at depth 7, past `prikry.MAX_TREE_NODES` from depth 8.
_STRUCTURE24 = json.dumps({"ground": list(range(24)),
                           "default": {"core": list(range(1, 24)), "pi": None},
                           "tail_default": True})
_U2 = io.universe_to_json(canon_universe("w^2"))
_ONE_BLOCK = json.dumps({"universe": _U2, "blocks": [{"kappa": "w^2", "B": "[0,w^2)"}]})
_TWO_BLOCKS = json.dumps({"universe": _U2, "blocks": [{"kappa": "w", "B": "[0,w)"},
                                                      {"kappa": "w^2", "B": "(w,w^2)"}]})
# Its set misses the points up to w.
_HOLED = json.dumps({"universe": _U2, "blocks": [{"kappa": "w^2", "B": "(w,w^2)"}]})


@pytest.mark.parametrize(
    "argv",
    [
        ["cond", "validate", "[]"],
        ["cond", "validate", json.dumps(
            {"universe": io.universe_to_json(canon_universe("w^2")), "blocks": 5}
        )],
        ["cond", "gamma", "[]", "1"],
        ["ord", "classify", "w^(" * 400 + "1" + ")" * 400],
        ["cond", "validate", "[" * 100_000 + "]" * 100_000],
        ["prikry", "validate", '{"trunk": ["a", 1], "depth": 2}', "--structure",
         '{"ground": [0,1,2], "default": {"core": [1,2], "pi": null}}'],
        ["prikry", "validate", '{"trunk": [true], "depth": 2}', "--structure", _STRUCTURE],
        ["prikry", "validate", '{"trunk": [], "depth": "2"}', "--structure", _STRUCTURE],
        ["prikry", "validate", '{"trunk": [], "depth": 2, "successors": '
         '[{"node": [3.5], "set": [4]}]}', "--structure", _STRUCTURE],
        ["prikry", "validate", '{"trunk": [], "depth": 2, "successors": '
         '[{"node": [], "set": ["4"]}]}', "--structure", _STRUCTURE],
        ["ramsey", "homog", json.dumps({"factors": [[1], [3]], "table": [
            {"args": [1, 3], "value": {"a": 1}}]}), "--min-sizes", "1,1"],
        ["prikry", "project", json.dumps([{"args": [0], "value": {"a": 1}}]), "[1]", "1",
         "--structure", _STRUCTURE],
        ["ramsey", "homog", json.dumps({"factors": [[1], [3]], "table": [
            {"args": [1, 3], "value": 0}]}), "--min-sizes=-1,1"],
        ["ramsey", "important", json.dumps({"factors": [list(range(19))], "table": [
            {"args": [x], "value": 0} for x in range(19)]}), "--min-sizes", "0"],
        ["prikry", "validate-seq", '{"3": [3, "a"]}', "--trunk", "0,1",
         "--structure", _STRUCTURE5],
        ["prikry", "validate-seq", '[3, "a"]', "--trunk", "0,1", "--structure", _STRUCTURE5],
        ["prikry", "limit-member", '[[0, "a"]]', "2", "--structure", _STRUCTURE5],
        ["prikry", "limit-member", "--structure", _STRUCTURE5, "--", "[]", "-1"],
        ["prikry", "limit-member", "[]", "1", "--structure", json.dumps(
            {"ground": [0, 1, 2, 3], "default": {"core": [3], "pi": [[3, 1], [3, 0]]}})],
        ["prikry", "normalize", '{"trunk": [1], "depth": 2}', "--structure",
         '{"ground": "a", "default": null}'],
        ["prikry", "derive", '{"levels": ["a"], "tables": [[]]}', "2,4"],
        ["cond", "type-of", _ONE_BLOCK, '["w"]'],
        ["ramsey", "homog", json.dumps({"factors": ["ab", "cd"], "table": [
            {"args": [a, b], "value": 1} for a in "ab" for b in "cd"]}), "--min-sizes", "1,1"],
        ["prikry", "normalize", '{"trunk": [1], "depth": 2}', "--structure",
         '{"ground": [0,1,2], "default": {"core": [1,2], "pi": null}, "tail_default": "false"}'],
        ["prikry", "normalize", '{"trunk": [], "depth": -3}', "--structure", _STRUCTURE],
        ["prikry", "project", json.dumps([{"args": [a], "value": "3"} for a in range(6)]),
         '"3"', "1", "--structure", _STRUCTURE],
        ["set", "stratum", "--universe", json.dumps(
            {**_U2, "cores": [{"beta": "w^2", "xi": "2", "core": "[0,w^2)"}]}), "1"],
        ["prikry", "validate", '{"trunk": [], "depth": 2}', "--structure",
         '{"ground": [1, 0], "default": null}'],
        ["prikry", "validate", '{"trunk": [], "depth": 2}', "--structure",
         '{"ground": [0, 1], "default": {"core": [9], "pi": null}}'],
        ["prikry", "validate", '{"trunk": [], "depth": 2}', "--structure",
         '{"ground": [0, 1, 2], "default": {"core": [2], "pi": [[1, 2]]}}'],
        ["prikry", "validate", '{"trunk": [1], "depth": 2, "successors": '
         '[{"node": [2], "set": [3]}]}', "--structure", _STRUCTURE],
        ["prikry", "derive", '{"levels": [1, 2], "tables": [[]]}', "2,4"],
    ],
    ids=[
        "list-condition", "int-blocks", "gamma-list-condition", "deep-literal", "deep-json",
        "str-trunk", "bool-trunk", "str-depth", "float-node", "str-set-member",
        "object-fn-value", "object-graph-value", "negative-min-size", "oversized-ramsey",
        "str-family-member", "str-set-member-single", "str-tuple-entry", "negative-arity",
        "point-projected-twice", "str-ground", "str-derivation-level", "str-gap",
        "str-factor", "str-tail-default", "negative-depth", "str-target",
        "core-index-at-the-order", "ground-not-increasing", "core-outside-the-ground",
        "projection-increases", "successor-off-the-trunk", "tables-per-level",
    ],
)
def test_malformed_input_exits_2(argv, capsys):
    for mode in ([], ["--machine"]):
        assert main(mode + argv) == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["prikry", "project", '[{"args": [0], "value": 0}]', "[0]", "1",
          "--structure", _STRUCTURE5], "fn has no entry for (1,)"),
        (["prikry", "derive", '{"levels": [1], "tables": [[]]}', "2,4"],
         "derivation table 0 has no entry for (2,)"),
        (["prikry", "p-point", '[{"3": 0, "4": 0, "5": 1}, {"3": 0}]', "1",
          "--structure", _STRUCTURE], "test table 1 has no entry for 4"),
        (["ramsey", "homog", '{"factors": [[1], [3]], "table": []}', "--min-sizes", "1,1"],
         "table missing the tuple (1, 3)"),
    ],
    ids=["fn", "derivation-table", "p-point-table", "ramsey-table"],
)
def test_missing_table_entry_names_the_table_and_tuple(argv, message, capsys):
    for mode in ([], ["--machine"]):
        assert main(mode + argv) == 2
        got = capsys.readouterr()
        assert got.out == "" and got.err == f"input error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cond", "gamma", _TWO_BLOCKS, "5"], "error: OutOfRange: block index 5 out of 1..2"),
        (["cond", "type-of", _ONE_BLOCK, "[[],[]]"],
         "error: NotIncreasing: assignment has 2 gaps, condition has 1"),
        (["cond", "type-of", _HOLED, '[["5"]]'],
         "error: PointNotInMeasureSet: gap 1: point 5 outside the block set"),
        (["cond", "extend", _ONE_BLOCK, "[[]]", "--shrink", '[{"kappa": "w^2", "B": "[w,w*2)"}]'],
         "error: LargenessViolated: block 1 (kappa=w^2): measure set not large at every index"),
        (["cond", "extend", _ONE_BLOCK, '["w1"]'], "parse error: a gap must be a JSON list, got 'w1'"),
        (["cond", "unveil", _ONE_BLOCK, "0"],
         "error: OutOfRange: 0 is not between block coordinates"),
        (["cond", "split", _TWO_BLOCKS, "9"], "error: BadCut: block index 9 out of range"),
        (["cond", "join", _ONE_BLOCK, "--c2", _ONE_BLOCK],
         "error: BadCut: block 2 (kappa=w^2): kappas not increasing; "
         "block 2 (kappa=w^2): min of measure set not above previous point"),
        (["set", "stratum", "--universe", json.dumps(_U2), "w"],
         "input error: stratum index w not below delta0_bound"),
        (["uni", "large", json.dumps(_U2), "[0,w^2)", "w^2", "2"],
         "input error: xi=2 not below o(w^2)=2"),
        (["uni", "stratify", '{"lambda0": "w^w", "delta0_bound": "w+1"}', "[0,w^w)", "w^w"],
         "input error: stratify needs a finite o(w^w)"),
        (["gen", "otp", "w^2", "w", "w"], "input error: need a < b <= w^2"),
        (["proj", "refine-clubs", "[0,w)", "--roots", "w,1"],
         "input error: roots must be strictly increasing and nonempty"),
        (["prikry", "project", '[{"args": "01", "value": 0}]', "[0]", "1",
          "--structure", _STRUCTURE], "parse error: args must be a JSON list, got '01'"),
        (["prikry", "derive", '{"levels": [2], "tables": [[{"args": "01", "value": 0}]]}', "0,1"],
         "parse error: args must be a JSON list, got '01'"),
        (["ord", "add", "1" * (sys.get_int_max_str_digits() + 1), "1"],
         f"parse error: numeral longer than {sys.get_int_max_str_digits()} digits (column 1)"),
        # An object piece names its levels, as a JSON list ("levels": [] is
        # the empty filter); a string would read as its characters.
        (["set", "union", '[{"lo": "0", "hi": "w"}]', "{}"],
         "parse error: malformed set argument: missing field 'levels'"),
        (["set", "union", '[{"lo": "0", "hi": "w^2", "levels": "10"}]', "{}"],
         "parse error: levels must be a JSON list, got '10'"),
        (["prikry", "normalize", '{"trunk": [0], "depth": 9, "successors": []}',
          "--structure", _STRUCTURE24],
         "input error: 880970 tree nodes to prune, more than the cap of 262144"),
    ],
    ids=["gamma-index", "gap-count", "point-off-the-set", "shrink-not-large", "str-gaps",
         "unveil-zero", "split-index", "join-invalid", "stratum-index", "large-index",
         "stratify-infinite-order", "otp-empty-interval", "roots-decrease", "str-graph-args",
         "str-derivation-args", "long-numeral", "set-piece-without-levels",
         "str-set-piece-levels", "tree-past-the-node-cap"],
)
def test_a_refused_call_exits_2_and_says_why(argv, message, capsys):
    for mode in ([], ["--machine"]):
        assert main(mode + argv) == 2
        assert capsys.readouterr() == ("", f"{message}\n")


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["cond", "split", _ONE_BLOCK, "1"], 0, "lower: 1 blocks\nupper: empty\n"),
        (["ramsey", "homog", json.dumps({"factors": [[1], [3]], "table": [
            {"args": [1, 3], "value": 0}]}), "--min-sizes", "2,1"], 1, "not found\n"),
        (["set", "inter", "{0}", "{1}"], 0, "{}\n"),
        # Clause (b): the index set's points below w are not in the top's set.
        (["proj", "quotient-member", _HOLED, "--index", "[0,w^2)"], 1,
         "not in the quotient filter\n"),
    ],
    ids=["split-at-the-top", "no-homogeneous-subproduct", "disjoint-sets", "quotient-clause-b"],
)
def test_an_empty_answer(argv, code, out, capsys):
    assert run(argv, capsys) == (code, out)


def test_a_condition_reads_its_universe_from_a_path(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(json.dumps(_U2))
    doc = json.dumps({"universe": str(path), "blocks": [{"kappa": "w^2", "B": "[0,w^2)"}]})
    code, got = machine(["cond", "validate", doc], capsys)
    assert code == 0
    # The echo carries the universe inline.
    assert got["inputs"][0]["value"]["universe"] == _U2


_UNI = {"lambda0": "w^2", "delta0_bound": "w"}


@pytest.mark.parametrize(
    "argv, kind, field",
    [
        (["cond", "validate", '{"blocks": []}'], "cond", "universe"),
        (["cond", "validate", json.dumps({"universe": _UNI})], "cond", "blocks"),
        (["cond", "validate", json.dumps({"universe": _UNI, "blocks": [{"B": None}]})],
         "cond", "kappa"),
        (["cond", "validate", json.dumps({"universe": {"lambda0": "w^2"}, "blocks": []})],
         "cond", "delta0_bound"),
        (["proj", "validate", json.dumps({"universe": _UNI, "blocks": []})], "icond", "index"),
        (["ramsey", "homog", '{"factors": [[1], [3]]}', "--min-sizes", "1,1"], "fn", "table"),
        (["prikry", "validate", '{"trunk": []}', "--structure", _STRUCTURE], "tree", "depth"),
        (["prikry", "derive", '{"levels": [1]}', "2,4"], "derivation", "tables"),
    ],
    ids=["universe", "blocks", "kappa", "delta0_bound", "index", "table", "depth", "tables"],
)
def test_missing_field_names_the_argument_and_field(argv, kind, field, capsys):
    for mode in ([], ["--machine"]):
        assert main(mode + argv) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == f"parse error: malformed {kind} argument: missing field '{field}'\n"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150)
@given(
    doc=_json_values,
    verb=st.sampled_from([
        (["cond", "validate"], []),
        (["proj", "validate"], []),
        (["uni", "check"], []),
        (["prikry", "validate"], ["--structure", _STRUCTURE]),
        (["ramsey", "homog"], ["--min-sizes", "1,1"]),
        (["prikry", "limit-member"], ["2", "--structure", _STRUCTURE]),
        (["prikry", "p-point"], ["1", "--structure", _STRUCTURE]),
        (["prikry", "diag"], ["1", "--structure", _STRUCTURE]),
        (["prikry", "derive"], ["2,4"]),
        (["prikry", "validate-seq"], ["--structure", _STRUCTURE, "--trunk", "0,2"]),
        (["prikry", "project"], ["[3, 4, 5]", "1", "--structure", _STRUCTURE]),
        (["prikry", "project", json.dumps([{"args": [a], "value": a} for a in range(6)])],
         ["1", "--structure", _STRUCTURE]),
        (["prikry", "validate", '{"trunk": [1], "depth": 2}', "--structure"], []),
    ]),
)
def test_document_arguments_never_raise(doc, verb):
    # Any JSON value as a document argument is a verdict or an input error.
    name, flags = verb
    assert main(["--machine", *name, json.dumps(doc), *flags]) in (0, 1, 2)


_W2 = canon_universe("w^2")
# p = [w, w, w^2] names w twice; q is a projected condition with its first
# block listed twice.
_TWICE = {
    "universe": io.universe_to_json(_W2),
    "blocks": [{"kappa": "w", "B": [["0", "w"]]}, {"kappa": "w", "B": [["0", "w"]]},
               {"kappa": "w^2", "B": [["w+1", "w^2"]]}],
}
_VALID_P = canonical_condition(_W2, [o("w")])
_I41 = "{0} u [w,w^2)"
_VALID_Q = projection.pi(_VALID_P, projection.IndexSet(parse_set(_I41)))
_VALID_ARGS = {
    "cond": json.dumps(io.condition_to_json(_VALID_P)),
    "icond": json.dumps(io.icondition_to_json(_VALID_Q)),
    "int": "1", "ord": "w+3", "set": _I41, "alphas": "[[],[]]",
}


_TWICE_I = io.icondition_to_json(_VALID_Q)
_TWICE_I["blocks"] = _TWICE_I["blocks"][:1] + _TWICE_I["blocks"]
# Kind -> (its validity verb's group, the invalid document, its violations).
_INVALID = {
    "cond": ("cond", json.dumps(_TWICE), magidor.validate(io.condition_from_json(_TWICE))),
    "icond": ("proj", json.dumps(_TWICE_I),
              projection.validate_I(io.icondition_from_json(_TWICE_I))),
}


def _scrambled(doc: dict) -> list[str]:
    """`doc` with its blocks permuted (seed 4), the identity left out."""
    rng = random.Random(4)
    n = len(doc["blocks"])
    perms = {tuple(rng.sample(range(n), n)) for _ in range(8)} - {tuple(range(n))}
    return [json.dumps(dict(doc, blocks=[doc["blocks"][i] for i in perm]))
            for perm in sorted(perms)]


# A valid condition with three blocks and its projection, scrambled.
_P3 = canonical_condition(_W2, [o("w"), o("w*2")])
_SCRAMBLED = {
    "cond": _scrambled(io.condition_to_json(_P3)),
    "icond": _scrambled(io.icondition_to_json(
        projection.pi(_P3, projection.IndexSet(parse_set(_I41))))),
}


def _condition_arguments():
    """argv with an invalid document at one condition or I-condition
    argument of a verb, valid values at the other required arguments."""
    for (group, name), v in VERBS.items():
        specs = [spec.partition(":") for spec in v.args.split()]
        for target, _, kind in specs:
            if kind not in _INVALID:
                continue
            argv = [group, name]
            for flag, _, k in specs:
                if flag == target:
                    value = _INVALID[kind][1]
                elif flag.startswith("--") and not k.endswith("!"):
                    continue  # optional flags and switches are left out
                else:
                    value = _VALID_ARGS[k.rstrip("!")]
                argv += [flag, value] if flag.startswith("--") else [value]
            arg = target.lstrip("-")
            yield pytest.param(argv, arg, kind, id=f"{group}-{name}-{arg}")


def test_the_invalid_documents_decode_and_are_violations(capsys):
    for group, doc, found in _INVALID.values():
        assert found
        assert run([group, "validate", doc], capsys) == (
            1, "".join(f"{m}\n" for m in found) + f"{len(found)} violation(s)\n")


@pytest.mark.parametrize("argv, arg, kind", _condition_arguments())
def test_an_invalid_condition_argument_exits_2(argv, arg, kind, capsys):
    first = _INVALID[kind][2][0]
    for mode in ([], ["--machine"]):
        assert main(mode + argv) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err == f"parse error: invalid {kind} argument {arg}: {first}\n"
    at = argv.index(_INVALID[kind][1])
    for doc in _SCRAMBLED[kind]:
        for mode in ([], ["--machine"]):
            assert main(mode + argv[:at] + [doc] + argv[at + 1:]) == 2
            got = capsys.readouterr()
            assert got.out == ""
            assert got.err.startswith(f"parse error: invalid {kind} argument {arg}: ")


def test_validate_seq_reads_the_forcing_from_the_document(capsys):
    # A list is the single-ultrafilter condition, an object one set per level.
    flags = ["--trunk", "0,2", "--structure", _STRUCTURE]
    assert run(["prikry", "validate-seq", "[3, 4, 5]", *flags], capsys) == (0, "ok\n")
    assert run(["prikry", "validate-seq", '{"3": [3, 4, 5]}', *flags], capsys) == (0, "ok\n")
    code, doc = machine(["prikry", "validate-seq", "[1, 3, 4, 5]", *flags], capsys)
    assert (code, doc["violations"]) == (1, ["level 3: min clause fails"])
    code, doc = machine(["prikry", "validate-seq", '{"2": [3, 4, 5]}', *flags], capsys)
    assert (code, doc["violations"]) == (1, ["level 2: set supplied at a trunk level"])


def test_p_point_table_values_may_be_lists(capsys):
    code, doc = machine(
        ["prikry", "p-point", '[{"1": [1], "2": [2]}]', "1", "--structure", _STRUCTURE5], capsys
    )
    assert (code, doc["result"]) == (0, True)


def test_limit_member_of_the_empty_tuple(capsys):
    for X, code in (("[]", 1), ("[[]]", 0)):
        assert main(["prikry", "limit-member", X, "0", "--structure", _STRUCTURE5]) == code


def test_machine_roundtrip_condition(cond_doc, capsys):
    code, doc = machine(["cond", "extend", cond_doc, "[[], []]"], capsys)
    assert code == 0
    back = io.condition_from_json(doc["result"])
    assert io.condition_to_json(back) == doc["result"]


def test_machine_inputs_echo_each_decoded_argument(capsys):
    """`inputs` holds one entry per ordinal, set, universe, condition and
    I-condition argument, in argument order, each re-parsing to the
    argument; other kinds, such as an int, add none."""
    u = canon_universe("w^2")
    p = canonical_condition(u, [o("w")])
    q = projection.pi(p, projection.IndexSet(parse_set("{0} u [w,w^2)")))
    uni, cond, icond = (json.dumps(x) for x in (
        io.universe_to_json(u), io.condition_to_json(p), io.icondition_to_json(q)))
    reparse = {  # kind -> (reader of the echoed value, reader of the argument)
        "ordinal": (parse_ordinal, parse_ordinal),
        "set": (io.set_from_json, parse_set),
        "universe": (io.universe_from_json, lambda a: io.universe_from_json(json.loads(a))),
        "condition": (io.condition_from_json, lambda a: io.condition_from_json(json.loads(a))),
        "icondition": (io.icondition_from_json, lambda a: io.icondition_from_json(json.loads(a))),
    }
    for argv, kinds in [
        (["ord", "add", "w", "1"], [("ordinal", "w"), ("ordinal", "1")]),
        (["set", "union", "[0,w)", "{w*2}"], [("set", "[0,w)"), ("set", "{w*2}")]),
        (["uni", "star", uni, "[w,w^2)", "w^2"],
         [("universe", uni), ("set", "[w,w^2)"), ("ordinal", "w^2")]),
        (["cond", "gamma", cond, "1"], [("condition", cond)]),
        (["proj", "leq", icond, icond], [("icondition", icond), ("icondition", icond)]),
    ]:
        code, out = machine(argv, capsys)
        assert code == 0, argv
        assert [e["kind"] for e in out["inputs"]] == [k for k, _ in kinds]
        for entry, (kind, arg) in zip(out["inputs"], kinds):
            from_value, from_arg = reparse[kind]
            assert from_value(entry["value"]) == from_arg(arg), (argv, kind)


def test_entrypoint_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "ordbench.cli", "ord", "cmp", "w", "w"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "equal"


# Runs one verb, then prints on its last line the modules that have run: a
# module bound by `ordbench._lazy` but never touched is a stub, not a module.
_LOADED = """
import sys, types
from ordbench.cli import main
code = main(sys.argv[1:])
print(code, *sorted(n for n, m in sys.modules.items() if type(m) is types.ModuleType))
"""
_MODULES = {p.stem for p in pathlib.Path(io.__file__).parent.glob("*.py")} - {"__init__"}
_W2_COND = json.dumps(io.condition_to_json(canonical_condition(canon_universe("w^2"), [o("w")])))
_FN = json.dumps({"factors": [[1, 2], [3, 4]],
                  "table": [{"args": [a, b], "value": a} for a in (1, 2) for b in (3, 4)]})


def _ours(names) -> set[str]:
    return {f"ordbench.{n}" for n in names}


_CONDITION_SIDE = _ours(["oset", "universe", "magidor", "projection", "generic"])
# `dataclasses` pulls in `inspect` and its own imports: no verb needs either.
_STDLIB_UNUSED = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["ord", "add", "w", "1"],
         _ours(_MODULES - {"errors", "ordinal", "cli"})),
        (["set", "union", "[0,w)", "{w*2}"], _ours(["prikry", "ramsey"])),
        (["uni", "check", json.dumps(io.universe_to_json(canon_universe("w^2")))],
         _ours(["prikry", "ramsey"])),
        (["cond", "leq", _W2_COND, _W2_COND], _ours(["prikry", "ramsey"])),
        (["proj", "pi", _W2_COND, "--index", "{0} u [w,w^2)"], _ours(["prikry", "ramsey"])),
        (["gen", "otp", "w^2", "w", "w*2"], _ours(["prikry", "ramsey"])),
        (["ramsey", "homog", _FN, "--min-sizes", "1,2"], _CONDITION_SIDE | _ours(["prikry"])),
        (["prikry", "validate", json.dumps({"trunk": [0, 2], "depth": 2}),
          "--structure", _STRUCTURE], _CONDITION_SIDE | _ours(["ramsey"])),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_a_call_loads_only_the_layers_its_verb_runs(argv, absent):
    out = subprocess.run([sys.executable, "-c", _LOADED, *argv], capture_output=True,
                         text=True, timeout=60)
    code, *loaded = out.stdout.splitlines()[-1].split()
    assert code == "0", out.stderr
    assert sorted((absent | _STDLIB_UNUSED).intersection(loaded)) == []


def test_a_call_without_a_verb_gets_the_top_level_help(capsys):
    for argv in ([], ["--machine"], ["cond"], ["--machine", "proj"]):
        assert main(argv) == 2
        got = capsys.readouterr()
        assert got.out.startswith("usage: ordbench [-h] [--machine]") and got.err == ""
    with pytest.raises(SystemExit) as done:
        main(["--self-test"])
    assert done.value.code == 2
    assert "unrecognized arguments: --self-test" in capsys.readouterr().err


def test_registry_covers_public_operations():
    """Every public operation is reachable through exactly one verb."""
    public_ops = {
        ("ordinal", name)
        for name in ("compare", "add", "omega_power", "cnf_difference",
                     "limit_order", "classify")
    }
    public_ops |= {
        ("oset", name)
        for name in ("union", "intersect", "difference", "membership",
                     "restrict_below", "restrict_above")
    }
    public_ops |= {
        ("universe", name)
        for name in ("check", "stratum", "is_large", "star_closure", "stratify")
    }
    public_ops |= {
        ("magidor", name)
        for name in ("validate", "leq", "gamma_of", "type_of", "extend",
                     "find_type", "unveil_type", "split_at", "join")
    }
    public_ops |= {
        ("projection", name)
        for name in ("index_of", "pi", "validate_I", "leq_I", "in_D", "densify",
                     "onto_construct", "lift", "correct_computation_check",
                     "refine_to_clubs", "quotient_member")
    }
    public_ops |= {("generic", n) for n in ("in_filter", "interval_otp",
                                            "filter_pair_compatible")}
    public_ops |= {("ramsey", n) for n in ("homogenize", "important_coordinates")}
    public_ops |= {
        ("prikry", name)
        for name in ("validate_tree", "leq_tree", "normalize_dense",
                     "validate_sequence_condition", "modified_diag",
                     "limit_ultrafilter_member", "is_p_point",
                     "apply_derivation", "project_ultrafilter")
    }
    registry = {tuple(v.op.split(".")): key for key, v in VERBS.items()}
    assert set(registry) == public_ops
    # one verb per operation: no two verbs name the same one
    assert len(registry) == len(VERBS)
    # and every registered verb actually parses
    for group, verb in registry.values():
        with pytest.raises(SystemExit) as done:
            main([group, verb, "--help"])
        assert done.value.code == 0, (group, verb)


def test_the_readme_lists_every_verb_in_table_order():
    """The README's "Verb groups:" paragraph names each group of the verb
    table, and each group's verbs, in the table's order."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    para = text[text.index("Verb groups:"):].split("\n\n")[0]
    listed = [(g, verbs.split(",")) for g, verbs in re.findall(r"`([\w-]+) \{([^}]*)\}`", para)]
    table: dict[str, list[str]] = {}
    for group, verb in VERBS:
        table.setdefault(group, []).append(verb)
    assert listed == list(table.items())


def test_the_readme_documents_read_and_pass_their_checks(tmp_path, monkeypatch, capsys):
    """Each JSON block of the README's Documents section reads through its
    `io` reader, and `uni check` and `cond validate` accept it.  The
    condition names its universe by the path `universe.json`, so the
    universe document is written there first."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = text[text.index("\n## Documents\n"):].split("\n## ")[1]
    uni_text, cond_text = re.findall(r"```json\n(.*?)```", section, re.S)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "universe.json").write_text(uni_text)
    io.universe_from_json(json.loads(uni_text))
    io.condition_from_json(json.loads(cond_text))
    assert run(["uni", "check", "universe.json"], capsys) == (0, "ok\n")
    assert run(["cond", "validate", cond_text], capsys) == (0, "ok\n")
