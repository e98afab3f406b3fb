import json
import os
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import treestop
from treestop import (NodeNotInTree, ShapeTooLarge, build_tree, dump_instance,
                      dump_measure, dump_rule, euler_state, instance_hash,
                      load_instance, load_measure, load_rule, parse_function,
                      solve_weak)
from treestop import dp, lp
from treestop import cli
from treestop.cli import main, run_suite
from treestop.errors import NoInstances, RuleShapeMismatch, ShapeMismatch
from treestop.generate import CONSTRAINT_CAP, generate_instance
from treestop.io import decimal_value, fmt_rational, fmt_value, parse_word, word_str
from treestop.xreal import echo

F = Fraction

RW2_DOC = {
    "t0": "0", "dt": "1", "depth": 2,
    "branching": [{"p": "1/2", "w": "1"}, {"p": "1/2", "w": "-1"}],
    "x0_history": ["0"],
    "drift": "zero", "diffusion": "const:1",
    "f": "zero", "pi": "x_current**2",
    "constraints": {"ineq": [{"g": "const:1", "y": "3/2"}], "eq": []},
}


@pytest.fixture
def rw2_file(tmp_path):
    path = tmp_path / "rw2.json"
    path.write_text(json.dumps(RW2_DOC))
    return str(path)


# -- expression language ---------------------------------------------------

def test_builtin_functions():
    zero, _ = parse_function("zero")
    assert zero(F(3), (F(7),)) == 0
    coord, _ = parse_function("coord")
    assert coord(F(0), (F(1), F(5))) == 5
    sup, _ = parse_function("sup")
    assert sup(F(0), (F(1), F(5), F(2))) == 5
    const, spec = parse_function("const:3/4")
    assert const(F(0), (F(0),)) == F(3, 4) and spec == "const:3/4"


ALIASES = {"zero": "0", "coord": "x_current", "sup": "x_sup"}


@pytest.mark.parametrize("tree", [
    build_tree(dt=F(1, 2), depth=3, branching=[(F(1, 3), 1), (F(2, 3), -2)],
               history=(F(3), F(-1, 2)), drift=lambda t, xs: xs[-1] / 2),
    build_tree(dt=F(1, 2), depth=3,
               branching=[(F(1, 4), (1, 0)), (F(3, 4), (F(-1, 3), F(1, 2)))],
               x0=(0, 1), drift=lambda t, xs: (xs[-1][1] / 2, 1 - xs[-1][0]),
               diffusion=((1, 0), (F(1, 2), 1)))], ids=["scalar", "vector"])
def test_builtin_aliases_equal_their_expressions_at_every_node(tree):
    for name, expr in ALIASES.items():
        alias, spec = parse_function(name.upper())
        assert spec == name
        via_expr, _ = parse_function(expr)
        for w in tree.nodes():
            t, prefix = tree.time(len(w)), euler_state(tree, w)
            assert alias(t, prefix) == via_expr(t, prefix), (name, w)


def test_instance_hash_of_builtin_aliases_is_pinned():
    doc = {"t0": "0", "dt": "1/2", "depth": 2,
           "branching": [{"p": "1/2", "w": "1"}, {"p": "1/2", "w": "-1"}],
           "x0_history": ["1", "0"], "drift": "coord", "diffusion": "const:1",
           "f": "sup", "pi": "zero",
           "constraints": {"ineq": [{"g": "Coord", "y": "3/2"}],
                           "eq": [{"h": "SUP", "z": "1"}]}}
    assert instance_hash(load_instance(doc)) == \
        "3150725376a2276d0569555bbf07088d3a3f879754b9d3fe7d1cc73f432ff47e"


def test_expression_arithmetic_is_exact():
    fn, _ = parse_function("x_current**2 - t/3")
    assert fn(F(1), (F(1, 2),)) == F(1, 4) - F(1, 3)
    fn2, _ = parse_function("0.1 * x_sup")
    assert fn2(F(0), (F(2), F(10))) == 1  # decimal literal parses as 1/10


def test_expression_rejects_unknown_names_and_calls():
    with pytest.raises(ValueError):
        parse_function("y + 1")
    with pytest.raises((ValueError, SyntaxError)):
        parse_function("__import__('os')")
    with pytest.raises(ValueError):
        parse_function("t ** (1/2)")


# -- words -------------------------------------------------------------------

def test_word_parsing_and_rendering(rw2_file):
    tree = load_instance(rw2_file)
    assert parse_word(tree, "+-") == (0, 1)
    assert parse_word(tree, "01") == (0, 1)
    assert parse_word(tree, "") == ()
    assert word_str(tree, (0, 1)) == "+-"
    with pytest.raises(NodeNotInTree):
        parse_word(tree, "+++")


# -- round trips ----------------------------------------------------------------

def test_two_keys_naming_one_node_are_refused(rw2_file):
    # "+" and "0" both name node (0,) on a binary tree
    tree = load_instance(rw2_file)
    with pytest.raises(ValueError, match=r"^rule keys '\+' and '0' both name node \(0,\)$"):
        load_rule(tree, {"": "0", "+": "1/2", "0": "0", "-": "1"})
    with pytest.raises(ValueError, match=r"^measure keys '1' and '-' both name node \(1,\)$"):
        load_measure(tree, {"1": {"s": "1/2"}, "-": {"s": "1/2"}})


def test_instance_round_trip(rw2_file):
    tree = load_instance(rw2_file)
    doc = dump_instance(tree)
    again = load_instance(doc)
    assert dump_instance(again) == doc
    assert instance_hash(tree) == instance_hash(again)


def test_rule_and_measure_round_trip(rw2_file):
    tree = load_instance(rw2_file)
    rule = load_rule(tree, {"": "0", "+": "1/2", "-": "1/2"})
    assert load_rule(tree, dump_rule(tree, rule)) == rule
    res = solve_weak(tree)
    dumped = dump_measure(tree, res.measure)
    back = load_measure(tree, dumped)
    assert back.s == res.measure.s and back.u == res.measure.u
    # both are read by row, so a rule or measure of another tree is refused
    deeper = load_instance(generate_instance(seed=1, depth=3))
    with pytest.raises(RuleShapeMismatch):
        dump_rule(deeper, rule)
    with pytest.raises(ShapeMismatch):
        dump_measure(deeper, res.measure)


def test_generation_is_deterministic_and_seed_sensitive():
    a = generate_instance(seed=2, depth=2, branches=2)
    b = generate_instance(seed=2, depth=2, branches=2)
    c = generate_instance(seed=3, depth=2, branches=2)
    assert a == b
    assert instance_hash(a) != instance_hash(c)


def test_generation_depth_cap():
    with pytest.raises(ShapeTooLarge):
        generate_instance(seed=0, depth=9)


def test_generation_constraint_counts_are_checked():
    # a negative count gave no constraint, and the time grows with the count
    cap = CONSTRAINT_CAP
    for n_ineq, n_eq in ((-1, 0), (0, -1), (cap + 1, 0), (0, cap + 1)):
        with pytest.raises(ValueError, match=rf"^need 0 to {cap} inequalities and 0 to {cap} "
                                             rf"equalities, got {n_ineq} and {n_eq}$"):
            generate_instance(seed=0, n_ineq=n_ineq, n_eq=n_eq)
    doc = generate_instance(seed=0, n_ineq=cap, n_eq=cap)
    assert len(doc["constraints"]["ineq"]) == len(doc["constraints"]["eq"]) == cap


# -- CLI ------------------------------------------------------------------------

def test_cli_solve_and_record_replay(rw2_file, tmp_path, capsys):
    out = tmp_path / "records"
    assert main(["solve", "--instance", rw2_file, "--out", str(out)]) == 0
    first = capsys.readouterr().out
    assert "value\t3/2 (1.5)" in first
    record_files = os.listdir(out)
    assert len(record_files) == 1
    with open(out / record_files[0]) as fh:
        rec1 = json.load(fh)
    assert main(["solve", "--instance", rw2_file, "--out", str(out)]) == 0
    with open(out / record_files[0]) as fh:
        rec2 = json.load(fh)
    assert rec1["outputs"] == rec2["outputs"]
    assert rec1["version"] and rec1["instance_hash"] == rec2["instance_hash"]


RECORD_KEYS = {"instance_hash", "command", "parameters", "outputs",
               "wall_time_s", "seed", "version"}


def _record_command(case, rw2_file, tmp_path):
    """(arguments, record name, expected parameters) of one recording command."""
    rule = tmp_path / "rule.json"
    rule.write_text(json.dumps({"": "0", "+": "1/2", "-": "1/2"}))
    instance = ["--instance", rw2_file]
    if case == "dp":
        return (["dp", *instance, "--budget", "1", "--grid", "3"], "dp",
                {"budget": "1", "grid": 3})
    if case == "derandomize":
        return (["derandomize", *instance, "--rule", str(rule), "--eta", "3/10"],
                "derandomize", {"rule": str(rule), "eta": "3/10"})
    if case == "mc":
        return (["mc", *instance, "--rule", str(rule), "--paths", "200"], "mc",
                {"rule": str(rule), "paths": 200})
    if case == "verify-dpp":
        return (["verify-dpp", *instance, "--tau", "1"], "verify-dpp",
                {"tau": "1", "budgets": None})
    if case == "check-class":
        return (["check-class", *instance], "check-class",
                {"degree": 2, "mode": "exact", "tol": "1"})
    if case == "suite":
        pool = tmp_path / "pool"
        pool.mkdir()
        (pool / "rw2.json").write_text(json.dumps(RW2_DOC))
        return (["suite", "--dir", str(pool), "--suite", "all"], "suite",
                {"suite": "all"})
    raise AssertionError(case)


@pytest.mark.parametrize("case", ["dp", "derandomize", "mc", "verify-dpp",
                                  "check-class", "suite"])
def test_cli_record_file_parameters_and_replayed_outputs(rw2_file, tmp_path,
                                                         capsys, case):
    argv, name, parameters = _record_command(case, rw2_file, tmp_path)
    out = tmp_path / "records"
    digest = instance_hash(load_instance(rw2_file))
    records = []
    for _ in range(2):
        assert main(argv + ["--out", str(out), "--seed", "7"]) == 0
        capsys.readouterr()
        expected = {f"{name}-{digest[:12]}.json"}
        if case == "suite":
            expected.add("suite-all.tsv")
        assert set(os.listdir(out)) == expected
        with open(out / f"{name}-{digest[:12]}.json") as fh:
            records.append(json.load(fh))
    first, second = records
    assert set(first) == RECORD_KEYS
    assert first["instance_hash"] == digest
    assert first["parameters"] == parameters
    assert first["seed"] == 7 and first["version"] == treestop.__version__
    if case == "suite":
        assert first["command"] == ["suite", "all", str(tmp_path / "pool" / "rw2.json")]
        assert first["wall_time_s"] == first["outputs"].pop("runtime_s")
        second["outputs"].pop("runtime_s")
    assert first["outputs"] == second["outputs"]


def test_cli_dp_and_derandomize_and_mc(rw2_file, tmp_path, capsys):
    assert main(["dp", "--instance", rw2_file, "--budget", "1"]) == 0
    assert "value\t1 (1.0)" in capsys.readouterr().out

    rule_path = tmp_path / "rule.json"
    rule_path.write_text(json.dumps({"": "0", "+": "1/2", "-": "1/2"}))
    assert main(["derandomize", "--instance", rw2_file,
                 "--rule", str(rule_path), "--eta", "3/10"]) == 0
    outp = capsys.readouterr().out
    assert outp.count("\t1") == 4  # all four words stop at depth 1

    assert main(["mc", "--instance", rw2_file, "--rule", str(rule_path),
                 "--paths", "2000", "--seed", "5"]) == 0
    capsys.readouterr()


def test_cli_dp_output_is_unchanged_and_runs_backward_induction_once(
        rw2_file, monkeypatch, capsys):
    calls = []
    real = dp._sweep

    def counted(tree):
        calls.append(tree)
        return real(tree)

    monkeypatch.setattr(dp, "_sweep", counted)
    table = ("\n\nbudget\tvalue\n0\t0\n2\t2\n"
             "\ngrid_budget\tvalue\n0\t0\n1\t1\n2\t2\n")
    for budget, value in (("1/2", "1/2 (0.5)"), ("inf", "2 (2.0)")):
        calls.clear()
        assert main(["dp", "--instance", rw2_file, "--budget", budget,
                     "--grid", "3"]) == 0
        assert capsys.readouterr().out == f"value\t{value}" + table
        assert len(calls) == 1


def test_cli_dp_refuses_a_grid_above_the_cap_before_solving(rw2_file, monkeypatch,
                                                           capsys):
    def never(tree):
        raise AssertionError("the envelope was computed")

    monkeypatch.setattr(cli, "root_envelope", never)
    assert main(["dp", "--instance", rw2_file, "--budget", "1",
                 "--grid", str(cli.MAX_GRID + 1)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --grid must be a point count from 0 to {cli.MAX_GRID}, " \
        f"got {cli.MAX_GRID + 1}\n"


def test_cli_dp_grid_zero_means_no_grid(rw2_file, capsys):
    assert main(["dp", "--instance", rw2_file, "--budget", "1",
                 "--grid", "0"]) == 0
    assert capsys.readouterr().out == "value\t1 (1.0)\n\nbudget\tvalue\n0\t0\n2\t2\n"


def test_cli_verify_dpp_and_check_class(rw2_file, capsys):
    assert main(["verify-dpp", "--instance", rw2_file, "--tau", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["gap"] == "0" and rep["pass"]

    assert main(["check-class", "--instance", rw2_file]) == 0
    assert "overall\tpass" in capsys.readouterr().out


def test_cli_check_class_rejects_flow_violating_measure_file(rw2_file, tmp_path, capsys):
    tree = load_instance(rw2_file)
    res = solve_weak(tree)
    doc = dump_measure(tree, res.measure)
    doc["+"] = {"s": doc["+"]["s"], "u": "0"}  # drops mass below the + node
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check-class", "--instance", rw2_file,
                 "--measure", str(bad)]) == 2
    capsys.readouterr()


def test_cli_check_class_audits_a_law_that_departs_from_the_tree(tmp_path, capsys):
    # p = 1/2 on both branches; the law continues at the root and sends 3/4
    # of its mass up, then stops: mass is conserved, the branching is not
    doc = generate_instance(seed=3, depth=2)
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    tree = load_instance(doc)
    masses = {(): ("0", "1"), (0,): ("3/4", "0"), (1,): ("1/4", "0")}
    law = {word_str(tree, w): {"s": s, "u": u} for w, (s, u) in masses.items()}
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    with pytest.raises(ValueError, match=r"flow conservation fails at \(0,\)"):
        load_measure(tree, str(path))  # a measure holds only the tree's branching
    assert main(["check-class", "--instance", str(inst), "--measure", str(path)]) == 1
    assert "direct\tFAIL" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("flag", [["--degree", "0"], ["--degree", "-2"]])
def test_cli_check_class_with_no_statistics_is_an_error(rw2_file, capsys, flag):
    assert main(["check-class", "--instance", rw2_file] + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: degree "), captured.err


def test_cli_gen_and_suite(tmp_path, capsys):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    for seed in (1, 2):
        path = inst_dir / f"i{seed}.json"
        assert main(["gen", "--seed", str(seed), "--depth", "2",
                     "--branches", "2", "--out-file", str(path)]) == 0
    capsys.readouterr()
    rc = main(["suite", "--dir", str(inst_dir), "--suite", "all",
               "--out", str(tmp_path / "rec")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2/2 instances pass" in out
    assert (tmp_path / "rec" / "suite-all.tsv").exists()


def test_suite_all_solves_each_instance_once(tmp_path, monkeypatch):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    for seed in (1, 2):
        doc = generate_instance(seed=seed, depth=2, branches=2)
        (inst_dir / f"i{seed}.json").write_text(json.dumps(doc))
    calls = []

    def counted(tree, *args, **kwargs):
        calls.append(tree)
        return solve_weak(tree, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_weak", counted)
    rows, all_pass = run_suite(str(inst_dir), "all")
    assert all_pass and len(rows) == 2
    assert all(set(r["verdicts"]) == {"equivalence", "dpp", "membership"}
               for r in rows)
    assert len(calls) == 2


def test_suite_refuses_an_unknown_suite_before_any_solve(tmp_path, monkeypatch):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "i1.json").write_text(json.dumps(generate_instance(seed=1)))
    monkeypatch.setattr(cli, "load_instance", None)
    monkeypatch.setattr(cli, "solve_weak", None)
    with pytest.raises(ValueError, match=r"^unknown suite 'bogus'$"):
        run_suite(str(inst_dir), "bogus")


def test_suite_all_solves_a_deep_instance_once(tmp_path, monkeypatch, capsys):
    # every check and DPP stage reads the tree's stored solve: the master LP
    # runs once (memo hits of solve_weak are not solves)
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    doc = generate_instance(seed=5, depth=4, branches=2, n_ineq=1, n_eq=1)
    (inst_dir / "deep.json").write_text(json.dumps(doc))
    calls = []
    real_solve = lp._solve

    def counted(tree, budgets):
        calls.append(tree.depth)
        return real_solve(tree, budgets)

    monkeypatch.setattr(lp, "_solve", counted)
    assert main(["suite", "--dir", str(inst_dir), "--suite", "all"]) == 0
    assert "1/1 instances pass" in capsys.readouterr().out
    assert calls == [4]


@pytest.mark.parametrize("suite", ["equivalence", "dpp", "membership", "all"])
def test_suite_fails_an_infeasible_instance_and_goes_on(tmp_path, capsys, suite):
    # the one solve per instance runs before the checks; an infeasible one
    # fails every check instead of aborting the suite
    inst_dir = tmp_path / "mixed"
    inst_dir.mkdir()
    doc = generate_instance(seed=4, depth=3)
    (inst_dir / "feasible.json").write_text(json.dumps(doc))
    doc["constraints"]["ineq"][0].update(g="1", y="-1000")
    (inst_dir / "infeasible.json").write_text(json.dumps(doc))
    assert main(["suite", "--dir", str(inst_dir), "--suite", suite]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[:3:2] for line in lines[1:3]] == [
        ["feasible.json", "pass"], ["infeasible.json", "FAIL"]]
    assert lines[-1] == "1/2 instances pass"


def test_cli_record_names_the_parsed_arguments(rw2_file, tmp_path, monkeypatch,
                                               capsys):
    # an in-process call under a host program with flags of its own
    monkeypatch.setattr(sys, "argv", ["host", "--host-flag", "-k", "expr"])
    out = tmp_path / "records"
    argv = ["verify-dpp", "--instance", rw2_file, "--tau", "1", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    record_file, = os.listdir(out)
    with open(out / record_file) as fh:
        assert json.load(fh)["command"] == argv


def test_cli_check_class_reports_the_direct_check(rw2_file, capsys):
    assert main(["check-class", "--instance", rw2_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index("direct\tpass") + 1] == "overall\tpass"


def test_suite_dpp_on_twenty_single_inequality_instances(tmp_path):
    inst_dir = tmp_path / "pool"
    inst_dir.mkdir()
    for i in range(20):
        doc = generate_instance(seed=700 + i, depth=2 + (i % 2), branches=2,
                                n_ineq=1, nonneg_g=True)
        (inst_dir / f"i{i:02d}.json").write_text(json.dumps(doc))
    rows, all_pass = run_suite(str(inst_dir), "dpp")
    assert all_pass and len(rows) == 20
    assert all(r["max_gap"] == "0" for r in rows)


def test_cli_solve_robust_family(tmp_path, capsys):
    fam = tmp_path / "family"
    fam.mkdir()
    for name, sigma in (("a_unit.json", "const:1"), ("b_double.json", "const:2")):
        doc = dict(RW2_DOC)
        doc["diffusion"] = sigma
        doc["constraints"] = {"ineq": [], "eq": []}
        (fam / name).write_text(json.dumps(doc))
    rc = main(["solve", "--robust", str(fam)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "value\t8 (8.0)" in out
    assert "argmax_model\t1" in out


def test_cli_verify_dpp_with_cut_file(rw2_file, tmp_path, capsys):
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps({"cut": ["+", "-"]}))
    rc = main(["verify-dpp", "--instance", rw2_file, "--tau", str(cut)])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0 and rep["gap"] == "0"


def test_suite_requires_instances(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    with pytest.raises(NoInstances):
        run_suite(str(empty), "all")
    assert main(["suite", "--dir", str(empty), "--suite", "all"]) == 2


# one instance field of the wrong JSON type each; all but the last two
# raised a TypeError or AttributeError, and those two were coerced
WRONG_TYPES = {
    "branching-of-strings": dict(branching=["w"]),
    "branching-a-number": dict(branching=5),
    "constraints-a-list": dict(constraints=[1]),
    "inequality-a-string": dict(constraints={"ineq": ["g"]}),
    "drift-a-list": dict(drift=[1]),
    "dt-a-list": dict(dt=[1]),
    "branch-p-null": dict(branching=[{"p": None, "w": "1"}, {"p": "1/2", "w": "-1"}]),
    "branch-w-an-object": dict(branching=[{"p": "1/2", "w": {"a": 1}},
                                          {"p": "1/2", "w": "-1"}]),
    "w-history-a-number": dict(w_history=5),
    "depth-fractional": dict(depth=2.5),  # ran at depth 2
    "drift-a-boolean": dict(drift=True),  # ran as drift 1
}
# cut files that are not a list of words, bare or under "cut"
WRONG_CUTS = {"cut-missing": {"nocut": []}, "cut-a-number": 5, "cut-word-a-number": [5]}


# expressions refused at load, each with the message its field's error
# line ends in; the line once gave the message alone, naming no field
LOAD_REFUSALS = {
    "exponent-fractional-at-load": ("x_current**(x_current+1/2)",
                                    "only integer exponents are supported"),
    "exponent-above-the-cap-at-load": ("x_current**(x_sup - x_current + 70)",
                                       "exponents are capped at 64 in absolute value"),
    "unknown-name": ("y + 1", "unknown name 'y'; use one of ('t', 'x_current', 'x_sup')"),
    # the moment built-in is gone: a*q*t**(q-1) + lam writes its integer-q cases
    "power-builtin": ("power:1,2,0", "invalid syntax"),
    # a decimal literal is read as a rational field reads it, under the same cap
    "literal-above-the-cap": ("x_current + 1e4215", "rational literal '1e4215' has a "
                              "power of ten above the cap of 14000 bits"),
}


BIG = "9" * 4000  # a 13,288-bit integer, whose digits an error line once repeated
# nested past the decoder's recursion limit on every supported Python; 995
# levels are enough under 3.11 with a shallow stack
DEEP_LISTS = "[" * 100_000 + "]" * 100_000
_VECTOR_DEPTH_0 = dict(depth=0, branching=[])  # a vector state needs depth 0
# long inputs that an error line once repeated whole, from 4 KB to 320 KB: per
# case the command, its instance's fields over RW2_DOC and its other
# arguments, where a (name, content) pair is a side file and text is written raw
LONG_INPUTS = {
    "spec-long-undefined-at-a-node": ("solve", dict(pi="1/(x_current - 1)" + " " * 99_000 + "+ 1"),
                                      []),
    "rule-key-long-word": ("mc", {}, ["--paths", "10", "--rule", (
        "rule.json", {"": "0", "+" * 99_000: "1", "-": "1"})]),
    "measure-key-long-word": ("check-class", {}, ["--measure", (
        "measure.json", {"": {"u": "1"}, "+" * 99_000: {"s": "1/2"}})]),
    "cut-long-word": ("verify-dpp", {}, ["--tau", ("cut.json", ["+" * 99_000])]),
    "rule-key-long-unparsable": ("mc", {}, ["--paths", "10", "--rule", (
        "rule.json", {"": "0", "x" * 99_000: "1"})]),
    "rule-key-long-repeated": ("mc", {}, ["--paths", "10", "--rule", (
        "rule.json", '{"%s": "1", "%s": "0"}' % ("k" * 99_000, "k" * 99_000))]),
    "expression-long-name": ("solve", dict(pi="y" * 99_000), []),
    # three bytes a character: the echo is made ASCII before it is cut
    "expression-long-cjk-name": ("solve", dict(diffusion="\u53d8" * 99_000), []),
    "expression-long-string": ("solve", dict(pi="'" + "s" * 99_000 + "'"), []),
    "expression-long-unsupported": ("solve", dict(
        pi="(" + "+".join(["x_current"] * 800) + ") < 1"), []),
    "expression-long-literal-diffusion": ("solve", dict(diffusion="1" + "0" * 99_990), []),
    "x0-history-long-vector": ("solve", dict(_VECTOR_DEPTH_0,
                                             x0_history=[["1", "2"], ["3"] * 20_000]), []),
    "x0-history-long-strings": ("solve", dict(_VECTOR_DEPTH_0,
                                              x0_history=[["1", "2"], ["3" * 1000] * 20]), []),
    "vector-state-long-undefined": ("solve", dict(_VECTOR_DEPTH_0, pi="1/(x_current - 1)",
                                                  x0_history=[["1"] * 20_000]), []),
    "dt-nested-lists": ("solve", dict(dt=[["x" * 1000] * 6] * 6), []),
    "branch-p-long": ("solve", dict(branching=[{"p": "-" + BIG, "w": "1"},
                                               {"p": "1/2", "w": "-1"}]), []),
    "rule-q-long": ("mc", {}, ["--paths", "10", "--rule", (
        "rule.json", {"": BIG, "+": "1", "-": "1"})]),
    "budget-long": ("dp", {}, ["--budget", "-" + BIG]),
    "tol-long": ("check-class", {}, ["--tol", "-" + BIG]),
    "degree-long": ("check-class", {}, ["--degree", BIG]),
    # int's digit limit refused the value 1, naming no literal
    "literal-digit-limit-dt": ("solve", dict(dt="0" * 5000 + "1"), []),
    # integer arguments and an integer field, each once repeated whole
    "tau-long": ("verify-dpp", {}, ["--tau", BIG]),
    "grid-long": ("dp", {}, ["--budget", "1", "--grid", BIG]),
    "depth-long-negative": ("solve", dict(depth=-int(BIG)), []),
}
GEN_LONG = ("gen-long-depth", "gen-long-branches", "gen-long-ineq", "gen-long-eq")
# integer arguments argparse repeated whole above its usage block: per case
# the bad argument and the command line around it, where it stands as "@",
# with INSTANCE and OUT for an instance file and gen's output file
NOT_INTEGERS = {
    "seed-not-an-integer": ("x" * 99_000, ["--seed", "@", "gen", "--out-file", "OUT"]),
    "seed-after-the-command": ("x" * 99_000, ["gen", "--seed", "@", "--out-file", "OUT"]),
    "grid-not-an-integer": ("x" * 99_000, ["dp", "--instance", "INSTANCE", "--budget", "1",
                                           "--grid", "@"]),
    "paths-not-an-integer": ("x" * 99_000, ["mc", "--instance", "INSTANCE", "--rule",
                                            "INSTANCE", "--paths", "@"]),
    "degree-not-an-integer": ("1/2", ["check-class", "--instance", "INSTANCE",
                                      "--degree", "@"]),
    # past int's 4300-digit limit, whose own message argparse repeated
    "depth-past-the-digit-limit": ("9" * 5000, ["gen", "--depth", "@", "--out-file", "OUT"]),
    "branches-not-an-integer": ("2.0", ["gen", "--branches", "@", "--out-file", "OUT"]),
    "ineq-not-an-integer": ("\u53d8" * 99_000, ["gen", "--ineq", "@", "--out-file", "OUT"]),
    "eq-not-an-integer": ("", ["gen", "--eq", "@", "--out-file", "OUT"]),
}
# rates outside [0, 1], which gen once wrote into an instance with exit 0 (5
# made every bound inf), and a long one, which argparse repeated whole
NOT_RATES = {
    "vacuous-rate-nan": ("nan", ["gen", "--vacuous-rate", "@", "--out-file", "OUT"]),
    "vacuous-rate-above-one": ("5", ["gen", "--vacuous-rate", "@", "--out-file", "OUT"]),
    "vacuous-rate-negative": ("-1", ["gen", "--vacuous-rate", "@", "--out-file", "OUT"]),
    "vacuous-rate-long": ("x" * 99_000, ["gen", "--vacuous-rate", "@", "--out-file", "OUT"]),
}
# a 127-bit rational: t0, the state and the power each show whole
RATIONAL_127 = f"{(1 << 126) + 1}/{(1 << 126) + 3}"


def _bad_input(tmp_path, case):
    """Command-line arguments for one kind of bad input."""
    def write(text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        return ["solve", "--instance", str(path)]

    def side_file(name, obj):
        path = tmp_path / name
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        return str(path)

    if case in LONG_INPUTS:
        command, fields, rest = LONG_INPUTS[case]
        return [command, *write(json.dumps(dict(RW2_DOC, **fields)))[1:],
                *(side_file(*a) if isinstance(a, tuple) else a for a in rest)]
    if case in WRONG_TYPES:
        return write(json.dumps(dict(RW2_DOC, **WRONG_TYPES[case])))
    if case in WRONG_CUTS:
        return ["verify-dpp", *write(json.dumps(RW2_DOC))[1:],
                "--tau", side_file("cut.json", WRONG_CUTS[case])]
    if case == "measure-entry-a-number":
        return ["check-class", *write(json.dumps(RW2_DOC))[1:],
                "--measure", side_file("measure.json", {"+": 3})]
    if case == "rule-duplicate-node":  # the last entry for (0,) was kept
        return ["mc", *write(json.dumps(RW2_DOC))[1:], "--paths", "10", "--rule",
                side_file("rule.json", {"": "0", "+": "1/2", "0": "0", "-": "1"})]
    if case == "rule-repeated-key":  # json.load kept the last "+", and derandomize exited 0
        path = tmp_path / "rule.json"
        path.write_text('{"": "0", "+": "1", "+": "0", "-": "1"}')
        return ["derandomize", *write(json.dumps(RW2_DOC))[1:], "--rule", str(path),
                "--eta", "1/2"]
    if case == "measure-duplicate-node":
        return ["check-class", *write(json.dumps(RW2_DOC))[1:], "--measure",
                side_file("measure.json", {"": {"u": "1"}, "+": {"s": "1/2"},
                                           "0": {"s": "1/2"}, "-": {"s": "1/2"}})]
    if case == "negative-tol":  # failed every statistic and exited 1
        return ["check-class", *write(json.dumps(RW2_DOC))[1:], "--mode", "generator",
                "--tol", "-1"]
    if case in LOAD_REFUSALS:
        return write(json.dumps(dict(RW2_DOC, pi=LOAD_REFUSALS[case][0])))
    if case == "budgets-a-string":  # was read as the list ["1"]
        return [*write(json.dumps(RW2_DOC)), "--budgets",
                side_file("budgets.json", {"ineq": "1"})]
    # an exponent above io.MAX_EXPONENT: a million ran for minutes
    if case == "exponent-huge":
        return write(json.dumps(dict(RW2_DOC, pi="x_current ** 1000000")))
    # each power within the cap, their composition x ** 262144 above MAX_DEGREE
    if case == "exponent-nested":
        return write(json.dumps(dict(RW2_DOC, pi="((x_current**64)**64)**64")))
    # every power's exponent within the cap and its degree 0: each power of
    # 10 ** 4096 is 64 times as long, and folding ran for more than 30 s
    if case == "exponent-constant-nested":
        return write(json.dumps(dict(RW2_DOC, pi="(((10**64)**64)**64)**64")))
    # 0 at load's dummy point and at the root, a million at "+"
    if case == "exponent-huge-at-a-node":
        return write(json.dumps(dict(RW2_DOC, pi="2 ** (1000000 * x_current)")))
    # a constant and a degree within their caps, but 10 ** 8192 at the root:
    # the solve printed its status and then failed to print the value
    if case == "constant-power-at-a-node":
        return write(json.dumps(dict(RW2_DOC, pi="((10**64)**64)**(x_current + 2)")))
    # the Euler step composes x ** 64 level by level: 2 ** 262144 at t = 2,
    # and the next level ran for more than 60 s
    if case == "drift-power-cascade":
        return write(json.dumps(dict(RW2_DOC, depth=4, x0_history=["2"], drift="x_current**64",
                                     branching=[{"p": "1/2", "w": "1/3"},
                                                {"p": "1/2", "w": "-1/3"}])))
    # (x ** 64) ** 64 from 8: 2 ** 12288 at the root, and at t = 1 a power
    # near 2 ** 50338141, which took 18 s to build before it was refused
    if case == "drift-nested-power":
        return write(json.dumps(dict(RW2_DOC, depth=4, x0_history=["8"],
                                     drift="(x_current**64)**64",
                                     branching=[{"p": "1/2", "w": "1/3"},
                                                {"p": "1/2", "w": "-1/3"}])))

    if case in NOT_INTEGERS or case in NOT_RATES:
        value, args = NOT_INTEGERS.get(case) or NOT_RATES[case]
        instance = write(json.dumps(RW2_DOC))[-1]
        return [{"@": value, "INSTANCE": instance, "OUT": str(tmp_path / "gen.json")}.get(a, a)
                for a in args]
    if case in GEN_LONG:  # gen's integer arguments were repeated whole
        return ["gen", "--" + case[len("gen-long-"):], BIG,
                "--out-file", str(tmp_path / "gen.json")]
    # json's decoder recurses once per level: a RecursionError traceback, exit 1
    if case == "deep-json":
        return write(json.dumps(dict(RW2_DOC, dt="@")).replace('"@"', DEEP_LISTS))
    # a negative count gave no constraint and exit 0; the cost grows with the count
    if case == "gen-negative-count":
        return ["gen", "--ineq", "-1", "--out-file", str(tmp_path / "gen.json")]
    if case == "gen-count-above-the-cap":
        return ["gen", "--eq", "1000000000", "--out-file", str(tmp_path / "gen.json")]
    if case == "no-instance":
        return ["solve"]
    if case == "missing-dt":
        return write(json.dumps({k: v for k, v in RW2_DOC.items() if k != "dt"}))
    if case == "missing-branch-p":
        return write(json.dumps(dict(RW2_DOC, branching=[{"w": "1"}])))
    if case == "absent-file":
        return ["solve", "--instance", str(tmp_path / "absent.json")]
    if case == "directory":
        return ["dp", "--instance", str(tmp_path), "--budget", "1"]
    if case == "invalid-json":
        return write('{"dt": 1,')
    if case == "not-an-object":
        return write("[1, 2]")
    if case == "negative-grid":
        return ["dp", *write(json.dumps(RW2_DOC))[1:], "--budget", "1",
                "--grid", "-3"]
    if case == "huge-grid":  # 10^8 queries would run for minutes
        return ["dp", *write(json.dumps(RW2_DOC))[1:], "--budget", "1",
                "--grid", str(10**8)]
    # 1/(x - 1) is fine at the root and singular at the node "+"
    singular = json.dumps(dict(RW2_DOC, pi="1/(x_current - 1)"))
    if case == "singular-solve":
        return write(singular)
    if case == "singular-dp":
        return ["dp", *write(singular)[1:], "--budget", "1"]
    # the division by zero at load time's dummy point must not hide the exponent
    if case == "exponent-behind-division":
        return write(json.dumps(dict(RW2_DOC, pi="1/x_current + t**(1/2)")))
    if case == "exponent-not-constant-behind-division":
        return write(json.dumps(dict(RW2_DOC, pi="1/x_current + t**(x_current + 1/2)")))
    # 2**(x/2) is an integer at the root and at load, and 2**(1/2) at "+"
    if case == "exponent-fractional-at-a-node":
        return write(json.dumps(dict(RW2_DOC, pi="2**(x_current/2)")))
    # a padded expression and three 127-bit rationals made a 377-byte line
    if case == "exponent-fractional-long-rationals":
        return write(json.dumps(dict(RW2_DOC, t0=RATIONAL_127, x0_history=[RATIONAL_127],
                                     pi="2**x_current" + " " * 200 + "+ 0")))
    if case == "check-class-infeasible":  # no optimal law to test
        cons = {"ineq": [{"g": "1", "y": "-1"}], "eq": []}
        return ["check-class", *write(json.dumps(dict(RW2_DOC, constraints=cons)))[1:]]
    if case == "too-many-nodes":  # 2^41 - 1 nodes, refused before any is built
        return write(json.dumps(dict(RW2_DOC, depth=40)))
    # a depth of at least MAX_NODES is refused before the per-level branching
    # is built: [items] * 10**400 overflowed, and 10**7 levels ran past 60 s
    if case == "depth-huge":
        return write(json.dumps(dict(RW2_DOC, depth=10**400)))
    if case == "depth-ten-million":
        return ["dp", *write(json.dumps(dict(RW2_DOC, depth=10**7)))[1:], "--budget", "1"]
    # an expression that does not parse ended in a SyntaxError traceback, exit 1
    if case == "expression-truncated":
        return write(json.dumps(dict(RW2_DOC, pi="x_current +")))
    if case == "expression-empty":
        return write(json.dumps(dict(RW2_DOC, pi="")))
    if case == "expression-unclosed":
        return ["dp", *write(json.dumps(dict(RW2_DOC, pi="(((")))[1:], "--budget", "1"]
    # a 20,000-term sum ended in a RecursionError traceback, and 10,000 unary
    # minuses in a MemoryError one
    if case == "expression-long-chain":
        return write(json.dumps(dict(RW2_DOC, pi="+".join(["x_current"] * 20_000))))
    if case == "expression-deep-unary":
        return ["dp", *write(json.dumps(dict(RW2_DOC, pi="-" * 10_000 + "1")))[1:],
                "--budget", "1"]
    # a literal past Python's 4300-digit int limit, and 5000 nested
    # parentheses, each refused as an expression that does not parse
    if case == "expression-long-literal":
        return write(json.dumps(dict(RW2_DOC, pi="1" + "0" * 5000)))
    if case == "expression-deep-parens":
        return write(json.dumps(dict(RW2_DOC, pi="(" * 5000 + "x_current" + ")" * 5000)))
    # a rational literal with a zero denominator, in each field that takes one
    if case == "zero-denominator-budget":
        return ["dp", *write(json.dumps(RW2_DOC))[1:], "--budget", "1/0"]
    if case == "zero-denominator-p":
        return write(json.dumps(dict(RW2_DOC, branching=[{"p": "1/0", "w": "1"},
                                                         {"p": "1/2", "w": "-1"}])))
    if case == "zero-denominator-y":
        return write(json.dumps(dict(RW2_DOC, constraints={
            "ineq": [{"g": "const:1", "y": "1/0"}], "eq": []})))
    if case == "zero-denominator-tol":  # read by Fraction itself: a ZeroDivisionError traceback
        return ["check-class", *write(json.dumps(RW2_DOC))[1:], "--tol", "1/0"]
    if case.startswith("zero-denominator-"):  # dt, t0 and x0_history
        field = case[len("zero-denominator-"):].replace("-", "_")
        return write(json.dumps(dict(RW2_DOC, **{
            field: ["1/0"] if field == "x0_history" else "1/0"})))
    # json reads 1e400 as float infinity, which Fraction could not convert:
    # an OverflowError traceback in each rational field
    if case in FLOAT_OVERFLOWS:
        return write(json.dumps(dict(RW2_DOC, **FLOAT_OVERFLOWS[case])).replace('"@"', "1e400"))
    if case == "float-overflow-rule-q":
        path = tmp_path / "rule.json"
        path.write_text('{"": 1e400, "+": "1", "-": "1"}')
        return ["mc", *write(json.dumps(RW2_DOC))[1:], "--paths", "10", "--rule", str(path)]
    if case == "float-overflow-measure-s":
        path = tmp_path / "measure.json"
        path.write_text('{"": {"s": 1e400}}')
        return ["check-class", *write(json.dumps(RW2_DOC))[1:], "--measure", str(path)]
    # a 4300-digit literal whose exponent is within the cap: a 28,280-bit dt
    # failed at Python's digit limit, naming no field
    if case == "literal-digits-dt":
        return write(json.dumps(dict(RW2_DOC, dt="1" + "0" * 4299 + "e4214")))
    # Fraction's own message repeated a 99,000-character dt whole
    if case == "literal-long-invalid-dt":
        return write(json.dumps(dict(RW2_DOC, dt="a" * 99_000)))
    # an unknown name in a 99,003-character expression was echoed whole
    if case == "expression-long-unknown-name":
        return write(json.dumps(dict(RW2_DOC, pi="y" + " " * 99_000 + "+1")))
    # a short exponent whose power of ten would have 332 million bits: dt
    # "1e5000000" took 2.6 s to fail at Python's digit limit
    if case == "exponent-literal-dt":
        return write(json.dumps(dict(RW2_DOC, dt="1e100000000")))
    if case == "exponent-literal-budget":
        return ["dp", *write(json.dumps(RW2_DOC))[1:], "--budget", "1e100000000"]
    if case == "exponent-literal-tol":
        return ["check-class", *write(json.dumps(RW2_DOC))[1:], "--tol", "1e100000000"]
    # x_sup - 2 is 0 at the root, whose state is 1; and x_sup - x_current - 1
    # first at t = 1, state -1, below the root's sup 0
    if case == "singular-at-the-history-sup":
        return write(json.dumps(dict(RW2_DOC, x0_history=["2", "1"], pi="1/(x_sup - 2)")))
    if case == "singular-below-the-sup":
        return write(json.dumps(dict(RW2_DOC, pi="1/(x_sup - x_current - 1)")))
    # the expressions read a scalar state stepped by scalar increments
    if case == "vector-x0-history":
        return write(json.dumps(dict(RW2_DOC, x0_history=[["0", "1"]])))
    if case == "vector-increment":
        return write(json.dumps(dict(RW2_DOC, branching=[{"p": "1/2", "w": ["1", "0"]},
                                                         {"p": "1/2", "w": ["-1", "1"]}])))
    raise AssertionError(case)


# one rational field each, set to "@", which the case writes as 1e400
FLOAT_OVERFLOWS = {
    "float-overflow-dt": {"dt": "@"},
    "float-overflow-t0": {"t0": "@"},
    "float-overflow-x0-history": {"x0_history": ["@"]},
    "float-overflow-p": {"branching": [{"p": "@", "w": "1"}, {"p": "1/2", "w": "-1"}]},
    "float-overflow-w": {"branching": [{"p": "1/2", "w": "@"}, {"p": "1/2", "w": "-1"}]},
    "float-overflow-pi": {"pi": "@"},
}

BAD_INPUTS = ("no-instance", "missing-dt", "missing-branch-p", "absent-file",
              "directory", "invalid-json", "not-an-object", "negative-grid",
              "huge-grid", "singular-solve", "singular-dp", "exponent-behind-division",
              "exponent-not-constant-behind-division", "exponent-fractional-at-a-node",
              "exponent-fractional-long-rationals",
              "check-class-infeasible", "too-many-nodes", "gen-negative-count",
              "gen-count-above-the-cap",
              "zero-denominator-budget", "zero-denominator-dt", "zero-denominator-t0",
              "zero-denominator-y", "zero-denominator-p", "zero-denominator-x0-history",
              "zero-denominator-tol", *FLOAT_OVERFLOWS, "float-overflow-rule-q",
              "float-overflow-measure-s", "exponent-literal-dt", "exponent-literal-budget",
              "exponent-literal-tol", "literal-digits-dt", "literal-long-invalid-dt",
              "expression-long-unknown-name",
              *WRONG_TYPES, *WRONG_CUTS, "measure-entry-a-number", "budgets-a-string",
              "exponent-huge", "exponent-nested", "exponent-constant-nested",
              "exponent-huge-at-a-node", "constant-power-at-a-node", "drift-power-cascade",
              "drift-nested-power", *LOAD_REFUSALS,
              "singular-at-the-history-sup",
              "singular-below-the-sup", "vector-x0-history", "vector-increment",
              "rule-duplicate-node", "rule-repeated-key", "measure-duplicate-node",
              "negative-tol", "depth-huge", "depth-ten-million", "expression-truncated",
              "expression-empty", "expression-unclosed", "expression-long-chain",
              "expression-deep-unary", "expression-long-literal", "expression-deep-parens",
              *LONG_INPUTS, *GEN_LONG, *NOT_INTEGERS, *NOT_RATES, "deep-json")


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_cli_bad_input_is_one_error_line_and_exit_2(tmp_path, capsys, case):
    assert main(_bad_input(tmp_path, case)) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert len(lines[0].encode()) < 300, lines[0][:300]  # a long input is not echoed whole
    assert captured.out == ""


@pytest.mark.parametrize("case", LOAD_REFUSALS)
def test_cli_load_time_refusal_names_the_field_and_the_expression(tmp_path, capsys, case):
    spec, message = LOAD_REFUSALS[case]
    assert main(_bad_input(tmp_path, case)) == 2
    assert capsys.readouterr().err == f"error: instance field 'pi' {spec!r}: {message}\n"


def test_json_nested_past_the_decoders_recursion_limit_is_one_error_line(tmp_path, capsys):
    args = _bad_input(tmp_path, "deep-json")
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {args[-1]} is not valid JSON: it nests too deeply\n"


@pytest.mark.parametrize("case, message", [
    ("tau-long", "cut depth must be in [1, 2], got of 13288 bits"),
    ("grid-long", f"--grid must be a point count from 0 to {cli.MAX_GRID}, got of 13288 bits"),
    ("depth-long-negative", "depth must be >= 0, got of 13288 bits"),
    ("gen-long-depth", "depth of 13288 bits exceeds the cap 8"),
    ("gen-long-branches", "of 13288 bits branches exceed the cap 4"),
    ("gen-long-ineq", "need 0 to 8 inequalities and 0 to 8 equalities, got of 13288 bits and 0"),
    ("gen-long-eq", "need 0 to 8 inequalities and 0 to 8 equalities, got 1 and of 13288 bits"),
])
def test_a_long_integer_argument_shows_as_its_bit_count(tmp_path, capsys, case, message):
    assert main(_bad_input(tmp_path, case)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "gen.json").exists()


@pytest.mark.parametrize("case", NOT_INTEGERS)
def test_the_parser_refuses_a_bad_integer_argument_in_one_echoed_line(tmp_path, capsys, case):
    value, args = NOT_INTEGERS[case]
    option = args[args.index("@") - 1]
    assert main(_bad_input(tmp_path, case)) == 2
    assert capsys.readouterr().err == \
        f"error: {option} must be an integer, got {echo.repr(value)}\n"
    assert not (tmp_path / "gen.json").exists()


@pytest.mark.parametrize("case", NOT_RATES)
def test_the_parser_refuses_a_rate_outside_the_unit_interval_and_writes_no_file(
        tmp_path, capsys, case):
    value, _ = NOT_RATES[case]
    assert main(_bad_input(tmp_path, case)) == 2
    assert capsys.readouterr().err == \
        f"error: --vacuous-rate must be a rational in [0, 1], got {echo.repr(value)}\n"
    assert not (tmp_path / "gen.json").exists()


@pytest.mark.parametrize("text, rate", [("0", 0.0), ("1", 1.0), ("0.1", 0.1), ("1/3", 1 / 3),
                                        (" 2.5e-1 ", 0.25), ("1e-400", 0.0)])
def test_a_rate_in_the_unit_interval_is_read_as_a_rational_and_passed_as_its_float(
        tmp_path, monkeypatch, text, rate):
    seen = []
    monkeypatch.setattr(cli, "generate_instance", lambda **kw: seen.append(kw) or RW2_DOC)
    out = tmp_path / "gen.json"
    assert main(["gen", "--vacuous-rate", text, "--out-file", str(out)]) == 0
    assert [kw["vacuous_rate"] for kw in seen] == [rate] and out.exists()


@pytest.mark.parametrize("rate", [float("nan"), 5, -1, 1.0000001, float("inf")])
def test_generate_instance_refuses_a_rate_outside_the_unit_interval(rate):
    with pytest.raises(ValueError, match=r"^vacuous_rate must be in \[0, 1\], got "):
        generate_instance(seed=1, vacuous_rate=rate)


def test_a_non_integer_power_at_long_rationals_is_cut_to_one_short_line(tmp_path, capsys):
    assert main(_bad_input(tmp_path, "exponent-fractional-long-rationals")) == 2
    err = capsys.readouterr().err
    spec = echo.repr("2**x_current" + " " * 200 + "+ 0")
    assert err.startswith(f"error: {spec} takes the non-integer power 8507059173")
    assert " at t = 8507059173" in err and err.endswith("51857942052867\n")
    assert len(err.encode()) < 300


def test_cli_bad_input_exits_2_without_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(treestop.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "treestop.cli"] + _bad_input(tmp_path, "missing-dt"),
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: instance entry lacks the "
                                        "required field 'dt'"]


def test_fmt_rational():
    assert fmt_rational(F(3, 2)) == "3/2"
    assert fmt_rational(F(4)) == "4"
    assert fmt_rational(float("inf")) == "inf"
    # beyond int's 4300-digit limit on str(), which fmt_rational once hit
    assert fmt_rational(F(-(10 ** 5000), 3)) == "-1" + "0" * 5000 + "/3"


def test_cli_prints_an_exact_value_of_any_number_of_digits(tmp_path, capsys):
    # every node value is within the bit cap, but the expectation's
    # denominator, their product, has about 12,000 digits: solve printed its
    # status, then exited 2 at Python's 4300-digit limit on str(int)
    n = 10 ** 4000 - 1
    path = tmp_path / "nines.json"
    path.write_text(json.dumps(dict(RW2_DOC, pi="1/(x_current - 1)", x0_history=["9" * 4000],
                                    constraints={"ineq": [], "eq": []})))
    assert main(["solve", "--instance", str(path), "--out", str(tmp_path / "rec")]) == 0
    # 1/(x - 1) is convex above 1, so the law stops at the horizon
    value = F(1, 4 * (n + 1)) + F(1, 2 * (n - 1)) + F(1, 4 * (n - 3))
    out = capsys.readouterr().out
    printed = next(line for line in out.splitlines() if line.startswith("value\t"))
    num, den = printed.split("\t")[1].split(" ")[0].split("/")
    assert F(int(Decimal(num)), int(Decimal(den))) == value and len(den) > 4300
    (record,) = (tmp_path / "rec").iterdir()
    assert json.loads(record.read_text())["outputs"]["value"] == f"{num}/{den}"


# -- values beyond the float range ------------------------------------------------

def _decimal_oracle(x: Fraction) -> str:
    """x to 17 significant digits, half to even, in float's scientific form."""
    with localcontext(Context(prec=17, rounding=ROUND_HALF_EVEN, Emax=10**6)):
        return f"{(Decimal(x.numerator) / Decimal(x.denominator)).normalize():e}"


@given(x=st.fractions(min_value=-(2 ** 1000), max_value=2 ** 1000))
def test_a_value_inside_the_float_range_renders_as_float_does(x):
    assert decimal_value(x) == float(x)
    assert fmt_value(x) == f"{fmt_rational(x)} ({float(x)})"


@given(n=st.integers(2 ** 1100, 2 ** 1700), d=st.integers(1, 2 ** 60), negative=st.booleans())
def test_a_value_beyond_the_float_range_renders_from_its_numerator(n, d, negative):
    x = F(-n if negative else n, d)
    with pytest.raises(OverflowError):
        float(x)
    assert decimal_value(x) == _decimal_oracle(x)
    assert fmt_value(x) == f"{fmt_rational(x)} ({decimal_value(x)})"


def test_decimal_at_the_edge_of_the_float_range():
    biggest = F(2 ** 1024 - 2 ** 971)  # the largest float
    assert decimal_value(biggest) == float(biggest) == 1.7976931348623157e308
    above = F(2 ** 1024)  # float() overflows
    assert decimal_value(above) == "1.7976931348623159e+308" == _decimal_oracle(above)
    assert decimal_value(F(10) ** 400 - 1) == "1e+400"  # rounds up to the next power of 10
    assert decimal_value(F(-(10 ** 400) + 1, 3)) == "-3.3333333333333333e+399"


# pi = x**4096 at the states 6 and -2 of a depth-2 tree: a value near 2^10586
HUGE_VALUE_DOC = {
    "dt": "1", "depth": 2, "branching": [{"p": "1/2", "w": "1"}, {"p": "1/2", "w": "-1"}],
    "diffusion": "x_current + 2", "pi": "(x_current**64)**64",
}


def test_cli_solve_prints_and_records_a_value_beyond_the_float_range(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_VALUE_DOC))
    assert main(["solve", "--instance", str(path), "--out", str(tmp_path / "rec")]) == 0
    value = solve_weak(load_instance(HUGE_VALUE_DOC)).value.fraction()
    # stop at "-" (state -2) and at both leaves below "+" (states 6 and -2)
    assert value == F(2) ** 4096 / 2 + (F(6) ** 4096 + F(2) ** 4096) / 4
    text = _decimal_oracle(value)
    assert text == "5.0752983834290093e+3186"
    assert f"value\t{fmt_rational(value)} ({text})\n" in capsys.readouterr().out
    (record,) = (tmp_path / "rec").iterdir()
    outputs = json.loads(record.read_text())["outputs"]
    assert (outputs["value"], outputs["value_decimal"]) == (fmt_rational(value), text)
