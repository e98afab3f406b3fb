"""Command-line harness: solve, verify, simulate, generate, run suites.

Every command prints a human-readable report and, when ``--out`` is given,
persists an experiment record (inputs hash, command, outputs as exact
rational strings plus decimals, wall time, seed, library version) as JSON.
Re-running a record's command on the same inputs reproduces its outputs
bit-for-bit.  Exit code 0 means every verdict passed, 1 that one failed,
and 2 that the input was bad (one ``error:`` line, no traceback).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .dp import root_envelope
from .dpp import verify_dpp
from .errors import NoInstances, TreestopError
from .generate import generate_instance
from .io import (decimal_value, dump_measure, fmt_rational, fmt_value, instance_hash,
                 load_budgets, load_cut, load_instance, load_masses, load_rule, word_str,
                 write_json_atomic)
from .lp import measure_to_rule, solve_robust, solve_weak
from .martingale import CandidateLaw, check_membership
from .rules import derandomize, equivalence_check, monte_carlo_value
from .xreal import as_fraction, echo, shown

MAX_GRID = 10_000  # dp --grid points: about 0.35 s of queries and printing at 8 x 3


class _BadArgument(TreestopError):
    """A command-line argument its option's type refuses.  Not a ValueError,
    so that argparse, which repeats such an argument whole above its usage
    block, lets it through to ``main``'s one ``error:`` line."""


def _integer(option: str):
    """The argparse type of an integer ``option``: int's reading of the
    argument, or a refusal that shows it as ``echo`` repeats input."""
    def parse(text: str) -> int:
        try:
            return int(text)
        except ValueError:  # int's digit limit included
            raise _BadArgument(f"{option} must be an integer, got {echo.repr(text)}") from None
    return parse


def _rate(option: str):
    """The argparse type of a rate ``option``: the float of a rational in
    [0, 1], its text read as a rational field's (``as_fraction``), or a
    refusal that shows it as ``echo`` repeats input."""
    def parse(text: str) -> float:
        try:
            rate = as_fraction(text)
        except ValueError:
            rate = None
        if rate is None or not 0 <= rate <= 1:
            raise _BadArgument(f"{option} must be a rational in [0, 1], got {echo.repr(text)}")
        return float(rate)
    return parse


def _write_record(out, name: str, tree, parameters: dict, outputs: dict,
                  seed: int, wall_time_s: float, command: list) -> None:
    """Persist an experiment record as ``<out>/<name>-<hash12>.json``.
    Does nothing without ``out``."""
    if not out:
        return
    digest = instance_hash(tree)
    record = {"instance_hash": digest, "command": command, "parameters": parameters,
              "outputs": outputs, "wall_time_s": wall_time_s, "seed": seed,
              "version": __version__}
    os.makedirs(out, exist_ok=True)
    write_json_atomic(os.path.join(out, f"{name}-{digest[:12]}.json"), record)


def _print_table(rows, header, file=None) -> None:
    print("\t".join(header), file=file)
    for row in rows:
        print("\t".join(str(c) for c in row), file=file)


def _measure_table(tree, measure):
    return [(word_str(tree, w) or ".", fmt_rational(s), fmt_rational(u), fmt_rational(q))
            for (w, s), u, q in zip(measure.s.items(), measure.u.values(),
                                    measure_to_rule(tree, measure).q)]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _recorded(cmd):
    """A command returning (tree, parameters, outputs, exit code) as one that
    returns the exit code, timed and recorded under the subcommand's name."""
    def run(args) -> int:
        started = time.perf_counter()
        tree, parameters, outputs, code = cmd(args)
        _write_record(args.out, args.command, tree, parameters, outputs,
                      args.seed, time.perf_counter() - started, args.argv)
        return code
    return run


@_recorded
def _cmd_solve(args):
    if args.robust:
        paths = sorted(glob.glob(os.path.join(args.robust, "*.json")))
        if not paths:
            raise NoInstances(f"no instance files in {args.robust}")
        trees = [load_instance(p) for p in paths]
        budgets = load_budgets(trees[0], args.budgets) if args.budgets else None
        res, idx = solve_robust(trees, budgets)
        tree = trees[idx] if idx is not None else trees[0]
    elif args.instance:
        tree = load_instance(args.instance)
        budgets = load_budgets(tree, args.budgets) if args.budgets else None
        res, idx = solve_weak(tree, budgets), None
    else:
        raise ValueError("solve needs --instance or --robust")
    print(f"status\t{res.status}")
    if idx is not None:
        print(f"argmax_model\t{idx}\t{paths[idx]}")
    outputs = {"status": res.status}
    if res.optimal:
        print(f"value\t{fmt_value(res.value)}")
        outputs["value"] = fmt_rational(res.value)
        outputs["value_decimal"] = decimal_value(res.value)
        if idx is not None:
            outputs["argmax_model"] = idx
        print("duals_ineq\t" + "\t".join(map(fmt_rational, res.duals_ineq)))
        print("duals_eq\t" + "\t".join(map(fmt_rational, res.duals_eq)))
        outputs["duals_ineq"] = [fmt_rational(d) for d in res.duals_ineq]
        outputs["duals_eq"] = [fmt_rational(d) for d in res.duals_eq]
        print()
        _print_table(_measure_table(tree, res.measure), ("word", "s", "u", "q"))
        outputs["measure"] = dump_measure(tree, res.measure)
    else:
        print(f"reason\t{res.reason}")
        outputs["reason"] = res.reason
    return tree, {"budgets": args.budgets, "robust": args.robust}, outputs, 0


@_recorded
def _cmd_dp(args):
    if args.grid is not None and not 0 <= args.grid <= MAX_GRID:
        raise ValueError(f"--grid must be a point count from 0 to {MAX_GRID}, "
                         f"got {shown(args.grid)}")
    tree = load_instance(args.instance)
    env = root_envelope(tree)
    value = env.value(args.budget)
    print(f"value\t{fmt_value(value)}")
    print()
    _print_table([(fmt_rational(x), fmt_rational(v)) for x, v in zip(env.xs, env.vs)],
                 ("budget", "value"))
    outputs = {"value": fmt_rational(value),
               "envelope": [[fmt_rational(x), fmt_rational(v)]
                            for x, v in zip(env.xs, env.vs)]}
    if args.grid:
        lo, hi = env.xs[0], env.xs[-1]
        step = (hi - lo) / (args.grid - 1) if args.grid > 1 else Fraction(0)
        grid_rows = []
        for i in range(args.grid):
            y = lo + i * step
            grid_rows.append([fmt_rational(y), fmt_rational(env.value(y))])
        print()
        _print_table(grid_rows, ("grid_budget", "value"))
        outputs["grid"] = grid_rows
    return tree, {"budget": args.budget, "grid": args.grid}, outputs, 0


@_recorded
def _cmd_derandomize(args):
    tree = load_instance(args.instance)
    rule = load_rule(tree, args.rule)
    taus = derandomize(tree, rule, args.eta)
    rows = [(word_str(tree, w) or ".", k) for w, k in sorted(taus.items())]
    _print_table(rows, ("word", "stop_depth"))
    return (tree, {"rule": args.rule, "eta": args.eta},
            {"stop_depths": {word_str(tree, w): k for w, k in taus.items()}}, 0)


@_recorded
def _cmd_mc(args):
    tree = load_instance(args.instance)
    rule = load_rule(tree, args.rule)
    est = monte_carlo_value(tree, rule, paths=args.paths, seed=args.seed)
    rows = [("value", est["value"][0], est["value"][1])]
    rows += [(f"ineq[{i}]", m, se) for i, (m, se) in enumerate(est["ineq"])]
    rows += [(f"eq[{i}]", m, se) for i, (m, se) in enumerate(est["eq"])]
    _print_table(rows, ("functional", "mean", "stderr"))
    return (tree, {"rule": args.rule, "paths": args.paths},
            {"estimates": {str(r[0]): [r[1], r[2]] for r in rows}}, 0)


def _parse_tau(tree, text):
    try:
        return int(text)
    except ValueError:
        return load_cut(tree, text)


@_recorded
def _cmd_verify_dpp(args):
    tree = load_instance(args.instance)
    budgets = load_budgets(tree, args.budgets) if args.budgets else None
    tau = _parse_tau(tree, args.tau)
    report = verify_dpp(tree, tau, budgets=budgets)
    payload = {
        "lhs": fmt_rational(report["lhs"]),
        "rhs_sub": fmt_rational(report["rhs_sub"]),
        "rhs_super": fmt_rational(report["rhs_super"]),
        "gap": fmt_rational(report["gap"]),
        "pass": report["pass"],
        "per_node": [{
            "node": word_str(tree, e["node"]),
            "mass": fmt_rational(e["mass"]),
            "Y": [fmt_rational(v) for v in e["Y"]],
            "Z": [fmt_rational(v) for v in e["Z"]],
            "subvalue": fmt_rational(e["subvalue"]),
        } for e in report["per_node"]],
    }
    print(json.dumps(payload, indent=2))
    return (tree, {"tau": args.tau, "budgets": args.budgets}, payload,
            0 if report["pass"] else 1)


@_recorded
def _cmd_check_class(args):
    tree = load_instance(args.instance)
    if args.measure:  # a law, which may depart from the tree's branching
        law = CandidateLaw(tree, *load_masses(tree, args.measure))
    else:
        res = solve_weak(tree)
        if not res.optimal:
            raise ValueError(f"cannot derive a measure: solve is {res.status}")
        law = res.measure
    report = check_membership(tree, law, degree=args.degree,
                              mode=args.mode, tolerance=as_fraction(args.tol))
    worst = max(report.clause1, key=lambda r: abs(r["stat"]), default=None)
    print(f"clause1\t{'pass' if report.clause1_pass else 'FAIL'}"
          f"\t({len(report.clause1)} statistics)")
    if worst is not None:
        print(f"worst_stat\t{fmt_rational(worst['stat'])}\tphi={worst['phi']}"
              f"\ts={worst['s']}\tr={worst['r']}\tweight={worst['weight']}")
    print(f"clause2\t{'pass' if report.clause2_pass else 'FAIL'}")
    print(f"direct\t{'pass' if report.direct_pass else 'FAIL'}")
    print(f"overall\t{'pass' if report.ok else 'FAIL'}")
    outputs = {
        "clause1_pass": report.clause1_pass,
        "clause2_pass": report.clause2_pass,
        "direct_pass": report.direct_pass,
        "overall": report.ok,
        "n_statistics": len(report.clause1),
        "worst_stat": fmt_rational(worst["stat"]) if worst else "0",
    }
    return (tree, {"degree": args.degree, "mode": args.mode, "tol": args.tol},
            outputs, 0 if report.ok else 1)


def _cmd_gen(args) -> int:
    doc = generate_instance(seed=args.seed, depth=args.depth,
                            branches=args.branches, n_ineq=args.ineq,
                            n_eq=args.eq, nonneg_g=args.nonneg_g,
                            vacuous_rate=args.vacuous_rate)
    write_json_atomic(args.out_file, doc)
    print(f"wrote {args.out_file}\thash={instance_hash(doc)[:12]}")
    return 0


def run_suite(directory: str, suite: str, out: str = None, seed: int = 0):
    """Run a verifier over every instance in a directory.

    Returns (rows, all_pass); rows carry per-instance verdicts, gaps and
    runtimes, assembled in sorted file order.
    """
    if suite not in ("equivalence", "dpp", "membership", "all"):
        raise ValueError(f"unknown suite {suite!r}")
    checks = ["equivalence", "dpp", "membership"] if suite == "all" else [suite]
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not paths:
        raise NoInstances(f"no instance files in {directory}")
    rows = []
    all_pass = True
    for path in paths:
        tree = load_instance(path)
        started = time.perf_counter()
        res = solve_weak(tree)
        verdicts, gaps = {}, []
        for check in checks:
            if not res.optimal:
                verdicts[check] = False
            elif check == "equivalence":
                rule = measure_to_rule(tree, res.measure)
                # equivalence_check raises unless the two measures agree
                rep = equivalence_check(tree, rule)
                verdicts[check] = rep["stop_mass_rule"] == res.measure
            elif check == "dpp":
                ok = True
                worst = Fraction(0)
                for k in range(1, tree.depth):
                    rep = verify_dpp(tree, k)
                    ok = ok and rep["pass"]
                    if abs(rep["gap"]) > abs(worst):
                        worst = rep["gap"]
                verdicts[check] = ok
                gaps.append(worst)
            else:
                rep = check_membership(tree, res.measure, degree=2, mode="exact")
                verdicts[check] = rep.ok
        passed = all(verdicts.values())
        all_pass = all_pass and passed
        rows.append({
            "instance": os.path.basename(path),
            "hash": instance_hash(tree)[:12],
            "pass": passed,
            "verdicts": verdicts,
            "max_gap": fmt_rational(max(gaps, key=abs)) if gaps else "0",
            "runtime_s": round(time.perf_counter() - started, 4),
        })
        _write_record(out, "suite", tree, {"suite": suite}, rows[-1], seed,
                      rows[-1]["runtime_s"], command=["suite", suite, path])
    return rows, all_pass


def _cmd_suite(args) -> int:
    rows, all_pass = run_suite(args.dir, args.suite, out=args.out, seed=args.seed)
    table = [(r["instance"], r["hash"], "pass" if r["pass"] else "FAIL",
              r["max_gap"], r["runtime_s"]) for r in rows]
    header = ("instance", "hash", "verdict", "max_gap", "runtime_s")
    if args.format == "json":
        print(json.dumps(rows, indent=2, default=str))
    else:
        _print_table(table, header)
    total = len(rows)
    good = sum(1 for r in rows if r["pass"])
    print(f"\n{good}/{total} instances pass")
    if args.out:
        with open(os.path.join(args.out, f"suite-{args.suite}.tsv"), "w") as fh:
            _print_table(table, header, file=fh)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treestop",
        description="exact constrained optimal stopping on finite increment trees")
    parser.add_argument("--seed", type=_integer("--seed"), default=0)
    parser.add_argument("--out", help="directory for experiment records")
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # top-level value unless the subcommand position overrides it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_integer("--seed"), default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("tsv", "json"),
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("solve", help="solve the constrained stopping problem")
    p.add_argument("--instance")
    p.add_argument("--budgets")
    p.add_argument("--robust", help="directory of instances forming a model family")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("dp", help="scalar-budget backward induction")
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", required=True)
    p.add_argument("--grid", type=_integer("--grid"))
    p.set_defaults(fn=_cmd_dp)

    p = sub.add_parser("derandomize", help="hitting-time stop depths at a threshold")
    p.add_argument("--instance", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--eta", required=True)
    p.set_defaults(fn=_cmd_derandomize)

    p = sub.add_parser("mc", help="Monte Carlo evaluation of a rule")
    p.add_argument("--instance", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--paths", type=_integer("--paths"), required=True)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("verify-dpp", help="two-sided value recursion check")
    p.add_argument("--instance", required=True)
    p.add_argument("--budgets")
    p.add_argument("--tau", required=True, help="cut depth or cut file")
    p.set_defaults(fn=_cmd_verify_dpp)

    p = sub.add_parser("check-class", help="martingale-problem membership tests")
    p.add_argument("--instance", required=True)
    p.add_argument("--measure")
    p.add_argument("--degree", type=_integer("--degree"), default=2)
    p.add_argument("--mode", choices=("exact", "generator"), default="exact")
    p.add_argument("--tol", default="1")
    p.set_defaults(fn=_cmd_check_class)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--depth", type=_integer("--depth"), default=2)
    p.add_argument("--branches", type=_integer("--branches"), default=2)
    p.add_argument("--ineq", type=_integer("--ineq"), default=1)
    p.add_argument("--eq", type=_integer("--eq"), default=0)
    p.add_argument("--nonneg-g", action="store_true")
    p.add_argument("--vacuous-rate", type=_rate("--vacuous-rate"), default=0.0)
    p.add_argument("--out-file", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("suite", help="run a verifier over a directory of instances")
    p.add_argument("--dir", required=True)
    p.add_argument("--suite", choices=("equivalence", "dpp", "membership", "all"),
                   default="all")
    p.set_defaults(fn=_cmd_suite)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # records name the arguments parsed here, which are the process's own
        # only when none are passed in
        args.argv = list(sys.argv[1:] if argv is None else argv)
        return args.fn(args)
    except (TreestopError, ValueError, OSError) as exc:
        # bad input of any kind (unreadable or malformed files included)
        # is one line and exit 2, never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
