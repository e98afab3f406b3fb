"""Record the reference outputs the benchmark checks against.

Usage (from the repository root):  python3 bench/record.py

Writes bench/references.json: for every instance its instance_hash and
the exact outputs of the library at the current commit, as rational
strings (and MC estimates as floats).  Run it only to re-baseline on
purpose; every benchmark run compares against this file.
"""

import json
import os
import sys

from checkout import BENCH_DIR, use_checkout_src


def record() -> dict:
    import workloads as wl
    from treestop import dp, io as tio, lp, martingale, rules
    from treestop.io import fmt_rational
    from treestop.lattice import BudgetVector

    refs = {}
    dense = refs["solve-dense"] = {}
    for name, kwargs in wl.SOLVE_DENSE.items():
        doc = wl.generate.generate_instance(**kwargs)
        tree = tio.load_instance(doc)
        res = lp.solve_weak(tree)
        entry = dict(hash=tio.instance_hash(doc), status=res.status,
                     value=fmt_rational(res.value))
        if tree.constraints.n_ineq == 1 and tree.constraints.n_eq == 0:
            y = BudgetVector.of(tree.constraints).ys[0]
            if dp.dp_value(tree, y) != res.value:
                raise SystemExit(f"{name}: dp and LP values differ")
            entry["dp_cross_check"] = True
        dense[name] = entry
        if name == wl.INFEASIBLE_OF:
            bad = lp.solve_weak(tree, wl.tightened(BudgetVector.of(tree.constraints)))
            if bad.status != "infeasible":
                raise SystemExit(f"{name}: tightened budgets are still feasible")
            dense[name + "-infeasible"] = dict(hash=tio.instance_hash(doc), status=bad.status)

    env = refs["dp-envelope"] = {}
    for name, kwargs in wl.DP_ENVELOPE.items():
        doc = wl.generate.generate_instance(**kwargs)
        tree = tio.load_instance(doc)
        root = dp.root_envelope(tree)
        value = dp.dp_value(tree, BudgetVector.of(tree.constraints).ys[0])
        env[name] = dict(hash=tio.instance_hash(doc), value=fmt_rational(value),
                         kinks=[[fmt_rational(x) for x in root.xs],
                                [fmt_rational(v) for v in root.vs]])

    pool = refs["verify-pool"] = {}
    for name, kwargs in wl.VERIFY_POOL.items():
        doc = wl.generate.generate_instance(**kwargs)
        tree = tio.load_instance(doc)
        res = lp.solve_weak(tree)
        rule = lp.measure_to_rule(tree, res.measure)
        report = martingale.check_membership(tree, res.measure, degree=2, mode="exact")
        if not report.ok:
            raise SystemExit(f"{name}: the optimal law fails the membership test")
        est = rules.monte_carlo_value(tree, rule, paths=wl.MC_PATHS, seed=wl.MC_SEED)
        pool[name] = dict(hash=tio.instance_hash(doc), value=fmt_rational(res.value),
                          rule=tio.dump_rule(tree, rule),
                          statistics=len(report.clause1), mc=wl.mc_record(est))
    return refs


def main() -> int:
    use_checkout_src()
    refs = record()
    path = os.path.join(BENCH_DIR, "references.json")
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
