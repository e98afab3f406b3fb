"""Auditing candidate laws with compensated-polynomial tests.

A law on (increment path, state path, stopping node) belongs to the
admissible class iff weighted compensated increments of polynomial test
functions all have expectation zero (plus the support conditions pinning
the pre-start behavior).  Genuine laws pass with statistics identically
zero; a shift between two branches or a shifted state value is caught by
a degree-<=2 test, and mass leaking before the start is caught by the
support clause.  A branch law that keeps the increment's lower moments
passes every degree-2 test; the direct check, which compares transitions
and states with the model node by node, rejects it.  The generator-form
compensator leaves an O(dt) Euler gap that shrinks linearly under grid
refinement.
"""

from fractions import Fraction

from treestop import (CandidateLaw, build_tree, candidate_with_branch_bias,
                      candidate_with_pre_start_mass, candidate_with_state_shift,
                      check_membership, generator_gap_decay, rule_from_map,
                      rule_to_measure, solve_weak)

HALF = Fraction(1, 2)

tree = build_tree(dt=1, depth=2, branching=[(HALF, 1), (HALF, -1)], x0=0,
                  terminal=lambda t, xs: xs[-1] ** 2,
                  inequalities=[(1, Fraction(3, 2))])
rule = rule_from_map(tree, {(): 0, (0,): HALF, (1,): HALF})
measure = rule_to_measure(tree, rule)

report = check_membership(tree, solve_weak(tree).measure)
print(f"solver-produced law: pass = {report.ok} "
      f"({len(report.clause1)} statistics, all exactly zero)")

biased = candidate_with_branch_bias(tree, rule, ((), Fraction(1, 10)))
report = check_membership(tree, biased)
first = next(r for r in report.clause1 if not r["pass"])
print(f"\nbiased branch law (0.6/0.4 instead of 1/2,1/2): pass = {report.ok}")
print(f"  first failing test: phi = {first['phi']}, steps {first['s']}->"
      f"{first['r']}, weight {first['weight']}, statistic = {first['stat']}")

shifted = candidate_with_state_shift(tree, measure, (0,), 1)
report = check_membership(tree, shifted)
first = next(r for r in report.clause1 if not r["pass"])
print(f"\nstate shifted by +1 at one node: pass = {report.ok}")
print(f"  first failing test: phi = {first['phi']}, statistic = {first['stat']}")

leaky = candidate_with_pre_start_mass(tree, measure, Fraction(1, 16))
report = check_membership(tree, leaky)
print(f"\nmass stopping before the start: pass = {report.ok}, "
      f"support detail = {report.clause2_detail}")

# four branches of 1/4; the root law below keeps the increment's sum, mean
# and second moment, and the law never stops before the horizon
quad = build_tree(dt=1, depth=3, x0=0, branching=[
    (Fraction(1, 4), w) for w in (Fraction(-3, 2), -HALF, HALF, Fraction(3, 2))])
law = (Fraction(11, 40), Fraction(7, 40), Fraction(13, 40), Fraction(9, 40))
mass = {}
for w in quad.nodes():
    mass[w] = Fraction(1) if not w else law[w[0]] if len(w) == 1 else mass[w[:-1]] / 4
horizon = {w: len(w) == quad.depth for w in mass}
moments = CandidateLaw(quad, s={w: m if horizon[w] else 0 for w, m in mass.items()},
                       u={w: 0 if horizon[w] else m for w, m in mass.items()})
report = check_membership(quad, moments)
print(f"\nmoment-preserving root law 11/40, 7/40, 13/40, 9/40: pass = {report.ok}")
print(f"  degree-2 battery: {len(report.clause1)} statistics, "
      f"pass = {report.clause1_pass}")
print(f"  direct check: {report.direct_detail['check']} at node "
      f"{report.direct_detail['node']}, claimed "
      f"{[str(p) for p in report.direct_detail['claimed']]}")

print("\nEuler gap of the generator-form compensator under refinement:")
study = generator_gap_decay()
for dt, stat in zip(study["dts"], study["stats"]):
    print(f"  dt = {str(dt):<4}: max |statistic| = {stat:.6f}")
print(f"log-log slope = {study['slope']:.3f} (linear decay)")
