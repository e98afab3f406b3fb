"""Conditioning a solved instance at an intermediate stage and pasting back.

Cutting the optimal law at a stage splits it into a prefix and per-node
conditional laws; each surviving node carries the conditional expectation
of its remaining constraint accruals as budget states.  ``verify_dpp``
solves no subtree: it reads every survivor's subtree optimum at those
budgets off one Snell envelope at the root solve's duals, and the
conditional laws attain it.  So replacing the conditional laws by subtree
optima neither gains nor loses value, which certifies both directions of
the value recursion at once: the reported gap is exactly zero.
"""

from fractions import Fraction

from treestop import (build_tree, condition, first_randomization_cut,
                      measure_to_rule, solve_weak, verify_dpp)

HALF = Fraction(1, 2)

tree = build_tree(
    dt=1, depth=3,
    branching=[(HALF, 1), (HALF, -1)],
    x0=0,
    terminal=lambda t, xs: xs[-1] ** 2,
    inequalities=[(1, Fraction(2))],       # E[tau] <= 2
    equalities=[(lambda t, xs: xs[-1], Fraction(1, 4))],
)

base = solve_weak(tree)
print(f"optimal value = {base.value}\n")

cond = condition(tree, base.measure, 1)
print("Conditional budget states one step in:")
for nu, data in cond.survivors.items():
    name = "".join("+" if j == 0 else "-" for j in nu)
    print(f"  node {name}: reach mass {data.mass}, "
          f"remaining E[accruals] Y = {tuple(map(str, data.ys))}, "
          f"Z = {tuple(map(str, data.zs))}")
print(f"tower check, post-cut accruals: ineq {tuple(map(str, cond.tower_ineq))}, "
      f"eq {tuple(map(str, cond.tower_eq))}\n")

for stage in (1, 2):
    report = verify_dpp(tree, stage)
    print(f"stage {stage}: lhs = {report['lhs']}, rhs = {report['rhs_sub']}, "
          f"gap = {report['gap']}, pass = {report['pass']}")

cut = first_randomization_cut(tree, measure_to_rule(tree, base.measure))
report = verify_dpp(tree, cut)
pretty = ["".join("+" if j == 0 else "-" for j in w) for w in cut]
print(f"adapted stage {pretty}: gap = {report['gap']}, pass = {report['pass']}")

print("\nThe gap is zero exactly at every stage, deterministic or adapted:")
print("replacing conditional laws by subtree optima cannot lose value, and")
print("pasting those optima back stays feasible, so it cannot gain either.")
