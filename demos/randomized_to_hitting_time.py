"""From a randomized rule to an implementable hitting time.

A randomized stopping rule q gives each node a conditional stop
probability.  Its cumulative-stop process theta, one minus the continue
share of the rule's measure, is non-decreasing along every increment
word and ends at 1; stopping once theta exceeds a single uniform draw
eta reproduces the rule's law exactly.  This script shows the
construction and certifies the equivalence by exact eta-integration,
then cross-checks with Monte Carlo.
"""

from fractions import Fraction

from treestop import (build_tree, derandomize, equivalence_check,
                      monte_carlo_value, rule_from_map, theta_of_rule)

HALF = Fraction(1, 2)

tree = build_tree(dt=1, depth=2, branching=[(HALF, 1), (HALF, -1)], x0=0,
                  terminal=lambda t, xs: xs[-1] ** 2)
rule = rule_from_map(tree, {(): 0, (0,): HALF, (1,): HALF})

print("Rule: never stop at the root, flip a fair coin at depth 1,")
print("forced stop at the horizon.\n")

theta = theta_of_rule(tree, rule)
print("theta along any word:", [str(theta[w]) for w in [(), (0,), (0, 0)]])

for eta in (Fraction(3, 10), HALF, Fraction(9, 10)):
    taus = derandomize(tree, rule, eta)
    depths = sorted(set(taus.values()))
    print(f"eta = {eta}: every path stops at depth {depths}")
print("(eta = 1/2 continues: the hitting inequality theta > eta is strict)\n")

report = equivalence_check(tree, rule)
print("Exact certificate: integrating the hitting time over eta in [0,1)")
print("reproduces the rule's stop masses node by node ->", report["pass"])
exp = report["expectations_rule"]
print(f"value E[X_tau^2] = {exp['value']}, mean stop time = {exp['mean_stop_time']}\n")

est = monte_carlo_value(tree, rule, paths=200_000, seed=7)
mean, se = est["value"]
print(f"Monte Carlo on (word, eta) pairs: {mean:.4f} +- {se:.4f}")
print(f"exact value 3/2 lies within 3 standard errors: "
      f"{abs(mean - 1.5) <= 3 * se}")
