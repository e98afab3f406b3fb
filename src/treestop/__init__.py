"""Exact constrained optimal stopping on finite increment trees.

The library solves optimal stopping problems with inequality- and
equality-type expectation constraints on finite tree discretizations of
(possibly path-dependent) diffusions: an exact rational LP over joint
stopping laws, randomized stopping rules with a uniform-threshold
hitting-time realization, a scalar-budget backward induction, a two-sided
verifier of the value recursion under conditioning and pasting, and
martingale-problem membership tests for candidate laws.
"""

__version__ = "0.1.0"

from .dp import dp_value, root_envelope
from .dpp import condition, first_randomization_cut, verify_dpp
from .envelope import ConcaveEnvelope
from .errors import (BudgetBelowDomain, DegreeTooHigh, EmptyBattery, EmptyFamily,
                     EquivalenceViolation, ExpressionUndefined,
                     InvalidBranching, InvalidHorizon,
                     InvariantViolation, NoInstances, NodeNotInTree,
                     RuleShapeMismatch, ShapeMismatch, ShapeTooLarge,
                     TreestopError,
                     UnsupportedConstraintShape, WordTooLong)
from .generate import generate_instance
from .io import (dump_instance, dump_measure, dump_rule, instance_hash,
                 load_budgets, load_instance, load_measure, load_rule,
                 parse_function)
from .lattice import (BudgetVector, ConstraintSpec, TreeInstance, build_tree,
                      cumulative_functionals, euler_state)
from .lp import (SolveResult, fractional_nodes, measure_to_rule, solve_robust,
                 solve_weak)
from .martingale import (CandidateLaw, MembershipReport, Polynomial,
                         candidate_with_branch_bias, candidate_with_pre_start_mass,
                         candidate_with_state_shift, check_membership,
                         generator_gap_decay, monomial_basis, statistic)
from .measures import StoppingMeasure, feasible_for
from .rules import (RandomizedStoppingRule, derandomize, equivalence_check,
                    monte_carlo_value, rule_from_map, rule_to_measure,
                    stop_mass_by_eta_integration, theta_of_rule)
from .xreal import Ext, NEG_INF, POS_INF, as_fraction
