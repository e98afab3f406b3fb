"""Exception types shared across the library."""


class TreestopError(Exception):
    """Base class for all library errors."""


class InvalidBranching(TreestopError):
    """Branch probabilities do not sum to 1, or some probability is <= 0."""


class InvalidHorizon(TreestopError):
    """Tree depth is negative."""


class NodeNotInTree(TreestopError):
    """An increment word does not identify a node of the tree."""


class WordTooLong(NodeNotInTree):
    """An increment word is longer than the tree horizon."""


class ExpressionUndefined(TreestopError):
    """An instance expression has no value at a node (it divides by zero, or
    takes a power whose exponent is not an integer there)."""


class RuleShapeMismatch(TreestopError):
    """A stopping rule's node set or values do not fit the tree."""


class EquivalenceViolation(TreestopError):
    """The randomized rule and its hitting-time construction disagree.

    Carries the comparison report in ``args[1]`` when available.
    """


class BudgetBelowDomain(TreestopError):
    """A budget lies below the smallest feasible budget of an envelope."""


class UnsupportedConstraintShape(TreestopError):
    """The scalar-budget engine only handles one inequality constraint."""


class InvariantViolation(TreestopError):
    """An internal invariant failed.

    The conditions guarded this way hold for every valid input, so this
    signals an implementation bug rather than a property of the instance.
    Raised instead of asserted so that it also fires under ``python -O``.
    """


class ShapeMismatch(TreestopError):
    """A measure is not on the tree's rows."""


class DegreeTooHigh(TreestopError):
    """Polynomial degree exceeds the combinatorial guard for class tests."""


class EmptyBattery(TreestopError):
    """A membership check would run no clause-1 statistic at all.

    A degree below 1 leaves clause 1 vacuous, so it could not reject any
    candidate.
    """


class ShapeTooLarge(TreestopError):
    """A tree has more than ``lattice.MAX_NODES`` nodes, or a requested
    random instance exceeds the generator's depth or branch cap."""


class NoInstances(TreestopError):
    """A suite run was pointed at a directory with no instance files."""


class EmptyFamily(TreestopError):
    """The robust solver needs at least one model."""
