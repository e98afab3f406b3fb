"""The benchmark's workloads: instance specs, jobs and their output checks.

Each workload is a closed loop with one caller.  A pass runs the
workload's jobs one after another; a job loads its instance afresh (as
every CLI command does) and then calls the public library functions a user
calls, each call being one operation.  An operation fails if it raises,
overruns its time cap, or returns something other than the reference
recorded in references.json or demanded by an in-run cross-check; a failed
operation ends its job and the job's remaining operations count as failed.

The instance set is fixed so that every exact output has a recorded
reference.  The workload seed sets the order of the jobs and, on
dp-envelope, the budgets of the envelope queries; the same seed gives the
same inputs, and no seed changes the amount of work much.
"""

import contextlib
import json
import os
import random
import signal
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from treestop import dp, dpp, generate, lp, martingale, rules
from treestop import io as tio
from treestop.lattice import BudgetVector
from treestop.measures import feasible_for
from treestop.xreal import Ext

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")
OP_CAP_S = 60            # an operation running longer fails as "timeout"
MC_PATHS = 20_000
MC_SEED = 7
QUERIES = 64             # envelope queries per dp-envelope instance, as `dp --grid 64`
TIGHTEN = 1000           # subtracted from every inequality budget -> infeasible

# name -> generate_instance keyword arguments
SOLVE_DENSE = {
    "dense-6x2": dict(seed=1, depth=6, branches=2, n_ineq=2, n_eq=1),
    "dense-5x3": dict(seed=1, depth=5, branches=3, n_ineq=2, n_eq=1),
    "dense-4x4": dict(seed=1, depth=4, branches=4, n_ineq=2, n_eq=1),
    "ineq-6x2": dict(seed=1, depth=6, branches=2, n_ineq=1),
}
INFEASIBLE_OF = "dense-6x2"
DP_ENVELOPE = {
    "env-8x3": dict(seed=1, depth=8, branches=3, n_ineq=1, nonneg_g=True),
    "env-6x4": dict(seed=1, depth=6, branches=4, n_ineq=1, nonneg_g=True),
}
# mixes rotate (1,0), (0,1), (1,1), (2,0); seeds chosen so that every
# optimal law randomizes somewhere below the root, which makes the
# first-randomization cut a real stage and the MC variance nonzero
VERIFY_POOL = {
    "pool-0": dict(seed=3, depth=3, branches=2, n_ineq=1),
    "pool-1": dict(seed=1, depth=4, branches=2, n_ineq=0, n_eq=1),
    "pool-2": dict(seed=2, depth=3, branches=3, n_ineq=1, n_eq=1),
    "pool-3": dict(seed=2, depth=4, branches=2, n_ineq=2),
    "pool-4": dict(seed=4, depth=3, branches=2, n_ineq=1),
    "pool-5": dict(seed=3, depth=3, branches=3, n_ineq=0, n_eq=1),
    "pool-6": dict(seed=5, depth=4, branches=2, n_ineq=1, n_eq=1),
    "pool-7": dict(seed=4, depth=3, branches=3, n_ineq=2),
}
SPECS = {"solve-dense": SOLVE_DENSE, "dp-envelope": DP_ENVELOPE,
         "verify-pool": VERIFY_POOL}


class Mismatch(Exception):
    """An operation returned something other than its reference output."""


class OpTimeout(Exception):
    """An operation ran past OP_CAP_S."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@contextlib.contextmanager
def time_cap(seconds: float):
    def expire(signum, frame):
        raise OpTimeout()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Tally:
    """Counts operations and failures; spans them when a tracer is given."""

    tracer: object = None
    attempted: int = 0
    failures: list = field(default_factory=list)

    def run_job(self, job: str, steps) -> None:
        """Run (label, fn) steps in order; fn(state) raises on a wrong output."""
        state = {}
        broken = None
        for label, fn in steps:
            self.attempted += 1
            if broken:
                self.failures.append(f"{job}/{label}: skipped after {broken} failed")
                continue
            try:
                with time_cap(OP_CAP_S), self._span("bench." + label):
                    fn(state)
            except OpTimeout:
                problem = "timeout"
            except Mismatch as exc:
                problem = f"wrong output: {exc}"
            except Exception as exc:  # any raise is a failed operation, not a crash
                problem = f"raised {type(exc).__name__}: {exc}"
            else:
                continue
            self.failures.append(f"{job}/{label}: {problem}")
            broken = label

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# set-up: generated instances plus their references
# ---------------------------------------------------------------------------

@dataclass
class Instance:
    name: str
    doc: dict
    ref: dict
    extra: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)


def read_references(path: str = REFERENCES) -> dict:
    with open(path) as fh:
        return json.load(fh)


def setup(workload: str, seed: int, references: dict) -> list:
    """Generate the workload's instances and attach their references.

    Returns the instances in the seed's job order.
    """
    refs = references[workload]
    rng = random.Random(seed)
    out = []
    for name, kwargs in SPECS[workload].items():
        doc = generate.generate_instance(**kwargs)
        inst = Instance(name=name, doc=doc, ref=refs[name])
        tree = tio.load_instance(doc)
        if workload == "dp-envelope":
            xs = [Fraction(x) for x in inst.ref["kinks"][0]]
            lo, hi = xs[0], xs[-1] + (xs[-1] - xs[0]) / 10
            inst.extra["queries"] = [lo + (hi - lo) * Fraction(k, 1000)
                                     for k in rng.sample(range(1001), QUERIES)]
        elif workload == "verify-pool":
            inst.extra["mc_rule"] = tio.load_rule(tree, inst.ref["rule"])
        out.append(inst)
    if workload == "solve-dense":
        base = next(i for i in out if i.name == INFEASIBLE_OF)
        out.append(Instance(name=INFEASIBLE_OF + "-infeasible", doc=base.doc,
                            ref=refs[INFEASIBLE_OF + "-infeasible"]))
    for inst in out:
        inst.steps = STEPS[workload](inst)
    rng.shuffle(out)
    return out


def instance_hashes(instances) -> dict:
    return {inst.name: tio.instance_hash(inst.doc) for inst in instances}


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

def _load(inst: Instance):
    def step(state):
        state["tree"] = tree = tio.load_instance(inst.doc)
        expect(tio.instance_hash(tree) == inst.ref["hash"], "instance hash differs")
    return "load", step


def tightened(budgets: BudgetVector) -> BudgetVector:
    """Every inequality budget lowered by TIGHTEN, which leaves no feasible law."""
    return BudgetVector(ys=tuple(y - TIGHTEN for y in budgets.ys), zs=budgets.zs)


def _value_matches(got, ref: str) -> bool:
    return got == Ext.parse(ref)


def interpolate(xs, vs, y: Fraction) -> Fraction:
    """Reference evaluation of a kink list: linear between kinks, flat after."""
    if y >= xs[-1]:
        return vs[-1]
    i = bisect_right(xs, y) - 1
    return vs[i] + (vs[i + 1] - vs[i]) * (y - xs[i]) / (xs[i + 1] - xs[i])


def dense_steps(inst: Instance):
    infeasible = inst.name.endswith("-infeasible")

    def solve(state):
        tree = state["tree"]
        budgets = BudgetVector.of(tree.constraints)
        if infeasible:
            budgets = tightened(budgets)
        res = lp.solve_weak(tree, budgets)
        expect(res.status == inst.ref["status"], f"status {res.status}")
        if infeasible:
            expect(res.certificate is not None, "no infeasibility certificate")
            return
        expect(_value_matches(res.value, inst.ref["value"]), f"value {res.value}")
        expect(feasible_for(tree, res.measure, budgets), "measure outside budgets")
        expect(res.measure.expectations(tree)["value"] == res.value,
               "measure does not attain the value")
        expect(all(d >= 0 for d in res.duals_ineq), "negative inequality dual")
        state["value"] = res.value

    def cross_dp(state):
        tree = state["tree"]
        got = dp.dp_value(tree, BudgetVector.of(tree.constraints).ys[0])
        expect(got == state["value"], f"dp value {got} differs from the LP value")

    steps = [_load(inst), ("solve", solve)]
    if inst.ref.get("dp_cross_check"):
        steps.append(("cross_dp", cross_dp))
    return steps


def envelope_steps(inst: Instance):
    ref_xs = tuple(Fraction(x) for x in inst.ref["kinks"][0])
    ref_vs = tuple(Fraction(v) for v in inst.ref["kinks"][1])

    def dp_value(state):
        tree = state["tree"]
        got = dp.dp_value(tree, BudgetVector.of(tree.constraints).ys[0])
        expect(_value_matches(got, inst.ref["value"]), f"value {got}")
        state["value"] = got

    def envelope(state):
        env = dp.root_envelope(state["tree"])
        expect((env.xs, env.vs) == (ref_xs, ref_vs), "envelope kinks differ")
        slopes = [(v1 - v0) / (x1 - x0) for x0, x1, v0, v1 in
                  zip(env.xs, env.xs[1:], env.vs, env.vs[1:])]
        expect(all(s >= 0 for s in slopes), "envelope decreases")
        expect(all(a >= b for a, b in zip(slopes, slopes[1:])), "envelope not concave")
        budget = BudgetVector.of(state["tree"].constraints).ys[0]
        expect(env.value(budget) == state["value"].fraction(),
               "envelope at the instance budget differs from dp_value")
        state["env"] = env

    def query(y):
        def step(state):
            got = state["env"].value(y)
            expect(got == interpolate(ref_xs, ref_vs, y), f"envelope value at {y}")
        return step

    return [_load(inst), ("dp_value", dp_value), ("envelope", envelope)] + \
        [("query", query(y)) for y in inst.extra["queries"]]


def pool_steps(inst: Instance):
    ref = inst.ref

    def solve(state):
        res = lp.solve_weak(state["tree"])
        expect(res.optimal and _value_matches(res.value, ref["value"]),
               f"{res.status} value {res.value}")
        state["measure"] = res.measure

    def equivalence(state):
        tree = state["tree"]
        state["rule"] = lp.measure_to_rule(tree, state["measure"])
        expect(rules.equivalence_check(tree, state["rule"])["pass"], "not equivalent")

    def verify(tau_of):
        def step(state):
            rep = dpp.verify_dpp(state["tree"], tau_of(state))
            expect(rep["pass"] and rep["gap"] == 0, f"gap {rep['gap']}")
            expect(_value_matches(rep["lhs"], ref["value"]), f"lhs {rep['lhs']}")
        return step

    def membership(state):
        rep = martingale.check_membership(state["tree"], state["measure"],
                                          degree=2, mode="exact")
        expect(rep.ok, "genuine law rejected")
        expect(len(rep.clause1) == ref["statistics"],
               f"{len(rep.clause1)} statistics")

    def monte_carlo(state):
        est = rules.monte_carlo_value(state["tree"], inst.extra["mc_rule"],
                                      paths=MC_PATHS, seed=MC_SEED)
        expect(mc_record(est) == ref["mc"], "estimate not bit-identical")

    depth = inst.doc["depth"]
    steps = [_load(inst), ("solve", solve), ("equivalence", equivalence)]
    steps += [("verify_dpp", verify(lambda state, k=k: k)) for k in range(1, depth + 1)]
    steps += [("verify_dpp", verify(
        lambda state: dpp.first_randomization_cut(state["tree"], state["rule"])))]
    steps += [("membership", membership), ("mc", monte_carlo)]
    return steps


def mc_record(est: dict) -> list:
    """An MC estimate as JSON-ready floats: [[mean, se] per functional]."""
    return [list(est["value"])] + [list(p) for p in est["ineq"]] + \
        [list(p) for p in est["eq"]]


STEPS = {"solve-dense": dense_steps, "dp-envelope": envelope_steps,
         "verify-pool": pool_steps}


def run_pass(instances, tally: Tally) -> float:
    """Run every job of the workload once; return the wall time in seconds."""
    start = time.perf_counter()
    for inst in instances:
        tally.run_job(inst.name, inst.steps)
    return time.perf_counter() - start
