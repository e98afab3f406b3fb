"""In-memory spans around calls into treestop's public functions.

A traced run replaces selected module attributes and methods with wrappers
that record one span per call: (name, start, end, parent).  Spans stay in
memory and are written out by the caller when the run ends.  Nothing under
src/ changes; a caller only sees a wrapper when it looks the function up
through the patched module attribute, which is how every caller listed in
PATCH_POINTS reaches it.  ``dpp`` imports ``solve_weak`` by name, so that
binding is patched as well.

The span name's prefix before the first dot is its layer.  Per-layer
metrics are derived from the spans: a layer's busy time sums its outermost
spans (a span with no ancestor of the same layer), and a self time
subtracts the direct children of the named layers.
"""

import contextlib
import time

from treestop import dp, dpp, generate, lp, martingale, rules, simplex
from treestop import io as tio
from treestop.measures import StoppingMeasure

# (owner, attribute, span name)
PATCH_POINTS = (
    (simplex, "solve_lp", "simplex.solve_lp"),
    (lp, "solve_weak", "lp.solve_weak"),
    (dpp, "solve_weak", "lp.solve_weak"),
    (StoppingMeasure, "validate", "measures.validate"),
    (StoppingMeasure, "expectations", "measures.expectations"),
    (dp, "dp_value", "dp.dp_value"),
    (dp, "root_envelope", "dp.root_envelope"),
    (dpp, "verify_dpp", "dpp.verify_dpp"),
    (dpp, "first_randomization_cut", "dpp.first_randomization_cut"),
    (martingale, "check_membership", "martingale.check_membership"),
    (martingale, "statistic", "martingale.statistic"),
    (rules, "equivalence_check", "rules.equivalence_check"),
    (rules, "monte_carlo_value", "rules.monte_carlo_value"),
    (generate, "generate_instance", "generate.generate_instance"),
    (tio, "load_instance", "io.load_instance"),
)

# name -> unit of every per-layer metric a traced run reports
LAYER_UNITS = {
    "simplex.busy_s": "s", "simplex.calls": "count",
    "simplex.max_rows": "count", "simplex.max_cols": "count",
    "lp.busy_s": "s", "lp.self_s": "s", "lp.calls": "count",
    "lp.max_den_bits": "bits",
    "measures.busy_s": "s", "measures.calls": "count",
    "lattice.table_s": "s", "lattice.nodes": "count",
    "dp.busy_s": "s", "dp.calls": "count",
    "envelope.kinks": "count", "envelope.grid_s": "s",
    "dpp.busy_s": "s", "dpp.self_s": "s", "dpp.subsolves": "count",
    "dpp.cuts": "count",
    "martingale.busy_s": "s", "martingale.statistics": "count",
    "martingale.us_per_statistic": "us",
    "rules.equivalence_s": "s", "rules.mc_s": "s", "rules.mc_paths_per_s": "1/s",
    "generate.busy_s": "s", "io.load_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


_NOTE_KEYS = ("simplex.max_rows", "simplex.max_cols", "lp.max_den_bits",
              "envelope.kinks", "mc_paths")


def _den_bits(result) -> int:
    """Largest denominator, in bits, among a solve's value, duals and masses."""
    if not result.optimal:
        return 0
    nums = [result.value.fraction(), *result.duals_ineq, *result.duals_eq,
            *result.measure.s.values(), *result.measure.u.values()]
    return max(x.denominator.bit_length() for x in nums)


class Tracer:
    """Records spans while installed; restores every patched attribute on
    uninstall."""

    def __init__(self):
        self._saved = []
        self.clear()

    def clear(self) -> None:
        """Forget recorded spans and notes; installed patches stay."""
        self.spans = []     # [name, start, end, parent index or None]
        self.notes = dict.fromkeys(_NOTE_KEYS, 0)
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid][1] = start
            self.spans[sid][2] = end

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name) as sid:
                result = fn(*args, **kwargs)
            self._observe(name, sid, args, kwargs, result)
            return result
        return traced

    def _observe(self, name, sid, args, kwargs, result) -> None:
        notes = self.notes
        if name == "simplex.solve_lp":
            notes["simplex.max_rows"] = max(notes["simplex.max_rows"], len(args[1]))
            notes["simplex.max_cols"] = max(notes["simplex.max_cols"], len(args[0]))
        elif name == "lp.solve_weak":
            notes["lp.max_den_bits"] = max(notes["lp.max_den_bits"], _den_bits(result))
        elif name == "dp.root_envelope" and self._outermost(sid):
            notes["envelope.kinks"] += len(result.xs)
        elif name == "rules.monte_carlo_value":
            notes["mc_paths"] += kwargs["paths"]

    def install(self) -> None:
        for owner, attr, name in PATCH_POINTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- derived metrics ---------------------------------------------------

    def _outermost(self, sid) -> bool:
        layer = _layer(self.spans[sid][0])
        parent = self.spans[sid][3]
        while parent is not None:
            if _layer(self.spans[parent][0]) == layer:
                return False
            parent = self.spans[parent][3]
        return True

    def _outer(self, layer, name=None):
        return [i for i, s in enumerate(self.spans)
                if _layer(s[0]) == layer and (name is None or s[0] == name)
                and self._outermost(i)]

    def _busy(self, ids) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in ids)

    def _self(self, ids, excluded_layers) -> float:
        """Busy time of ``ids`` minus their direct children in the given layers."""
        chosen = set(ids)
        inside = sum(s[2] - s[1] for s in self.spans
                     if s[3] in chosen and _layer(s[0]) in excluded_layers)
        return self._busy(ids) - inside

    def _count(self, name, parent_layer=None) -> int:
        return sum(1 for s in self.spans if s[0] == name and (
            parent_layer is None or
            (s[3] is not None and _layer(self.spans[s[3]][0]) == parent_layer)))

    def layer_metrics(self) -> dict:
        """Per-layer values of one traced pass, keyed as in LAYER_UNITS."""
        lp_ids = self._outer("lp")
        dpp_ids = self._outer("dpp")
        mart = self._busy(self._outer("martingale"))
        stats = self._count("martingale.statistic")
        mc_s = self._busy(self._outer("rules", "rules.monte_carlo_value"))
        return {
            "simplex.busy_s": self._busy(self._outer("simplex")),
            "simplex.calls": len(self._outer("simplex")),
            "simplex.max_rows": self.notes["simplex.max_rows"],
            "simplex.max_cols": self.notes["simplex.max_cols"],
            "lp.busy_s": self._busy(lp_ids),
            "lp.self_s": self._self(lp_ids, ("simplex", "measures")),
            "lp.calls": len(lp_ids),
            "lp.max_den_bits": self.notes["lp.max_den_bits"],
            "measures.busy_s": self._busy(self._outer("measures")),
            "measures.calls": len(self._outer("measures")),
            "dp.busy_s": self._busy(self._outer("dp")),
            "dp.calls": len(self._outer("dp")),
            "envelope.kinks": self.notes["envelope.kinks"],
            "envelope.grid_s": self._busy(self._outer("bench", "bench.query")),
            "dpp.busy_s": self._busy(dpp_ids),
            "dpp.self_s": self._self(dpp_ids, ("lp",)),
            "dpp.subsolves": self._count("lp.solve_weak", parent_layer="dpp"),
            "dpp.cuts": self._count("dpp.verify_dpp"),
            "martingale.busy_s": mart,
            "martingale.statistics": stats,
            "martingale.us_per_statistic": mart / stats * 1e6 if stats else 0.0,
            "rules.equivalence_s": self._busy(self._outer("bench", "bench.equivalence")),
            "rules.mc_s": mc_s,
            "rules.mc_paths_per_s": self.notes["mc_paths"] / mc_s if mc_s else 0.0,
        }

    def setup_metrics(self) -> dict:
        return {
            "generate.busy_s": self._busy(self._outer("generate")),
            "io.load_s": self._busy(self._outer("io")),
        }


def _layer(name: str) -> str:
    return name.split(".", 1)[0]
