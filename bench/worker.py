"""One benchmark run of one workload, in a process of its own.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

bench/run.py starts this under a time cap; it prints one JSON line, the
run record.  Untraced (--trace 0), it sets up the workload repeatedly,
then repeats passes over the job list until S seconds have gone, and
reports medians.  Traced (--trace 1), it alternates untraced and traced
passes for S seconds and reports the per-layer metrics of the traced
passes, plus the tracing overhead between the two kinds.  Every time is
rescaled to the reference CPU speed (see speed.py).
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from statistics import median

import speed
from checkout import use_checkout_src

SETUP_MIN_REPS = 5
SETUP_MIN_S = 2.0
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MAX_FAILURES_LISTED = 50


def timed_setups(wl, args):
    """Set the workload up repeatedly; return the instances and the scaled
    time of every repetition."""
    probe = speed.SpeedProbe()
    raw = []
    while len(raw) < SETUP_MIN_REPS or sum(raw) < SETUP_MIN_S:
        before = len(probe.samples)
        with probe:
            start = time.perf_counter()
            instances = wl.setup(args.workload, args.seed, wl.read_references())
            took = time.perf_counter() - start
        raw.append(took - sum(probe.samples[before:]))
    factor = probe.factor()
    return instances, [r * factor for r in raw]


def lattice_sweep(instances) -> dict:
    """Cold node-table cost: cumulative_functionals and euler_state at every
    node of a freshly loaded copy of each distinct instance."""
    from treestop import io as tio, lattice
    docs = {tio.instance_hash(inst.doc): inst.doc for inst in instances}

    def sweep():
        nodes = 0
        for doc in docs.values():
            tree = tio.load_instance(doc)
            for word in tree.nodes():
                lattice.cumulative_functionals(tree, word)
                lattice.euler_state(tree, word)
                nodes += 1
        return nodes

    nodes, seconds, _ = speed.timed(sweep)
    return {"lattice.table_s": seconds, "lattice.nodes": nodes}


def untraced_run(wl, args, record) -> dict:
    instances, setups = timed_setups(wl, args)
    record["instances"] = wl.instance_hashes(instances)
    tally = wl.Tally()
    scaled, raw = [], []
    start = time.perf_counter()
    while not scaled or time.perf_counter() - start < args.seconds:
        _, took, wall = speed.timed(lambda: wl.run_pass(instances, tally))
        scaled.append(took)
        raw.append(wall)
    record.update(setup_s=setups, pass_s=scaled, raw_pass_s=raw, tally=tally)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": median(scaled), "setup_s": median(setups),
            "peak_rss_mb": peak_kib / 1024}


def _rescale(values: dict, units: dict, factor: float) -> dict:
    """Times scale by the speed factor and rates by its inverse; counts stay."""
    out = {}
    for name, value in values.items():
        unit = units[name]
        out[name] = value * factor if unit in ("s", "us") else \
            value / factor if unit == "1/s" else value
    return out


def traced_run(wl, spans, args, record) -> dict:
    tracer = spans.Tracer()
    tracer.install()
    try:
        instances, took, wall = speed.timed(
            lambda: wl.setup(args.workload, args.seed, wl.read_references()))
    finally:
        tracer.uninstall()
    factor = took / wall
    record["instances"] = wl.instance_hashes(instances)
    metrics = _rescale(tracer.setup_metrics(), spans.LAYER_UNITS, factor)
    setup_spans = tracer.spans

    tally = wl.Tally()
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        if len(traced) < len(plain):
            tracer.clear()
            tracer.install()
            tally.tracer = tracer
            try:
                _, took, wall = speed.timed(lambda: wl.run_pass(instances, tally))
            finally:
                tracer.uninstall()
                tally.tracer = None
            traced.append(took)
            per_pass.append(_rescale(tracer.layer_metrics(), spans.LAYER_UNITS,
                                     took / wall))
        else:
            plain.append(speed.timed(lambda: wl.run_pass(instances, tally))[1])
    for name in per_pass[0]:
        metrics[name] = median(p[name] for p in per_pass)
    metrics.update(lattice_sweep(instances))
    metrics["trace.wall_s"] = median(traced)
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    record.update(pass_s=plain, traced_pass_s=traced, tally=tally,
                  spans={"setup": setup_spans, "last_traced_pass": tracer.spans})
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        use_checkout_src()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads as wl
    if args.workload not in wl.SPECS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.SPECS)}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0))}
    if args.trace:
        import spans
        values = traced_run(wl, spans, args, record)
        units = spans.LAYER_UNITS
    else:
        values = untraced_run(wl, args, record)
        units = E2E_UNITS
    tally = record.pop("tally")
    record.update(
        attempted=tally.attempted, failed=len(tally.failures),
        failures=tally.failures[:MAX_FAILURES_LISTED],
        metrics={name: {"value": values[name], "unit": unit}
                 for name, unit in units.items()})
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
