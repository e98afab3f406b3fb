"""Run the treestop benchmark: standard library only, one process per run.

    python3 bench/run.py                       # every workload, untraced and traced
    python3 bench/run.py --workload solve-dense --seed 1 --seconds 15 --trace 0

Each run executes bench/worker.py in a fresh process under a time cap; an
overrun is reported as "timeout" and counts as failed.  The run record,
with the spans of a traced run, goes to bench/out/.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is 0 when every operation was correct.
See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

from checkout import BENCH_DIR

WORKLOADS = ("solve-dense", "dp-envelope", "verify-pool")
RUN_CAP_S = 170
WORKER = os.path.join(BENCH_DIR, "worker.py")
OUT_DIR = os.path.join(BENCH_DIR, "out")


class WorkerFailed(Exception):
    """The worker ended without a run record (other than by the time cap)."""


def run_worker(workload, seed, seconds, trace, cap):
    """The worker's run record, or None if it overran ``cap`` seconds."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=cap,
                              env=dict(os.environ, PYTHONHASHSEED="0"))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: worker exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    return record


def describe(record) -> None:
    """Human-readable lines for one run record."""
    rate = record["failed"] / record["attempted"]
    print(f"# {record['workload']} trace={record['trace']} seed={record['seed']} "
          f"python={record['python']} nproc={record['nproc']} "
          f"passes={len(record['pass_s'])}+{len(record.get('traced_pass_s', []))}")
    print("# instances " + " ".join(f"{name}={digest[:12]}"
                                   for name, digest in record["instances"].items()))
    for name, m in record["metrics"].items():
        print(f"{record['workload']}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    print(f"{record['workload']}\terror_rate\t{rate:.6g}\t"
          f"({record['failed']}/{record['attempted']})")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="default: 0 for one workload, both for all")
    args = parser.parse_args()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace is not None:
        traces = (args.trace,)
    else:
        traces = (0, 1) if args.workload == "all" else (0,)
    started = time.monotonic()
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        for trace in traces:
            cap = RUN_CAP_S - (time.monotonic() - started) if len(workloads) == 1 \
                else RUN_CAP_S
            try:
                record = run_worker(workload, args.seed, args.seconds, trace, cap)
            except WorkerFailed as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if record is None:
                print(f"# {workload} trace={trace}: timeout after {cap:.0f} s")
                result.update(correct=False, attempted=result["attempted"] + 1,
                              failed=result["failed"] + 1)
                continue
            describe(record)
            result["correct"] = result["correct"] and record["failed"] == 0
            result["attempted"] += record["attempted"]
            result["failed"] += record["failed"]
            prefix = "" if len(workloads) == 1 else workload + "/"
            for name, m in record["metrics"].items():
                result["metrics"][prefix + name] = m
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
