"""One measured process of the benchmark; started by ``run.py``.

Builds the workload's inputs, prints ``ready`` (the parent times set-up
up to that line), then runs rounds of operations until ``--seconds`` of
measured time have passed, checking every output outside the timed part.
With ``--trace 1`` it runs one untraced round, then the same inputs again
under the tracer, and writes the spans to ``<workdir>/spans.json``.  The
last line of its output is a JSON summary for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads
from workloads import Outcome


def run_round(ops: list, tracer=None) -> dict:
    """Run the operations once, timing each.  An untraced round samples
    the host's speed while it runs (see speed.py); the sampler's own time
    is taken out of every latency and of the round's wall time."""
    results = []
    sampler = speed.Sampler()
    with contextlib.nullcontext() if tracer else sampler:
        root = tracer.open(spans.ROOT) if tracer else None
        start = perf_counter()
        for number, op in enumerate(ops, start=1):
            if tracer:
                tracer.op = number
            spent = sampler.spent
            t0 = perf_counter()
            try:
                output, error = op.call(), None
            except Exception as exc:    # a raising operation is a failed one
                output, error = None, f"{type(exc).__name__}: {exc}"
            seconds = perf_counter() - t0 - (sampler.spent - spent)
            results.append((op, seconds, output, error))
        wall = perf_counter() - start - sampler.spent
        if tracer:
            tracer.close(root)
    return {"wall": wall, "results": results,
            "speed": sampler.factor() if sampler.samples else None}


def check_round(workload, round_: dict, traced: bool) -> dict:
    """Check every output; time gates tripped under tracing are reported
    but not counted as failures."""
    counts = {"attempted": 0, "failed": 0, "resolved": 0, "gates": 0}
    errors = []
    latencies = []
    for op, seconds, output, error in round_["results"]:
        if error is None:
            outcomes = workload.check(op, output)
        else:
            outcomes = [Outcome(False, definite=False)] * op.outcomes
            errors.append(f"{op.kind}: {error}")
        for outcome in outcomes:
            counts["attempted"] += 1
            counts["resolved"] += outcome.definite
            counts["gates"] += outcome.gate
            if not outcome.ok and not (traced and outcome.gate):
                counts["failed"] += 1
        latencies.append((op.kind, seconds))
    return {"wall": round_["wall"], "speed": round_["speed"],
            "latencies": latencies,
            "errors": errors[:5], **counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.seed, args.workdir)
    ops = workload.prepare(0)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rounds = []
    measured = 0.0
    while True:
        rounds.append(check_round(workload, run_round(ops), traced=False))
        measured += rounds[-1]["wall"]
        if args.trace or measured >= args.seconds:
            break
        ops = workload.prepare(len(rounds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = {"rounds": rounds, "peak_rss_mb": peak_rss_mb}

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_round(ops, tracer)
        finally:
            tracer.uninstall()
        summary["traced"] = check_round(workload, traced, traced=True)
        path = args.workdir / "spans.json"
        tracer.dump(path)
        summary["spans_file"] = str(path)

    summary["properties"] = workload.properties()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
