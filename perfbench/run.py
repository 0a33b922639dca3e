"""lnz benchmark: four workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload battery --seed 1 --seconds 5 --trace 0

Workloads: battery, sparse_docs, dense_docs, equiv (see workloads.py for
what each runs and why).  The inputs are generated from ``--seed`` into a
temporary directory inside the working directory, removed at the end.
Each run starts fresh interpreters with ``src`` on the path and
``LNZ_SEED`` cleared, so the program sees only the generated inputs.

``--trace 0`` prints the end-to-end metrics.  Times are scaled to a
reference host speed sampled during the work (see speed.py); the raw
times are on the line before the result.

* ``wall_s``: median time of one round of the workload's operations;
  rounds repeat until ``--seconds`` of measured time have passed.
* ``setup_s``: median, over nine processes, of the time from starting the
  interpreter to having imported lnz and generated the inputs.
* ``peak_rss_mb``: peak resident set of the measured process.
* ``resolved_ratio``: share of operations with a definite answer; below 1
  only on ``equiv``, where Unknown verdicts count against it.

``--trace 1`` runs one untraced round and then the same inputs under the
span tracer of spans.py, and prints the per-layer metrics instead.

Operations whose output check fails or that raise are counted in
``failed``; ``correct`` is true when none failed and, traced, the span
tree is sound (see ``spans.tree_problems``), every function the workload
is known to call was recorded, and the self times add up to the root
span's duration.  Workload-specific figures (per-command latency sums,
decision latency percentiles, input properties, raw times) are printed
as a JSON line before the result line.  Metric names and units are read
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import spans
import speed

SETUP_PROBES = 8        # set-up-only processes besides the measured one
SETUP_STEPS = 4         # speed samples before and after each set-up
DEADLINE_S = 170        # a run must end within 180 s, set-up included
WORKLOADS = ("battery", "sparse_docs", "dense_docs", "equiv")
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SPEC = HERE.parent / "BENCHMARK.json"


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(SPEC, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("LNZ_SEED", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, workdir: Path, env: dict, setup_only: bool,
                 started: list):
    """Start a worker and wait for its ``ready`` line; returns the process,
    the seconds from start to ready, and the speed factor sampled just
    before and after.  The process is appended to ``started`` so that the
    caller can stop it whatever happens."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        argv.append("--setup-only")
    workdir.mkdir(parents=True)
    samples = [speed.time_step() for _ in range(SETUP_STEPS)]
    t0 = perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            text=True)
    started.append(proc)
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    samples += [speed.time_step() for _ in range(SETUP_STEPS)]
    if line.strip() != "ready":
        raise RuntimeError(f"worker failed during set-up: {line!r}")
    return proc, ready, speed.factor(samples)


def finish_worker(proc, deadline: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"run lasted longer than {DEADLINE_S}s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def details(workload: str, rounds: list, summary: dict) -> dict:
    """Workload-specific figures, scaled like ``wall_s``: per-command sums
    on the document workloads, decision rate and latency percentiles on
    equiv."""
    out = {"workload": workload, "rounds": len(rounds),
           "input_properties": summary["properties"],
           "speed_factors": [r["speed"] for r in rounds],
           "raw_wall_s": statistics.median(r["wall"] for r in rounds)}
    if workload.endswith("_docs"):
        for kind in ("check", "analyze", "transform"):
            out[f"{kind}_s"] = statistics.median(
                r["speed"] * sum(s for k, s in r["latencies"] if k == kind)
                for r in rounds)
    if workload == "equiv":
        lat = [s * r["speed"] * 1e3
               for r in rounds for _, s in r["latencies"]]
        scaled = sum(r["wall"] * r["speed"] for r in rounds)
        out.update({"pairs_per_s": len(lat) / scaled,
                    "p50_ms": percentile(lat, 0.50),
                    "p99_ms": percentile(lat, 0.99),
                    "samples": len(lat)})
    out["gates_tripped"] = sum(r["gates"] for r in rounds)
    errors = [e for r in rounds for e in r["errors"]]
    if errors:
        out["errors"] = errors[:5]
    return out


def untraced_metrics(rounds: list, summary: dict, setups: list) -> dict:
    """``setups`` holds (seconds, speed factor) of each set-up."""
    attempted = sum(r["attempted"] for r in rounds)
    return {
        "wall_s": statistics.median(r["wall"] * r["speed"] for r in rounds),
        "setup_s": statistics.median(s * f for s, f in setups),
        "peak_rss_mb": summary["peak_rss_mb"],
        "resolved_ratio": sum(r["resolved"] for r in rounds) / attempted,
    }


def traced_metrics(workload: str, summary: dict) -> tuple:
    """Per-layer metric values, and what is wrong with the trace: an
    unsound span tree, an expected function never recorded, or self
    times that do not add up to the root span."""
    with open(summary["spans_file"], encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = spans.tree_problems(doc["spans"], summary["traced"]["wall"])
    if any("never closed" in p for p in problems):
        raise RuntimeError(f"trace is incomplete: {problems}")
    values, root_s, self_sum = spans.layer_metrics(doc)
    values["trace_overhead_ratio"] = (summary["traced"]["wall"]
                                      / summary["rounds"][0]["wall"])
    problems += [f"no call of {name} recorded"
                 for name in spans.EXPECTED_CALLS[workload]
                 if not values[f"{name}.calls"]]
    if abs(self_sum - root_s) > 1e-6 * max(1.0, root_s):
        problems.append(f"self times sum to {self_sum}, root is {root_s}")
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lnz" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/lnz not found",
              file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    # a terminated run still stops its workers and removes its inputs
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    env = worker_env(root)
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    started = []
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_PROBES):
                proc, ready, factor = start_worker(
                    args, tmp / f"probe{k}", env, True, started)
                proc.wait(timeout=max(0.0, deadline - perf_counter()))
                setups.append((ready, factor))
        proc, ready, factor = start_worker(args, tmp / "run", env, False,
                                           started)
        setups.append((ready, factor))
        summary = finish_worker(proc, deadline)
        rounds = summary["rounds"]
        info = details(args.workload, rounds, summary)
        checked = list(rounds)
        if args.trace:
            units = metric_units("per_layer")
            values, problems = traced_metrics(args.workload, summary)
            checked.append(summary["traced"])
            info["traced_gates_tripped"] = summary["traced"]["gates"]
            if problems:
                info["trace_problems"] = problems
        else:
            units = metric_units("end_to_end")
            values, problems = untraced_metrics(rounds, summary, setups), []
            info["raw_setup_s"] = statistics.median(s for s, _ in setups)
        metrics = {name: (values[name], unit) for name, unit in units.items()}
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        for proc in started:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
