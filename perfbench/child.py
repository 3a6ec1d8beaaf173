"""Run one workload in this (fresh) interpreter and write its result.

``run.py`` starts this file once per measured run, so peak RSS and
import state never carry over from one workload to another::

    python perfbench/child.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --workdir DIR --out RESULT.json [--iterations K]

With ``--trace 0`` the workload sets up ``setup_repeats`` times (the
median is ``setup_s``) and then runs iterations until the next one
would overrun ``--seconds`` (at least one); ``--iterations K`` instead
sets up once and runs exactly K.  With ``--trace 1`` the
layer wrappers are installed first, set-up runs once and exactly one
iteration runs, so every per-layer count repeats exactly for a seed.
Peak RSS covers set-up and the first iteration, whose outputs are then
fingerprinted and checked; later iterations keep only their summaries.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def peak_rss_mb() -> float:
    """Max of this process's and its reaped children's peak RSS (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run(args) -> dict:
    from perfbench.workloads import WORKLOADS

    tracer = None
    if args.trace:
        from perfbench import layers
        from perfbench.tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    result = {"workload": args.workload, "seed": args.seed, "errors": []}
    try:
        # Only a timed run reports setup_s; the others set up once.
        max_iterations = args.iterations or (1 if args.trace else None)
        repeats = workload.setup_repeats if max_iterations is None else 1
        setup_times = []
        for repeat in range(repeats):
            if repeat:
                workload.close()
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
        result["setup_s"] = setup_times

        summaries = []
        attempted = failed = 0
        while True:
            index = len(summaries)
            attempted += 1
            started = time.perf_counter()
            try:
                outputs = workload.iteration(index)
            except Exception as exc:  # noqa: BLE001 - counted and reported
                failed += 1
                result["errors"].append(
                    f"iteration {index}: {type(exc).__name__}: {exc}"
                )
                traceback.print_exc(file=sys.stderr)
                break
            summary = workload.summary(outputs)
            summary["wall_s"] = time.perf_counter() - started
            summaries.append(summary)
            if index == 0:
                # The high-water mark covers set-up and one iteration; it
                # is read before the checks, which hold copies of outputs.
                result["peak_rss_mb"] = peak_rss_mb()
                if tracer is not None:
                    tracer.paused = True
                    result.update(_trace_report(tracer, workload, outputs, args))
                result["fingerprint"] = workload.fingerprint(outputs)
                errors = workload.check(outputs)
                if errors:
                    failed += 1
                    result["errors"].extend(errors)
            del outputs
            measured = sum(s["wall_s"] for s in summaries)
            typical = statistics.median(s["wall_s"] for s in summaries)
            if max_iterations is not None and len(summaries) >= max_iterations:
                break
            if max_iterations is None and measured + typical > args.seconds:
                break

        result["iterations"] = summaries
        if summaries:
            result["headline"] = workload.headline(summaries)
        result["attempted"] = attempted
        result["failed"] = failed
    finally:
        workload.close()
    return result


def _trace_report(tracer, workload, outputs, args) -> dict:
    from perfbench import layers

    trace = tracer.arrays()
    # Beside the run's (temporary) work directory, so it outlives the run.
    trace_path = os.path.join(
        os.path.dirname(args.workdir), f"trace-{args.workload}.npz"
    )
    tracer.save(trace_path)
    counters = dict(tracer.counters)
    if hasattr(workload, "extra_counters"):
        counters.update(workload.extra_counters())
    counters = layers.derived_counters(
        trace, tracer.names, counters, tracer.runtime_runs
    )
    per_layer = layers.per_layer_metrics(trace, tracer.names, counters)
    checks = workload.cross_checks(outputs, counters, per_layer)
    return {
        "per_layer": per_layer,
        "spans": int(len(trace["name"])),
        "trace_path": trace_path,
        "cross_check_errors": checks,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iterations", type=int, default=None)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
