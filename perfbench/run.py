"""Benchmark entry point: one workload per call, each in a fresh interpreter.

Usage, from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the workload's end-to-end table and, as the last
line, a JSON object whose ``metrics`` are the ``end_to_end`` metrics of
``BENCHMARK.json``.  ``--trace 1`` runs the workload twice — once
untraced, once with every layer wrapped — prints the per-layer table,
the wrapper cross-checks and the tracing overhead, and ends with the
``per_layer`` metrics.  ``--workload all`` runs the four workloads one
after another.

A run is correct when the workload's output checks pass, its
fingerprint equals the one recorded in ``fingerprints.json`` for the
same seed (when one is recorded), and, traced, every cross-check holds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "service", "packet", "analysis")
#: The children measuring one workload must end within this many seconds.
BUDGET_S = 170.0


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _reference_fingerprints() -> dict:
    path = os.path.join(HERE, "fingerprints.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_child(workload: str, seed: int, seconds: float, trace: int, workdir: str,
              deadline: float, iterations: int | None = None) -> dict:
    """Run one workload in a fresh interpreter and return its result.

    A child still running at ``deadline`` (``time.monotonic()``) is
    killed and waited for.
    """
    timeout_s = max(deadline - time.monotonic(), 1.0)
    out = os.path.join(workdir, f"result-{workload}-{trace}.json")
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", workdir, "--out", out,
    ]
    if iterations is not None:
        command += ["--iterations", str(iterations)]
    env = dict(os.environ)
    # The program's own temporary files (timeline spills, default spill
    # directories) stay inside the checkout too.
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    src = os.path.join(ROOT, "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    completed = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout_s)
    if completed.returncode != 0 or not os.path.exists(out):
        raise RuntimeError(f"{workload} child exited with code {completed.returncode}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    if not result["iterations"]:
        raise RuntimeError(f"{workload} completed no iteration: {result['errors']}")
    return result


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics of one untraced run.

    ``work_per_s`` is the workload's work units (records, campaigns or
    simulated flow-seconds) per second of measured time, over every
    iteration; unlike ``wall_s`` it does not move with how much work a
    seed's inputs happen to hold.
    """
    iterations = result["iterations"]
    walls = [it["wall_s"] for it in iterations]
    return {
        "setup_s": {"value": statistics.median(result["setup_s"]), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "work_per_s": {
            "value": sum(it["work"] for it in iterations) / sum(walls),
            "unit": "1/s",
        },
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def verdict(result: dict, references: dict) -> tuple[int, int, list[str]]:
    """``(attempted, failed, errors)`` including the fingerprint check."""
    errors = list(result.get("errors", []))
    attempted = result.get("attempted", 1)
    failed = result.get("failed", 1 if errors else 0)
    expected = references.get(result["workload"], {}).get(str(result["seed"]))
    if expected is not None and result.get("fingerprint") != expected:
        errors.append(
            f"fingerprint {result.get('fingerprint')} differs from the recorded "
            f"{expected} for seed {result['seed']}"
        )
        failed = max(failed, 1)
    return attempted, failed, errors


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, metric in metrics.items():
        samples = f"  (n={metric['samples']})" if "samples" in metric else ""
        value = metric["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<42} {text:>14} {metric['unit']}{samples}")


def timed_run(
    workload: str, seed: int, seconds: float, workdir: str, references: dict
) -> dict:
    deadline = time.monotonic() + BUDGET_S
    result = run_child(workload, seed, seconds, 0, workdir, deadline)
    attempted, failed, errors = verdict(result, references)
    metrics = end_to_end(result)
    shown = dict(metrics)
    shown.update(result.get("headline", {}))
    shown["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    _print_table(f"[{workload}] seed={seed} end-to-end "
                 f"({len(result['iterations'])} iteration(s), "
                 f"fingerprint {result.get('fingerprint')})", shown)
    for error in errors:
        print(f"  ERROR {error}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def traced_run(
    workload: str, seed: int, seconds: float, workdir: str, references: dict
) -> dict:
    deadline = time.monotonic() + BUDGET_S
    plain = run_child(workload, seed, seconds, 0, workdir, deadline, iterations=1)
    traced = run_child(workload, seed, seconds, 1, workdir, deadline)
    errors = []
    attempted = failed = 0
    for result in (plain, traced):
        a, f, e = verdict(result, references)
        attempted, failed, errors = attempted + a, failed + f, errors + e
    if plain.get("fingerprint") != traced.get("fingerprint"):
        errors.append("the traced run's outputs differ from the untraced run's")
        failed += 1
    for check in traced.get("cross_check_errors", []):
        errors.append(f"cross-check: {check}")
    failed += bool(traced.get("cross_check_errors"))
    per_layer = traced.get("per_layer", {})
    plain_s = plain["iterations"][0]["wall_s"]
    overhead_s = traced["iterations"][0]["wall_s"] - plain_s
    per_layer["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    per_layer["trace.spans"] = {"value": traced.get("spans", 0), "unit": "count"}
    _print_table(
        f"[{workload}] seed={seed} per-layer (one traced iteration)", per_layer
    )
    print(f"  tracing overhead: {overhead_s:+.3f} s on a {plain_s:.3f} s "
          f"iteration ({100 * overhead_s / plain_s:+.1f}%)")
    held = not traced.get("cross_check_errors")
    print(f"  cross-checks: {'all hold' if held else 'FAILED'}")
    print(f"  spans: {os.path.relpath(traced['trace_path'], ROOT)}")
    for error in errors:
        print(f"  ERROR {error}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    references = _reference_fingerprints()
    scratch_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch_root)
    try:
        reports = {}
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            run = traced_run if args.trace else timed_run
            report = run(workload, args.seed, args.seconds, workdir, references)
            missing = [name for name in wanted if name not in report["metrics"]]
            if missing:
                raise RuntimeError(f"{workload} did not report {missing}")
            reports[workload] = report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, report in reports.items()
                for name, metric in report["metrics"].items()
                if name in wanted
            },
        }
    else:
        report = reports[args.workload]
        metrics = {name: report["metrics"][name] for name in wanted}
        summary = dict(report, metrics=metrics)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
