#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

Run one workload, as ``BENCHMARK.json``'s command is invoked::

    python3 bench/run.py --workload serve_toy --seed 3 --seconds 18 --trace 0

It builds what it needs from the checkout's ``src/``, measures for
``--seconds``, checks every output, prints each metric as
``workload metric value unit`` and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` is a separate run with
spans around each layer and reports the per-layer metrics instead.

Name several workloads, or pass ``--repeat N``, to run each
(workload, seed) in a fresh subprocess -- seeds ``S .. S+N-1`` -- and
report every metric's median, quartiles and relative spread;
``--out FILE`` also writes all runs as JSON.  ``--smoke`` runs every
workload for about two seconds and lifts the sample-size rule on tail
percentiles; it checks plumbing, not performance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from typing import Dict, List

from measure import RUN_ENV, ROOT, SRC, BenchError, load_spec, quartiles, result_line

SMOKE_SECONDS = 2.0


def _workload_names() -> List[str]:
    return [entry["name"] for entry in load_spec()["workloads"]]


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """One (workload, seed) in this process; returns the exit code."""
    import pipeline
    import serving
    import workloads

    spec = load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    workload = workloads.WORKLOADS[name]
    module = pipeline if isinstance(workload, workloads.PipelineWorkload) else serving
    try:
        result = module.run(workload, seed, seconds, trace, smoke)
    except BenchError as exc:
        print(f"{name}: invalid run: {exc}", file=sys.stderr)
        return 2
    print(f"{name} fingerprint {result.fingerprint}")
    if result.violations:
        for violation in result.violations:
            print(f"{name}: correctness violation: {violation}", file=sys.stderr)
        return 1
    measured = dict(result.metrics)
    unknown = sorted(set(measured) - set(units))
    missing = sorted(set(units) - set(measured))
    if unknown or (missing and not trace):
        print(f"{name}: metrics {unknown} undeclared, {missing} not measured", file=sys.stderr)
        return 2
    # a per-layer metric of a layer this workload never enters reads 0
    metrics = {
        metric: {"value": float(measured.get(metric, 0.0)), "unit": unit}
        for metric, unit in units.items()
    }
    for metric, entry in metrics.items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    print(result_line(True, result.attempted, result.failed, metrics))
    return 0


def _environment() -> Dict:
    import numpy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None
    return {
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")
        or os.environ.get("OMP_NUM_THREADS")
        or "default",
        "malloc_arenas": os.environ.get("MALLOC_ARENA_MAX") or "default",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_many(args) -> int:
    """Every (workload, seed) in a fresh subprocess; medians and spreads."""
    runs = []
    for name in args.workload:
        for offset in range(args.repeat):
            seed = args.seed + offset
            argv = [
                sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.Popen(
                argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
            )
            try:
                stdout, stderr = proc.communicate()
            except BaseException:
                proc.terminate()  # lets the run stop its servers
                proc.wait()
                raise
            sys.stderr.write(stderr)
            lines = stdout.strip().splitlines()
            record = {"workload": name, "seed": seed, "exit": proc.returncode}
            if proc.returncode == 0 and lines:
                record.update(json.loads(lines[-1]))
                record["fingerprint"] = lines[0].split()[-1]
            runs.append(record)
            status = "ok" if proc.returncode == 0 else f"FAILED (exit {proc.returncode})"
            print(f"# {name} seed {seed}: {status}", flush=True)

    summary: Dict[str, Dict] = {}
    for name in args.workload:
        good = [run for run in runs if run["workload"] == name and run["exit"] == 0]
        if not good:
            continue
        for metric, entry in good[0]["metrics"].items():
            stats = quartiles([run["metrics"][metric]["value"] for run in good])
            stats["unit"] = entry["unit"]
            summary[f"{name}.{metric}"] = stats
            print(
                f"{name} {metric} {stats['median']:.6g} {entry['unit']} "
                f"(q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, "
                f"spread {stats['spread'] * 100:.1f}%, n={stats['n']})"
            )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {"environment": _environment(), "seconds": args.seconds,
                 "trace": args.trace, "runs": runs, "summary": summary},
                handle, indent=1,
            )
    ok = all(run["exit"] == 0 for run in runs)
    print(result_line(
        ok,
        sum(run.get("attempted", 0) for run in runs),
        sum(run.get("failed", 0) for run in runs),
        {key: {"value": stats["median"], "unit": stats["unit"]} for key, stats in summary.items()},
    ))
    return 0 if ok else 1


def _terminate(signum, frame):
    # unwinds through every ``finally``, so servers and subprocesses stop
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    # before numpy loads: servers and run subprocesses inherit it too
    os.environ.update(RUN_ENV)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(load_spec()["run_seconds"])
    names = _workload_names()
    args.workload = args.workload or names
    unknown = [name for name in args.workload if name not in names]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {names}")
    if len(args.workload) == 1 and args.repeat == 1 and not args.out:
        return run_one(args.workload[0], args.seed, args.seconds, bool(args.trace), args.smoke)
    return run_many(args)


if __name__ == "__main__":
    sys.exit(main())
