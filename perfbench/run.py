#!/usr/bin/env python3
"""Benchmark of the graphconf command line, run in-process.

    python3 perfbench/run.py --workload homology --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Jobs run one after another in this process (a closed
loop with one client) by calling `graphconf.cli.main(argv)` with stdout and
stderr captured.  With `--trace 0` the workload is repeated in whole passes
for about `--seconds` seconds and the end-to-end metrics are printed, as
medians over passes.  With `--trace 1` each job runs once untraced and
once traced, and the per-layer metrics of the traced runs are printed
together with the tracing overhead.  Every job's output is checked either
way; the last line of stdout is one JSON object with the result.

The end-to-end times are scaled to a reference machine speed: a fixed
loop, timed around and during every job, measures how fast the machine
runs at that moment (see speed.py).  The raw pass times are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "geomean_job_s": "s",
    "max_job_s": "s",
    "peak_rss_mib": "MiB",
}


def _import_package():
    if not (SRC / "graphconf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no graphconf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphconf.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: graphconf imported from {cli.__file__}, not {SRC}")
    return cli


def run_pass(cli, jobs, graph_paths, tracer=None, calibrate=False):
    """Run each job once; returns (outcomes, seconds for the whole pass).
    With `calibrate`, the machine speed is sampled around and during every
    job (see speed.py) and stored as the outcome's slowness."""
    outcomes = []
    start = perf_counter()
    meter = speed.Meter() if calibrate else None
    for job in jobs:
        argv = job.resolve(graph_paths)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = job.id
        code, error = None, None
        with meter.job() if meter else contextlib.nullcontext({}) as timing:
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a failing job is counted, never aborts the run
                error = traceback.format_exc(limit=-3)
            elapsed = perf_counter() - t0
        outcome = workloads.Outcome(job, code, out.getvalue(), timing.get("seconds", elapsed),
                                    error, slowness=timing.get("slowness", 1.0))
        outcomes.append(outcome)
    return outcomes, perf_counter() - start


def measure_setup(seed: int, workdir: Path, repeats: int) -> list[float]:
    """Interpreter start to first job ready, in fresh interpreters, each
    scaled to the reference machine speed."""
    times = []
    before = speed.edge_seconds()
    for k in range(repeats):
        code = (
            f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads; "
            f"workloads.prepare({seed}, {str(workdir / f'setup{k}')!r}); print('ready', flush=True)"
        )
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - t0
            child.stdout.read()
        if line.strip() != "ready" or child.returncode:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        after = speed.edge_seconds()
        times.append(elapsed / speed.slowness((before + after) / 2))
        before = after
    return times


def _report_failures(outcomes) -> None:
    for o in outcomes:
        for problem in o.problems:
            print(f"FAILED {o.job.id}: {problem}", file=sys.stderr)


def run_untraced(cli, jobs, graph_paths, seconds: float):
    """Whole passes for about `seconds`: another pass starts while at least
    half a typical pass still fits.  Job times are scaled to the reference
    machine speed.  Returns metrics, attempted and failed."""
    walls, geomeans, maxima, raw_walls = [], [], [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        outcomes, raw_wall = run_pass(cli, jobs, graph_paths, calibrate=True)
        failed += workloads.check_pass(outcomes)
        attempted += len(outcomes)
        _report_failures(outcomes)
        times = [o.ref_seconds for o in outcomes]
        walls.append(sum(times))
        geomeans.append(statistics.geometric_mean(times))
        maxima.append(max(times))
        raw_walls.append(raw_wall)
        if perf_counter() - start + statistics.median(raw_walls) / 2 > seconds:
            break
    slow = [o.slowness for o in outcomes]
    print(f"passes: {len(walls)}; pass seconds, raw with calibration: "
          f"{' '.join(f'{w:.3f}' for w in raw_walls)}; at reference speed: "
          f"{' '.join(f'{w:.3f}' for w in walls)}; last pass slowness "
          f"{min(slow):.3f}..{max(slow):.3f}")
    metrics = {
        "wall_s": statistics.median(walls),
        "geomean_job_s": statistics.median(geomeans),
        "max_job_s": statistics.median(maxima),
    }
    return metrics, attempted, failed


def run_traced(cli, jobs, graph_paths, trace_file: Path | None = None):
    """Run each job untraced and then traced, back to back, so that both
    runs of a job see the same machine speed.

    A traced job fails when its output is wrong or its exit code or stdout
    differs from the untraced run.  Returns (per-layer metrics, untraced
    outcomes, traced outcomes).
    """
    tracer = tracing.Tracer()
    untraced, traced = [], []
    for job in jobs:
        untraced += run_pass(cli, [job], graph_paths)[0]
        with tracing.installed(tracer):
            traced += run_pass(cli, [job], graph_paths, tracer)[0]
    workloads.check_pass(untraced)
    workloads.check_pass(traced)
    for u, t in zip(untraced, traced):
        if (u.exit_code, u.stdout) != (t.exit_code, t.stdout):
            t.problems.append("stdout or exit code differs from the untraced run")
    if trace_file is not None:
        tracer.dump(trace_file)
    metrics = tracing.layer_metrics(tracer)
    untraced_wall = sum(o.seconds for o in untraced)
    traced_wall = sum(o.seconds for o in traced)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics, untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["homology", "generate", "stages", "cells"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cli = _import_package()
    jobs = workloads.job_order(workloads.workload_jobs(ROOT)[args.workload], args.seed)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        if args.trace:
            graph_paths = workloads.prepare(args.seed, str(workdir / "graphs"))
            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            values, untraced, traced = run_traced(cli, jobs, graph_paths, trace_file)
            outcomes = untraced + traced
            _report_failures(outcomes)
            attempted, failed = len(outcomes), sum(1 for o in outcomes if o.problems)
            print(f"trace written to {trace_file.relative_to(ROOT)}")
        else:
            setups = measure_setup(args.seed, workdir, SETUP_REPEATS)
            graph_paths = workloads.prepare(args.seed, str(workdir / "graphs"))
            measured, attempted, failed = run_untraced(cli, jobs, graph_paths, args.seconds)
            measured["setup_s"] = statistics.median(setups)
            measured["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {name: (measured[name], unit) for name, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in values.items():
        print(f"{name:<66} {value:>14.6g} {unit}")
    print(f"{'failed_frac':<66} {failed / attempted:>14.6g} ratio ({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
