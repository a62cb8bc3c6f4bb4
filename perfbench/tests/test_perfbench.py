"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest -q perfbench/tests

The traced-run tests take a few minutes: every job of every workload runs
twice untraced and twice traced.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from graphconf import cli, generation, gio  # noqa: E402

SEED = 3
WORKLOADS = ("homology", "generate", "stages", "cells")
JOBS = workloads.workload_jobs(ROOT)


@pytest.fixture(scope="module")
def graph_paths():
    workdir = run.WORK / f"test-{os.getpid()}"
    yield workloads.write_graphs(SEED, workdir)
    shutil.rmtree(workdir, ignore_errors=True)


@pytest.fixture(scope="module")
def traced(graph_paths):
    """Two traced runs per workload: name -> [(metrics, untraced, traced)] * 2."""
    return {
        name: [run.run_traced(cli, workloads.job_order(JOBS[name], SEED), graph_paths)
               for _ in range(2)]
        for name in WORKLOADS
    }


def _value(metrics, name):
    return metrics[name][0]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_stdout_is_identical_and_correct(traced, name):
    for _, untraced, traced_run in traced[name]:
        assert [o.job.id for o in untraced] == [o.job.id for o in traced_run]
        for u, t in zip(untraced, traced_run):
            assert (u.exit_code, u.stdout) == (t.exit_code, t.stdout), u.job.id
            assert not u.problems and not t.problems, (u.problems, t.problems)


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_counts_repeat_exactly(traced, name):
    (first, _, _), (second, _, _) = traced[name]
    assert first.keys() == second.keys()
    counts = {k for k, (_, unit) in first.items() if unit == "count"}
    assert {"snf.snf.calls", "morphisms.iter_tm.yielded", "discretized.cells",
            "snf.snf.nnz_in", "swiatkowski.enumerate_cells.cells"} <= counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_bypass_predictions(traced):
    m = {name: runs[0][0] for name, runs in traced.items()}
    for name in ("homology", "cells"):
        assert _value(m[name], "morphisms.iter_tm.yielded") == 0
        assert _value(m[name], "snf.SNFResult.kernel_coords.calls") == 0
    # stages enumerates no generator copies; its only iter_tm use is the
    # single-witness minor search inside gtm_k_member (robertson stages)
    assert _value(m["stages"], "generation.generator_images.calls") == 0
    gtm = _value(m["stages"], "morphisms.gtm_k_member.calls")
    assert _value(m["stages"], "morphisms.iter_tm.calls") == gtm
    assert _value(m["stages"], "morphisms.iter_tm.yielded") <= gtm
    assert _value(m["generate"], "morphisms.iter_tm.yielded") > 0
    assert _value(m["generate"], "snf.SNFResult.kernel_coords.calls") > 0
    cell_layers = [k for k in m["cells"] if k.startswith(("swiatkowski.", "cographs."))
                   and k.endswith(".calls")]
    assert cell_layers
    for name in ("homology", "generate", "stages"):
        assert all(_value(m[name], k) == 0 for k in cell_layers), name
    assert all(_value(m["cells"], k) > 0 for k in cell_layers)
    assert _value(m["cells"], "snf.snf.calls") == 0


def test_every_binding_is_wrapped_and_restored():
    # the package re-exports the function `homology` over the submodule name
    module = lambda name: importlib.import_module(f"graphconf.{name}")  # noqa: E731
    bindings = [
        ("homology", "snf"), ("generation", "snf"), ("cli", "build_discretized"),
        ("generation", "build_discretized"), ("discretized", "build_discretized"),
        ("generation", "is_sufficiently_subdivided"), ("generation", "iter_tm"),
        ("cographs", "is_cograph"),
    ]
    originals = [getattr(module(mod), attr) for mod, attr in bindings]
    snf_result = module("snf").SNFResult
    method = snf_result.kernel_coords
    with tracing.installed(tracing.Tracer()):
        for (mod, attr), fn in zip(bindings, originals):
            assert getattr(module(mod), attr).__wrapped__ is fn, (mod, attr)
        assert snf_result.kernel_coords.__wrapped__ is method
    assert [getattr(module(mod), attr) for mod, attr in bindings] == originals
    assert snf_result.kernel_coords is method


def test_calibrated_job_is_correct_and_restores_the_timer(graph_paths):
    handler = signal.getsignal(signal.SIGALRM)
    job = next(j for j in JOBS["homology"] if j.id == "homology/K4-n2-e1-ordered")
    (o,), wall = run.run_pass(cli, [job], graph_paths, calibrate=True)
    assert not workloads.check_job(o)
    assert 0 < o.seconds < wall and o.slowness > 0
    assert o.ref_seconds == o.seconds / o.slowness
    with pytest.raises(ZeroDivisionError):
        with speed.Meter().job():
            1 / 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_missing_target_fails_loudly(monkeypatch):
    snf_module = importlib.import_module("graphconf.snf")
    original = snf_module.snf
    targets = tracing.TARGETS + (tracing.Target("snf", "renamed_away"),)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    with pytest.raises(tracing.TracingError, match="snf.renamed_away"):
        with tracing.installed(tracing.Tracer()):
            pass
    assert snf_module.snf is original


def test_generate_span_matches_brute_force(graph_paths):
    """Re-derive each frozen generate span through the oracle that
    enumerates every morphism image without deduplication (untimed)."""
    for job in JOBS["generate"]:
        args = cli.build_parser().parse_args(job.resolve(graph_paths))
        ctx = generation.build_ambient(gio.load_graph(args.graph), args.i, args.n,
                                       args.extra_subdivision, ordered=not args.unordered)
        gens = generation.GeneratorList.of(*(gio.load_graph(p) for p in args.gens))
        span = generation.brute_force_span(ctx, gens)
        assert span.free_rank() == job.expect["achieved_rank"], job.id
        assert span.is_full() == job.expect["is_generated"], job.id


def test_inputs_depend_only_on_the_seed(tmp_path):
    first = workloads.write_graphs(5, tmp_path / "a")
    again = workloads.write_graphs(5, tmp_path / "b")
    other = workloads.write_graphs(6, tmp_path / "c")
    read = lambda paths: {k: Path(p).read_text() for k, p in paths.items()}  # noqa: E731
    assert read(first) == read(again)
    assert read(first) != read(other)
    for name, g in workloads.base_graphs().items():
        h = gio.load_graph(first[name])
        assert (len(h.vertices), len(h.edges)) == (len(g.vertices), len(g.edges))
        assert sorted(map(h.degree, h.vertices)) == sorted(map(g.degree, g.vertices))


def _outcome(job, **out):
    return workloads.Outcome(job, 0, json.dumps({**job.expect, **out}), 0.1)


def test_oracle_rejects_wrong_outputs():
    theta0, theta1 = JOBS["homology"][:2]
    assert workloads.check_pass([_outcome(theta0), _outcome(theta1)]) == 0
    assert workloads.check_job(_outcome(theta0, betti=[1, 2, 0, 0]))
    assert workloads.check_job(_outcome(theta0, euler=0, cells=[1, 1, 0, 0]))
    assert workloads.check_job(workloads.Outcome(theta0, 2, "", 0.1))
    assert workloads.check_job(workloads.Outcome(theta0, None, "", 0.1, error="boom"))
    # a level with nothing frozen is still caught by the cross-level check
    shifted = [_outcome(theta0), _outcome(theta1)]
    shifted[1].job = workloads.Job(theta1.id, theta1.argv, {}, theta1.group)
    shifted[1].stdout = json.dumps({**theta1.expect, "betti": [1, 4, 1, 0]})
    assert workloads.check_pass(shifted) == 2
    gen = JOBS["generate"][0]
    echoed = _outcome(gen, ordered=True, extra_subdivision=0)
    assert not workloads.check_job(echoed)


def test_k5_expectation_comes_from_the_golden_file():
    golden = json.loads((ROOT / workloads.GOLDEN_K5).read_text())
    k5 = [j for j in JOBS["homology"] if j.id.startswith("homology/K5-")]
    assert k5 and all(j.expect["torsion"] == golden["torsion"] == [[], [2], []] for j in k5)
    assert all(j.expect["betti"] == golden["betti"] for j in k5)
