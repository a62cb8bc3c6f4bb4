"""Workloads of the graphconf benchmark: seeded input graphs, CLI jobs and
the oracle that checks every job's output.

A job is one `graphconf` argv.  A graph argument is written `@name`; it
resolves to a JSON file that `write_graphs` generates for the seed.  The
seed picks a vertex relabeling of every input graph and the job order;
seed 0 keeps the identity labels and the declared order.  Every frozen
field below is invariant under relabeling, so it holds for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_K5 = Path("src/graphconf/golden/k5_d2_unordered.json")


def base_graphs() -> dict:
    """The benchmark's input graphs with their natural labels."""
    from graphconf.graphs import complement, disjoint_union, family, theta_graph

    edge = family("path", 2)
    return {
        "theta": theta_graph(),
        "K4": family("complete", 4),
        "K5": family("complete", 5),
        "K6": family("complete", 6),
        "K33": family("complete_bipartite", 3, 3),
        "K24": family("complete_bipartite", 2, 4),
        "K222": complement(disjoint_union(disjoint_union(edge, edge), edge)),
        "C3": family("cycle", 3),
        "C4": family("cycle", 4),
        "star3": family("star", 3),
    }


def _relabeled_json(g, rng: random.Random | None) -> dict:
    """JSON object of g; with an rng, vertex ids are permuted and the
    vertices are listed in a shuffled order."""
    order = list(g.vertices)
    ids = list(range(len(order)))
    if rng is not None:
        rng.shuffle(order)
        rng.shuffle(ids)
    new = dict(zip(g.vertices, ids))
    return {
        "vertices": [new[v] for v in order],
        "edges": [[new[a], new[b]] for a, b in g.edges],
    }


def write_graphs(seed: int, workdir: Path) -> dict[str, str]:
    """Write every input graph for this seed; returns name -> file path."""
    rng = random.Random(seed) if seed else None
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, g in base_graphs().items():
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(_relabeled_json(g, rng)))
        paths[name] = str(path)
    return paths


def prepare(seed: int, workdir: str) -> dict[str, str]:
    """Set-up as `setup_s` times it: import the CLI, then write the graphs."""
    import graphconf.cli  # noqa: F401  (imports every package module)

    return write_graphs(seed, Path(workdir))


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]
    expect: dict
    # homology jobs of one graph, n and model at different subdivision levels
    group: str | None = None

    def resolve(self, graph_paths: dict[str, str]) -> list[str]:
        return [graph_paths[a[1:]] if a.startswith("@") else a for a in self.argv]


def _homology(graph, n, extra, ordered, cells, betti, torsion):
    model = "--ordered" if ordered else "--unordered"
    euler = sum((-1) ** d * c for d, c in enumerate(cells))
    return Job(
        f"homology/{graph}-n{n}-e{extra}-{model[2:]}",
        ("homology", "--graph", f"@{graph}", "-n", str(n), model,
         "--extra-subdivision", str(extra)),
        {"n": n, "ordered": ordered, "cells": cells, "euler": euler,
         "betti": betti, "torsion": torsion},
        group=f"{graph}-n{n}-{model[2:]}",
    )


def _generate(graph, n, extra, gens, ambient_betti, achieved_rank, per_gen):
    # The echoed "ordered" and "extra_subdivision" fields are not frozen:
    # generation_check echoes its own defaults instead of the CLI's values.
    return Job(
        f"generate/{graph}-n{n}-e{extra}-{'+'.join(gens)}",
        ("generate", "--graph", f"@{graph}", "-n", str(n), "-i", "1", "--unordered",
         "--extra-subdivision", str(extra), "--gens", *(f"@{g}" for g in gens)),
        {"i": 1, "n": n, "ambient_betti": ambient_betti, "ambient_torsion": [],
         "is_generated": achieved_rank == ambient_betti, "achieved_rank": achieved_rank,
         "generators": [
             {"vertices": v, "edges": e, "morphisms": m, "image_subgraphs": im,
              "image_rank": r}
             for v, e, m, im, r in per_gen
         ]},
    )


def _stage(graph, stage, rank, ambient_betti):
    return Job(
        f"stages/{graph}-{stage}",
        ("generate", "--graph", f"@{graph}", "-n", "2", "-i", "1", "--unordered",
         "--stage", stage),
        {"stage": stage, "rank": rank, "ambient_betti": ambient_betti,
         "full": rank == ambient_betti},
    )


def _support(graph, cells, max_support):
    return Job(
        f"cells/{graph}-n3",
        ("cograph", "support-report", f"@{graph}", "-n", "3"),
        {"rows": [{"i": i, "n": 3, "cells": c, "max_support": max_support, "violations": 0}
                  for i, c in enumerate(cells)],
         "bound": 6},
    )


def _k5_golden(root: Path) -> tuple[list, list]:
    gold = json.loads((root / GOLDEN_K5).read_text())
    return gold["betti"], gold["torsion"]


def workload_jobs(root: Path) -> dict[str, list[Job]]:
    """Jobs per workload in declared order.  K5's Betti numbers and torsion
    are read from the package's golden file rather than frozen here."""
    k5_betti, k5_torsion = _k5_golden(root)
    return {
        "homology": [
            _homology("theta", 3, 0, False, [969, 2720, 2505, 756], [1, 3, 0, 0], [[], [], [], []]),
            _homology("theta", 3, 1, False, [2024, 5775, 5440, 1691], [1, 3, 0, 0], [[], [], [], []]),
            _homology("K4", 3, 0, False, [1540, 4560, 4428, 1408], [1, 4, 3, 0], [[], [], [], []]),
            _homology("K5", 2, 1, False, [595, 1320, 720], k5_betti, k5_torsion),
            _homology("K5", 2, 2, False, [990, 2150, 1155], k5_betti, k5_torsion),
            _homology("K33", 2, 1, False, [528, 1116, 585], [1, 4, 0], [[], [2], []]),
            _homology("K33", 2, 2, False, [861, 1800, 936], [1, 4, 0], [[], [2], []]),
            _homology("K4", 2, 1, True, [462, 960, 492], [1, 7, 0], [[], [], []]),
            _homology("K4", 2, 2, True, [756, 1560, 798], [1, 7, 0], [[], [], []]),
        ],
        "generate": [
            _generate("K4", 2, 1, ["C3"], 4, 4, [(3, 3, 15360, 7, 4)]),
            _generate("theta", 2, 0, ["star3", "C3"], 3, 3,
                      [(4, 3, 2940, 54, 1), (3, 3, 2328, 3, 3)]),
            _generate("C4", 3, 0, ["C3"], 1, 1, [(3, 3, 3360, 1, 1)]),
            _generate("star3", 3, 0, ["star3"], 3, 3, [(4, 3, 384, 1, 3)]),
        ],
        "stages": [
            _stage("K4", "betti:1", 4, 4),
            _stage("K4", "robertson:2", 4, 4),
            _stage("theta", "betti:0", 1, 3),
            _stage("theta", "betti:1", 3, 3),
            _stage("theta", "betti:2", 3, 3),
            _stage("theta", "robertson:1", 1, 3),
            _stage("theta", "robertson:2", 3, 3),
            _stage("theta", "robertson:3", 3, 3),
        ],
        "cells": [
            _support("K5", [605, 2020, 2080, 640], 5),
            _support("K33", [590, 1800, 1755, 540], 6),
            _support("K222", [1032, 3552, 3840, 1280], 6),
            _support("K6", [1645, 6150, 7125, 2500], 6),
            _support("K24", [476, 1376, 1248, 352], 5),
        ],
    }


def job_order(jobs: list[Job], seed: int) -> list[Job]:
    order = list(jobs)
    if seed:
        random.Random(-seed).shuffle(order)
    return order


# -- oracle --------------------------------------------------------------------


@dataclass
class Outcome:
    job: Job
    exit_code: int | None
    stdout: str
    seconds: float
    error: str | None = None  # exception raised out of the CLI
    problems: list[str] = field(default_factory=list)
    # machine slowness around the job (see speed.py); 1.0 when not measured
    slowness: float = 1.0

    @property
    def ref_seconds(self) -> float:
        """The job's time scaled to the reference machine speed."""
        return self.seconds / self.slowness


def check_job(o: Outcome) -> list[str]:
    """Problems with one job's exit code and output; empty when correct."""
    if o.error is not None:
        return [f"raised {o.error}"]
    if o.exit_code != 0:
        return [f"exit code {o.exit_code}, expected 0"]
    try:
        out = json.loads(o.stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = [
        f"{key}: {out.get(key)!r}, expected {want!r}"
        for key, want in o.job.expect.items()
        if out.get(key) != want
    ]
    if "betti" in out and "euler" in out:
        alternating = sum((-1) ** d * b for d, b in enumerate(out["betti"]))
        if alternating != out["euler"]:
            problems.append(f"euler {out['euler']} != alternating Betti sum {alternating}")
    return problems


def check_pass(outcomes: list[Outcome]) -> int:
    """Fill in each outcome's problems, including the cross-level check
    that Betti numbers and torsion of one graph agree at every subdivision
    level; returns the number of failed jobs."""
    groups: dict[str, list[Outcome]] = {}
    for o in outcomes:
        o.problems = check_job(o)
        if o.job.group is not None and not o.problems:
            groups.setdefault(o.job.group, []).append(o)
    for members in groups.values():
        seen = {_betti_torsion(o) for o in members}
        if len(seen) > 1:
            for o in members:
                o.problems.append(f"homology differs across subdivision levels: {sorted(seen)}")
    return sum(1 for o in outcomes if o.problems)


def _betti_torsion(o: Outcome) -> str:
    out = json.loads(o.stdout)
    return json.dumps([out["betti"], out["torsion"]])
