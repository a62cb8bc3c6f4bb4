"""Per-layer tracing of graphconf, done entirely from the benchmark's files.

`installed(tracer)` wraps the public functions listed in TARGETS.  A module
may bind a function under its own name (`from .snf import snf`), so every
binding across the loaded `graphconf.*` modules is found by identity and
replaced; methods are patched on their class.  Each wrapped call records a
span (name, start, end, parent span, job id).  A target that no longer
exists raises `TracingError`, so a rename breaks the benchmark instead of
silently reporting zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


class TracingError(RuntimeError):
    pass


class Tracer:
    """Spans of one traced run, kept in memory.

    Every span is aggregated per (job, name) into calls, inclusive seconds
    and self seconds; inclusive time of a recursive function counts only
    its outermost call.  Spans of the HOT functions (tens of thousands of
    calls per job) are only aggregated; all others are also kept one by
    one in `spans`.
    """

    def __init__(self):
        self.job: str | None = None
        self.spans: list[tuple] = []  # (id, parent id, name, job, start, end)
        self.totals: dict = defaultdict(lambda: [0, 0.0, 0.0])  # calls, s, self_s
        self.counts: dict = defaultdict(float)  # (job, counter) -> sum
        self.maxima: dict = defaultdict(float)  # (job, counter) -> max
        self._stack: list[list] = []
        self._depth: dict = defaultdict(int)
        self._last_id = 0

    def enter(self, name: str) -> list:
        self._last_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._depth[name] += 1
        frame = [self._last_id, parent, name, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = perf_counter()
        if self._stack.pop() is not frame:
            raise TracingError("span closed out of order")
        span_id, parent, name, child_s, start = frame
        dur = end - start
        self._depth[name] -= 1
        total = self.totals[(self.job, name)]
        total[0] += 1
        total[2] += dur - child_s
        if not self._depth[name]:
            total[1] += dur
        if self._stack:
            self._stack[-1][3] += dur
        if name not in HOT:
            self.spans.append((span_id, parent, name, self.job, start, end))
        return dur

    def count(self, counter: str, value: float = 1) -> None:
        self.counts[(self.job, counter)] += value

    def maximum(self, counter: str, value: float) -> None:
        key = (self.job, counter)
        self.maxima[key] = max(self.maxima[key], value)

    def calls(self, name: str) -> int:
        return sum(t[0] for (_, n), t in self.totals.items() if n == name)

    def seconds(self, name: str) -> float:
        return sum(t[1] for (_, n), t in self.totals.items() if n == name)

    def self_seconds(self, name: str) -> float:
        return sum(t[2] for (_, n), t in self.totals.items() if n == name)

    def counted(self, counter: str) -> float:
        return sum(v for (_, c), v in self.counts.items() if c == counter)

    def maximal(self, counter: str) -> float:
        return max((v for (_, c), v in self.maxima.items() if c == counter), default=0.0)

    def dump(self, path) -> None:
        """Write the spans and per-job aggregates as JSON."""
        obj = {
            "spans": [dict(zip(("id", "parent", "name", "job", "start", "end"), s))
                      for s in self.spans],
            "per_job": [{"job": j, "name": n, "calls": t[0], "s": t[1], "self_s": t[2]}
                        for (j, n), t in sorted(self.totals.items(), key=str)],
            "counters": [{"job": j, "counter": c, "value": v}
                         for (j, c), v in sorted(self.counts.items(), key=str)],
        }
        with open(path, "w") as fh:
            json.dump(obj, fh)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# -- hooks: counters taken at each wrapped boundary ----------------------------
# before(args, kwargs) -> state runs outside the span; after(tracer, args,
# kwargs, result, seconds, state) runs once the span has closed.

_TRACK_FLAGS = ("track_u", "track_v", "track_vinv", "track_uinv")


def _after_snf(t, args, kwargs, res, dur, _):
    tracked = any(kwargs.get(flag) for flag in _TRACK_FLAGS)
    t.count("snf.snf.tracked_s" if tracked else "snf.snf.untracked_s", dur)
    t.count("snf.snf.nnz_in", len(_arg(args, kwargs, 0, "entries")))
    t.maximum("snf.snf.max_cols", _arg(args, kwargs, 1, "shape")[1])
    t.count("snf.snf.rank_sum", res.rank)
    t.count("snf.snf.torsion_entries", len(res.torsion))


def _after_hermite(t, args, kwargs, res, dur, _):
    t.count("snf.hermite_columns.cols_in", len(_arg(args, kwargs, 0, "columns")))


def _after_build_discretized(t, args, kwargs, cx, dur, _):
    t.count("discretized.cells", sum(cx.cell_counts()))
    t.count("discretized.boundary_nnz", sum(len(b) for b in cx.chain.boundaries))


def _after_sufficient(t, args, kwargs, ok, dur, _):
    t.count("discretized.is_sufficiently_subdivided.passed", bool(ok))


def _after_generator_images(t, args, kwargs, res, dur, _):
    images, morphisms, _witness = res
    t.count("generation.generator_images.images", len(images))
    t.count("generation.generator_images.morphisms", morphisms)


def _before_image_of_subgraph(args, kwargs):
    ctx, h = args[0], _arg(args, kwargs, 1, "h")
    return (h.vertices, h.edges) in ctx._image_cache


def _after_image_of_subgraph(t, args, kwargs, res, dur, hit):
    t.count("generation.AmbientContext.image_of_subgraph.hits", hit)


def _after_enumerate_cells(t, args, kwargs, cells, dur, _):
    t.count("swiatkowski.enumerate_cells.cells", len(cells))


@dataclass(frozen=True)
class Target:
    module: str  # graphconf submodule
    qualname: str  # function, or Class.method
    hot: bool = False
    before: Callable | None = None
    after: Callable | None = None
    generator: bool = False  # time every next() of the returned generator

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


TARGETS = (
    Target("cli", "main"),
    Target("gio", "load_graph"),
    Target("graphs", "subdivide_uniform"),
    Target("snf", "snf", after=_after_snf),
    Target("snf", "SNFResult.kernel_coords", hot=True),
    Target("snf", "hermite_columns", after=_after_hermite),
    Target("discretized", "build_discretized", after=_after_build_discretized),
    Target("discretized", "is_sufficiently_subdivided", hot=True, after=_after_sufficient),
    Target("discretized", "inclusion_chain_map"),
    Target("homology", "IntegerChainComplex.check_boundary_squares_to_zero"),
    Target("homology", "homology"),
    Target("homology", "presentation"),
    Target("homology", "HomologyPresentation.cycle_to_normal", hot=True),
    Target("homology", "Subgroup.join"),
    Target("homology", "Subgroup.is_full"),
    Target("morphisms", "iter_tm", hot=True, generator=True),
    Target("morphisms", "gtm_k_member"),
    Target("generation", "build_ambient"),
    Target("generation", "generator_images", after=_after_generator_images),
    Target("generation", "AmbientContext.image_of_subgraph",
           before=_before_image_of_subgraph, after=_after_image_of_subgraph),
    Target("generation", "betti_stage"),
    Target("generation", "robertson_stage"),
    Target("swiatkowski", "enumerate_cells", after=_after_enumerate_cells),
    Target("swiatkowski", "verify_support_bound"),
    Target("cographs", "is_cograph", hot=True),
)

HOT = frozenset(t.name for t in TARGETS if t.hot)


def _wrap(tracer: Tracer, target: Target, fn):
    name, before, after = target.name, target.before, target.after

    def traced(*args, **kwargs):
        state = before(args, kwargs) if before else None
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = tracer.exit(frame)
        if after:
            after(tracer, args, kwargs, result, dur, state)
        return result

    def traced_generator(*args, **kwargs):
        # One span per next(); `calls` counts the generators started.
        tracer.count(f"{name}.started")
        inner = fn(*args, **kwargs)
        while True:
            frame = tracer.enter(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.exit(frame)
            tracer.count(f"{name}.yielded")
            yield item

    return functools.update_wrapper(traced_generator if target.generator else traced, fn)


def _resolve(target: Target):
    try:
        module = importlib.import_module(f"graphconf.{target.module}")
    except ImportError as exc:
        raise TracingError(f"cannot trace {target.name}: {exc}") from exc
    owner_name, _, attr = target.qualname.rpartition(".")
    owner = module
    if owner_name:
        owner = getattr(module, owner_name, None)
        fn = vars(owner).get(attr) if isinstance(owner, type) else None
    else:
        fn = getattr(module, attr, None)
    if not callable(fn):
        raise TracingError(
            f"cannot trace {target.name}: graphconf.{target.name} is missing; "
            "update perfbench/tracing.py to the new name"
        )
    return owner, attr, fn


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target while the block runs; always restore the originals."""
    import graphconf.cli  # noqa: F401  (loads every module that binds a target)

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "graphconf" or n.startswith("graphconf."))]
    resolved = [(target, *_resolve(target)) for target in TARGETS]
    restore = []
    try:
        for target, owner, attr, fn in resolved:
            wrapper = _wrap(tracer, target, fn)
            if isinstance(owner, type):
                restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        restore.append((module, key, fn))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, attr, fn in reversed(restore):
            setattr(owner, attr, fn)


def _ratio(num: float, den: float) -> float:
    """Useful outcomes over attempts; 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of a traced run: name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    def span(name: str, *kinds: str, prefix: str | None = None) -> None:
        prefix = prefix or name
        for kind in kinds:
            if kind == "calls":
                m[f"{prefix}.calls"] = (t.calls(name), "count")
            elif kind == "s":
                m[f"{prefix}.s"] = (t.seconds(name), "s")
            else:
                m[f"{prefix}.self_s"] = (t.self_seconds(name), "s")

    def counter(name: str, unit: str = "count") -> None:
        m[name] = (t.counted(name), unit)

    span("snf.snf", "calls")
    counter("snf.snf.untracked_s", "s")
    counter("snf.snf.tracked_s", "s")
    m["snf.snf.max_cols"] = (t.maximal("snf.snf.max_cols"), "count")
    counter("snf.snf.nnz_in")
    counter("snf.snf.rank_sum")
    counter("snf.snf.torsion_entries")
    span("snf.SNFResult.kernel_coords", "calls", "s")
    span("snf.hermite_columns", "calls", "s")
    counter("snf.hermite_columns.cols_in")

    span("discretized.build_discretized", "calls", "s")
    counter("discretized.cells")
    counter("discretized.boundary_nnz")
    span("discretized.is_sufficiently_subdivided", "calls", "s")
    m["discretized.is_sufficiently_subdivided.pass_ratio"] = (_ratio(
        t.counted("discretized.is_sufficiently_subdivided.passed"),
        t.calls("discretized.is_sufficiently_subdivided")), "ratio")
    span("discretized.inclusion_chain_map", "calls", "s")

    # metric names are limited to 64 characters, so this one drops its class
    span("homology.IntegerChainComplex.check_boundary_squares_to_zero", "calls", "s",
         prefix="homology.check_boundary_squares_to_zero")
    span("homology.homology", "calls", "self_s")
    span("homology.presentation", "calls", "self_s")
    span("homology.HomologyPresentation.cycle_to_normal", "calls", "self_s")
    span("homology.Subgroup.join", "calls", "self_s")
    span("homology.Subgroup.is_full", "calls", "self_s")

    m["morphisms.iter_tm.calls"] = (t.counted("morphisms.iter_tm.started"), "count")
    span("morphisms.iter_tm", "s")
    counter("morphisms.iter_tm.yielded")
    span("morphisms.gtm_k_member", "calls", "s")

    span("generation.build_ambient", "calls", "self_s")
    span("generation.generator_images", "calls", "self_s")
    m["generation.distinct_image_ratio"] = (_ratio(
        t.counted("generation.generator_images.images"),
        t.counted("generation.generator_images.morphisms")), "ratio")
    name = "generation.AmbientContext.image_of_subgraph"
    span(name, "calls", "self_s")
    m[f"{name}.cache_hit_ratio"] = (_ratio(t.counted(f"{name}.hits"), t.calls(name)), "ratio")
    span("generation.betti_stage", "calls", "self_s")
    span("generation.robertson_stage", "calls", "self_s")

    span("swiatkowski.enumerate_cells", "calls", "s")
    counter("swiatkowski.enumerate_cells.cells")
    span("swiatkowski.verify_support_bound", "calls", "self_s")
    span("cographs.is_cograph", "calls", "s")

    span("cli.main", "calls", "self_s")
    span("gio.load_graph", "s")
    span("graphs.subdivide_uniform", "s")
    return m
