"""Command-line front end.

Exit codes: 0 success, 1 failed verification / negative verdict where the
command's contract says so, 2 invalid input, 3 internal invariant breach.
stdout carries only the requested artifact; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import acceptance
from .cographs import (
    cograph_of,
    cotree_from_json_obj,
    cotree_of,
    cotree_to_json_obj,
    is_cograph,
)
from .discretized import build_discretized, cell_count_table, complex_to_json_obj
from .errors import BadParamsError, GraphConfError, InvariantError, NotAComplexError
from .generation import (GeneratorList, betti_stage, build_ambient, check_stage_level,
                         generation_check, robertson_stage)
from .gio import from_json, load_graph, to_graph6, to_json
from .graphs import (SimpleGraph, betti1, complement, disjoint_union, family,
                     subdivide_uniform, subdivision_pieces)
from .homology import homology
from .morphisms import KINDS, enumerate_tm, gtm_k_member
from .swiatkowski import verify_support_bound


def _fail(code: int, message: str, **extra) -> int:
    print(json.dumps({"error": message, **extra}), file=sys.stderr)
    return code


def _emit_graph(g: SimpleGraph, fmt: str):
    if fmt == "json":
        print(to_json(g))
    else:
        print(to_graph6(g))


def cmd_graph(args) -> int:
    rest = args.args
    if args.subcommand == "make":
        if not rest or rest[0] == "-":
            src = sys.stdin.read()
        else:
            with open(rest[0]) as fh:
                src = fh.read()
        g = from_json(src)
    elif args.subcommand == "family":
        if not rest:
            return _fail(2, "family needs a name")
        g = family(rest[0], *[int(p) for p in rest[1:]])
    elif args.subcommand == "union":
        if len(rest) != 2:
            return _fail(2, "union needs two graph files")
        g = disjoint_union(load_graph(rest[0]), load_graph(rest[1]))
    elif not rest:
        return _fail(2, f"{args.subcommand} needs a graph file")
    elif args.subcommand == "complement":
        g = complement(load_graph(rest[0]))
    elif args.subcommand == "subdivide":
        g = subdivide_uniform(load_graph(rest[0]), args.pieces)
    else:  # betti1
        print(betti1(load_graph(rest[0])))
        return 0
    _emit_graph(g, args.format)
    return 0


def cmd_homology(args) -> int:
    if args.dump_complex and args.format == "table":
        return _fail(2, "--dump-complex needs --format json")
    if args.no_subdivision and args.extra_subdivision:
        return _fail(2, "--extra-subdivision cannot be combined with --no-subdivision")
    g = load_graph(args.graph)
    if args.no_subdivision:
        sub = g
        level = "none"
    else:
        pieces = subdivision_pieces(args.n, args.extra_subdivision)
        sub = subdivide_uniform(g, pieces)
        level = f"{pieces} pieces per edge"
    cx = build_discretized(sub, args.n, ordered=not args.unordered)
    print(f"subdivision: {level}", file=sys.stderr)
    try:
        h = homology(cx.chain)
    except NotAComplexError as exc:
        return _fail(3, str(exc))
    chi = cx.euler_characteristic()
    if args.format == "table":
        print(cell_count_table(cx))
        print(f"betti\t{' '.join(map(str, h.betti))}")
        print(f"torsion\t{h.torsion}")
    else:
        print(json.dumps({
            "n": args.n,
            "ordered": not args.unordered,
            "cells": list(cx.cell_counts()),
            "euler": chi,
            **h.to_json_obj(),
            **({"complex": complex_to_json_obj(cx)} if args.dump_complex else {}),
        }))
    return 0


def cmd_minor(args) -> int:
    if args.gtm_k is not None:
        dead = [f"--{name}" for name in ("pattern", "host", "kind", "limit")
                if getattr(args, name) is not None]
        if dead:
            return _fail(2, f"{', '.join(dead)} cannot be combined with --gtm-k")
        if args.graph is None:
            return _fail(2, "--gtm-k needs --graph")
        g = load_graph(args.graph)
        member = gtm_k_member(g, args.gtm_k)
        print(json.dumps({"k": args.gtm_k, "member": member}))
        return 0
    if args.graph is not None:
        return _fail(2, "--graph needs --gtm-k")
    if args.pattern is None or args.host is None:
        return _fail(2, "minor needs --pattern and --host, or --gtm-k with --graph")
    pattern = load_graph(args.pattern)
    host = load_graph(args.host)
    found = enumerate_tm(pattern, host, args.kind or "tm", 1 if args.limit is None else args.limit)
    print(json.dumps({
        "exists": bool(found),
        "count": len(found),
        "truncated": found.truncated,
        "witness": found[0].to_json_obj() if found else None,
    }))
    return 0


def cmd_cograph(args) -> int:
    if args.subcommand == "recognize":
        print(json.dumps({"is_cograph": is_cograph(load_graph(args.input))}))
        return 0
    if args.subcommand == "cotree":
        print(json.dumps(cotree_to_json_obj(cotree_of(load_graph(args.input)))))
        return 0
    if args.subcommand == "reconstruct":
        with open(args.input, "r", encoding="utf-8") as fh:
            t = cotree_from_json_obj(json.load(fh))
        _emit_graph(cograph_of(t), args.format)
        return 0
    # support-report
    g = load_graph(args.input)
    rows = []
    # a negative n still reaches verify_support_bound, which rejects it
    for i in range(max(args.n, 0) + 1):
        rep = verify_support_bound(g, i, args.n)
        rows.append({
            "i": i,
            "n": args.n,
            "cells": rep.cell_count,
            "max_support": rep.max_support,
            "violations": len(rep.violations),
        })
    print(json.dumps({"rows": rows, "bound": 2 * args.n}))
    return 0 if all(r["violations"] == 0 for r in rows) else 1


def cmd_generate(args) -> int:
    # check the arguments before the ambient complex is built
    stages = {"betti": betti_stage, "robertson": robertson_stage}
    if args.stage:
        if args.gens is not None:
            return _fail(2, "--gens cannot be combined with --stage")
        if args.format == "table":
            return _fail(2, "--stage has no table format")
        kind, _, value = args.stage.partition(":")
        if kind not in stages:
            return _fail(2, f"unknown stage kind {kind!r}")
        try:
            level = int(value)
        except ValueError:
            raise BadParamsError("stage level must be an integer") from None
        check_stage_level(kind, level)
    elif args.gens:
        gens = GeneratorList.of(*[load_graph(p) for p in args.gens])
    else:
        return _fail(2, "generate needs --gens or --stage")
    g = load_graph(args.graph)
    ctx = build_ambient(g, args.i, args.n, args.extra_subdivision, ordered=not args.unordered)
    print(
        f"subdivision: {subdivision_pieces(args.n, args.extra_subdivision)} pieces per edge",
        file=sys.stderr,
    )
    if args.stage:
        sub = stages[kind](ctx, level)
        print(json.dumps({
            "stage": args.stage,
            "rank": sub.free_rank(),
            "ambient_betti": ctx.pres.betti,
            "full": sub.is_full(),
            "extra_subdivision": args.extra_subdivision,
        }))
        return 0
    report = generation_check(ctx, gens)
    if args.format == "table":
        print(report.table())
    else:
        print(json.dumps(report.to_json_obj()))
    return 0


def cmd_verify(args) -> int:
    results = acceptance.run_suite(args.suite)
    for res in results:
        print(res.line())
    failed = [res.number for res in results if not res.passed]
    if failed:
        print(f"failed criteria: {failed}", file=sys.stderr)
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: ``parse_args``
    keeps no state on it, and no default is a mutable object."""
    top = argparse.ArgumentParser(prog="graphconf")
    subs = top.add_subparsers(dest="command", required=True)

    pg = subs.add_parser("graph")
    pg.add_argument("subcommand",
                    choices=["make", "family", "complement", "union", "subdivide", "betti1"])
    pg.add_argument("args", nargs="*",
                    help="graph file(s), or family name and parameters")
    pg.add_argument("--pieces", type=int, default=2)
    pg.add_argument("--format", choices=["json", "graph6"], default="graph6")
    pg.set_defaults(fn=cmd_graph)

    ph = subs.add_parser("homology")
    ph.add_argument("--graph", required=True)
    ph.add_argument("-n", type=int, required=True)
    ph.add_argument("--unordered", action="store_true")
    ph.add_argument("--ordered", dest="unordered", action="store_false")
    ph.add_argument("--extra-subdivision", type=int, default=0)
    ph.add_argument("--no-subdivision", action="store_true",
                    help="build the complex on the graph exactly as given")
    ph.add_argument("--dump-complex", action="store_true")
    ph.add_argument("--format", choices=["json", "table"], default="json")
    ph.set_defaults(fn=cmd_homology)

    pm = subs.add_parser("minor")
    pm.add_argument("--pattern")
    pm.add_argument("--host")
    pm.add_argument("--kind", choices=KINDS, help="default: tm")
    pm.add_argument("--limit", type=int, help="default: 1")
    pm.add_argument("--gtm-k", type=int, default=None)
    pm.add_argument("--graph", help="graph for --gtm-k membership")
    pm.set_defaults(fn=cmd_minor)

    pc = subs.add_parser("cograph")
    pc.add_argument("subcommand", choices=["recognize", "cotree", "reconstruct", "support-report"])
    pc.add_argument("input")
    pc.add_argument("-n", type=int, default=2)
    pc.add_argument("--format", choices=["json", "graph6"], default="graph6")
    pc.set_defaults(fn=cmd_cograph)

    pn = subs.add_parser("generate")
    pn.add_argument("--graph", required=True)
    pn.add_argument("-n", type=int, required=True)
    pn.add_argument("-i", type=int, required=True)
    pn.add_argument("--gens", nargs="*")
    pn.add_argument("--stage", help="betti:<g> or robertson:<k>")
    pn.add_argument("--extra-subdivision", type=int, default=0)
    pn.add_argument("--unordered", action="store_true")
    pn.add_argument("--format", choices=["json", "table"], default="json")
    pn.set_defaults(fn=cmd_generate)

    pv = subs.add_parser("verify")
    pv.add_argument("suite", choices=sorted(acceptance.SUITES))
    pv.set_defaults(fn=cmd_verify)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvariantError as exc:
        return _fail(3, str(exc), kind=type(exc).__name__)
    except GraphConfError as exc:
        return _fail(2, str(exc), kind=type(exc).__name__)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        return _fail(2, str(exc), kind=type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
