import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from chains import from_entries
from graphconf import cli
from graphconf.cli import main
from graphconf.errors import InvariantError
from graphconf.gio import load_graph, to_json
from graphconf.graphs import complement, disjoint_union, family, make_graph, theta_graph


@pytest.fixture
def g6(tmp_path):
    def write(name, g):
        p = tmp_path / name
        p.write_text(to_json(g) + "\n")
        return str(p)

    return write


def test_graph_family_and_formats(capsys):
    assert main(["graph", "family", "complete", "4"]) == 0
    assert capsys.readouterr().out.strip() == "C~"
    assert main(["graph", "family", "cycle", "4", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["vertices"]) == 4 and len(obj["edges"]) == 4


def test_graph_make_complement_union_betti1(tmp_path, capsys, g6):
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"vertices": [0, 1, 2], "edges": [[0, 1]]}))
    assert main(["graph", "make", str(spec), "--format", "json"]) == 0
    made = json.loads(capsys.readouterr().out)
    assert made["edges"] == [[0, 1]]

    k3 = g6("k3.json", family("complete", 3))
    assert main(["graph", "complement", k3, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["edges"] == []

    assert main(["graph", "union", k3, k3, "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["vertices"]) == 6

    assert main(["graph", "betti1", k3]) == 0
    assert capsys.readouterr().out.strip() == "1"

    assert main(["graph", "subdivide", k3, "--pieces", "3", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["edges"]) == 9


def test_homology_json_and_table(capsys, g6):
    c3 = g6("c3.json", family("cycle", 3))
    assert main(["homology", "--graph", c3, "-n", "2", "--unordered"]) == 0
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert obj["betti"][:2] == [1, 1]  # unordered 2 points on a circle
    assert captured.err == "subdivision: 3 pieces per edge\n"

    assert main(["homology", "--graph", c3, "-n", "1", "--no-subdivision",
                 "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "betti" in out and "torsion" in out


# (graph, n, extra subdivision, ordered, cells, betti, torsion) of the
# benchmark's homology jobs at identity labels
HOMOLOGY_PINS = [
    ("theta", 3, 0, False, [969, 2720, 2505, 756], [1, 3, 0, 0], [[], [], [], []]),
    ("theta", 3, 1, False, [2024, 5775, 5440, 1691], [1, 3, 0, 0], [[], [], [], []]),
    ("K4", 3, 0, False, [1540, 4560, 4428, 1408], [1, 4, 3, 0], [[], [], [], []]),
    ("K5", 2, 1, False, [595, 1320, 720], [1, 6, 0], [[], [2], []]),
    ("K5", 2, 2, False, [990, 2150, 1155], [1, 6, 0], [[], [2], []]),
    ("K33", 2, 1, False, [528, 1116, 585], [1, 4, 0], [[], [2], []]),
    ("K33", 2, 2, False, [861, 1800, 936], [1, 4, 0], [[], [2], []]),
    ("K4", 2, 1, True, [462, 960, 492], [1, 7, 0], [[], [], []]),
    ("K4", 2, 2, True, [756, 1560, 798], [1, 7, 0], [[], [], []]),
]
PIN_GRAPHS = {"theta": theta_graph, "K4": lambda: family("complete", 4),
              "K5": lambda: family("complete", 5),
              "K33": lambda: family("complete_bipartite", 3, 3)}


@pytest.mark.parametrize("graph,n,extra,ordered,cells,betti,torsion", HOMOLOGY_PINS,
                         ids=[f"{g}-n{n}-e{e}-{'ordered' if o else 'unordered'}"
                              for g, n, e, o, *_ in HOMOLOGY_PINS])
def test_homology_output_is_pinned(graph, n, extra, ordered, cells, betti, torsion,
                                   capsys, g6):
    path = g6(f"{graph}.json", PIN_GRAPHS[graph]())
    model = "--ordered" if ordered else "--unordered"
    assert main(["homology", "--graph", path, "-n", str(n), model,
                 "--extra-subdivision", str(extra)]) == 0
    obj = json.loads(capsys.readouterr().out)
    euler = sum((-1) ** d * c for d, c in enumerate(cells))
    assert (obj["cells"], obj["euler"], obj["betti"], obj["torsion"]) == (
        cells, euler, betti, torsion)


# sha256 of `homology --dump-complex` stdout at identity labels, taken
# before cells were decoded lazily from slot codes
DUMP_PINS = [
    ("theta", "--unordered", "3e6663d2fd031e20635bb90b3a2773e24398f31cf8bcfefaed91a9147a8df981"),
    ("K4", "--ordered", "dc36ef89efa105b06e287115a0568b6077caf87fb1d5ecbb881a8230d3b353dd"),
]


@pytest.mark.parametrize("graph,model,sha", DUMP_PINS, ids=[g for g, *_ in DUMP_PINS])
def test_dump_complex_output_is_pinned(graph, model, sha, capsys, g6):
    path = g6(f"{graph}.json", PIN_GRAPHS[graph]())
    assert main(["homology", "--graph", path, "-n", "2", model, "--dump-complex"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


_EDGE = family("path", 2)
# (graph, cells per i = 0..3, max support) of `cograph support-report -n 3`
# on the benchmark's `cells` graphs at identity labels
SUPPORT_PINS = [
    ("K5", family("complete", 5), [605, 2020, 2080, 640], 5),
    ("K33", family("complete_bipartite", 3, 3), [590, 1800, 1755, 540], 6),
    ("K222", complement(disjoint_union(disjoint_union(_EDGE, _EDGE), _EDGE)),
     [1032, 3552, 3840, 1280], 6),
    ("K6", family("complete", 6), [1645, 6150, 7125, 2500], 6),
    ("K24", family("complete_bipartite", 2, 4), [476, 1376, 1248, 352], 5),
]


@pytest.mark.parametrize("name,graph,cells,max_support", SUPPORT_PINS,
                         ids=[name for name, *_ in SUPPORT_PINS])
def test_support_report_output_is_pinned(name, graph, cells, max_support, capsys, g6):
    path = g6(f"{name}.json", graph)
    assert main(["cograph", "support-report", path, "-n", "3"]) == 0
    rows = ", ".join(f'{{"i": {i}, "n": 3, "cells": {c}, "max_support": {max_support}, '
                     f'"violations": 0}}' for i, c in enumerate(cells))
    assert capsys.readouterr().out == f'{{"rows": [{rows}], "bound": 6}}\n'


def test_minor_search_and_gtm(capsys, g6):
    k3 = g6("k3.json", family("cycle", 3))
    c6 = g6("c6.json", family("cycle", 6))
    assert main(["minor", "--pattern", k3, "--host", c6, "--kind", "tm"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["exists"] and obj["witness"] is not None

    tree = g6("t.json", family("star", 3))
    assert main(["minor", "--gtm-k", "1", "--graph", tree]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is True
    assert main(["minor", "--gtm-k", "1", "--graph", k3]) == 0
    assert json.loads(capsys.readouterr().out)["member"] is False


def test_cograph_commands(tmp_path, capsys, g6):
    p4 = g6("p4.json", family("path", 4))
    k22 = g6("k22.json", family("complete_bipartite", 2, 2))
    assert main(["cograph", "recognize", p4]) == 0
    assert json.loads(capsys.readouterr().out)["is_cograph"] is False
    assert main(["cograph", "recognize", k22]) == 0
    assert json.loads(capsys.readouterr().out)["is_cograph"] is True

    assert main(["cograph", "cotree", k22]) == 0
    tree_json = capsys.readouterr().out
    tp = tmp_path / "cotree.json"
    tp.write_text(tree_json)
    assert main(["cograph", "reconstruct", str(tp), "--format", "json"]) == 0
    back = json.loads(capsys.readouterr().out)
    assert sorted(map(tuple, back["edges"])) == sorted(
        family("complete_bipartite", 2, 2).edges
    )

    assert main(["cograph", "support-report", k22, "-n", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["bound"] == 4
    assert all(r["violations"] == 0 for r in rep["rows"])

    # P_4 is not a cograph, so cotree extraction is an input error
    assert main(["cograph", "cotree", p4]) == 2
    assert "error" in capsys.readouterr().err


def test_cograph_cotree_of_the_empty_graph_exits_2(capsys, g6):
    empty = g6("empty.json", make_graph([], []))
    assert main(["cograph", "cotree", empty]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "the empty graph has no cotree",
                                        "kind": "BadParamsError"}


# a valid cotree of K2 (one 1-node over two leaves), then one malformed field each
K2_COTREE = {
    "nodes": [{"id": 0, "label": "1", "children": [1, 2]},
              {"id": 1, "label": "L", "children": []},
              {"id": 2, "label": "L", "children": []}],
    "root": 0,
    "leaf_map": {"1": 0, "2": 1},
}
MALFORMED_COTREES = {
    # one node, so no sort compares the list id with an int
    "node-id-a-list": {"nodes": [{"id": [0], "label": "L", "children": []}],
                       "root": 0, "leaf_map": {"0": 0}},
    "child-a-list": {**K2_COTREE, "nodes": [
        {"id": 0, "label": "1", "children": [[1], 2]}, *K2_COTREE["nodes"][1:]]},
    "root-a-list": {**K2_COTREE, "root": [0]},
    "leaf-map-a-list": {**K2_COTREE, "leaf_map": [[1, 0], [2, 1]]},
    "leaf-vertex-a-string": {**K2_COTREE, "leaf_map": {"1": "x", "2": 1}},
    "leaf-vertex-a-float": {**K2_COTREE, "leaf_map": {"1": 1.5, "2": 1}},
    "node-id-twice": {**K2_COTREE, "nodes": [
        *K2_COTREE["nodes"], {"id": 2, "label": "L", "children": []}]},
    "leaf-map-key-twice": {**K2_COTREE, "leaf_map": {"1": 0, "2": 1, "01": 2}},
}


def test_cograph_reconstruct_accepts_the_valid_cotree(tmp_path, capsys):
    path = tmp_path / "cotree.json"
    path.write_text(json.dumps(K2_COTREE))
    assert main(["cograph", "reconstruct", str(path)]) == 0
    assert capsys.readouterr().out == "A_\n"


@pytest.mark.parametrize("obj", MALFORMED_COTREES.values(), ids=MALFORMED_COTREES.keys())
def test_cograph_reconstruct_rejects_malformed_cotree_json(obj, tmp_path, capsys):
    path = tmp_path / "cotree.json"
    path.write_text(json.dumps(obj))
    assert main(["cograph", "reconstruct", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "InvalidCotreeError"


def test_generate_gens_and_stage(capsys, g6):
    c3 = g6("c3.json", family("cycle", 3))
    assert main(["generate", "--graph", c3, "-n", "2", "-i", "1",
                 "--unordered", "--gens", c3]) == 0
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert obj["is_generated"] is True

    assert main(["generate", "--graph", c3, "-n", "2", "-i", "1",
                 "--unordered", "--stage", "betti:1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["full"] is True

    assert main(["generate", "--graph", c3, "-n", "2", "-i", "1"]) == 2
    capsys.readouterr()


def test_main_calls_in_one_process_see_only_their_own_arguments(capsys, g6):
    # the parser is built once per process, and each parse starts afresh
    c3 = g6("c3.json", family("cycle", 3))
    star = g6("star.json", family("star", 3))
    base = ["generate", "--graph", c3, "-n", "2", "-i", "1", "--unordered"]
    for gens, shapes in [([c3, star], [(3, 3), (4, 3)]), ([star], [(4, 3)])]:
        assert main(base + ["--gens", *gens]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [(g["vertices"], g["edges"]) for g in obj["generators"]] == shapes
    # a --gens list left from the calls above would make these exit 2
    for stage in ["betti:0", "betti:1"]:
        assert main(base + ["--stage", stage]) == 0
        assert json.loads(capsys.readouterr().out)["stage"] == stage
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("graph6,args,rank", [
    # C3 plus an isolated vertex: b1 = 1, so G itself is a stage subgraph,
    # and in H_1 of D_2 a particle may rest on the isolated vertex
    ("Cw", ["-n", "2", "-i", "1", "--unordered", "--stage", "betti:1"], 2),
    # K1: its one vertex is all of H_0
    ("@", ["-n", "1", "-i", "0", "--stage", "robertson:1"], 1),
], ids=["C3+K1-betti", "K1-robertson"])
def test_stage_subgraphs_keep_isolated_vertices(tmp_path, capsys, graph6, args, rank):
    path = tmp_path / "g.g6"
    path.write_text(graph6 + "\n")
    assert main(["generate", "--graph", str(path), *args]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["rank"] == obj["ambient_betti"] == rank and obj["full"] is True


@pytest.mark.parametrize("extra, message", [
    (["--stage", "bogus:1"], "unknown stage kind"),
    (["--stage", "betti:one"], "stage level must be an integer"),
    ([], "needs --gens or --stage"),
    (["--stage", "betti:-1"], "stage must be >= 0"),
    (["--stage", "robertson:0"], "k must be >= 1"),
], ids=["unknown-stage-kind", "non-integer-stage", "no-gens-no-stage",
        "negative-betti-stage", "robertson-stage-below-1"])
def test_generate_rejects_bad_arguments_before_building(extra, message, monkeypatch,
                                                        capsys, g6):
    def build(*args, **kwargs):
        raise AssertionError("build_ambient ran before the arguments were checked")

    monkeypatch.setattr(cli, "build_ambient", build)
    k4 = g6("k4.json", family("complete", 4))
    assert main(["generate", "--graph", k4, "-n", "3", "-i", "1", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in json.loads(captured.err)["error"]


@pytest.mark.parametrize("extra, err", [
    (["--stage", "betti:1", "--gens", "c3.json"],
     '{"error": "--gens cannot be combined with --stage"}\n'),
    (["--stage", "betti:1", "--gens"],
     '{"error": "--gens cannot be combined with --stage"}\n'),
    (["--stage", "betti:1", "--format", "table"],
     '{"error": "--stage has no table format"}\n'),
    (["--stage", "betti:"],
     '{"error": "stage level must be an integer", "kind": "BadParamsError"}\n'),
    (["--stage", "betti:x"],
     '{"error": "stage level must be an integer", "kind": "BadParamsError"}\n'),
], ids=["stage-with-gens", "stage-with-empty-gens", "stage-with-table",
        "empty-stage-level", "non-integer-stage-level"])
def test_generate_stage_flags_that_would_do_nothing_exit_2(extra, err, capsys, tmp_path):
    # the graph file does not exist: the flags are checked before it is read
    missing = str(tmp_path / "missing.json")
    assert main(["generate", "--graph", missing, "-n", "2", "-i", "1", *extra]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


def test_generate_echoes_the_callers_parameters(capsys, g6):
    c3 = g6("c3.json", family("cycle", 3))
    assert main(["generate", "--graph", c3, "-n", "2", "-i", "1", "--unordered",
                 "--extra-subdivision", "1", "--gens", c3]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert (obj["i"], obj["n"]) == (1, 2)
    assert obj["ordered"] is False
    assert obj["extra_subdivision"] == 1


def test_broken_complex_exits_3(monkeypatch, capsys, g6):
    broken = SimpleNamespace(chain=from_entries((1, 1, 1), ({}, {(0, 0): 1}, {(0, 0): 1})))
    monkeypatch.setattr(cli, "build_discretized", lambda *a, **k: broken)
    c3 = g6("c3.json", family("cycle", 3))
    assert main(["homology", "--graph", c3, "-n", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "square to zero" in captured.err


def test_invariant_error_exits_3(monkeypatch, capsys, g6):
    def breach(*args, **kwargs):
        raise InvariantError("cell dimensions disagree")

    monkeypatch.setattr(cli, "build_ambient", breach)
    c3 = g6("c3.json", family("cycle", 3))
    assert main(["generate", "--graph", c3, "-n", "2", "-i", "1", "--gens", c3]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "cell dimensions disagree",
                                        "kind": "InvariantError"}


def test_bad_input_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["graph", "betti1", missing]) == 2
    assert main(["graph", "family", "no_such_family"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["graph", "make", str(bad)]) == 2
    cut_off = tmp_path / "cut_off.g6"
    cut_off.write_text("~?\n")  # a '~' size header needs 3 more characters
    assert main(["graph", "betti1", str(cut_off)]) == 2
    assert capsys.readouterr().out == ""


MALFORMED_GRAPHS = {
    "not-an-object": [1],
    "no-vertices": {"edges": []},
    "no-edges": {"vertices": [0, 1]},
    "empty-object": {},
    "vertices-not-a-list": {"vertices": 2, "edges": []},
    "edges-not-a-list": {"vertices": [0, 1], "edges": 5},
    "edge-not-a-list": {"vertices": [0, 1], "edges": [5]},
    "vertex-not-an-int": {"vertices": [[0], 1], "edges": []},
    "endpoint-not-an-int": {"vertices": [0, 1], "edges": [[[0], 1]]},
    "labels-not-an-object": {"vertices": [0, 1], "edges": [[0, 1]], "labels": [0]},
    "edge-of-three-ids": {"vertices": [0, 1], "edges": [[0, 1, 1]]},
    "edge-of-one-id": {"vertices": [0, 1], "edges": [[0]]},
    "label-key-not-an-int": {"vertices": [0, 1], "edges": [[0, 1]], "labels": {"x": "a"}},
    "label-key-twice": {"vertices": [0, 1], "edges": [[0, 1]], "labels": {"0": "a", "00": "b"}},
    "label-not-a-string": {"vertices": [0, 1], "edges": [[0, 1]], "labels": {"1": 7}},
}


@pytest.mark.parametrize("obj", MALFORMED_GRAPHS.values(), ids=MALFORMED_GRAPHS.keys())
def test_malformed_graph_json_exits_2(obj, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(obj)))
    assert main(["graph", "make", "-"]) == 2
    path = tmp_path / "g.json"
    path.write_text(json.dumps(obj))
    assert main(["graph", "betti1", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [json.loads(line) for line in captured.err.splitlines()]
    assert [e["kind"] for e in errors] == ["BadParamsError", "BadParamsError"]


def test_homology_rejects_negative_extra_subdivision(capsys, g6):
    k4 = g6("k4.json", family("complete", 4))
    assert main(["homology", "--graph", k4, "-n", "3", "--unordered",
                 "--extra-subdivision", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "BadParamsError"


def test_support_report_rejects_negative_n(capsys, g6):
    k3 = g6("k3.json", family("complete", 3))
    assert main(["cograph", "support-report", k3, "-n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "BadParamsError"


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "graphconf", "graph", "family", "complete", "3"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "Bw\n"


@pytest.mark.parametrize("argv", [
    ["minor", "--gtm-k", "1"],
    ["minor", "--host", "{k3}"],
    ["minor", "--pattern", "{k3}"],
    ["minor", "--pattern", "{k3}", "--host", "{k3}", "--limit", "0"],
], ids=["gtm-k-without-graph", "no-pattern", "no-host", "limit-0"])
def test_minor_bad_input_exits_2(argv, capsys, g6):
    k3 = g6("k3.json", family("complete", 3))
    assert main([a.format(k3=k3) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


@pytest.mark.parametrize("argv, message", [
    (["--no-subdivision", "--extra-subdivision", "5"],
     "--extra-subdivision cannot be combined with --no-subdivision"),
    (["--dump-complex", "--format", "table"], "--dump-complex needs --format json"),
], ids=["extra-with-no-subdivision", "dump-complex-with-table"])
def test_homology_rejects_a_flag_that_would_do_nothing(argv, message, capsys, g6):
    k4 = g6("k4.json", family("complete", 4))
    assert main(["homology", "--graph", k4, "-n", "2", "--unordered", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": message}


@pytest.mark.parametrize("argv, message", [
    (["--gtm-k", "2", "--graph", "{g}", "--limit", "0"], "--limit cannot be combined with --gtm-k"),
    (["--gtm-k", "2", "--graph", "{g}", "--kind", "tm"], "--kind cannot be combined with --gtm-k"),
    (["--gtm-k", "2", "--graph", "{g}", "--pattern", "{g}", "--host", "{g}"],
     "--pattern, --host cannot be combined with --gtm-k"),
    (["--pattern", "{g}", "--host", "{g}", "--graph", "{g}"], "--graph needs --gtm-k"),
], ids=["limit-with-gtm-k", "kind-with-gtm-k", "pattern-host-with-gtm-k", "graph-without-gtm-k"])
def test_minor_rejects_a_flag_that_would_do_nothing(argv, message, capsys, tmp_path):
    # the graph file does not exist: the flags are checked before it is read
    missing = str(tmp_path / "missing.json")
    assert main(["minor", *[a.format(g=missing) for a in argv]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": message}


@pytest.mark.parametrize("n", ["-1", "0"])
def test_homology_rejects_n_below_1(n, capsys, g6):
    k4 = g6("k4.json", family("complete", 4))
    assert main(["homology", "--graph", k4, "-n", n, "--unordered"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == '{"error": "n must be >= 1", "kind": "BadParamsError"}\n'
