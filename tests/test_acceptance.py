"""End-to-end acceptance checks.

Each test runs one acceptance criterion and prints its one-line verdict;
run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  These are slow (minutes in total) by design: they sweep real
graph corpora rather than hand-picked examples.
"""

from types import SimpleNamespace

from chains import from_entries
from graphconf import acceptance
from graphconf.acceptance import CRITERIA


def _run(number: int):
    res = CRITERIA[number]()
    print(res.line())
    assert res.passed, res.detail
    return res


def test_criterion_1_subdivision_invariance():
    _run(1)


def test_criterion_2_complex_sanity_sweep():
    _run(2)


def test_criterion_2_reports_a_broken_complex(monkeypatch):
    broken = SimpleNamespace(chain=from_entries((1, 1, 1), ({}, {(0, 0): 1}, {(0, 0): 1})))
    monkeypatch.setattr(acceptance, "build_discretized", lambda *a, **k: broken)
    res = CRITERIA[2]()
    assert not res.passed
    assert res.detail == "boundary does not square to zero"


def test_criterion_3_known_homology_values():
    _run(3)


def test_criterion_4_robertson_chain_antichain():
    _run(4)


def test_criterion_5_support_bounds_on_cographs():
    _run(5)


def test_criterion_6_cotree_correctness():
    _run(6)


def test_criterion_7_filtration_stages():
    _run(7)


def test_criterion_8_self_generation_sweep():
    _run(8)
