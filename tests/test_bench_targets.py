"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` wraps a fixed list of package functions by name
and raises ``TracingError`` when one is missing, so a rename or removal in
``src/graphconf`` breaks ``perfbench/run.py --trace 1``.  This test enters
and leaves the tracer once, so such a change fails here too.  It only
imports ``perfbench/``; it changes nothing there.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_target_is_found_and_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    generation = importlib.import_module("graphconf.generation")
    before = generation.generator_images
    with tracing.installed(tracing.Tracer()):
        assert generation.generator_images.__wrapped__ is before
    assert generation.generator_images is before
