"""Every name the benchmark tracer wraps still exists.

perfbench/tracing.py times the package by rebinding the public functions it
lists to wrappers, and it only prints the names it cannot find.  A deleted
or renamed entry point would therefore drop its per-layer metrics without
failing anything.  These tests import the tracer's tables (nothing is
installed or rebound) and resolve each name against the package.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)  # tracing imports its sibling `layers`
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)


def _module(name):
    return importlib.import_module(f"nematicflow.{name}")


def test_entry_points_resolve(tracing):
    missing = [f"{mod}.{attr}" for mod, attr, _ in tracing.ENTRY_POINTS
               if not callable(getattr(_module(mod), attr, None))]
    assert missing == []


def test_methods_resolve(tracing):
    missing = [f"{mod}.{cls}.{meth}" for mod, cls, meth in tracing.METHODS
               if not callable(getattr(getattr(_module(mod), cls, None), meth, None))]
    assert missing == []


def test_harness_checks_resolve(tracing):
    """harness.ALL_CHECKS exists, holds callables, and carries the labels of
    the benchmark's per-check metrics."""
    checks = _module("harness").ALL_CHECKS
    assert all(callable(fn) for _, fn in checks)
    assert tuple(label for label, _ in checks) == sys.modules["layers"].HARNESS_CHECKS


def test_traced_layers_are_modules(tracing):
    for name in sys.modules["layers"].LAYERS:
        _module(name)
