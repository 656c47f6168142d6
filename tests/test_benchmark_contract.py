"""Every name the benchmark tracer wraps still exists and keeps its shape.

perfbench/tracing.py times the package by rebinding the public functions it
lists to wrappers, and it only prints the names it cannot find.  A deleted
or renamed entry point would therefore drop its per-layer metrics without
failing anything.  These tests import the tracer's tables (nothing is
installed or rebound) and resolve each name against the package.

The tracer times a generator entry point per next(): dynamics.iterate must
stay a lazy generator function whose first next() yields the initial state
and whose every later next() at cadence 1 runs exactly one step.
"""

import importlib
import inspect
import os
import sys

import pytest

from nematicflow import (LeslieCoefficients, SolverConfig, State,
                         generate_initial)

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


def test_iterate_is_a_lazy_generator(grid16, fft_counts):
    """iterate is a generator function; its first next() runs no transform,
    each later next() at cadence 1 one imex1 step (25 inverse + 16 forward
    transforms: 5 + 3 on the 2N grid, 20 + 13 on the 3N/2 grid), and the
    one after the last step none."""
    dynamics = _module("dynamics")
    assert inspect.isgeneratorfunction(dynamics.iterate)
    u, d = generate_initial(grid16, profile="random", seed=3)
    config = SolverConfig(dt=1e-3, t_end=3e-3, scheme="imex1", record_cadence=1)
    steps = dynamics.iterate(State(grid16, u, d), LeslieCoefficients.ansatz(),
                             config)
    fft_counts[:] = [0, 0]
    assert next(steps)[0] == 0
    assert fft_counts == [0, 0]
    for m in range(1, config.n_steps + 1):
        fft_counts[:] = [0, 0]
        assert next(steps)[0] == m
        assert fft_counts == [25, 16]
        assert fft_counts.per_size == {32: [5, 3], 24: [20, 13]}
    fft_counts[:] = [0, 0]
    with pytest.raises(StopIteration):
        next(steps)
    assert fft_counts == [0, 0]
