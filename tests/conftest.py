"""Shared fixtures for the test suite."""

import functools
import math
import sys
import threading

import numpy as np
import pytest

from nematicflow import GridSpec, SpectralField


@pytest.fixture(scope="session")
def grid16():
    return GridSpec(16)


def _in_two_threads(work):
    """[work(0), work(1)], run in two threads at once and interleaved
    finely (a short switch interval, restored afterwards)."""
    results = [None, None]

    def target(i):
        results[i] = work(i)

    threads = [threading.Thread(target=target, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


@pytest.fixture(scope="session")
def in_two_threads():
    return _in_two_threads


@pytest.fixture(scope="session")
def grid32():
    return GridSpec(32)


@pytest.fixture(scope="session")
def grid64():
    return GridSpec(64)


@pytest.fixture(scope="session")
def real_mode():
    """real_mode(grid, (nx, ny), kind="cos", amplitude=1.0) builds the real
    field amplitude * cos(n.x) (or sin) from its two exact coefficients."""
    def build(grid, mode, kind="cos", amplitude=1.0):
        n = grid.n_modes
        coeffs = np.zeros((n, n), dtype=np.complex128)
        at_n = 0.5 * amplitude if kind == "cos" else -0.5j * amplitude
        coeffs[mode[0] % n, mode[1] % n] += at_n
        coeffs[-mode[0] % n, -mode[1] % n] += np.conj(at_n)
        return SpectralField.from_coeffs(grid, coeffs)
    return build


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(20260816)


class _FFTCounts(list):
    """[inverse, forward] plane counts; per_size[M] holds the same pair for
    the transforms whose sample grid is M x M.  Assigning to the list (the
    reset counts[:] = [0, 0]) clears per_size too."""

    def __init__(self):
        super().__init__([0, 0])
        self.per_size = {}

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.per_size.clear()

    def add(self, kind, m, planes):
        super().__setitem__(kind, self[kind] + planes)
        self.per_size.setdefault(m, [0, 0])[kind] += planes


@pytest.fixture
def fft_counts(monkeypatch):
    """[inverse, forward] counts of 2-D transforms, one per batch element,
    with the same counts per sample grid size M in fft_counts.per_size.

    Wraps the 2-D/n-D entry points of numpy.fft, and its rfft and irfft: a
    last-axis rfft of real (..., M, M) planes is the first pass of a
    truncated forward and counts one forward per plane at size M (the axis
    -2 fft that completes it is not counted again); a last-axis irfft to
    real (..., M, M) planes is the last pass of a padded inverse and counts
    one inverse per plane at size M (the axis -2 ifft before it is not
    counted).  Reset the list in place between measurements.
    """
    counts = _FFTCounts()

    def counted(fn, kind, default_axes):
        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            shape = kwargs.get("s", args[0] if args else None)
            axes = kwargs.get("axes", args[1] if len(args) > 1 else default_axes)
            real_space = out if kind == 0 else np.asarray(x)
            if axes is None:  # n-D default: the last len(s) axes, or all
                axes = range(-len(shape), 0) if shape else range(out.ndim)
            sizes = [real_space.shape[a] for a in axes]
            counts.add(kind, max(sizes), real_space.size // math.prod(sizes))
            return out
        return wrapper

    def counted_last_axis(fn, kind):
        @functools.wraps(fn)
        def wrapper(a, n=None, axis=-1, *args, **kwargs):
            out = fn(a, n, axis, *args, **kwargs)
            shape = np.shape(out if kind == 0 else a)
            if (len(shape) >= 2 and axis in (-1, len(shape) - 1)
                    and shape[-2] == shape[-1]):
                counts.add(kind, shape[-1], math.prod(shape[:-2]))
            return out
        return wrapper

    for kind, names in ((0, ("ifft2", "irfft2", "ifftn", "irfftn")),
                        (1, ("fft2", "rfft2", "fftn", "rfftn"))):
        for name in names:
            axes = (-2, -1) if name.endswith("2") else None
            monkeypatch.setattr(np.fft, name,
                                counted(getattr(np.fft, name), kind, axes))
    for kind, name in ((0, "irfft"), (1, "rfft")):
        monkeypatch.setattr(np.fft, name,
                            counted_last_axis(getattr(np.fft, name), kind))
    return counts
