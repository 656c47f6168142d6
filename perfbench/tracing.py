"""In-memory span recorder and the wrappers that feed it.

Used only by traced benchmark processes.  Spans are placed around calls
into each nematicflow module's public entry points by rebinding those
names, in every nematicflow module that imports them, to timing wrappers;
nothing under src/ is edited.  The 2-D and n-D FFT entry points of
numpy.fft and scipy.fft are wrapped as well, so each span also carries the
transforms (batch elements), transformed points and computed bytes (input
plus output array sizes) that ran inside it.

A span is the list
    [name, parent, start, end, work, fft_inverse, fft_forward, points, bytes]
with parent the index of the enclosing span (-1 at the root), times from
time.perf_counter, work a per-entry-point unit count (steps, rows, bytes,
trials; 0 where none applies), and the FFT columns inclusive of children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

from layers import LAYERS

FFT_INVERSE = ("ifft2", "irfft2", "ifftn", "irfftn")
FFT_FORWARD = ("fft2", "rfft2", "fftn", "rfftn")

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# (module, function, work) for each wrapped public entry point; work maps
# (args, kwargs, result) to the span's unit count.
ENTRY_POINTS = (
    ("configio", "parse_config", None),
    ("fields", "generate_initial", None),
    ("fields", "perturb", None),
    ("fields", "random_scalar", None),
    ("fields", "random_vector", None),
    ("fields", "focused_scalar", None),
    ("fields", "focused_vector", None),
    ("grid", "to_physical", None),
    ("grid", "product", None),
    ("grid", "lp_norm", None),
    ("grid", "l2_norm", None),
    ("dyadic", "hs_norm", None),
    ("dyadic", "hs_norm_vector", None),
    ("dynamics", "run", lambda a, k, r: _arg(a, k, 2, "config").n_steps),
    ("dynamics", "iterate", None),
    ("dynamics", "step", None),
    ("diagnostics", "energy_record", None),
    ("diagnostics", "uniqueness_record", None),
    ("diagnostics", "phi", None),
    ("diagnostics", "frak_d_components", None),
    ("diagnostics", "f_bound", None),
    ("osgood", "check_master_inequality", None),
    ("osgood", "osgood_divergence_certificate", None),
    ("snapshots", "persist",
     lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))),
    ("snapshots", "load", None),
    ("experiments", "write_csv", lambda a, k, r: len(_arg(a, k, 2, "rows"))),
    ("experiments", "make_initial_state", None),
    ("experiments", "run_experiment", None),
    ("experiments", "twin_experiment", None),
    ("experiments", "decompose_experiment", None),
    ("experiments", "verify_experiment", None),
)
METHODS = (("dyadic", "DyadicPartition", "delta"),
           ("dyadic", "DyadicPartition", "low_pass"))


class Tracer:
    """Collects spans and FFT counts in memory; dump() writes them out."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.fft = [0, 0, 0, 0]  # inverse, forward, points, bytes
        self.missing = []

    # -- spans -----------------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0, *self.fft])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index, work=0):
        rec = self.spans[index]
        rec[3] = time.perf_counter()
        rec[4] = work
        for k in range(4):
            rec[5 + k] = self.fft[k] - rec[5 + k]
        self.stack.pop()

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            count = 0
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    count = work(args, kwargs, result)
                return result
            finally:
                self.end(index, count)
        return wrapper

    def wrap_generator(self, name, fn):
        """One span per next(); the initial yield (step 0) is named name_init."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                index = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    self.end(index)
                    self.spans.pop()
                    return
                except BaseException:
                    self.end(index)
                    raise
                stepped = item[0] > 0
                if not stepped:
                    self.spans[index][0] = name + "_init"
                self.end(index, 1 if stepped else 0)
                yield item
        return wrapper

    # -- installation ----------------------------------------------------------

    def install_fft_counters(self):
        """Wrap the 2-D and n-D FFT entry points of numpy.fft and scipy.fft."""
        import scipy.fft

        for module in (np.fft, scipy.fft):
            for kind, names in ((0, FFT_INVERSE), (1, FFT_FORWARD)):
                for attr in names:
                    setattr(module, attr,
                            self._count_fft(getattr(module, attr), kind))

    def _count_fft(self, fn, inverse_or_forward):
        default_axes = (-2, -1) if fn.__name__.endswith("2") else None
        counts = self.fft

        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            x = np.asarray(x)
            s = kwargs.get("s", args[0] if args else None)
            axes = kwargs.get("axes", args[1] if len(args) > 1 else default_axes)
            if axes is None:
                axes = range(-len(s), 0) if s is not None else range(out.ndim)
            # the real-space side: output of an inverse, input of a forward
            real_space = out if inverse_or_forward == 0 else x
            points = 1
            for a in axes:
                points *= real_space.shape[a]
            batch = real_space.size // points
            counts[inverse_or_forward] += batch
            counts[2] += batch * points
            counts[3] += x.nbytes + out.nbytes
            return out
        return wrapper

    def install_entry_points(self, package="nematicflow"):
        """Rebind each listed public function in every package module.

        Modules bind imported functions under their own names, so every
        module-level name holding an original is replaced by its wrapper.
        """
        modules = [importlib.import_module(f"{package}.{m}") for m in LAYERS]
        modules.append(importlib.import_module(package))
        replaced = {}
        for mod_name, attr, work in ENTRY_POINTS:
            fn = getattr(importlib.import_module(f"{package}.{mod_name}"),
                         attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
            elif inspect.isgeneratorfunction(fn):
                replaced[id(fn)] = self.wrap_generator(f"{mod_name}.{attr}", fn)
            else:
                replaced[id(fn)] = self.wrap(f"{mod_name}.{attr}", fn, work)
        checks = getattr(importlib.import_module(f"{package}.harness"),
                         "ALL_CHECKS", None)
        if checks is None:
            self.missing.append("harness.ALL_CHECKS")
        else:
            trials = lambda a, k, r: _arg(a, k, 0, "spec").n_trials  # noqa: E731
            wrapped = tuple((label, self.wrap(f"harness.{fn.__name__}", fn, trials))
                            for label, fn in checks)
            replaced[id(checks)] = wrapped
            for (_, fn), (_, w) in zip(checks, wrapped):
                replaced[id(fn)] = w
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, key, replaced[id(value)])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{package}.{mod_name}"),
                          cls_name, None)
            fn = getattr(cls, meth, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{cls_name}.{meth}")
            else:
                setattr(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}", fn))
        if self.missing:
            print("trace: entry points not found: " + ", ".join(self.missing),
                  file=sys.stderr)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
