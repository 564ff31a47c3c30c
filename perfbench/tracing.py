"""Spans around the public functions of the nhlattice layers.

The tracer wraps each public function of the layer modules from outside the
program and patches the wrapper into every ``nhlattice`` namespace that
holds the function, because several modules import functions by name
(``analysis.eig_full``, ``propagation.real_space_hamiltonian``,
``spectral.interface_lattice``, ...). Spans stay in memory until ``dump``.

Per-pass totals are keyed ``<module>.<function>.<metric>`` with the metrics
``calls``, ``self_s`` (span time minus the time of its child spans) and the
work counters in ``COUNTERS``. ``propagation.propagate`` is split by method
into ``propagate.expm`` and ``propagate.rk4``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "lattice", "spectral", "topology", "symmetry", "propagation",
    "analysis", "calibration", "serialization", "cli",
)

# Per-value helpers, called once per CSV cell or JSON node: a span each
# would cost more than the work. Their time lands in the calling writer.
EXCLUDED = {"serialization.fmt", "serialization.jsonable"}


def _matrix_n3(args, result):
    h = args["h"]
    n = np.shape(getattr(h, "matrix", h))[0]
    return {"n3": n ** 3}


def _padded_bytes(args, result):
    n_z, n_x = args["field"].amplitudes.shape
    pad = args["pad_factor"]
    return {"bytes": pad * n_z * pad * n_x * np.dtype(complex).itemsize}


COUNTERS = {
    "spectral.eig_full": _matrix_n3,
    "analysis.momentum_spectrum": _padded_bytes,
    "analysis.fit_oscillation": lambda args, result: {"samples": len(args["intensity"])},
    "propagation.propagate": lambda args, result: {"samples": result.amplitudes.size},
    "serialization.write_csv": lambda args, result: {"bytes": result.stat().st_size},
}


def span_cost_s(calls: int = 20000) -> float:
    """Measured time one span adds around a function that does nothing."""

    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - plain) - (plain - start)) / calls


class Tracer:
    def __init__(self):
        self.spans = []  # (span_id, parent_id, op, name, start_s, end_s)
        self.op = None
        self.totals = defaultdict(float)
        self._stack = []  # [span_id, name, start_s, child_s]
        self._patches = []

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "nhlattice"]
        for layer in LAYERS:
            mod = importlib.import_module(f"nhlattice.{layer}")
            for name, fn in list(vars(mod).items()):
                key = f"{layer}.{name}"
                if (name.startswith("_") or key in EXCLUDED or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self._wrap(key, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, attr, fn))
                            setattr(m, attr, traced)

    def uninstall(self):
        for m, attr, fn in reversed(self._patches):
            setattr(m, attr, fn)
        self._patches.clear()

    def take_totals(self) -> dict:
        totals, self.totals = dict(self.totals), defaultdict(float)
        return totals

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def _wrap(self, key, fn):
        sig = inspect.signature(fn)
        counter = COUNTERS.get(key)
        by_method = key == "propagation.propagate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = key
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if by_method:
                    name = f"{key}.{bound.arguments['method']}"
            self._stack.append([len(self.spans) + len(self._stack), name, time.perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                for metric, value in counter(bound.arguments, result).items():
                    self.totals[f"{name}.{metric}"] += value
            return result

        return traced

    def _close(self):
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.totals[f"{name}.calls"] += 1
        self.totals[f"{name}.self_s"] += duration - child
        self.spans.append((span_id, parent, self.op, name, start, end))
