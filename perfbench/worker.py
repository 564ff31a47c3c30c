"""The workload process: runs whole passes over a workload's configs.

Started once per benchmark run with one BLAS thread, it says
``{"ready": true}`` once its imports are done, then reads one JSON command
per line on stdin and answers one JSON line on its stdout:

    {"cmd": "pass", "trace": false} -> {"pass_s": ..., "codes": [...], "layers": {...}}
    {"cmd": "exit"}                 -> {"peak_rss_mb": ..., "blas_threads": {...},
                                        "span_cost_s": ...}

A pass is ``nhlattice.cli.main(["run", cfg])`` for every config, in order,
timed as a whole. Program output that would go to stdout goes to stderr.

    python worker.py <config.json> [<config.json> ...]
"""

from __future__ import annotations

import ctypes
import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

from tracing import Tracer, span_cost_s


def blas_threads() -> dict:
    """Thread count of the OpenBLAS bundled with numpy and with scipy."""
    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads")
    found = {}
    for pkg in ("numpy", "scipy"):
        libdir = Path(importlib.import_module(pkg).__file__).parent.parent / f"{pkg}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            dll = ctypes.CDLL(str(lib))
            for sym in symbols:
                if hasattr(dll, sym):
                    get = getattr(dll, sym)
                    get.argtypes, get.restype = [], ctypes.c_int
                    found[pkg] = get()
                    break
    return found


def main(paths) -> int:
    reply = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    import nhlattice.cli as cli

    tracer = Tracer()
    reply.write(json.dumps({"ready": True}) + "\n")
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "exit":
            tracer.dump("spans.jsonl")
            reply.write(json.dumps({
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "blas_threads": blas_threads(),
                "span_cost_s": span_cost_s(),
            }) + "\n")
            return 0
        shutil.rmtree("out", ignore_errors=True)
        if cmd["trace"]:
            tracer.install()
        codes = []
        start = time.perf_counter()
        for op, path in enumerate(paths):
            tracer.op = op
            codes.append(cli.main(["run", path]))
        pass_s = time.perf_counter() - start
        tracer.uninstall()
        reply.write(json.dumps({
            "pass_s": pass_s, "codes": codes, "layers": tracer.take_totals(),
        }) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
