"""One set-up sample: a fresh interpreter imports nhlattice.cli and validates
the workload's configs through ``nhlattice validate``.

    python setup_probe.py <trace 0|1> <config.json> [<config.json> ...]

Prints one JSON line with the in-process import and validation times and,
when traced, the span totals of the validation.
"""

import time

start = time.perf_counter()
import nhlattice.cli as cli  # noqa: E402

imported = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(trace: bool, paths) -> int:
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    begin = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(["validate", p]) for p in paths]
    validate_s = time.perf_counter() - begin
    if any(codes):
        print(f"validation failed: {codes}", file=sys.stderr)
        return 1
    print(json.dumps({
        "import_s": imported - start,
        "validate_s": validate_s,
        "layers": tracer.take_totals() if tracer else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] == "1", sys.argv[2:]))
