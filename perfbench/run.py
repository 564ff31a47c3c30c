"""Benchmark of nhlattice on its figure configs and on 200-400-site chains.

    python3 perfbench/run.py --workload fits|maps|large-chain --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. One long-lived workload process
(worker.py) runs whole passes over the workload's configs through
``nhlattice.cli.main(["run", cfg])`` with one BLAS thread, until the timed
passes add up to ``--seconds``. Before every pass and after the last, a fresh
interpreter (setup_probe.py) imports ``nhlattice.cli`` and validates the
configs; its wall time is one set-up sample. After each pass, outside the
timed region, checks.py checks every output file.

The last stdout line is the result: ``correct``, ``attempted`` and
``failed`` operations (one grid point or one grid-free config each) and the
metrics. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
Work files go to ``.bench_work/`` in the checkout.
"""

import os

# One BLAS thread here too, so the checks leave no spinning BLAS threads
# behind while the next pass or set-up sample runs; set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170

# Per-layer metrics reported by --trace 1; see README.md for what each is
# expected to move. Layers a workload does not call read 0.
LAYER_METRICS = (
    "analysis.fit_oscillation.self_s", "analysis.fit_oscillation.calls",
    "analysis.fit_oscillation.samples",
    "analysis.fit_decay.self_s", "analysis.fit_decay.calls",
    "analysis.momentum_spectrum.self_s", "analysis.momentum_spectrum.bytes",
    "analysis.interface_vs_defect.self_s",
    "serialization.write_csv.self_s", "serialization.write_csv.calls",
    "serialization.write_csv.bytes", "serialization.write_json.self_s",
    "spectral.eig_full.self_s", "spectral.eig_full.calls", "spectral.eig_full.n3",
    "spectral.ep_sweep.self_s", "spectral.find_zero_modes.self_s",
    "propagation.propagate.rk4.self_s", "propagation.propagate.rk4.samples",
    "propagation.propagate.expm.self_s", "propagation.propagate.expm.samples",
    "topology.winding_number.self_s", "symmetry.check_symmetries.self_s",
    "lattice.real_space_hamiltonian.self_s", "lattice.real_space_hamiltonian.calls",
    "cli.main.self_s", "cli.execute_single.self_s", "cli.execute_sweep.self_s",
    "cli.validate_config.self_s", "cli.validate_config.setup_s", "cli.import_s",
    "trace.pass_s", "trace.overhead_s", "trace.unattributed_s", "trace.span_cost_s",
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "B" if name.endswith(".bytes") else "count"


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("NHLATTICE_WORKERS", "PYTHONDONTWRITEBYTECODE", "PYTHONHOME", "PYTHONSTARTUP"):
        env.pop(key, None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
        PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        PYTHONHASHSEED="0",
    )
    return env


class Worker:
    """The workload process and its line protocol (see worker.py)."""

    def __init__(self, paths, cwd, env):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *paths],
            cwd=cwd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.read()  # the ready line: imports are done before any timing

    def ask(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"workload process ended (exit {self.proc.wait()})")
        return json.loads(line)

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def setup_sample(paths, cwd, env, trace: bool) -> dict:
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), "1" if trace else "0", *paths],
        cwd=cwd, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()}")
    sample = json.loads(res.stdout.splitlines()[-1])
    sample["wall_s"] = wall
    return sample


class Tally:
    """Operations attempted and failed, and whether all others checked out."""

    def __init__(self, items, base: Path):
        self.items, self.base = items, base
        self.attempted = self.failed = 0
        self.correct = True

    def add_pass(self, codes):
        for item, code in zip(self.items, codes):
            ops, problems = checks.check_item(item, self.base, code)
            self.attempted += len(ops)
            for label, error, op_problems in ops:
                if error:
                    self.failed += 1
                    print(f"failed: {label}: {error}", file=sys.stderr)
                elif op_problems and item["known_fault"]:
                    self.failed += 1
                    print(f"failed (known fault: {item['known_fault']}): {label}: "
                          f"{'; '.join(op_problems)}", file=sys.stderr)
                elif op_problems:
                    self.correct = False
                    print(f"WRONG: {label}: {'; '.join(op_problems)}", file=sys.stderr)
            if problems:
                self.correct = False
                print(f"WRONG: {item['name']}: {'; '.join(problems)}", file=sys.stderr)


def _median(values):
    return statistics.median(values) if values else 0.0


def run(args) -> int:
    if not (ROOT / "src" / "nhlattice" / "cli.py").is_file():
        print(f"error: no nhlattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = WORK / args.workload
    shutil.rmtree(base, ignore_errors=True)
    (base / "configs").mkdir(parents=True)
    items = workloads.build(args.workload, args.seed, ROOT)
    paths = []
    for item in items:
        path = f"configs/{item['name']}.json"
        (base / path).write_text(json.dumps(item["config"], indent=2), encoding="utf-8")
        paths.append(path)
    env = child_env()
    tally = Tally(items, base)

    setup_sample(paths, base, env, False)  # untimed: fills the bytecode cache
    worker = Worker(paths, base, env)
    try:
        signal.alarm(RUN_LIMIT_S)
        setups, plain, traced, layer_passes = [], [], [], []
        while not plain or sum(plain) + sum(traced) < args.seconds:
            setups.append(setup_sample(paths, base, env, bool(args.trace)))
            for trace in (False, True) if args.trace else (False,):
                reply = worker.ask(cmd="pass", trace=trace)
                tally.add_pass(reply["codes"])
                (traced if trace else plain).append(reply["pass_s"])
                if trace:
                    layer_passes.append(reply["layers"])
        setups.append(setup_sample(paths, base, env, bool(args.trace)))
        final = worker.ask(cmd="exit")
        worker.proc.wait()
    finally:
        signal.alarm(0)
        worker.close()

    env_record = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": final["blas_threads"],
        "passes_s": plain + traced,
        "setups_s": [s["wall_s"] for s in setups],
    }
    print(json.dumps({"environment": env_record}))

    if args.trace:
        metrics = {}
        for name in LAYER_METRICS:
            metrics[name] = _median([p.get(name, 0.0) for p in layer_passes])
        self_sums = [sum(v for k, v in p.items() if k.endswith(".self_s")) for p in layer_passes]
        spans = [sum(v for k, v in p.items() if k.endswith(".calls")) for p in layer_passes]
        metrics.update({
            "cli.validate_config.setup_s": _median(
                [s["layers"].get("cli.validate_config.self_s", 0.0) for s in setups]),
            "cli.import_s": _median([s["import_s"] for s in setups]),
            "trace.pass_s": _median(traced),
            "trace.overhead_s": _median(traced) - _median(plain),
            "trace.unattributed_s": _median([t - s for t, s in zip(traced, self_sums)]),
            "trace.span_cost_s": _median(spans) * final["span_cost_s"],
        })
    else:
        metrics = {
            "pass_s": _median(plain),
            "setup_s": _median([s["wall_s"] for s in setups]),
            "peak_rss_mb": final["peak_rss_mb"],
        }
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _timeout)
    try:
        return run(args)
    except (RuntimeError, TimeoutError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
