"""Benchmark of the dunkl_oscillator package, run from the root of a source checkout.

    python3 bench/run.py --workload {verify,spectrum,tabulate} --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` next to this directory; the run fails
(exit 2, no result) when that source tree is missing.

``--trace 0`` measures end to end: one caller runs operations back to back
(a closed loop) and every output is checked by an oracle in ``oracles.py``.
The run is a fixed number of whole input rounds, sized from S by each
workload's nominal round time, so the same seed and S always give the same
operations and the same attempted and failed counts; it lasts about S seconds
on a 2-vCPU x86 VM and longer on a slower machine.  ``--trace 1`` runs a
fixed prefix of the same operation stream twice, untraced and then with a span
around every public function of every layer (``spans.py``), and reports
per-layer metrics; the fixed prefix makes the counts repeat exactly for a
given seed.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted``/``failed`` count the workload's failure units (checks,
commands or tabulated functions); failures that match a known defect listed in
``oracles.KNOWN_DEFECTS`` count as failed but keep the run correct.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from spans import Tracer
from summary import END_TO_END_UNITS, LayerTotals, end_to_end, failed_share
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "dunkl_oscillator"
MAX_RUN_SECONDS = 150.0
THREADS_VAR = "DUNKL_OSC_THREADS"


def _fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def _import_package():
    if not (SRC / PACKAGE / "__init__.py").is_file():
        _fail(f"no package source at {SRC / PACKAGE}; run from a full source checkout")
    sys.path.insert(0, str(SRC))
    import dunkl_oscillator
    import dunkl_oscillator.cli  # noqa: F401  (cli.main is an entry point the workloads call)

    if Path(dunkl_oscillator.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        _fail(f"imported {dunkl_oscillator.__file__}, not the checkout's source")
    return dunkl_oscillator


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, threads_setting: str | None) -> dict:
    affinity = sorted(os.sched_getaffinity(0))
    cpu_count = os.cpu_count() or 1
    pool = min(8, cpu_count)
    return {
        "nproc": len(affinity),
        "affinity": affinity,
        "os_cpu_count": cpu_count,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "dunkl_osc_threads_set": threads_setting is not None,
        "dunkl_osc_threads_value": threads_setting,
        "verify_default_pool": pool,
        "verify_pool_within_nproc": pool <= len(affinity),
        "load_generator": "one process, one caller thread",
    }


def setup_time() -> float:
    """Wall time of a fresh ``python -m dunkl_oscillator --help`` process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", PACKAGE, "--help"], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        _fail(f"'python -m {PACKAGE} --help' exited with {proc.returncode}")
    return elapsed


def _warm_up(workload, rng) -> None:
    """One operation from a separate stream, not counted."""
    workload.run(workload.warmup_op(rng.spawn(1)[0]))


def run_untraced(workload, rng, seconds: float):
    _warm_up(workload, rng)
    # Set-up is timed once before the first round and once after each round,
    # between operations: on a shared VM start-up time shifts between levels
    # for tens of seconds at a time, and samples spread over the whole run
    # give a median that does not hang on one of them.
    setup = [setup_time()]
    records = []
    start = time.perf_counter()
    for n, op in enumerate(itertools.islice(workload.ops(rng), workload.ops_for(seconds)), 1):
        # Only a machine far slower than the nominal round time reaches the
        # cap, which keeps the run within the time a run may take.
        if time.perf_counter() - start >= MAX_RUN_SECONDS:
            break
        records.append(workload.run(op))
        if n % workload.round_size == 0:
            setup.append(setup_time())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, end_to_end(records, setup, peak)


def run_traced(workload, rng, package):
    _warm_up(workload, rng)
    stream = workload.ops(rng)
    ops = [next(stream) for _ in range(workload.trace_ops)]
    plain = [workload.run(op) for op in ops]
    tracer = Tracer()
    totals = LayerTotals()
    traced = []
    tracer.install(package)
    try:
        with tracer.errstate():
            for op in ops:
                traced.append(workload.run(op))
                totals.add(tracer.take())
                totals.c["bytes_out"] += traced[-1].bytes_out
    finally:
        tracer.uninstall()
    overhead = (statistics.median(r.latency_s for r in traced) /
                statistics.median(r.latency_s for r in plain)) - 1.0
    return traced, totals.metrics(tracer.fp_events, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = _import_package()
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    # The verify workload runs at library defaults, so a pool width set by
    # the caller's environment is recorded and then removed.
    threads_setting = os.environ.pop(THREADS_VAR, None)
    env = environment(args.seed, threads_setting)
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](package, workdir)
        rng = np.random.default_rng([args.seed, sorted(WORKLOADS).index(args.workload)])
        if args.trace:
            records, metrics = run_traced(workload, rng, package)
        else:
            records, e2e = run_untraced(workload, rng, args.seconds)
            metrics = {name: (e2e[name], unit) for name, unit in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted, failed, share = failed_share(records)
    unexplained = sum(r.unexplained for r in records)
    print(f"workload {args.workload}: {len(records)} operations, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        print(f"op_tail_s is the p{e2e['_tail_percentile']:.2f} latency of {e2e['_samples']} operations")
        print(f"work_per_s counts {workload.work_unit} per second of operation time")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_share = {share!r} ({failed} of {attempted} {workload.fail_unit})")
    known = sum((r.known for r in records), Counter())
    for name in sorted(known):
        print(f"known_defect {name} = {known[name]} {workload.fail_unit}")
    for record in records:
        for note in record.notes:
            print(f"unexplained: {note}")
    result = {
        "correct": unexplained == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
