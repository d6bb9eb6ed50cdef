"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload verify --seeds 1-10 --seconds 20 [--trace 0] [--out FILE]

For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the distance between them as a
share of the median, which is the spread the metric's bound in
BENCHMARK.json must cover.  ``--out`` writes the per-seed results and the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "result": result, "log": lines[:-1]})
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}",
              flush=True)
    names = list(runs[0]["result"]["metrics"])
    summary = {name: summarize([r["result"]["metrics"][name]["value"] for r in runs]) for name in names}
    for name, s in summary.items():
        print(f"{name}: median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  iqr/median {s['iqr_share']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                              "trace": args.trace, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
