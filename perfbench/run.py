"""kolmorep benchmark: membership, censor and cli workloads.

    python3 perfbench/run.py --workload membership --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from anywhere; the package is imported from src/ of the checkout this
file lives in. Each workload runs in a fresh process with BLAS and OpenMP
pinned to one thread. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --workload all it maps
each workload to that object, after a table of every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("membership", "censor", "cli")
# A run must end within 180 s; the worker gets the rest after start-up.
WORKER_TIMEOUT_S = 170
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """Start one worker process and wait for it; returns (stdout lines, result object)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, env={**os.environ, **PINNED}, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: worker did not finish within {WORKER_TIMEOUT_S} s") from None
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: worker exited {done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kolmorep benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kolmorep" / "__init__.py").is_file():
        sys.stderr.write(f"kolmorep sources not found under {ROOT / 'src'}\n")
        return 2
    if args.workload != "all":
        lines, result = run_worker(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines + [json.dumps(result)]))
        return 0

    results = {}
    for workload in WORKLOADS:
        lines, results[workload] = run_worker(workload, args.seed, args.seconds, args.trace)
        print("\n".join(f"[{workload}] {line}" for line in lines))
    print(f"{'metric':48} " + " ".join(f"{w:>14}" for w in WORKLOADS) + "  unit")
    for name, first in results[WORKLOADS[0]]["metrics"].items():
        row = " ".join(f"{results[w]['metrics'][name]['value']:14.6g}" for w in WORKLOADS)
        print(f"{name:48} {row}  {first['unit']}")
    for w in WORKLOADS:
        r = results[w]
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
