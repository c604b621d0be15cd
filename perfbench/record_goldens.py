"""Record goldens.json: membership verdict classes and CLI exit codes and stdout digests.

    python3 perfbench/record_goldens.py

Covers every pool item the workloads can draw, whatever the seed. Run it
only at a commit whose outputs are known good; the benchmark then holds
every later commit to the same verdicts and the same bytes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import import_package  # noqa: E402


def main() -> int:
    kp, _ = import_package()
    membership = {}
    for cls, n in sorted(set(workloads.MEMBERSHIP_BLOCK)) + [("effective", "orsay")]:
        stratum = f"{cls}/{n}"
        verdicts = []
        for idx in range(1 if n == "orsay" else workloads.POOL):
            vector = workloads.membership_vector(kp, workloads.membership_spec(cls, n, idx))
            verdicts.append(workloads.verdict_class(kp, kp.polytope.membership(vector)))
        membership[stratum] = "".join(verdicts)
        print(stratum, membership[stratum], flush=True)

    cli = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as workdir:
        files = workloads.write_cli_files(kp, workloads.plan_cli_files(), workdir)
        for cmd, variant in workloads.CLI_SESSION:
            pool = workloads.SIM_SEEDS if cmd == "simulate" else workloads.CLI_POOL
            for k in range(pool):
                code, out, _ = workloads.run_cli(kp, workloads.cli_argv(cmd, variant, k, files))
                cli[f"{cmd}/{variant}/{k}"] = [code, workloads.digest(out)]
    (HERE / "goldens.json").write_text(
        json.dumps({"membership": membership, "cli": cli}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
