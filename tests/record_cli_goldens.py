"""Golden corpus of `kolmorep` command lines, and the recorder of its digests.

Each case runs `kolmorep.cli.main` in-process, with the working directory set
to a directory holding the input files below, so every path in the output is
relative and the same on every run. For each case the golden keeps the exit
code and the sha256 of stdout, of stderr and of each `-o` artifact. Argparse
usage errors keep only the exit code, because their text varies across
Python versions.

`tests/test_cli_golden.py` replays the corpus against `tests/cli_goldens.json`.
Re-record only when an output change is intended:

    PYTHONPATH=src python tests/record_cli_goldens.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from kolmorep.ch import ch_scheme
from kolmorep.cli import main
from kolmorep.orsay import (
    OrsayConfig,
    effective_pair_vector,
    naked_vector,
)
from kolmorep.polytope import vertex
from kolmorep.serialize import distribution_to_json, suite_to_json, vector_to_json

GOLDENS = Path(__file__).with_name("cli_goldens.json")


def write_inputs(root) -> None:
    """Input files of the corpus, written into `root`."""
    cfg = OrsayConfig()
    suite = cfg.suite
    dist = cfg.distribution
    bad_suite = suite_to_json(suite)
    bad_suite["measurements"][0]["projector"]["entries"][0][0] = [0.3, 0.0]
    files = {
        "naked.json": vector_to_json(naked_vector(cfg)),
        "effective.json": vector_to_json(effective_pair_vector(cfg)),
        "vertex.json": vector_to_json(vertex((1, 0, 1, 1), ch_scheme())),
        "floats.json": {"n": 2, "entries": [
            {"I": 1, "p": 0.5}, {"I": [2], "p": 1 / 3}, {"I": [1, 2], "p": "1/6"},
        ]},
        "suite.json": suite_to_json(suite),
        "dist.json": distribution_to_json(suite, dist.weights),
        "skew.json": {"contexts": [
            {"members": ["A", "B"], "weight": "1/2"},
            {"members": ["A", "B'"], "weight": "0.25"},
            {"members": ["A'", "B"], "weight": 0.25},
            {"members": ["A'", "B'"], "weight": "0"},
        ]},
        "incompatible.json": {"contexts": [
            {"members": ["A", "A'"], "weight": "1/2"},
            {"members": ["A", "B"], "weight": "1/2"},
        ]},
        "badsuite.json": bad_suite,
        "weights.json": {"n": 2, "weights": [
            {"eps": [0, 0], "p": "1/4"}, {"eps": [0, 1], "p": "1/4"},
            {"eps": [1, 0], "p": "1/4"}, {"eps": [1, 1], "p": "1/4"},
        ]},
        "weights3.json": {"n": 3, "weights": [
            {"eps": [1, 0, 1], "p": "2/3"}, {"eps": [0, 1, 1], "p": "1/6"},
            {"eps": [0, 0, 0], "p": 0.16666666666666666},
        ]},
        "queries.json": {"queries": [
            {"outcomes": ["A"], "performed": []},
            {"outcomes": ["A", "B"], "performed": ["A", "B"]},
            {"outcomes": [], "performed": ["A'"]},
        ]},
        "typo.json": {"queries": [{"outcomes": ["Typo"]}]},
    }
    root = Path(root)
    for name, obj in files.items():
        (root / name).write_text(json.dumps(obj), encoding="utf-8")
    (root / "invalid.json").write_text("{not json", encoding="utf-8")


FORMATS = ("text", "json", "csv")
ORSAY_ANGLES = {"default": [], "120": ["--angles", "120,0,0,240"],
                "60s": ["--angles", "60,180,300,0"], "37": ["--angles", "37,0,0,200"]}
SUITE = ["--suite", "suite.json", "--dist", "dist.json"]
SIM = ["simulate", *SUITE, "--trials", "40", "--seed", "7"]


def _cases() -> dict:
    cases = {}
    for fmt in FORMATS:
        f = ["--format", fmt]
        for vec in ("naked", "effective"):
            cases[f"check/{vec}/{fmt}"] = f + ["check", f"{vec}.json"]
            cases[f"ch/{vec}/{fmt}"] = f + ["ch", f"{vec}.json"]
        cases[f"represent/{fmt}"] = f + ["represent", "weights.json"]
        cases[f"represent/o/{fmt}"] = f + ["represent", "weights3.json", "-o", f"space-{fmt}.json"]
        cases[f"censor/{fmt}"] = f + ["censor", *SUITE]
        cases[f"censor/full/{fmt}"] = f + ["censor", *SUITE, "--full-order"]
        cases[f"censor/o/{fmt}"] = f + ["censor", *SUITE, "-o", f"censored-{fmt}.json"]
        cases[f"censor/incompatible/{fmt}"] = f + ["censor", "--suite", "suite.json",
                                                   "--dist", "incompatible.json"]
        for emit in ("tables", "vectors", "all"):
            for name, angles in ORSAY_ANGLES.items():
                cases[f"orsay/{emit}/{name}/{fmt}"] = f + ["orsay", "--emit", emit, *angles]
        cases[f"simulate/{fmt}"] = f + SIM
        cases[f"simulate/queries/{fmt}"] = f + SIM + ["--queries", "queries.json"]
        cases[f"simulate/o/{fmt}"] = f + SIM + ["-o", f"records-{fmt}.out"]
    for fmt in ("text", "json"):
        f = ["--format", fmt]
        cases[f"orsay/zero-weight/{fmt}"] = f + ["orsay", "--weights", "1/2,1/4,1/4,0"]
    cases.update({
        "check/vertex": ["check", "vertex.json"],
        "check/floats": ["check", "floats.json"],
        "censor/skew/full": ["censor", "--suite", "suite.json", "--dist", "skew.json", "--full-order"],
        "censor/skew/json": ["--format", "json", "censor", "--suite", "suite.json", "--dist", "skew.json"],
        "censor/max-order": ["censor", *SUITE, "--max-order", "2"],
        "orsay/weights": ["orsay", "--angles", "0,90,0,180", "--weights", "1/2,1/2,0,0", "--emit", "vectors"],
        # global flags after the subcommand
        "after/check": ["check", "naked.json", "--format", "json"],
        "after/ch": ["ch", "effective.json", "--format", "json", "--tolerance", "1e-6"],
        "after/represent": ["represent", "weights.json", "--format", "json", "--strict"],
        "after/censor": ["censor", *SUITE, "--format", "json", "--max-denominator", "1000"],
        "after/orsay": ["orsay", "--emit", "vectors", "--format", "json"],
        "after/simulate": ["simulate", *SUITE, "--trials", "25", "--seed", "3", "--format", "csv"],
        "after/override": ["--format", "json", "--seed", "1", *SIM[:-2], "--seed", "9", "--format", "csv"],
        # exit 1
        "error/check/missing": ["check", "missing.json"],
        "error/check/schema": ["check", "dist.json"],
        "error/check/invalid-json": ["check", "invalid.json"],
        "error/check/strict": ["--strict", "check", "floats.json"],
        "error/check/max-denominator": ["--max-denominator", "2", "check", "floats.json"],
        "error/check/n-max": ["check", "naked.json", "--n-max", "3"],
        "error/ch/schema": ["ch", "weights.json"],
        "error/represent/schema": ["represent", "naked.json"],
        "error/censor/bad-projector": ["censor", "--suite", "badsuite.json", "--dist", "dist.json"],
        "error/censor/missing-dist": ["censor", "--suite", "suite.json", "--dist", "missing.json"],
        "error/censor/invalid-json": ["censor", "--suite", "invalid.json", "--dist", "dist.json"],
        "error/orsay/weights-sum": ["orsay", "--weights", "1/2,1/2,1/2,0"],
        "error/orsay/weights-garbage": ["orsay", "--weights", "1/2,x,0,0"],
        "error/orsay/three-angles": ["orsay", "--angles", "1,2,3"],
        "error/orsay/angle-garbage": ["orsay", "--angles", "1,2,3,x"],
        "error/simulate/zero-trials": ["simulate", *SUITE, "--trials", "0"],
        "error/simulate/unknown-query": SIM + ["--queries", "typo.json"],
        "error/simulate/incompatible": ["simulate", "--suite", "suite.json", "--dist", "incompatible.json",
                                        "--trials", "5"],
    })
    usage = {
        "usage/no-command": [],
        "usage/check-missing-vector": ["check"],
        "usage/unknown-command": ["bogus"],
        "usage/bad-format": ["--format", "xml", "orsay"],
        "usage/bad-emit": ["orsay", "--emit", "nope"],
        "usage/missing-trials": ["simulate", *SUITE],
        "usage/help": ["--help"],
        "usage/check-help": ["check", "--help"],
    }
    return {key: (argv, key not in usage) for key, argv in {**cases, **usage}.items()}


# case id -> (argv, whether stdout/stderr/artifacts are pinned)
CASES = _cases()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_case(argv: list, pinned: bool) -> dict:
    """Run one case in the current directory and return its golden record."""
    artifacts = [argv[k + 1] for k, a in enumerate(argv) if a in ("-o", "--output")]
    for path in artifacts:
        if os.path.exists(path):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    record = {"exit": code}
    if pinned:
        record["stdout"] = _digest(out.getvalue())
        record["stderr"] = _digest(err.getvalue())
        record["artifacts"] = {
            path: _digest(Path(path).read_text(encoding="utf-8")) if os.path.exists(path) else None
            for path in artifacts
        }
    return record


def record_all() -> dict:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        write_inputs(root)
        os.chdir(root)
        try:
            return {key: {"argv": argv, **run_case(argv, pinned)} for key, (argv, pinned) in CASES.items()}
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    lines = [f" {json.dumps(key)}: {json.dumps(rec, sort_keys=True)}" for key, rec in sorted(record_all().items())]
    GOLDENS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    sys.stdout.write(f"recorded {len(CASES)} cases in {GOLDENS}\n")
