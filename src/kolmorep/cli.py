"""Command-line entry point.

Each subcommand except `simulate` returns ``(exit code, payload)``. The
payload is the dict that ``--format json`` prints, with every number already
formatted once; `main` alone picks the view, JSON or the command's text
renderer, which reads only the payload. `simulate` writes its records
itself (CSV, or JSON with ``--format json``, to stdout or ``-o``): the
serialize writers build every record's text from the trial columns, with no
dict per trial, so there is no records payload for `main` to print.

`main` may be called any number of times in one process; the calls share
one parser, built on the first call, so each pays only for its command.
`build_parser()` returns a fresh parser.

Exit codes are a stable contract across subcommands:
0 success / property holds, 2 negative verdict (outside the polytope,
inequality violated, verification mismatches), 3 setup distribution puts
weight on an incompatible context, 1 anything operational (bad files,
bad arguments).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import orsay as orsay_mod
from .censorship import (
    build_censored_space,
    validate_distribution,
    verify_censorship,
)
from .ch import ch_evaluate
from .errors import IncompatibleSupport, KolmorepError
from .polytope import ConjunctionScheme, Inside, Outside, membership, representation_from_weights
from .rational import RationalizationPolicy, format_rational
from .serialize import (
    censored_space_to_json, distribution_from_json, estimates_to_json, queries_from_json, records_to_csv,
    records_to_json, space_to_json, suite_from_json, vector_from_json, vector_to_json, weights_from_json,
    weights_to_json,
)
from .simulation import PRNG_ALGORITHM, estimate, run


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text: str, path=None) -> None:
    """Write `text`, newline-terminated, to stdout or else to a new file at `path`."""
    newline = "" if text.endswith("\n") else "\n"  # written apart: `text + "\n"` copies all of it
    if path is None:
        sys.stdout.write(text)
        sys.stdout.write(newline)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write(newline)


def _policy(args) -> RationalizationPolicy:
    return RationalizationPolicy(
        tolerance=args.tolerance,
        max_denominator=args.max_denominator,
        strict=args.strict,
    )


def _load_setup(args):
    """Suite, built under the run's policy, and validated setup distribution from `--suite` and `--dist`."""
    suite = suite_from_json(_load_json(args.suite), _policy(args))
    if suite.dim > 64:
        sys.stderr.write(
            f"warning: dim {suite.dim} is beyond the desk scale this tool targets; "
            "expect long runs\n"
        )
    raw = distribution_from_json(_load_json(args.dist), suite)
    return suite, validate_distribution(raw, suite)


def _fmt_table(rows: list) -> str:
    widths = [max(len(str(r[c])) for r in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _label(index_set) -> str:
    return "{" + ",".join(str(i) for i in sorted(index_set)) + "}"


def cmd_check(args):
    vec = vector_from_json(_load_json(args.vector), _policy(args))
    verdict = membership(vec, n_max=args.n_max)
    if isinstance(verdict, Inside):
        return 0, {"verdict": "inside", "weights": weights_to_json(vec.scheme.n, verdict.weights)["weights"]}
    assert isinstance(verdict, Outside)
    return 2, {
        "verdict": "outside",
        "certificate": [
            {"I": sorted(s), "c": format_rational(c)}
            for s, c in sorted(verdict.certificate.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        ],
        "offset": format_rational(verdict.offset),
        "gap": format_rational(verdict.gap(vec)),
    }


def text_check(payload, args) -> str:
    if payload["verdict"] == "inside":
        rows = [["assignment", "weight"]]
        rows += [["".join(map(str, w["eps"])), w["p"]] for w in payload["weights"]]
        return "Inside: the vector is a mixture of deterministic assignments\n" + _fmt_table(rows)
    rows = [["conjunction", "coefficient"]]
    rows += [[_label(c["I"]), c["c"]] for c in payload["certificate"]]
    rows.append(["offset", payload["offset"]])
    return (
        "Outside: separating functional (non-positive on every vertex)\n"
        f"{_fmt_table(rows)}\nvalue on this vector: {payload['gap']} > 0"
    )


def cmd_ch(args):
    report = ch_evaluate(vector_from_json(_load_json(args.vector), _policy(args)))
    return (0 if report.satisfied else 2), {
        "satisfied": report.satisfied,
        "inequalities": [
            {
                "label": r.label,
                "value": format_rational(r.value),
                "lower": None if r.lower is None else format_rational(r.lower),
                "upper": None if r.upper is None else format_rational(r.upper),
                "satisfied": r.satisfied,
                "slack": format_rational(r.slack),
            }
            for r in report.inequalities
        ],
    }


def text_ch(payload, args) -> str:
    rows = [["inequality", "value", "ok", "slack"]]
    rows += [
        [r["label"], r["value"], "yes" if r["satisfied"] else "NO", r["slack"]]
        for r in payload["inequalities"]
    ]
    return f"{_fmt_table(rows)}\noverall: {'satisfied' if payload['satisfied'] else 'violated'}"


def cmd_represent(args):
    n, weights = weights_from_json(_load_json(args.weights), _policy(args))
    payload = space_to_json(representation_from_weights(weights, ConjunctionScheme.singletons(n)))
    if args.output:
        _emit(json.dumps(payload, indent=2), args.output)
    return 0, payload


def text_represent(payload, args) -> str:
    if not args.output:
        return json.dumps(payload, indent=2)
    return f"wrote probability space with {len(payload['points'])} points to {args.output}"


def cmd_censor(args):
    suite, dist = _load_setup(args)
    censored = build_censored_space(suite, dist)
    max_order = 2 * suite.n if args.full_order else args.max_order
    report = verify_censorship(censored, suite, dist, max_order)

    space = censored_space_to_json(censored)
    if args.output:
        _emit(json.dumps(space, indent=2), args.output)
    return (0 if report.ok else 2), {
        "space": space,
        "verification": {
            "checked": report.checked,
            "max_order": report.max_order,
            "mismatches": [
                {"outcomes": list(m.outcomes), "switches": list(m.switches),
                 "expected": format_rational(m.expected), "found": format_rational(m.found)}
                for m in report.mismatches
            ],
        },
    }


def text_censor(payload, args) -> str:
    points = payload["space"]["points"]
    contexts = {p["id"].rpartition("|")[0] for p in points}  # ids are "<context>|<bits>"
    v = payload["verification"]
    lines = [
        f"censored space: {len(points)} points over {len(contexts)} contexts",
        f"verification: {v['checked']} event pairs checked up to order {v['max_order']}, "
        f"{len(v['mismatches'])} mismatches",
    ]
    lines += [
        f"  outcomes {tuple(m['outcomes'])} switches {tuple(m['switches'])}: "
        f"space {m['found']} vs effective {m['expected']}"
        for m in v["mismatches"]
    ]
    return "\n".join(lines)


def cmd_orsay(args):
    weights = args.weights.split(",") if args.weights else None
    angles = [float(x) for x in args.angles.split(",")] if args.angles else orsay_mod.DEFAULT_ANGLES_DEG
    cfg = orsay_mod.OrsayConfig.from_degrees(angles, weights, _policy(args))

    out = {}
    if args.emit in ("vectors", "all"):
        out["naked"] = vector_to_json(orsay_mod.naked_vector(cfg))
        effective = orsay_mod.effective_vector(cfg)
        out["effective"] = vector_to_json(effective.vector)
        out["effective"]["events"] = [effective.label(i) for i in range(1, 2 * len(effective.names) + 1)]
    if args.emit in ("tables", "all"):
        tab = orsay_mod.tables(cfg)
        out["contexts"] = [{"label": t.label, "cells": _cells(t.cells)} for t in tab.context_tables]
        out["censored"] = _cells(tab.censored_cells)
    return 0, out


def _cells(cells: dict) -> dict:
    """(row, col)-keyed table cells as "row|col" keys, in the table's row-major order."""
    return {f"{r}|{c}": format_rational(v) for (r, c), v in cells.items()}


def _grid(cells: dict) -> str:
    """Table of "row|col" cells; rows and columns in first-seen key order."""
    keys = [key.split("|") for key in cells]
    rows = dict.fromkeys(r for r, _ in keys)
    cols = list(dict.fromkeys(c for _, c in keys))
    table = [["", *cols]] + [[r, *(cells[f"{r}|{c}"] for c in cols)] for r in rows]
    return _fmt_table(table).replace("!", "¬")


def text_orsay(payload, args) -> str:
    blocks = []
    if "naked" in payload:
        rows = [["conjunction", "naked"]]
        rows += [[_label(e["I"]), e["p"]] for e in payload["naked"]["entries"]]
        blocks.append("naked (conditional) vector\n" + _fmt_table(rows))
        events = payload["effective"]["events"]
        rows = [["events", "effective"]]
        rows += [
            ["&".join(events[i - 1] for i in e["I"]), e["p"]]
            for e in payload["effective"]["entries"]
        ]
        blocks.append("effective vector over outcomes and switches\n" + _fmt_table(rows))
    if "contexts" in payload:
        blocks += [f"context {t['label']}\n{_grid(t['cells'])}" for t in payload["contexts"]]
        blocks.append("censored space\n" + _grid(payload["censored"]))
    return "\n\n".join(blocks)


def cmd_simulate(args):
    suite, dist = _load_setup(args)
    if args.queries:
        queries = queries_from_json(_load_json(args.queries))
        for outcomes, performed in queries:
            for name in outcomes + performed:
                suite.index(name)  # unknown names are errors, not zero frequencies
    else:
        queries = [((name,), ()) for name in suite.names]
        queries += [((), (name,)) for name in suite.names]
    trials = run(suite, dist, args.trials, args.seed)
    estimates = estimate(trials, queries)

    if args.format == "json":
        _emit(records_to_json(trials, estimates_to_json(estimates, args.seed, args.trials)), args.output)
        return 0, None
    _emit(records_to_csv(trials, args.seed), args.output)
    rows = [["outcomes", "performed", "frequency", "stderr"]]
    rows += [
        ["&".join(e.outcomes) or "-", "&".join(e.performed) or "-", f"{e.frequency:.6f}", f"{e.stderr:.6f}"]
        for e in estimates
    ]
    _emit(f"# estimates over {args.trials} trials ({PRNG_ALGORITHM} seed {args.seed})")
    _emit(_fmt_table(rows))
    return 0, None


def _global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same options are accepted before and after the subcommand; the
    # post-subcommand copies default to SUPPRESS so they only override.
    def add(flag, default, text, **kwargs):
        parser.add_argument(flag, default=argparse.SUPPRESS if suppress else default,
                            help=argparse.SUPPRESS if suppress else text, **kwargs)

    add("--format", "text", "output format (csv applies to simulate only)", choices=("text", "json", "csv"))
    add("--tolerance", 1e-9, "float-to-fraction identification tolerance", type=float)
    add("--max-denominator", 10**6, "largest denominator accepted when rationalizing floats", type=int)
    add("--strict", False, "reject floats that are not exact binary/decimal fractions", action="store_true")
    add("--seed", 0, "PRNG seed for simulate", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kolmorep",
        description="Exact classical-representability checks for correlation data, "
        "and censored-space construction for switch-driven quantum experiments.",
    )
    _global_options(parser, suppress=False)
    override = argparse.ArgumentParser(add_help=False)
    _global_options(override, suppress=True)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[override],
                       help="decide polytope membership of a correlation vector")
    p.add_argument("vector", help="correlation vector JSON file")
    p.add_argument("--n-max", type=int, default=16,
                   help="guard on the event count (2^n columns)")
    p.set_defaults(func=cmd_check, text=text_check)

    p = sub.add_parser("ch", parents=[override], help="evaluate the 4-event Clauser-Horne system")
    p.add_argument("vector", help="correlation vector JSON file")
    p.set_defaults(func=cmd_ch, text=text_ch)

    p = sub.add_parser("represent", parents=[override], help="build a probability space from vertex weights")
    p.add_argument("weights", help="weights JSON file")
    p.add_argument("-o", "--output", help="write the space JSON here")
    p.set_defaults(func=cmd_represent, text=text_represent)

    p = sub.add_parser("censor", parents=[override], help="build and verify the censored space of a suite")
    p.add_argument("--suite", required=True, help="measurement suite JSON file")
    p.add_argument("--dist", required=True, help="setup distribution JSON file")
    p.add_argument("-o", "--output", help="write the space JSON here")
    p.add_argument("--max-order", type=int, default=None,
                   help="largest |I1 u I2| verified, at least 1 (default 2n: every pair)")
    p.add_argument("--full-order", action="store_true",
                   help="verify all event pairs (the default; kept for old scripts)")
    p.set_defaults(func=cmd_censor, text=text_censor)

    p = sub.add_parser("orsay", parents=[override], help="singlet switch scenario: vectors and tables")
    p.add_argument("--angles", help="degrees for a,a',b,b' (default 120,0,0,240)")
    p.add_argument("--weights", help="four context weights, e.g. 1/4,1/4,1/4,1/4")
    p.add_argument("--emit", choices=("tables", "vectors", "all"), default="all")
    p.set_defaults(func=cmd_orsay, text=text_orsay)

    p = sub.add_parser("simulate", parents=[override], help="sample switch choices and outcomes")
    p.add_argument("--suite", required=True, help="measurement suite JSON file")
    p.add_argument("--dist", required=True, help="setup distribution JSON file")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--queries", help="queries JSON file")
    p.add_argument("-o", "--output", help="write records here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    return parser


# The parser `main` shares across calls, built on the first call. Parsing
# never mutates it: each subcommand parses into a fresh namespace, and no
# action has a mutable default.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        code, payload = args.func(args)
        if payload is not None:
            _emit(json.dumps(payload, indent=2) if args.format == "json" else args.text(payload, args))
        return code
    except IncompatibleSupport as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: invalid JSON: {exc}\n")
        return 1
    except (KolmorepError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
