"""Command-line entry point.

Exit codes are a stable contract across subcommands:
0 success / property holds, 2 negative verdict (outside the polytope,
inequality violated, verification mismatches), 3 setup distribution puts
weight on an incompatible context, 1 anything operational (bad files,
bad arguments).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import orsay as orsay_mod
from .censorship import (
    build_censored_space,
    compute_compatibility,
    validate_distribution,
    verify_censorship,
)
from .ch import ch_evaluate
from .errors import IncompatibleSupport, KolmorepError
from .polytope import (
    ConjunctionScheme,
    Inside,
    Outside,
    membership,
    representation_from_weights,
)
from .rational import RationalizationPolicy, format_rational
from .serialize import (
    censored_space_to_json,
    distribution_from_json,
    estimates_to_json,
    queries_from_json,
    records_to_csv,
    space_to_json,
    suite_from_json,
    vector_from_json,
    vector_to_json,
    weights_from_json,
)
from .simulation import PRNG_ALGORITHM, estimate, run


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _write_artifact(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _policy(args) -> RationalizationPolicy:
    return RationalizationPolicy(
        tolerance=args.tolerance,
        max_denominator=args.max_denominator,
        strict=args.strict,
    )


def _load_suite(path: str):
    suite = suite_from_json(_load_json(path))
    if suite.dim > 64:
        sys.stderr.write(
            f"warning: dim {suite.dim} is beyond the desk scale this tool targets; "
            "expect long runs\n"
        )
    return suite


def _fmt_table(rows: list) -> str:
    widths = [max(len(str(r[c])) for r in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _label(index_set) -> str:
    return "{" + ",".join(str(i) for i in sorted(index_set)) + "}"


def cmd_check(args) -> int:
    vec = vector_from_json(_load_json(args.vector), _policy(args))
    verdict = membership(vec, n_max=args.n_max)
    if isinstance(verdict, Inside):
        if args.format == "json":
            _emit(json.dumps({
                "verdict": "inside",
                "weights": [
                    {"eps": list(bits), "p": format_rational(w)}
                    for bits, w in sorted(verdict.weights.items())
                ],
            }, indent=2))
        else:
            _emit("Inside: the vector is a mixture of deterministic assignments")
            rows = [["assignment", "weight"]]
            rows += [
                ["".join(str(b) for b in bits), format_rational(w)]
                for bits, w in sorted(verdict.weights.items())
            ]
            _emit(_fmt_table(rows))
        return 0
    assert isinstance(verdict, Outside)
    if args.format == "json":
        _emit(json.dumps({
            "verdict": "outside",
            "certificate": [
                {"I": sorted(s), "c": format_rational(c)}
                for s, c in sorted(verdict.certificate.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
            ],
            "offset": format_rational(verdict.offset),
            "gap": format_rational(verdict.gap(vec)),
        }, indent=2))
    else:
        _emit("Outside: separating functional (non-positive on every vertex)")
        rows = [["conjunction", "coefficient"]]
        rows += [
            [_label(s), format_rational(c)]
            for s, c in sorted(verdict.certificate.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        ]
        rows.append(["offset", format_rational(verdict.offset)])
        _emit(_fmt_table(rows))
        _emit(f"value on this vector: {format_rational(verdict.gap(vec))} > 0")
    return 2


def cmd_ch(args) -> int:
    vec = vector_from_json(_load_json(args.vector), _policy(args))
    report = ch_evaluate(vec)
    if args.format == "json":
        _emit(json.dumps({
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
        }, indent=2))
    else:
        rows = [["inequality", "value", "ok", "slack"]]
        rows += [
            [r.label, format_rational(r.value), "yes" if r.satisfied else "NO", format_rational(r.slack)]
            for r in report.inequalities
        ]
        _emit(_fmt_table(rows))
        _emit(f"overall: {'satisfied' if report.satisfied else 'violated'}")
    return 0 if report.satisfied else 2


def cmd_represent(args) -> int:
    n, weights = weights_from_json(_load_json(args.weights), _policy(args))
    scheme = ConjunctionScheme.singletons(n)
    space = representation_from_weights(weights, scheme)
    payload = space_to_json(space)
    if args.output:
        _write_artifact(args.output, payload)
    if args.format == "json" or not args.output:
        _emit(json.dumps(payload, indent=2))
    else:
        _emit(f"wrote probability space with {len(space.points)} points to {args.output}")
    return 0


def cmd_censor(args) -> int:
    policy = _policy(args)
    suite = _load_suite(args.suite)
    raw = distribution_from_json(_load_json(args.dist), suite, policy)
    structure = compute_compatibility(suite)
    dist = validate_distribution(raw, structure)
    censored = build_censored_space(suite, dist, policy)
    max_order = 2 * suite.n if args.full_order else args.max_order
    report = verify_censorship(censored, suite, dist, max_order, policy)

    payload = censored_space_to_json(censored)
    if args.output:
        _write_artifact(args.output, payload)
    if args.format == "json":
        _emit(json.dumps({
            "space": payload,
            "verification": {
                "checked": report.checked,
                "max_order": report.max_order,
                "mismatches": [
                    {
                        "outcomes": list(m.outcomes),
                        "switches": list(m.switches),
                        "expected": format_rational(m.expected),
                        "found": format_rational(m.found),
                    }
                    for m in report.mismatches
                ],
            },
        }, indent=2))
    else:
        _emit(f"censored space: {len(censored.space.points)} points over {len(dist.support)} contexts")
        _emit(f"verification: {report.checked} event pairs checked up to order {report.max_order}, "
              f"{len(report.mismatches)} mismatches")
        for m in report.mismatches:
            _emit(f"  outcomes {m.outcomes} switches {m.switches}: "
                  f"space {format_rational(m.found)} vs effective {format_rational(m.expected)}")
    return 0 if report.ok else 2


def _render_context_table(table) -> str:
    rows = [["", *table.cols]]
    for r in table.rows:
        rows.append([r, *(format_rational(table.cells[(r, c)]) for c in table.cols)])
    pretty = _fmt_table(rows).replace("!", "¬")
    return f"context {table.label}\n{pretty}"


def cmd_orsay(args) -> int:
    weights = None
    if args.weights:
        weights = [Fraction(w) for w in args.weights.split(",")]
    angles = [float(x) for x in args.angles.split(",")] if args.angles else orsay_mod.DEFAULT_ANGLES_DEG
    cfg = orsay_mod.OrsayConfig.from_degrees(angles, weights)
    policy = _policy(args)

    out = {}
    blocks = []
    if args.emit in ("vectors", "all"):
        naked = orsay_mod.naked_vector(cfg, policy)
        effective = orsay_mod.effective_vector(cfg, policy=policy)
        out["naked"] = vector_to_json(naked)
        eff_json = vector_to_json(effective.vector)
        eff_json["events"] = [effective.label(i) for i in range(1, 9)]
        out["effective"] = eff_json
        rows = [["conjunction", "naked"]]
        rows += [[_label(s), format_rational(v)] for s, v in naked.items()]
        blocks.append("naked (conditional) vector\n" + _fmt_table(rows))
        rows = [["events", "effective"]]
        rows += [
            ["&".join(effective.label(i) for i in sorted(s)), format_rational(v)]
            for s, v in effective.vector.items()
        ]
        blocks.append("effective vector over outcomes and switches\n" + _fmt_table(rows))
    if args.emit in ("tables", "all"):
        tab = orsay_mod.tables(cfg, policy)
        out["contexts"] = [
            {
                "label": t.label,
                "cells": {f"{r}|{c}": format_rational(t.cells[(r, c)]) for r in t.rows for c in t.cols},
            }
            for t in tab.context_tables
        ]
        out["censored"] = {
            f"{r}|{c}": format_rational(tab.censored_cells[(r, c)])
            for r in tab.censored_rows
            for c in tab.censored_cols
        }
        blocks += [_render_context_table(t) for t in tab.context_tables]
        rows = [["", *tab.censored_cols]]
        for r in tab.censored_rows:
            rows.append([r, *(format_rational(tab.censored_cells[(r, c)]) for c in tab.censored_cols)])
        blocks.append("censored space\n" + _fmt_table(rows).replace("!", "¬"))

    if args.format == "json":
        _emit(json.dumps(out, indent=2))
    else:
        _emit("\n\n".join(blocks))
    return 0


def cmd_simulate(args) -> int:
    policy = _policy(args)
    suite = _load_suite(args.suite)
    raw = distribution_from_json(_load_json(args.dist), suite, policy)
    dist = validate_distribution(raw, compute_compatibility(suite))
    if args.queries:
        queries = queries_from_json(_load_json(args.queries))
        for outcomes, performed in queries:
            for name in outcomes + performed:
                suite.index(name)  # unknown names are errors, not zero frequencies
    else:
        queries = [((name,), ()) for name in suite.names]
        queries += [((), (name,)) for name in suite.names]
    records = run(suite, dist, args.trials, args.seed, policy)
    estimates = estimate(records, queries)

    if args.format == "json":
        payload = estimates_to_json(estimates, args.seed, args.trials)
        payload["records"] = [
            {"trial": r.trial, "context": list(r.context), "bits": "".join(map(str, r.bits))}
            for r in records
        ]
        text = json.dumps(payload, indent=2)
    else:
        text = records_to_csv(records, args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        _emit(text)
    if args.format != "json":
        rows = [["outcomes", "performed", "frequency", "stderr"]]
        rows += [
            ["&".join(e.outcomes) or "-", "&".join(e.performed) or "-", f"{e.frequency:.6f}", f"{e.stderr:.6f}"]
            for e in estimates
        ]
        _emit(f"# estimates over {args.trials} trials ({PRNG_ALGORITHM} seed {args.seed})")
        _emit(_fmt_table(rows))
    return 0


def _global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # The same options are accepted before and after the subcommand; the
    # post-subcommand copies default to SUPPRESS so they only override.
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--format", choices=("text", "json", "csv"), default=default("text"),
                        help="output format (csv applies to simulate only)" if not suppress else argparse.SUPPRESS)
    parser.add_argument("--tolerance", type=float, default=default(1e-9),
                        help="float-to-fraction identification tolerance" if not suppress else argparse.SUPPRESS)
    parser.add_argument("--max-denominator", type=int, default=default(10**6),
                        help="largest denominator accepted when rationalizing floats" if not suppress else argparse.SUPPRESS)
    parser.add_argument("--strict", action="store_true", default=default(False),
                        help="reject floats that are not exact binary/decimal fractions" if not suppress else argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=default(0),
                        help="PRNG seed for simulate" if not suppress else argparse.SUPPRESS)


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
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("ch", parents=[override], help="evaluate the 4-event Clauser-Horne system")
    p.add_argument("vector", help="correlation vector JSON file")
    p.set_defaults(func=cmd_ch)

    p = sub.add_parser("represent", parents=[override], help="build a probability space from vertex weights")
    p.add_argument("weights", help="weights JSON file")
    p.add_argument("-o", "--output", help="write the space JSON here")
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("censor", parents=[override], help="build and verify the censored space of a suite")
    p.add_argument("--suite", required=True, help="measurement suite JSON file")
    p.add_argument("--dist", required=True, help="setup distribution JSON file")
    p.add_argument("-o", "--output", help="write the space JSON here")
    p.add_argument("--max-order", type=int, default=None,
                   help="largest |I1 u I2| verified (default min(2n, 8))")
    p.add_argument("--full-order", action="store_true", help="verify all event pairs")
    p.set_defaults(func=cmd_censor)

    p = sub.add_parser("orsay", parents=[override], help="singlet switch scenario: vectors and tables")
    p.add_argument("--angles", help="degrees for a,a',b,b' (default 120,0,0,240)")
    p.add_argument("--weights", help="four context weights, e.g. 1/4,1/4,1/4,1/4")
    p.add_argument("--emit", choices=("tables", "vectors", "all"), default="all")
    p.set_defaults(func=cmd_orsay)

    p = sub.add_parser("simulate", parents=[override], help="sample switch choices and outcomes")
    p.add_argument("--suite", required=True, help="measurement suite JSON file")
    p.add_argument("--dist", required=True, help="setup distribution JSON file")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--queries", help="queries JSON file")
    p.add_argument("-o", "--output", help="write records here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except IncompatibleSupport as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except KolmorepError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"error: invalid JSON: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
