"""JSON and CSV codecs for the package's file formats.

Schemas (all fractions are emitted as lowest-term strings, so every artifact
re-parses to exactly the value that produced it):

* matrix          {"dim": n, "entries": [[[re, im], ...], ...]}  (row-major)
* vector          {"n": 4, "entries": [{"I": [1, 3], "p": "3/8"}, ...]}
* weights         {"n": 2, "weights": [{"eps": [1, 0], "p": "1/2"}, ...]}
* suite           {"dim": 4, "density": <matrix>,
                   "measurements": [{"name": "A", "projector": <matrix>}, ...]}
* distribution    {"contexts": [{"members": ["A", "B"], "weight": "1/4"}, ...]}
* space           {"points": [{"id": "...", "mass": "3/32"}, ...],
                   "events": {"A": ["id", ...], ...}}

Values in "p"/"weight"/"mass" positions may be fraction strings, decimal
strings, integers, or floats; floats are identified with exact fractions
under the active rationalization policy. Matrix entries must be JSON numbers
(not strings or booleans). Indices in "I" and bits in "eps" must be JSON
integers (not floats or booleans); in vector entries, a bare integer "I" is
accepted as shorthand for a one-element set. A repeated index set,
assignment or context is an error, and so is a repeated index within one
"I" or a repeated member within one context.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Mapping

import numpy as np

from .censorship import CensoredSpace, MeasurementSuite
from .errors import KolmorepError, SchemaError
from .polytope import ConjunctionScheme, CorrelationVector, KolmogorovSpace
from .quantum import Operator
from .rational import DEFAULT_POLICY, RationalizationPolicy, format_rational, parse_rational
from .simulation import PRNG_ALGORITHM, FrequencyEstimate, Trials


def _expect(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = obj[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise SchemaError(f"{where}: key {key!r} must be {kind.__name__}")
    return value


def _integers(values: list, where: str, key: str) -> list:
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise SchemaError(f"{where}: {key!r} entries must be integers")
    return values


# --- matrices -------------------------------------------------------------

def matrix_to_json(op: Operator) -> dict:
    entries = [
        [[float(z.real), float(z.imag)] for z in row] for row in op.entries
    ]
    return {"dim": op.dim, "entries": entries}


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    dim = _expect(obj, "dim", int, where)
    rows = _expect(obj, "entries", list, where)
    if dim < 1 or len(rows) != dim:
        raise SchemaError(f"{where}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise SchemaError(f"{where}: row {r} must hold {dim} [re, im] pairs")
        for c, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise SchemaError(f"{where}: entry ({r},{c}) must be an [re, im] pair")
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell):
                raise SchemaError(f"{where}: entry ({r},{c}) must hold two numbers")
            try:
                out[r, c] = complex(float(cell[0]), float(cell[1]))
            except OverflowError as exc:
                raise SchemaError(f"{where}: entry ({r},{c}) must hold two numbers") from exc
    return out


# --- correlation vectors --------------------------------------------------

def vector_to_json(vec: CorrelationVector) -> dict:
    return {
        "n": vec.scheme.n,
        "entries": [
            {"I": sorted(s), "p": format_rational(v)} for s, v in vec.items()
        ],
    }


def vector_from_json(
    obj, policy: RationalizationPolicy = DEFAULT_POLICY
) -> CorrelationVector:
    n = _expect(obj, "n", int, "vector")
    entries = _expect(obj, "entries", list, "vector")
    values = {}
    for k, entry in enumerate(entries):
        where = f"vector entry {k}"
        raw = _expect(entry, "I", None, where)
        if isinstance(raw, int):
            raw = [raw]
        if not isinstance(raw, list) or not raw:
            raise SchemaError(f"{where}: 'I' must be a non-empty index list")
        key = frozenset(_integers(raw, where, "I"))
        if len(key) != len(raw):
            raise SchemaError(f"{where}: repeated index in {raw}")
        if key in values:
            raise SchemaError(f"{where}: duplicate index set {sorted(key)}")
        values[key] = parse_rational(_expect(entry, "p", None, where), policy)
    scheme = ConjunctionScheme(n, frozenset(values))
    return CorrelationVector(scheme, values)


# --- vertex weights -------------------------------------------------------

def weights_to_json(n: int, weights: Mapping) -> dict:
    ordered = sorted(weights.items())
    return {
        "n": n,
        "weights": [
            {"eps": list(bits), "p": format_rational(w)} for bits, w in ordered
        ],
    }


def weights_from_json(obj, policy: RationalizationPolicy = DEFAULT_POLICY):
    n = _expect(obj, "n", int, "weights")
    items = _expect(obj, "weights", list, "weights")
    out = {}
    for k, entry in enumerate(items):
        where = f"weights entry {k}"
        bits = tuple(_integers(_expect(entry, "eps", list, where), where, "eps"))
        if bits in out:
            raise SchemaError(f"{where}: duplicate assignment {list(bits)}")
        out[bits] = parse_rational(_expect(entry, "p", None, where), policy)
    return n, out


# --- suites and distributions ----------------------------------------------

def suite_to_json(suite: MeasurementSuite) -> dict:
    return {
        "dim": suite.dim,
        "density": matrix_to_json(suite.density),
        "measurements": [
            {"name": name, "projector": matrix_to_json(proj)}
            for name, proj in zip(suite.names, suite.projectors)
        ],
    }


def suite_from_json(obj, policy: RationalizationPolicy = DEFAULT_POLICY) -> MeasurementSuite:
    """The suite in `obj`, its moments to be rationalized under `policy`."""
    dim = _expect(obj, "dim", int, "suite")
    density = Operator(matrix_from_json(_expect(obj, "density", dict, "suite"), "density"), tags=("density",))
    if density.dim != dim:
        raise SchemaError(f"suite: density dim {density.dim} does not match {dim}")
    measurements = []
    for k, entry in enumerate(_expect(obj, "measurements", list, "suite")):
        where = f"measurement {k}"
        name = _expect(entry, "name", str, where)
        proj = Operator(
            matrix_from_json(_expect(entry, "projector", dict, where), where),
            tags=("projector",),
        )
        measurements.append((name, proj))
    return MeasurementSuite.make(density, measurements, policy)


def distribution_to_json(suite: MeasurementSuite, weights: Mapping) -> dict:
    ordered = sorted(weights.items(), key=lambda kv: sorted(kv[0]))
    return {
        "contexts": [
            {
                "members": [suite.name_of(i) for i in sorted(j)],
                "weight": format_rational(w),
            }
            for j, w in ordered
        ]
    }


def distribution_from_json(obj, suite: MeasurementSuite) -> dict:
    """Raw context weights keyed by index sets, read under `suite.policy`; validate separately."""
    out = {}
    for k, entry in enumerate(_expect(obj, "contexts", list, "distribution")):
        where = f"context {k}"
        members = _expect(entry, "members", list, where)
        if not members:
            raise SchemaError(f"{where}: members must be non-empty")
        try:
            key = frozenset(suite.index(name) for name in members)
        except KolmorepError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        if len(key) != len(members):
            raise SchemaError(f"{where}: repeated member in {members}")
        if key in out:
            raise SchemaError(f"{where}: duplicate context {sorted(members)}")
        out[key] = parse_rational(_expect(entry, "weight", None, where), suite.policy)
    return out


# --- probability spaces ----------------------------------------------------

def space_to_json(space: KolmogorovSpace) -> dict:
    return {
        "points": [
            {"id": pid, "mass": format_rational(space.mass[pid])} for pid in space.points
        ],
        "events": {
            name: sorted(members) for name, members in sorted(space.events.items())
        },
    }


def space_from_json(obj, policy: RationalizationPolicy = DEFAULT_POLICY) -> KolmogorovSpace:
    points = []
    mass = {}
    for k, entry in enumerate(_expect(obj, "points", list, "space")):
        where = f"space point {k}"
        pid = _expect(entry, "id", str, where)
        points.append(pid)
        mass[pid] = parse_rational(_expect(entry, "mass", None, where), policy)
    events = {}
    for name, members in _expect(obj, "events", dict, "space").items():
        if not isinstance(members, list) or not all(isinstance(p, str) for p in members):
            raise SchemaError(f"space event {name!r}: members must be a list of point ids")
        events[name] = frozenset(members)
    return KolmogorovSpace(tuple(points), mass, events)


def censored_space_to_json(censored: CensoredSpace) -> dict:
    out = space_to_json(censored.space)
    out["outcome_events"] = dict(sorted(censored.outcome_events.items()))
    out["switch_events"] = dict(sorted(censored.switch_events.items()))
    return out


# --- simulation output -----------------------------------------------------

def _join_records(trials: Trials, opening: str, head: str, render, sep: str, closing: str) -> str:
    """`opening`, each trial's record, then `closing`, built in one join with no string per trial.

    Trial t's record is `head`, the number t, the tail text that
    `render(names, bits)` gives its (context, outcome) cell, and `sep` (the
    last record has no `sep`). Each cell is rendered once. The number is
    written as its decade prefix ``str(t // 10)``, empty below 10 and
    appended to `head` once per ten trials, then its last digit, folded into
    that cell's ten "digit + tail" strings; each trial takes two list slots.
    """
    count = len(trials)
    tails = [render(names, bits) for names, points in zip(trials.names, trials.points) for bits in points]
    decades = np.array([head] + [f"{head}{q}" for q in range(1, -(-count // 10))], dtype=object)
    digits = np.array([f"{d}{tail}{sep}" for tail in tails for d in range(10)], dtype=object)
    parts = np.empty(2 * count + 2, dtype=object)
    parts[0], parts[-1] = opening, closing
    parts[1:-1:2] = np.repeat(decades, 10)[:count]
    parts[2:-1:2] = digits[trials.cell * 10 + np.arange(count) % 10]
    if count:
        parts[-2] = f"{(count - 1) % 10}{tails[trials.cell[-1]]}"
    parts = parts.tolist()  # drop the array before the join: the text is the peak
    return "".join(parts)


def _csv_row(fields: list) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


def records_to_csv(trials: Trials, seed: int) -> str:
    """CSV stream with a reproducibility header comment line.

    `csv.writer` writes each (context, outcome) cell's row after the trial
    number once; each trial's row is its number followed by that text, put
    together by `_join_records`.
    """
    opening = f"# prng={PRNG_ALGORITHM} seed={seed}\n{_csv_row(['trial', 'context', 'bits'])}"
    return _join_records(
        trials, opening, "", lambda names, bits: _csv_row(["", "+".join(names), "".join(map(str, bits))]), "", ""
    )


_JSON_RECORD_HEAD = '    {\n      "trial": '  # "trial" is the first key, so every record starts alike


def _json_record_tail(names, bits) -> str:
    """A cell's record as `json.dumps(indent=2)` writes it inside "records", after the trial number."""
    text = json.dumps({"trial": 0, "context": list(names), "bits": "".join(map(str, bits))}, indent=2)
    return text.replace("\n", "\n    ").partition('"trial": 0')[2]


def records_to_json(trials: Trials, payload: dict) -> str:
    """`json.dumps` of the non-empty `payload` plus a "records" list, indent 2, byte for byte.

    Each (context, outcome) cell's record is dumped once; each trial's record
    is that text with the trial's number spliced in, and `_join_records`
    puts the payload's head, the records and the closing brackets together.
    """
    if not len(trials):
        return json.dumps({**payload, "records": []}, indent=2)
    opening = f'{json.dumps(payload, indent=2)[:-2]},\n  "records": [\n'
    return _join_records(trials, opening, _JSON_RECORD_HEAD, _json_record_tail, ",\n", "\n  ]\n}")


def estimates_to_json(estimates: Iterable[FrequencyEstimate], seed: int, trials: int) -> dict:
    return {
        "prng": PRNG_ALGORITHM,
        "seed": seed,
        "trials": trials,
        "estimates": [
            {
                "outcomes": list(e.outcomes),
                "performed": list(e.performed),
                "frequency": e.frequency,
                "stderr": e.stderr,
            }
            for e in estimates
        ],
    }


def queries_from_json(obj) -> list:
    out = []
    for k, entry in enumerate(_expect(obj, "queries", list, "queries")):
        where = f"query {k}"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: expected an object with 'outcomes'/'performed'")
        outcomes, performed = entry.get("outcomes", []), entry.get("performed", [])
        if not isinstance(outcomes, list) or not isinstance(performed, list):
            raise SchemaError(f"{where}: 'outcomes' and 'performed' must be name lists")
        if not all(isinstance(name, str) for name in outcomes + performed):
            raise SchemaError(f"{where}: 'outcomes' and 'performed' entries must be strings")
        out.append((tuple(outcomes), tuple(performed)))
    return out
