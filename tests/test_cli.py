import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kolmorep import RationalizationPolicy, build_censored_space, cli
from kolmorep.censorship import VerificationMismatch, VerificationReport
from kolmorep.cli import build_parser, main
from kolmorep.orsay import (
    OrsayConfig,
    effective_pair_vector,
    effective_vector,
    naked_vector,
    tables,
)
from kolmorep.polytope import vertex
from kolmorep.ch import ch_scheme
from kolmorep.rational import format_rational
from kolmorep.serialize import (
    censored_space_to_json,
    distribution_to_json,
    records_to_csv,
    space_from_json,
    suite_to_json,
    vector_to_json,
)
from kolmorep.simulation import run

from helpers import random_diagonal_suite

F = Fraction


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = OrsayConfig()
    suite = cfg.suite
    dist = cfg.distribution

    paths = {}

    def dump(name, payload):
        path = root / name
        path.write_text(json.dumps(payload))
        paths[name] = str(path)

    dump("naked.json", vector_to_json(naked_vector(cfg)))
    dump("effective.json", vector_to_json(effective_pair_vector(cfg)))
    dump("vertex.json", vector_to_json(vertex((1, 1, 1, 1), ch_scheme())))
    dump("suite.json", suite_to_json(suite))
    dump("dist.json", distribution_to_json(suite, dist.weights))
    dump(
        "incompatible.json",
        {"contexts": [
            {"members": ["A", "A'"], "weight": "1/2"},
            {"members": ["A", "B"], "weight": "1/2"},
        ]},
    )
    dump(
        "weights.json",
        {"n": 2, "weights": [
            {"eps": [0, 0], "p": "1/4"}, {"eps": [0, 1], "p": "1/4"},
            {"eps": [1, 0], "p": "1/4"}, {"eps": [1, 1], "p": "1/4"},
        ]},
    )
    dump("queries.json", {"queries": [{"outcomes": ["A"], "performed": []}]})
    bad_suite = suite_to_json(suite)
    bad_suite["measurements"][0]["projector"]["entries"][0][0] = [0.3, 0.0]
    dump("badsuite.json", bad_suite)
    paths["root"] = str(root)
    return paths


def test_check_exit_codes(files, capsys):
    assert main(["check", files["naked.json"]]) == 2
    out = capsys.readouterr().out
    assert "Outside" in out and "offset" in out
    assert main(["check", files["effective.json"]]) == 0
    out = capsys.readouterr().out
    assert "Inside" in out
    assert main(["check", files["vertex.json"]]) == 0
    assert main(["check", files["dist.json"]]) == 1  # wrong schema
    assert main(["check", str(files["root"]) + "/missing.json"]) == 1


def test_check_json_format(files, capsys):
    assert main(["--format", "json", "check", files["naked.json"]]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "outside"
    assert F(payload["gap"]) > 0


def test_ch_reports(files, capsys):
    assert main(["ch", files["naked.json"]]) == 2
    out = capsys.readouterr().out
    assert "1/8" in out and "violated" in out
    assert main(["ch", files["effective.json"]]) == 0
    out = capsys.readouterr().out
    assert "-7/32" in out and "satisfied" in out


def test_ch_json(files, capsys):
    assert main(["--format", "json", "ch", files["naked.json"]]) == 2
    payload = json.loads(capsys.readouterr().out)
    bells = [r for r in payload["inequalities"] if r["label"].startswith("bell")]
    assert {r["value"] for r in bells} == {"1/8", "-5/8"}


def test_represent_round_trip(files, capsys, tmp_path):
    out_path = tmp_path / "space.json"
    assert main(["represent", files["weights.json"], "-o", str(out_path)]) == 0
    capsys.readouterr()
    space = space_from_json(json.loads(out_path.read_text()))
    assert sum(space.mass.values()) == 1
    assert len(space.points) == 4


def test_censor_success_and_artifact(files, capsys, tmp_path):
    out_path = tmp_path / "censored.json"
    code = main([
        "censor", "--suite", files["suite.json"], "--dist", files["dist.json"],
        "-o", str(out_path), "--full-order",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "0 mismatches" in text
    payload = json.loads(out_path.read_text())
    masses = {p["id"]: p["mass"] for p in payload["points"]}
    assert masses["A,B|11"] == "3/32"
    assert masses["A',B|10"] == "1/8"
    space = space_from_json(payload)
    assert sum(space.mass.values()) == 1


@pytest.mark.parametrize("order", ["0", "-1"])
def test_censor_max_order_below_one_is_exit_1(files, capsys, order):
    code = main(["censor", "--suite", files["suite.json"], "--dist", files["dist.json"], "--max-order", order])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "max_order must be at least 1" in captured.err


def test_censor_defaults_to_full_order_and_full_order_flag_is_redundant(files, capsys):
    argv = ["--format", "json", "censor", "--suite", files["suite.json"], "--dist", files["dist.json"]]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--full-order"]) == 0
    assert capsys.readouterr().out == default
    assert json.loads(default)["verification"]["checked"] == 4**4


def test_censor_incompatible_support_is_exit_3(files, capsys):
    code = main(["censor", "--suite", files["suite.json"], "--dist", files["incompatible.json"]])
    assert code == 3
    assert "commute" in capsys.readouterr().err


def test_censor_rejects_bad_projector(files, capsys):
    code = main(["censor", "--suite", files["badsuite.json"], "--dist", files["dist.json"]])
    assert code == 1


def test_orsay_text_tables(capsys):
    assert main(["orsay", "--emit", "tables"]) == 0
    out = capsys.readouterr().out
    assert "3/32" in out and "censored space" in out and "¬A'" in out


def test_orsay_vectors_json(capsys):
    assert main(["--format", "json", "orsay", "--emit", "vectors"]) == 0
    payload = json.loads(capsys.readouterr().out)
    naked = {tuple(e["I"]): e["p"] for e in payload["naked"]["entries"]}
    assert naked[(1, 3)] == "3/8" and naked[(2, 3)] == "0"
    effective = {tuple(e["I"]): e["p"] for e in payload["effective"]["entries"]}
    assert effective[(1, 3)] == "3/32"
    assert payload["effective"]["events"][4] == "performed:A"


def test_orsay_custom_angles_and_weights(capsys):
    assert main([
        "orsay", "--angles", "0,90,0,180", "--weights", "1/2,1/2,0,0", "--emit", "vectors",
    ]) == 0
    payload = capsys.readouterr().out
    assert "naked" in payload


@pytest.mark.parametrize("angles", ["37,0,0,200", "45,0,10,100", "33,71,12,250"])
def test_orsay_tables_and_censor_verify_at_generic_angles(angles, capsys, tmp_path):
    assert main(["--format", "json", "orsay", "--emit", "tables", "--angles", angles]) == 0
    payload = json.loads(capsys.readouterr().out)
    for cells in [t["cells"] for t in payload["contexts"]] + [payload["censored"]]:
        assert sum(F(v) for v in cells.values()) == 1

    cfg = OrsayConfig.from_degrees(angles.split(","))
    suite = cfg.suite
    (tmp_path / "suite.json").write_text(json.dumps(suite_to_json(suite)))
    dist = cfg.distribution
    (tmp_path / "dist.json").write_text(json.dumps(distribution_to_json(suite, dist.weights)))
    assert main([
        "--format", "json", "censor", "--suite", str(tmp_path / "suite.json"),
        "--dist", str(tmp_path / "dist.json"), "--full-order",
    ]) == 0
    verification = json.loads(capsys.readouterr().out)["verification"]
    assert verification["checked"] == 256 and verification["mismatches"] == []


def test_censor_and_simulate_build_the_suite_under_the_run_policy(capsys, tmp_path):
    coarse = RationalizationPolicy(tolerance=1e-3, max_denominator=100)
    cfg = OrsayConfig.from_degrees((37, 0, 0, 200), policy=coarse)
    suite = cfg.suite
    dist = cfg.distribution
    (tmp_path / "suite.json").write_text(json.dumps(suite_to_json(suite)))
    (tmp_path / "dist.json").write_text(json.dumps(distribution_to_json(suite, dist.weights)))
    setup = ["--suite", str(tmp_path / "suite.json"), "--dist", str(tmp_path / "dist.json")]
    flags = ["--tolerance", "1e-3", "--max-denominator", "100"]

    assert main(["--format", "json", *flags, "censor", *setup]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verification"]["checked"] == 256 and payload["verification"]["mismatches"] == []
    assert payload["space"] == censored_space_to_json(build_censored_space(suite, dist))

    assert main([*flags, "simulate", *setup, "--trials", "50", "--seed", "4"]) == 0
    assert capsys.readouterr().out.startswith(records_to_csv(run(suite, dist, 50, 4), 4))


def test_orsay_builds_every_view_under_the_run_policy(capsys):
    coarse = RationalizationPolicy(tolerance=1e-3, max_denominator=100)
    cfg = OrsayConfig.from_degrees((37, 0, 0, 200), policy=coarse)
    effective = effective_vector(cfg)
    tab = tables(cfg)
    expected = {
        "naked": vector_to_json(naked_vector(cfg)),
        "effective": {**vector_to_json(effective.vector), "events": [effective.label(i) for i in range(1, 9)]},
        "contexts": [
            {"label": t.label, "cells": {f"{r}|{c}": format_rational(v) for (r, c), v in t.cells.items()}}
            for t in tab.context_tables
        ],
        "censored": {f"{r}|{c}": format_rational(v) for (r, c), v in tab.censored_cells.items()},
    }
    argv = ["orsay", "--angles", "37,0,0,200"]

    assert main(["--format", "json", "--tolerance", "1e-3", "--max-denominator", "100", *argv]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == expected
    assert {tuple(e["I"]): e["p"] for e in payload["naked"]["entries"]}[(1, 3)] == "5/99"

    assert main(["--format", "json", *argv]) == 0
    naked = {tuple(e["I"]): e["p"] for e in json.loads(capsys.readouterr().out)["naked"]["entries"]}
    assert naked[(1, 3)] == "23885/474463"


@pytest.mark.parametrize("name", [1, None, True, ["1"]])
def test_simulate_query_names_must_be_strings(name, files, capsys, tmp_path):
    suite = json.loads(Path(files["suite.json"]).read_text())
    suite["measurements"][0]["name"] = "1"  # a name that a JSON number used to match
    dist = json.loads(Path(files["dist.json"]).read_text().replace('"A"', '"1"'))
    for file, payload in [("suite.json", suite), ("dist.json", dist), ("queries.json", {"queries": [{"outcomes": [name]}]})]:
        (tmp_path / file).write_text(json.dumps(payload))
    argv = ["simulate", "--trials", "5", *(f"--{f}={tmp_path / f}.json" for f in ("suite", "dist", "queries"))]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: query 0: 'outcomes' and 'performed' entries must be strings\n"


def test_censor_verifies_sixteen_measurements(capsys, tmp_path):
    suite = random_diagonal_suite(16)
    (tmp_path / "suite.json").write_text(json.dumps(suite_to_json(suite)))
    weights = {frozenset({1, 2, 3}): F(1, 2), frozenset({3, 9, 16}): F(1, 2)}
    (tmp_path / "dist.json").write_text(json.dumps(distribution_to_json(suite, weights)))
    assert main([
        "--format", "json", "censor", "--suite", str(tmp_path / "suite.json"), "--dist", str(tmp_path / "dist.json"),
    ]) == 0
    verification = json.loads(capsys.readouterr().out)["verification"]
    assert verification["checked"] == 4**16 and verification["mismatches"] == []


def test_censor_warns_beyond_dim_64_and_still_runs(capsys, tmp_path):
    suite = random_diagonal_suite(2, dim=65)
    (tmp_path / "suite.json").write_text(json.dumps(suite_to_json(suite)))
    (tmp_path / "dist.json").write_text(json.dumps(distribution_to_json(suite, {frozenset({1, 2}): F(1)})))
    assert main(["censor", "--suite", str(tmp_path / "suite.json"), "--dist", str(tmp_path / "dist.json")]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: dim 65 is beyond the desk scale this tool targets; expect long runs\n"
    assert "0 mismatches" in captured.out


def test_orsay_tables_with_a_zero_weight_context(capsys):
    argv = ["--format", "json", "orsay", "--emit", "tables", "--weights", "1/2,1/4,1/4,0"]
    assert main(argv) == 0
    censored = json.loads(capsys.readouterr().out)["censored"]
    assert sum(F(v) for v in censored.values()) == 1
    assert [censored[f"{r}|{c}"] for r in ("A'", "!A'") for c in ("B'", "!B'")] == ["0"] * 4


@pytest.mark.parametrize("argv", [
    ["check", "naked.json"],
    ["ch", "effective.json"],
    ["represent", "weights.json"],
    ["represent", "weights.json", "-o", "space.json"],
    ["censor", "--suite", "suite.json", "--dist", "dist.json"],
    ["orsay", "--emit", "all", "--angles", "37,0,0,200"],
])
def test_text_view_renders_the_json_payload(argv, files, capsys, monkeypatch):
    monkeypatch.chdir(files["root"])
    assert main(["--format", "json", *argv]) == main(argv)
    payload, text = capsys.readouterr().out.split("\n}\n", 1)
    args = build_parser().parse_args(argv)
    assert args.text(json.loads(payload + "}"), args) + "\n" == text


def test_censor_text_lists_mismatches(files, capsys, monkeypatch):
    mismatch = VerificationMismatch((1,), (1, 3), F(1, 8), F(1, 4))
    monkeypatch.setattr(cli, "verify_censorship", lambda *a: VerificationReport(4, 2, (mismatch,)))
    assert main(["censor", "--suite", files["suite.json"], "--dist", files["dist.json"]]) == 2
    assert capsys.readouterr().out.splitlines()[1:] == [
        "verification: 4 event pairs checked up to order 2, 1 mismatches",
        "  outcomes (1,) switches (1, 3): space 1/4 vs effective 1/8",
    ]


def test_os_errors_are_exit_1(files, capsys, tmp_path):
    assert main(["check", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["represent", files["weights.json"], "-o", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_simulate_csv_and_seed_position(files, capsys):
    assert main([
        "--format", "csv", "simulate", "--suite", files["suite.json"],
        "--dist", files["dist.json"], "--trials", "20", "--seed", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# prng=PCG64 seed=5")
    assert "trial,context,bits" in out


def test_simulate_json_with_queries(files, capsys):
    assert main([
        "--format", "json", "simulate", "--suite", files["suite.json"],
        "--dist", files["dist.json"], "--trials", "50",
        "--queries", files["queries.json"],
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["prng"] == "PCG64"
    assert payload["estimates"][0]["outcomes"] == ["A"]
    assert len(payload["records"]) == 50


def test_simulate_rejects_unknown_query_names(files, capsys, tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"queries": [{"outcomes": ["Typo"]}]}))
    assert main([
        "simulate", "--suite", files["suite.json"], "--dist", files["dist.json"],
        "--trials", "10", "--queries", str(path),
    ]) == 1
    assert "'Typo'" in capsys.readouterr().err


def test_simulate_zero_trials_is_usage_error(files, capsys):
    assert main([
        "simulate", "--suite", files["suite.json"], "--dist", files["dist.json"],
        "--trials", "0",
    ]) == 1


def test_unknown_arguments_exit_1():
    assert main(["check"]) == 1  # missing positional
    assert main(["bogus"]) == 1


@pytest.mark.parametrize("cell", [[[1], 0], [None, 0], [10**400, 0]])
def test_a_matrix_cell_that_is_not_a_number_is_exit_1(cell, files, capsys, tmp_path):
    suite = json.loads(Path(files["suite.json"]).read_text())
    suite["measurements"][0]["projector"]["entries"][0][0] = cell
    path = tmp_path / "cell.json"
    path.write_text(json.dumps(suite))
    assert main(["censor", "--suite", str(path), "--dist", files["dist.json"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: measurement 0: entry (0,0)") and err.count("\n") == 1


@pytest.mark.parametrize("cell", [[True, 0], ["0.5", 0]])
def test_a_boolean_or_string_matrix_entry_is_exit_1(cell, files, capsys, tmp_path):
    suite = json.loads(Path(files["suite.json"]).read_text())
    suite["density"]["entries"][0][0] = cell
    path = tmp_path / "cell.json"
    path.write_text(json.dumps(suite))
    assert main(["simulate", "--suite", str(path), "--dist", files["dist.json"], "--trials", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: density: entry (0,0) must hold two numbers\n"


def _wrong_row_length(suite):
    suite["density"]["entries"][1] = suite["density"]["entries"][1][:3]


def _wrong_density_dim(suite):
    suite["dim"] = 2


def _switch_event_name(suite):
    suite["measurements"][1]["name"] = "performed:A"


@pytest.mark.parametrize("edit_suite, dist, queries, message", [
    (_wrong_row_length, None, None, "density: row 1 must hold 4 [re, im] pairs"),
    (_wrong_density_dim, None, None, "suite: density dim 4 does not match 2"),
    (None, [{"members": [], "weight": 1}], None, "context 0: members must be non-empty"),
    (None, [{"members": [None], "weight": 1}], None, "context 0: no measurement named None"),
    (None, [{"members": [1], "weight": 1}], None, "context 0: no measurement named 1"),
    (None, [{"members": ["A", "B"], "weight": "1/2"}, {"members": ["B", "A"], "weight": "1/2"}], None,
     "context 1: duplicate context ['A', 'B']"),
    (None, None, ["A"], "query 0: expected an object with 'outcomes'/'performed'"),
])
def test_a_malformed_setup_file_is_exit_1(edit_suite, dist, queries, message, files, capsys, tmp_path):
    suite = json.loads(Path(files["suite.json"]).read_text())
    if edit_suite:
        edit_suite(suite)
    (tmp_path / "suite.json").write_text(json.dumps(suite))
    (tmp_path / "dist.json").write_text(Path(files["dist.json"]).read_text() if dist is None
                                        else json.dumps({"contexts": dist}))
    (tmp_path / "queries.json").write_text(json.dumps({"queries": queries or []}))
    argv = ["simulate", "--trials", "5", *(f"--{f}={tmp_path / f}.json" for f in ("suite", "dist", "queries"))]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_measurement_names_that_collide_with_switch_events_are_exit_1(tmp_path, capsys):
    w = {"dim": 2, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}
    p = {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
    suite = {"dim": 2, "density": w, "measurements": [{"name": "A", "projector": p},
                                                      {"name": "performed:A", "projector": p}]}
    (tmp_path / "suite.json").write_text(json.dumps(suite))
    (tmp_path / "dist.json").write_text(json.dumps({"contexts": [{"members": ["A", "performed:A"], "weight": 1}]}))
    assert main(["censor", "--suite", str(tmp_path / "suite.json"), "--dist", str(tmp_path / "dist.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: measurement names collide with switch event keys\n"


def test_contexts_whose_joined_names_coincide_are_exit_1(tmp_path, capsys):
    w = {"dim": 2, "entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}
    p = {"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}
    names = ["A,B", "C", "A", "B,C"]
    suite = {"dim": 2, "density": w, "measurements": [{"name": name, "projector": p} for name in names]}
    dist = {"contexts": [{"members": ["A,B", "C"], "weight": "1/2"}, {"members": ["A", "B,C"], "weight": "1/2"}]}
    (tmp_path / "suite.json").write_text(json.dumps(suite))
    (tmp_path / "dist.json").write_text(json.dumps(dist))
    assert main(["censor", "--suite", str(tmp_path / "suite.json"), "--dist", str(tmp_path / "dist.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: contexts ['A,B', 'C'] and ['A', 'B,C'] share the point label 'A,B,C'\n"


def test_a_weights_file_with_an_assignment_twice_is_exit_1(tmp_path, capsys):
    payload = {"n": 2, "weights": [{"eps": [1, 0], "p": "1/2"}, {"eps": [1, 0], "p": "1/2"}]}
    (tmp_path / "weights.json").write_text(json.dumps(payload))
    assert main(["represent", str(tmp_path / "weights.json")]) == 1
    assert capsys.readouterr().err == "error: weights entry 1: duplicate assignment [1, 0]\n"


@pytest.mark.parametrize("argv", [["--tolerance", "inf", "orsay"], ["orsay", "--weights", "1/0,0,0,0"]])
def test_an_infinite_tolerance_or_a_zero_denominator_weight_is_exit_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("angle", ["inf", "-inf", "nan"])
def test_a_non_finite_orsay_angle_is_exit_1(angle, capsys):
    assert main(["orsay", "--angles", f"120,{angle},0,240"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: angle a' must be finite, got {angle}\n"


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("sequence, codes", [
    ([["--format", "json", "orsay", "--emit", "vectors"], ["orsay", "--emit", "vectors", "--format", "json"],
      ["orsay", "--emit", "vectors"]], [0, 0, 0]),
    ([["check", "--n-max", "2", "naked.json"], ["check", "naked.json"]], [1, 2]),
    ([["censor", "--suite", "suite.json", "--dist", "dist.json", "--max-order", "1"],
      ["censor", "--suite", "suite.json", "--dist", "dist.json"]], [0, 0]),
    ([["represent", "weights.json", "-o", "space-out.json"], ["represent", "weights.json"]], [0, 0]),
    ([["--tolerance", "1e-3", "check", "effective.json"], ["check"], ["--help"], ["check", "--help"],
      ["check", "effective.json", "--format", "json"], ["check", "effective.json"]], [0, 1, 0, 0, 0, 0]),
], ids=["format", "n-max", "max-order", "output", "errors-and-help"])
def test_the_shared_parser_keeps_no_state_between_calls(sequence, codes, files, capsys, monkeypatch):
    monkeypatch.chdir(files["root"])
    shared = [_run(argv, capsys) for argv in sequence]
    monkeypatch.setattr(cli, "_parser", build_parser)  # each call alone, through a fresh parser
    assert shared == [_run(argv, capsys) for argv in sequence]
    assert [code for code, _, _ in shared] == codes


def test_main_builds_its_parser_once(files, capsys):
    cli._parser.cache_clear()
    assert main(["check", files["vertex.json"]]) == 0
    assert main(["ch", files["vertex.json"]]) == 0
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_importing_the_cli_builds_no_parser():
    src = str(Path(cli.__file__).parents[1])
    probe = "import kolmorep.cli as cli; print(cli._parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout == "0\n"
