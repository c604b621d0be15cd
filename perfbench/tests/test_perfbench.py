"""Tests of the benchmark itself: tracer arithmetic and the exact output checks.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from worker import REFERENCE_MS, SPEED_EXPONENT, end_to_end, import_package  # noqa: E402

KP, _ = import_package()
GOLDENS = json.loads((HERE.parent / "goldens.json").read_text(encoding="utf-8"))


class FakeClock:
    """Advances by a scripted step at each reading."""

    def __init__(self, steps):
        self.now = 0
        self.steps = iter(steps)

    def __call__(self):
        self.now += next(self.steps)
        return self.now


def test_self_time_of_nested_calls():
    # outer [0..100] holds inner [10..60], which holds leaf [20..50], then leaf [70..90].
    clock = FakeClock([0, 10, 10, 30, 10, 10, 20, 10])
    tr = tracer_mod.Tracer(clock=clock)
    leaf = tr.wrap(lambda: None, "quantum.born")
    inner = tr.wrap(lambda: leaf(), "censorship.effective_probability")
    outer = tr.wrap(lambda: (inner(), leaf()), "censorship.build_censored_space")
    outer()

    agg = tr.aggregates()
    assert agg["censorship.build_censored_space"]["self_ns"] == 100 - 50 - 20
    assert agg["censorship.effective_probability"]["self_ns"] == 50 - 30
    assert agg["quantum.born"]["self_ns"] == 30 + 20
    assert agg["quantum.born"]["calls"] == 2
    assert tr.covered_ns() == 100

    spans = [(tr.keys[n], s, e, p) for n, s, e, p in zip(tr.names, tr.starts, tr.ends, tr.parents)]
    assert list(tr.parents) == [-1, 0, 1, 0]
    reference = tracer_mod.self_times(spans)
    assert reference == {k: a["self_ns"] for k, a in agg.items() if a["calls"]}


def test_span_store_cap_keeps_aggregates():
    tr = tracer_mod.Tracer(max_spans=1)
    f = tr.wrap(lambda: None, "quantum.born")
    f()
    f()
    assert len(tr.names) == 1
    assert tr.aggregates()["quantum.born"]["calls"] == 2


def test_install_wraps_every_binding_and_restores():
    original = KP.quantum.born
    assert KP.censorship.born is original
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert KP.censorship.born is KP.quantum.born is not original
        assert KP.orsay.born is KP.quantum.born
        KP.orsay.naked_vector(KP.orsay.OrsayConfig())
    finally:
        tr.uninstall()
    assert KP.censorship.born is original and KP.orsay.born is original
    agg = tr.aggregates()
    assert agg["quantum.born"]["calls"] == 8
    assert agg["orsay.naked_vector"]["calls"] == 1
    assert tr.absent == []


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracer_mod.TRACED, "polytope.no_such_function", "polytope.membership")
    tr = tracer_mod.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["polytope.no_such_function"]


def _membership_case(cls, n, want):
    for idx in range(workloads.POOL):
        if GOLDENS["membership"][f"{cls}/{n}"][idx] == want:
            vector = workloads.membership_vector(KP, workloads.membership_spec(cls, n, idx))
            return vector, KP.polytope.membership(vector)
    raise AssertionError(f"no {want} item in {cls}/{n}")


def test_inside_check_rejects_a_changed_weight():
    vector, verdict = _membership_case("mix", 4, "I")
    assert workloads.check_membership(KP, vector, verdict, "I") is None
    assert workloads.check_membership(KP, vector, verdict, "O") is not None
    weights = dict(verdict.weights)
    bits = next(iter(weights))
    weights[bits] += Fraction(1, 1000)
    assert workloads.check_membership(KP, vector, KP.polytope.Inside(weights), "I") is not None


def test_outside_check_rejects_a_perturbed_coefficient():
    vector, verdict = _membership_case("nudge", 5, "O")
    assert workloads.check_membership(KP, vector, verdict, "O") is None
    cert = dict(verdict.certificate)
    s = max(cert, key=len)
    # On the vertex holding exactly the bits of s, this pushes the functional above zero.
    cert[s] += 1 + abs(verdict.offset) + sum(abs(c) for c in cert.values())
    bad = KP.polytope.Outside(cert, verdict.offset)
    assert workloads.check_membership(KP, vector, bad, "O") is not None


def test_censor_check_rejects_a_changed_mass():
    spec = workloads.plan_censor(0)[1]
    suite, weights = workloads.censor_suite(KP, spec)
    result = workloads.run_censor_op(KP, suite, weights)
    assert workloads.check_censor(suite, weights, spec["masses"], result) is None
    dist, censored, report = result
    mass = dict(censored.space.mass)
    a = min(mass, key=mass.get)
    b = max(mass, key=mass.get)
    mass[a], mass[b] = mass[b], mass[a]
    space = KP.polytope.KolmogorovSpace(censored.space.points, mass, censored.space.events)
    forged = KP.censorship.CensoredSpace(space, censored.outcome_events, censored.switch_events)
    assert workloads.check_censor(suite, weights, spec["masses"], (dist, forged, report)) is not None


def test_cli_check_rejects_one_altered_csv_byte(tmp_path):
    files = workloads.write_cli_files(KP, workloads.plan_cli_files(), str(tmp_path))
    golden = GOLDENS["cli"]["simulate/csv/3"]
    code, out, err = workloads.run_cli(KP, workloads.cli_argv("simulate", "csv", 3, files))
    assert workloads.check_cli((code, out, err), golden) is None
    pos = out.index("\n", out.index("trial,context,bits")) + 1
    altered = out[:pos] + ("9" if out[pos] != "9" else "8") + out[pos + 1:]
    assert workloads.check_cli((code, altered, err), golden) is not None
    assert workloads.check_cli((1, out, err), golden) is not None


def test_generic_angle_probe_reports_each_run():
    probe = workloads.generic_angle_probe(KP, 0)
    assert len(probe) == workloads.PROBE_SIZE
    assert all(p is None or "angles" in p for p in probe)


def test_end_to_end_tail_mean_and_host_scaling():
    # 100 ops of 1..100 ms, one failed; the slowest 5 of the 99 successful ones form the tail.
    records = [(i, (i + 1) * 10**6, "wrong" if i == 0 else None) for i in range(100)]
    at_nominal = [REFERENCE_MS * 1e6] * 7
    metrics, info = end_to_end(records, 0.4, at_nominal)
    value = {k: m["value"] for k, m in metrics.items()}
    assert info["tail_ops"] == 5 and info["samples"] == 99
    assert value["op_tail_ms"] == (96 + 97 + 98 + 99 + 100) / 5
    assert value["op_p50_ms"] == 51
    assert value["ops_per_s"] == 99 / (sum(range(1, 101)) / 1000)
    assert value["setup_s"] == 0.4

    # Where the reference takes twice as long, the same op times read as 2**SPEED_EXPONENT times shorter.
    slow = {k: m["value"] for k, m in end_to_end(records, 0.4, [2 * REFERENCE_MS * 1e6] * 7)[0].items()}
    factor = 2**SPEED_EXPONENT
    for name in ("op_p50_ms", "op_tail_ms", "setup_s"):
        assert math.isclose(slow[name], value[name] / factor)
    assert math.isclose(slow["ops_per_s"], value["ops_per_s"] * factor)
