"""The three workloads: seeded plans, package-built inputs, timed ops, exact checks.

Each workload is planned in two steps. `plan_*` makes every random draw from
the workload seed and computes the benchmark-only oracles; it never calls the
package. `build_*` turns a plan into package objects or CLI input files and
returns the ops; its wall time is the set-up the benchmark reports.

Ops call the package through module attributes looked up at call time, so
the traced run sees the wrapped functions.

Workload sizes are fixed per block of ops, so every seed runs the same mix of
event counts and classes and only the values drawn change between seeds.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import exact

# --- shared -----------------------------------------------------------------


class Op:
    """One timed call plus the exact check of its result (None when correct)."""

    __slots__ = ("props", "call", "check")

    def __init__(self, props: dict, call, check) -> None:
        self.props = props
        self.call = call
        self.check = check


def pair_sets(n: int) -> list:
    """All singletons and pairs over events 1..n."""
    return [frozenset({i}) for i in range(1, n + 1)] + [
        frozenset({i, j}) for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]


def float_matrices(case: exact.RationalCase) -> tuple:
    return case.density.to_complex(), [p.to_complex() for p in case.projectors]


def make_suite(kp, dens, projs):
    q = kp.quantum
    return kp.censorship.MeasurementSuite.make(
        q.Operator(dens, tags=("density",)),
        [(f"M{i}", q.Operator(p, tags=("projector",))) for i, p in enumerate(projs, start=1)],
    )


def orsay_masses(angles_deg, weights) -> dict:
    """Exact singlet context masses for angles whose cosines are rational.

    For a cross pair at angle difference d the singlet gives (1 - cos d)/4
    to equal outcomes and (1 + cos d)/4 to opposite ones.
    """
    cosines = {0: Fraction(1), 60: Fraction(1, 2), 120: Fraction(-1, 2), 180: Fraction(-1)}
    out = {}
    for (i, j), w in zip(((1, 3), (1, 4), (2, 3), (2, 4)), weights):
        d = abs(angles_deg[i - 1] - angles_deg[j - 1]) % 360
        c = cosines[min(d, 360 - d)]
        same, diff = (1 - c) / 4, (1 + c) / 4
        out[frozenset({i, j})] = {"11": same, "10": diff, "01": diff, "00": same}
    return out


# --- membership -------------------------------------------------------------

# One block: mix and nudge vectors at n = 4..6 and effective vectors over
# 2n = 6 or 8 events; the Orsay effective vector (n = 8) joins every
# ORSAY_EVERY blocks. The n = 5 vectors, a third of a block, hold the median.
MEMBERSHIP_BLOCK = (
    ("mix", 4), ("mix", 4), ("mix", 5), ("mix", 5), ("mix", 5), ("mix", 6),
    ("nudge", 4), ("nudge", 4), ("nudge", 5), ("nudge", 5), ("nudge", 5), ("nudge", 6),
    ("effective", 6), ("effective", 6), ("effective", 6), ("effective", 8),
)
ORSAY_EVERY = 4
MEMBERSHIP_BLOCKS = 60
# Items per stratum, each with a recorded verdict golden. The costly strata
# hold about as many items as a run draws, and the others (POOL items) are
# drawn several times over in a run, so every run sees about the whole pool
# and seeds differ in order rather than in luck of the draw.
MEMBERSHIP_POOLS = {"mix/6": 24, "nudge/6": 24, "effective/8": 16, "effective/orsay": 1}
POOL = 16


class PoolDraw:
    """Seeded draws from each stratum's pool: a fresh permutation each pass.

    Every item of a stratum is drawn once before any is drawn again.
    """

    def __init__(self, rng: random.Random, sizes: dict) -> None:
        self.rng = rng
        self.sizes = sizes
        self.queues = {}

    def __call__(self, stratum: str) -> int:
        queue = self.queues.setdefault(stratum, [])
        if not queue:
            queue.extend(range(self.sizes.get(stratum, POOL)))
            self.rng.shuffle(queue)
        return queue.pop()


def membership_spec(cls: str, n, idx: int) -> dict:
    """Pool item `idx` of stratum `cls/n`: its pair values, or an effective-vector case.

    `n` is the event count, or "orsay" for the Orsay effective vector (n = 8).
    """
    spec = {"class": cls, "n": 8 if n == "orsay" else n, "stratum": f"{cls}/{n}", "idx": idx, "item": None}
    if n == "orsay":
        return spec
    rng = random.Random(f"membership/{cls}/{n}/{idx}")
    if cls == "effective":
        # Eight-event vectors keep to one or two contexts: with more, single
        # vectors take seconds and one of them decides a run's throughput.
        contexts = rng.randint(1, 4 if n == 6 else 2)
        case = exact.random_case(rng, rng.choice((2, 4, 8)), n // 2, contexts)
        spec["item"] = float_matrices(case) + (case.weights,)
        return spec
    sets = pair_sets(n)
    values = {s: Fraction(0) for s in sets}
    weights = exact.random_weights(rng, n + 2)
    for w in weights:
        bits = [rng.randint(0, 1) for _ in range(n)]
        for s in sets:
            if all(bits[i - 1] for i in s):
                values[s] += w
    if cls == "nudge":
        s = rng.choice([s for s in sets if len(s) == 2])
        step = Fraction(1, 16) if rng.random() < 0.5 else Fraction(-1, 16)
        values[s] += step if 0 <= values[s] + step <= 1 else -step
    spec["item"] = values
    return spec


def plan_membership(seed: int) -> list:
    rng = random.Random(seed)
    draw = PoolDraw(rng, MEMBERSHIP_POOLS)
    cache = {}
    specs = []
    for block in range(MEMBERSHIP_BLOCKS):
        order = list(MEMBERSHIP_BLOCK)
        if block % ORSAY_EVERY == 0:
            order.append(("effective", "orsay"))
        rng.shuffle(order)
        for cls, n in order:
            idx = draw(f"{cls}/{n}")
            if (cls, n, idx) not in cache:
                cache[cls, n, idx] = membership_spec(cls, n, idx)
            specs.append(cache[cls, n, idx])
    return specs


def membership_vector(kp, spec):
    """The package CorrelationVector for one planned membership input."""
    if spec["item"] is None:
        return kp.orsay.effective_vector(kp.orsay.OrsayConfig()).vector
    if spec["class"] == "effective":
        dens, projs, weights = spec["item"]
        suite = make_suite(kp, dens, projs)
        cz = kp.censorship
        dist = cz.validate_distribution(weights, cz.compute_compatibility(suite))
        scheme = kp.polytope.ConjunctionScheme(2 * suite.n, frozenset(pair_sets(2 * suite.n)))
        return cz.assemble_effective_vector(suite, dist, scheme).vector
    n = spec["n"]
    scheme = kp.polytope.ConjunctionScheme(n, frozenset(spec["item"]))
    return kp.polytope.CorrelationVector(scheme, dict(spec["item"]))


def verdict_class(kp, verdict) -> str:
    if isinstance(verdict, kp.polytope.Inside):
        return "I"
    if isinstance(verdict, kp.polytope.Outside):
        return "O"
    return "?"


def reproduces(values: dict, weights: dict):
    """None when positive weights sum to one and reproduce every entry."""
    if any(w <= 0 for w in weights.values()):
        return "a listed weight is not positive"
    if sum(weights.values(), Fraction(0)) != 1:
        return "weights do not sum to one"
    for s, v in values.items():
        got = sum((w for bits, w in weights.items() if all(bits[i - 1] for i in s)), Fraction(0))
        if got != v:
            return f"weights give {got} on {sorted(s)}, vector has {v}"
    return None


def separates(n: int, values: dict, certificate: dict, offset: Fraction):
    """None when the functional is <= 0 on every vertex and > 0 on the vector.

    The same test as the package's certificate_is_valid, written out here so
    that a change to the program's own checker cannot weaken this one.
    """
    if any(s not in values for s in certificate):
        return "certificate names a set outside the scheme"
    terms = [(sum(1 << (i - 1) for i in s), c) for s, c in certificate.items()]
    for mask in range(1 << n):
        gap = offset + sum((c for m, c in terms if m & mask == m), Fraction(0))
        if gap > 0:
            return f"certificate is positive ({gap}) on vertex {mask:0{n}b}"
    gap = offset + sum((c * values[s] for s, c in certificate.items()), Fraction(0))
    if gap <= 0:
        return f"certificate gap {gap} on the vector is not positive"
    return None


def check_membership(kp, vector, verdict, golden: str):
    got = verdict_class(kp, verdict)
    if got != golden:
        return f"verdict {got}, golden {golden}"
    if got == "I":
        return reproduces(dict(vector.values), dict(verdict.weights))
    return separates(vector.scheme.n, dict(vector.values), dict(verdict.certificate), verdict.offset)


def build_membership(kp, specs, goldens) -> list:
    ops = []
    table = goldens["membership"]
    for spec in specs:
        vector = membership_vector(kp, spec)
        golden = table[spec["stratum"]][spec["idx"]]

        def call(v=vector):
            return kp.polytope.membership(v)

        def check(verdict, v=vector, g=golden):
            return check_membership(kp, v, verdict, g)

        props = {"n": spec["n"], "class": spec["class"], "idx": spec["idx"]}
        ops.append(Op(props, call, check))
    return ops


# --- censor -----------------------------------------------------------------

# One block: event counts 4..8 of random rational suites, plus one Orsay
# suite at seeded angles in multiples of 60 degrees, where its masses are rational.
CENSOR_BLOCK = (("orsay", 4), ("rational", 4), ("rational", 4), ("rational", 5),
                ("rational", 5), ("rational", 6), ("rational", 7), ("rational", 8))
CENSOR_BLOCKS = 64
# As for membership: the costly event counts hold about one run's draws.
CENSOR_POOLS = {"rational/6": 24, "rational/7": 24, "rational/8": 24}


def censor_item(n: int, idx: int) -> exact.RationalCase:
    rng = random.Random(f"censor/rational/{n}/{idx}")
    return exact.random_case(rng, rng.choice((2, 4, 8)), n, rng.randint(1, 4))


def plan_censor(seed: int) -> list:
    rng = random.Random(seed)
    draw = PoolDraw(rng, CENSOR_POOLS)
    cases = {}
    specs = []
    for _ in range(CENSOR_BLOCKS):
        order = list(CENSOR_BLOCK)
        rng.shuffle(order)
        for kind, n in order:
            if kind == "orsay":
                angles = [60 * rng.randrange(6) for _ in range(4)]
                weights = exact.random_weights(rng, 4)
                specs.append({"kind": kind, "n": 4, "dim": 4, "contexts": 4, "idx": None, "angles": angles,
                              "weights": weights, "masses": orsay_masses(angles, weights)})
                continue
            idx = draw(f"{kind}/{n}")
            if (n, idx) not in cases:
                case = censor_item(n, idx)
                cases[n, idx] = {"kind": kind, "n": n, "dim": case.dim, "contexts": len(case.weights),
                                 "idx": idx, "matrices": float_matrices(case), "weights": case.weights,
                                 "masses": case.masses}
            specs.append(cases[n, idx])
    return specs


def censor_suite(kp, spec):
    """Suite and raw context weights (index sets -> Fraction) for one censor op."""
    if spec["kind"] == "orsay":
        cfg = kp.orsay.OrsayConfig.from_degrees(spec["angles"], spec["weights"])
        return kp.orsay.build_suite(cfg), dict(zip(kp.orsay.CONTEXTS, spec["weights"]))
    dens, projs = spec["matrices"]
    return make_suite(kp, dens, projs), dict(spec["weights"])


def run_censor_op(kp, suite, weights):
    cz = kp.censorship
    structure = cz.compute_compatibility(suite)
    dist = cz.validate_distribution(weights, structure)
    censored = cz.build_censored_space(suite, dist)
    report = cz.verify_censorship(censored, suite, dist, max_order=2 * suite.n)
    return dist, censored, report


def check_censor(suite, weights: dict, masses: dict, result):
    """None when the space verifies at full order and carries the oracle masses."""
    _dist, censored, report = result
    n = suite.n
    if not report.ok:
        return f"{len(report.mismatches)} verification mismatches"
    if report.checked != 4**n or report.max_order != 2 * n:
        return f"checked {report.checked} pairs to order {report.max_order}, expected {4**n} to {2 * n}"
    expected = {}
    for ctx, atoms in masses.items():
        label = ",".join(suite.name_of(i) for i in sorted(ctx))
        for bits, m in atoms.items():
            expected[f"{label}|{bits}"] = weights[ctx] * m
    got = dict(censored.space.mass)
    if got.keys() != expected.keys():
        return "censored space points differ from the oracle's contexts"
    for pid, m in expected.items():
        if got[pid] != m:
            return f"mass of {pid} is {got[pid]}, oracle {m}"
    return None


def build_censor(kp, specs) -> list:
    ops = []
    for spec in specs:
        suite, weights = censor_suite(kp, spec)

        def call(s=suite, w=weights):
            return run_censor_op(kp, s, w)

        def check(result, s=suite, w=weights, m=spec["masses"]):
            return check_censor(s, w, m, result)

        props = {"n": spec["n"], "class": spec["kind"], "dim": spec["dim"], "contexts": spec["contexts"],
                 "idx": spec["idx"]}
        ops.append(Op(props, call, check))
    return ops


# --- cli --------------------------------------------------------------------

CLI_POOL = 8  # angle sets, censor suites and weight files the sessions draw from
SIM_SEEDS = 16
SIM_TRIALS = 30_000
CLI_SESSIONS = 100
# One session, in the order drawn per session: (subcommand, variant).
CLI_SESSION = (
    ("orsay", "text"), ("orsay", "json"),
    ("check", "naked"), ("check", "effective"), ("ch", "naked"), ("ch", "effective"),
    ("represent", "text"), ("censor", "text"), ("censor", "json"),
    ("simulate", "csv"), ("simulate", "json"),
)


def pool_angles(k: int) -> list:
    """Angle set k: the default geometry first, then multiples of 60 degrees."""
    if k == 0:
        return [120, 0, 0, 240]
    rng = random.Random(f"cli/angles/{k}")
    return [60 * rng.randrange(6) for _ in range(4)]


def pool_censor_case(k: int) -> exact.RationalCase:
    rng = random.Random(f"cli/censor/{k}")
    return exact.random_case(rng, rng.choice((2, 4)), 4, rng.randint(1, 4))


def pool_weights(k: int) -> tuple:
    rng = random.Random(f"cli/weights/{k}")
    n = rng.randint(3, 4)
    support = rng.sample(range(1 << n), rng.randint(2, 5))
    weights = exact.random_weights(rng, len(support))
    return n, {tuple((m >> b) & 1 for b in range(n)): w for m, w in zip(support, weights)}


def cli_argv(cmd: str, variant: str, k: int, files: dict) -> list:
    """Arguments of one session command; `k` indexes the pool it draws from."""
    fmt = ["--format", "json"] if variant == "json" else []
    if cmd == "orsay":
        return fmt + ["orsay", "--emit", "all", "--angles", ",".join(map(str, pool_angles(k)))]
    if cmd in ("check", "ch"):
        return [cmd, files[f"{variant}/{k}"]]
    if cmd == "represent":
        return ["represent", files[f"weights/{k}"]]
    if cmd == "censor":
        out = ["-o", files["censor-out"]] if variant == "json" else []
        return fmt + ["censor", "--full-order", "--suite", files[f"suite/{k}"], "--dist", files[f"dist/{k}"]] + out
    fmt = ["--format", variant]
    return fmt + ["simulate", "--suite", files["suite/0"], "--dist", files["dist/0"],
                  "--trials", str(SIM_TRIALS), "--seed", str(k)]


def plan_cli(seed: int) -> list:
    rng = random.Random(seed)
    specs = []
    for _ in range(CLI_SESSIONS):
        order = list(CLI_SESSION)
        rng.shuffle(order)
        for cmd, variant in order:
            k = rng.randrange(SIM_SEEDS if cmd == "simulate" else CLI_POOL)
            specs.append({"cmd": cmd, "variant": variant, "k": k, "key": f"{cmd}/{variant}/{k}"})
    return specs


def plan_cli_files() -> dict:
    """Benchmark-side data behind the CLI input files, the same for every seed."""
    cases = {k: pool_censor_case(k) for k in range(1, CLI_POOL)}
    return {
        "censor": {k: float_matrices(c) + (c.weights,) for k, c in cases.items()},
        "weights": {k: pool_weights(k) for k in range(CLI_POOL)},
    }


def write_cli_files(kp, data: dict, workdir: str) -> dict:
    """Write every pool input file through the package's serializers."""
    ser, orsay = kp.serialize, kp.orsay
    files = {"censor-out": os.path.join(workdir, "censor-out.json")}

    def dump(key: str, obj) -> None:
        path = os.path.join(workdir, key.replace("/", "-") + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        files[key] = path

    for k in range(CLI_POOL):
        cfg = orsay.OrsayConfig.from_degrees(pool_angles(k))
        dump(f"naked/{k}", ser.vector_to_json(orsay.naked_vector(cfg)))
        dump(f"effective/{k}", ser.vector_to_json(orsay.effective_pair_vector(cfg)))
        n, weights = data["weights"][k]
        dump(f"weights/{k}", ser.weights_to_json(n, weights))
        if k == 0:
            cfg = orsay.OrsayConfig()
            suite = orsay.build_suite(cfg)
            raw = dict(zip(orsay.CONTEXTS, cfg.weights))
        else:
            dens, projs, raw = data["censor"][k]
            suite = make_suite(kp, dens, projs)
        dump(f"suite/{k}", ser.suite_to_json(suite))
        dump(f"dist/{k}", ser.distribution_to_json(suite, raw))
    return files


def run_cli(kp, argv: list):
    """In-process `kolmorep ...` with captured output: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = kp.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_cli(result, golden):
    code, out, err = result
    if [code, digest(out)] != golden:
        return f"exit {code}, stdout sha256 {digest(out)[:12]}; golden {golden[0]}, {golden[1][:12]} ({err.strip()[:80]})"
    return None


def build_cli(kp, specs, data, workdir, goldens) -> list:
    files = write_cli_files(kp, data, workdir)
    table = goldens["cli"]
    ops = []
    for spec in specs:
        argv = cli_argv(spec["cmd"], spec["variant"], spec["k"], files)

        def call(a=argv):
            return run_cli(kp, a)

        def check(result, g=table[spec["key"]]):
            return check_cli(result, g)

        ops.append(Op({"cmd": spec["cmd"], "variant": spec["variant"], "k": spec["k"]}, call, check))
    return ops


# --- known defect probe -------------------------------------------------------

PROBE_SIZE = 4


def generic_angle_probe(kp, seed: int) -> list:
    """`orsay --emit all` at seeded integer-degree angles: one failure message or None each.

    At generic angles the singlet masses are irrational. A correct run exits
    0 and every context table and the censored table sum exactly to one.
    """
    rng = random.Random(f"probe/{seed}")
    out = []
    for _ in range(PROBE_SIZE):
        angles = [rng.randrange(360) for _ in range(4)]
        code, stdout, err = run_cli(kp, ["--format", "json", "orsay", "--emit", "all",
                                         "--angles", ",".join(map(str, angles))])
        if code != 0:
            out.append(f"angles {angles}: exit {code}: {err.strip()}")
            continue
        payload = json.loads(stdout)
        tables = [t["cells"] for t in payload["contexts"]] + [payload["censored"]]
        sums = [sum((Fraction(v) for v in t.values()), Fraction(0)) for t in tables]
        out.append(None if all(s == 1 for s in sums) else f"angles {angles}: table sums {sums}")
    return out
