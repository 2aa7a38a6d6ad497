"""The four workloads: their seeded inputs, their operations, their checks.

`setup(name, seed, workdir)` imports the library, draws the workload's
inputs and returns one round of operations.  An operation is a
(label, run, check) triple: `run()` returns (value, redraws) and raises
when it ends without a result; `check(value)` returns a list of problems
found by the independent checkers in `checks.py`.  Every round of a run
repeats exactly the same work: `roundtrip` and `relations` draw their
inputs inside the operation, as the library's own callers do, from a
generator seeded by --seed and the operation's index.

Library functions are looked up through their modules at call time, so
the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import checks

P = 101
ALL = 10 ** 9  # sample_reps that checks every incidence point
MAX_REDRAWS = 40
KINDS = ("smooth-bimodule-chi2", "smooth-bimodule-chi1", "non-reduced", "reducible")
# `tables` and `rational` take their instances from the generator seeds
# 0 .. POOL - 1 of each kind: the instances `bimodulus generate KIND --seed S`
# prints.  --seed orders their operations.  The cost of one instance varies
# tenfold with its draw, so a pool drawn from --seed would move the figures
# more than a change to the code does.
TABLES_POOL = 8
RATIONAL_POOL = 2
# A round of `roundtrip` or `relations` lasts about one default run: their
# cost depends on the draw, so a run times as many draws as it has time for.
ROUNDTRIP_TRIPS = 16  # round trips per round
RELATIONS_PER_COMPONENT = 320  # quadruples of each component per round
GOLDEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tests", "data", "stability_table.json")

WORKLOADS = ("roundtrip", "relations", "tables", "rational")


def setup(name, seed, workdir):
    return {"roundtrip": _roundtrip, "relations": _relations,
            "tables": _tables, "rational": _rational}[name](seed, workdir)


def _redrawing(draw, redraw_on):
    """Run `draw` until it returns, counting the redraws."""
    redraws = 0
    while True:
        try:
            return draw(), redraws
        except redraw_on:
            redraws += 1
            if redraws > MAX_REDRAWS:
                raise


# ---------------------------------------------------------------------------
# roundtrip: sheaf -> quadruple -> relations -> incidence curve -> back


def op_rng(seed, k):
    """The generator of operation k: every round redraws the same inputs."""
    return random.Random(seed * 1_000_003 + k)


def _roundtrip(seed, workdir):
    from bimodulus import moduli
    from bimodulus.errors import SpecialPosition
    from bimodulus.exactmath import PrimeField

    F = PrimeField(P)

    def op(k):
        def run():
            rng = op_rng(seed, k)

            def trip():
                curve, U = moduli.random_sheaf_datum(F, rng, degree=2)
                return curve.f, moduli.roundtrip0(U, sample_reps=ALL)

            return _redrawing(trip, SpecialPosition)

        return (f"roundtrip0 #{k}", run, check)

    def check(value):
        f, rep = value
        report = dict(rep, j=rep["j"].v)
        return checks.check_trip(checks.form_from_terms(f.terms, P), report, P)

    return [op(k) for k in range(ROUNDTRIP_TRIPS)]


# ---------------------------------------------------------------------------
# relations: quadruple -> relation space, both components


def _relations(seed, workdir):
    from bimodulus import linebundles, moduli, quivers
    from bimodulus.errors import SpecialPosition
    from bimodulus.exactmath import PrimeField

    F = PrimeField(P)

    def draw(component, k):
        psi = moduli.psi0 if component == 0 else moduli.psi1
        rng = op_rng(seed, k)

        def once():
            quad = moduli.random_quadruple(F, rng, component=component)
            return quad, psi(quad)

        return _redrawing(once, SpecialPosition)

    def op0(k):
        def run():
            (quad, rels), redraws = draw(0, k)
            rank = quivers.relation_pair_action_rank(F, rels[0], rels[1])
            return (quad, rels, rank), redraws

        return (f"psi0+action_rank #{k}", run, check0)

    def check0(value):
        quad, rels, rank = value
        vecs = [[c.v for c in r] for r in rels]
        problems = checks.check_relations(vecs, 2, P)
        if rank != 13:
            problems.append(f"action rank {rank}, expected 16 - 3 = 13")
        spaces = [linebundles.section_space(L) for L in (quad.L0, quad.L1, quad.L2)]
        forms = [[checks.form_from_terms(s.form(i).terms, P) for i in range(s.dim())]
                 for s in spaces]
        member = checks.form_from_terms(quad.curve.f.terms, P)
        return problems + checks.check_annihilation(vecs, forms, member, P)

    def op1(k):
        def run():
            (quad, rels), redraws = draw(1, k)
            return rels, redraws

        return (f"psi1 #{k}", run, check1)

    def check1(rels):
        return checks.check_relations([[c.v for c in r] for r in rels], 3, P)

    ops = []
    for k in range(RELATIONS_PER_COMPONENT):
        ops += [op0(2 * k), op1(2 * k + 1)]
    return ops


# ---------------------------------------------------------------------------
# command-line calls in-process


def cli(argv):
    """Exit code and parsed report of one `bimodulus` command."""
    from bimodulus import cli as front

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = front.main(argv)
    return code, json.loads(buf.getvalue())


def _write(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _command(argv, check_report):
    """An operation running one command; the check sees its report."""

    def run():
        code, report = cli(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}: {report.get('error')}")
        return report, 0

    return (argv[0], run, check_report)


def _instance_checks(inst, kind, p, golden):
    """Checks of the commands run on one drawn instance, by command;
    `golden` maps descriptor keys to the stability table's classes."""
    chi = checks.instance_chi(inst, p)

    def split(report):
        return checks.check_split(report, chi)

    def stability(report):
        problems = []
        d = report["descriptor"]
        want = golden.get(descriptor_key(d["kind"], d["params"]))
        if want is not None and report["class"] != want:
            problems.append(f"{d['kind']} {d['params']}: {report['class']}, table says {want}")
        if report["hilbert"] != {"leading": 8, "constant": chi}:
            problems.append(f"Hilbert polynomial {report['hilbert']}, expected 8t + {chi}")
        return problems

    def classify(report):
        if inst["type"] == "nr-sheaf":
            return [] if report["kind"] == "NonReduced" else [f"doubled member as {report['kind']}"]
        member = checks.form_from_json(inst["curve"], p)
        if kind == "reducible":
            return [] if report["kind"] == "I2" else [f"transversal pair as {report['kind']}"]
        return checks.check_classify_smooth(report, member, p)

    def cech(report):
        return checks.check_cech(report, inst, p)

    return {"split": split, "stability": stability, "classify": classify, "cech": cech}


def golden_rows():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def descriptor_key(kind, params):
    return kind, tuple(sorted(params.items()))


def golden_classes(rows):
    return {descriptor_key(r["kind"], r["params"]): r["stability"] for r in rows}


# ---------------------------------------------------------------------------
# tables: the classification commands over F_101


def _tables(seed, workdir):
    from bimodulus import jsonio
    from bimodulus.errors import SpecialPosition
    from bimodulus.exactmath import PrimeField

    F = PrimeField(P)
    golden = golden_rows()
    classes = golden_classes(golden)
    ops = []
    for kind in KINDS:
        for s in range(TABLES_POOL):
            rng = random.Random(s)
            obj, _ = _redrawing(lambda: jsonio.generate_instance(kind, F, rng), SpecialPosition)
            inst = jsonio.instance_to_json(obj)
            jsonio.validate_instance(jsonio.instance_from_json(inst))
            path = _write(workdir, f"{kind}-{s}.json", inst)
            by_cmd = _instance_checks(inst, kind, P, classes)
            commands = ["split", "stability", "classify"]
            if inst["type"] == "nr-sheaf":
                commands.append("cech")
                if checks.nr_shifted_flag(inst, P):
                    commands.remove("split")  # refused on the command line
            ops.extend(_command([c, "--in", path], by_cmd[c]) for c in commands)
    for i, row in enumerate(golden):
        desc = {"type": "descriptor", "kind": row["kind"], "params": row["params"]}
        path = _write(workdir, f"descriptor-{i}.json", desc)
        ops.append(_command(["stability", "--in", path], _golden_check(row)))
        path = _write(workdir, f"hom-{i}.json", {"descriptor": desc, "m": 1})
        ops.append(_command(["hom-matrix", "--in", path], _hom_check(row)))
    ops.append(_command(["strong"], _strong_check))
    ops.append(_command(["mckay", "--seed", str(seed)], _mckay_check))
    ops.append(_command(["hochschild"], _hochschild_check))
    random.Random(seed).shuffle(ops)
    return ops


def _golden_check(row):
    def check(report):
        if report["class"] != row["stability"]:
            return [f"{row['kind']} {row['params']}: {report['class']}, table says {row['stability']}"]
        return []

    return check


def descriptor_chi(kind, params):
    """Euler characteristic of a descriptor, by kind."""
    if kind == "split-pair":
        return params["a"] + params["b"] + 2
    if kind == "two-lines":
        return params["p"] + params["q"] + 2
    if kind == "reducible":
        return params["p"] + params["q"] + (0 if params["invertible"] else 1)
    return params["chi"]


def hom_ext(m, ab, abp):
    """(hom, ext) matrix of the collection O(-m-1), O(-m), O(a')+O(b'),
    O(a)+O(b) on the line, with the pair between the split terms fixed at
    (2, 0)."""
    degs = ((-m - 1,), (-m,), tuple(abp), tuple(ab))
    M = [[[0, 0] for _ in range(4)] for _ in range(4)]
    for i in range(4):
        M[i][i] = [1, 0]
        for j in range(i + 1, 4):
            if (i, j) == (2, 3):
                M[i][j] = [2, 0]
                continue
            M[i][j] = [sum(max(t - s + 1, 0) for s in degs[i] for t in degs[j]),
                       sum(max(s - t - 1, 0) for s in degs[i] for t in degs[j])]
    return M


def _hom_check(row):
    chi = descriptor_chi(row["kind"], row["params"])

    def check(report):
        problems = []
        (a, b), (ap, bp) = report["ab"], report["ab_prime"]
        if a > b or ap > bp or a + b != chi - 2 or ap + bp != chi - 4:
            problems.append(f"{row['kind']} {row['params']}: pairs {report['ab']}, {report['ab_prime']}")
        M = hom_ext(report["m"], report["ab"], report["ab_prime"])
        if report["matrix"] != M:
            problems.append(f"{row['kind']} {row['params']}: hom/ext matrix differs")
        if report["strong"] != all(e[1] == 0 for r in M for e in r):
            problems.append(f"{row['kind']} {row['params']}: strong flag is wrong")
        return problems

    return check


def _strong_check(report):
    problems = []
    if report["threshold"] != -2:
        problems.append(f"threshold {report['threshold']}, expected -2")
    for r in report["rows"]:
        if r["strong"] != (r["ab_prime"][0] >= -2) or r["ab"][0] > r["ab"][1]:
            problems.append(f"strong row {r['kind']} {r['params']} is inconsistent")
    return problems


def _mckay_check(report):
    problems = []
    for d in report["draws"]:
        if not d["equal"] or d["closure_dim"] != d["kernel_dim"]:
            problems.append(f"mckay draw {d['lambda']}: closure {d['closure_dim']}, kernel {d['kernel_dim']}")
    if not (report["confluent"] and report["graded_match"]):
        problems.append("mckay presentation disagrees with the graded algebra")
    return problems


def _hochschild_check(report):
    problems = []
    for r in report["rows"]:
        if r["hh2"] - r["hh1"] - r["hh3"] != 3 or r["euler"] != 3:
            problems.append(f"Hochschild row d={r['d']} has alternating sum "
                            f"{r['hh2'] - r['hh1'] - r['hh3']}")
    return problems


# ---------------------------------------------------------------------------
# rational: generate over Q, then classify or split


def _rational(seed, workdir):
    import bimodulus.cli  # noqa: F401  (set-up covers the import)

    classes = golden_classes(golden_rows())
    pool = [(kind, s) for kind in KINDS for s in range(RATIONAL_POOL)]
    random.Random(seed).shuffle(pool)
    return [_rational_op(kind, s, workdir, classes) for kind, s in pool]


def _rational_op(kind, gen_seed, workdir, classes):
    """`generate KIND --prime 0 --seed S`, its instance written out with the
    validation stripped, then `classify` (smooth members) or `split`."""
    path = os.path.join(workdir, f"q-{kind}-{gen_seed}.json")

    def run():
        code, report = cli(["generate", kind, "--prime", "0", "--seed", str(gen_seed)])
        inst = report["instances"][0]
        if code != 0 or "error" in inst:
            raise RuntimeError(f"generate {kind} --seed {gen_seed}: {inst.get('error')}")
        validation = inst.pop("validation")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inst, fh)
        if kind.startswith("smooth"):
            command = "classify"
        elif inst["type"] == "nr-sheaf" and checks.nr_shifted_flag(inst, 0):
            command = "cech"  # `split` refuses this class on the command line
        else:
            command = "split"
        code, out = cli([command, "--in", path])
        if code != 0:
            raise RuntimeError(f"{command} on generate {kind} --seed {gen_seed} exited {code}")
        return (inst, validation, command, out), 0

    def check(value):
        inst, validation, command, out = value
        problems = []
        if inst["type"] == "line-bundle":
            problems += checks.check_points_on_member(inst, 0)
            degree = checks.bundle_degree(inst)
            want = {"smooth-bimodule-chi2": (2, 2), "smooth-bimodule-chi1": (1, 1)}.get(kind, (-2, 4))
            if not want[0] <= degree <= want[1] or validation["degree"] != degree:
                problems.append(f"{kind} seed {gen_seed}: degree {degree}, wanted {want}")
        problems += _instance_checks(inst, kind, 0, classes)[command](out)
        return [f"generate {kind} --seed {gen_seed}: {p}" for p in problems]

    return (kind, run, check)
