"""Front-end behaviour: one in-process run per command, the exit-code
contract, and file output."""

import json
import random
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bimodulus import cli, curves, jsonio, linebundles
from bimodulus.cli import COMMANDS, COUNT_CEILINGS, main
from bimodulus.curves import make_kind
from bimodulus.errors import DegenerateInstance
from bimodulus.exactmath import QQ, PrimeField
from bimodulus.jsonio import GENERATE_KINDS, generate_instance, instance_to_json
from bimodulus.moduli import phi, random_sheaf_datum

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from cli_digest import lift_to_fp2  # noqa: E402


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_instance(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(instance_to_json(obj)))
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("instances")
    F101 = PrimeField(101)
    rng = random.Random(7)
    out = {}
    out["member"] = write_instance(tmp, "member.json", make_kind(F101, "I0", rng))
    out["bundle"] = write_instance(
        tmp, "bundle.json", generate_instance("smooth-bimodule-chi2", F101, rng))
    out["nr"] = write_instance(
        tmp, "nr.json", generate_instance("non-reduced", F101, rng))
    out["quad"] = write_instance(
        tmp, "quad.json", generate_instance("quadruple", F101, rng))
    from bimodulus.bimodules import Descriptor

    out["desc"] = write_instance(
        tmp, "desc.json", Descriptor("split-pair", a=-1, b=1))
    hm = tmp / "hommatrix.json"
    hm.write_text(json.dumps({"m": 1, "ab": [0, 0], "ab_prime": [-1, -1]}))
    out["hommatrix"] = str(hm)
    out["tmp"] = tmp
    return out


def test_classify(capsys, files):
    code, rep = run(capsys, "classify", "--in", files["member"])
    assert code == 0 and rep["kind"] == "I0" and "j" in rep


def test_split_agrees(capsys, files):
    code, rep = run(capsys, "split", "--in", files["bundle"])
    assert code == 0 and rep["agree"]
    assert rep["table"] == rep["computed"]
    assert rep["table"]["ab"] == [0, 0] or sum(rep["table"]["ab"]) == 0


@pytest.mark.parametrize("n, ab", [(10, [8, 8]), (12, [10, 10]), (16, [14, 14])])
def test_split_of_a_bundle_whose_b_exceeds_the_twist_window(capsys, tmp_path, n, ab):
    # the seed-1 bundle at F_11 is O(-1, 2); raising n past 10 puts b past
    # the window of 8 twists, and the scan must reach below it
    body = generated_body(capsys, "smooth-bimodule-chi2", "--prime", "11", "--seed", "1")
    assert (body["m"], body["minus"], body["plus"]) == (-1, [], [])
    body["n"] = n
    code, rep = run_on(capsys, tmp_path, "split", body)
    assert code == 0 and rep["agree"] and rep["computed"]["ab"] == ab


def test_split_of_a_bundle_whose_first_twist_with_sections_is_above_the_window(
        capsys, tmp_path):
    # the seed-0 bundle at F_101 edited to O(2, -10) splits as (-11, -11):
    # no twist in [-8, 8] has sections, so b is read off the twist -s - 1
    body = generated_body(capsys, "smooth-bimodule-chi2", "--prime", "101", "--seed", "0")
    body.update(m=2, n=-10)
    code, rep = run_on(capsys, tmp_path, "split", body)
    assert code == 0 and rep["agree"] and rep["computed"]["ab"] == [-11, -11]


@pytest.mark.parametrize("m, n, want", [
    (0, 64, (0, {"ab": [61, 61], "ab_prime": [60, 60]})),
    (-20, 30, (0, {"ab": [7, 7], "ab_prime": [6, 6]})),
    (64, 64, (2, "no usable split fiber found")),
])
def test_split_at_the_integer_bound_within_a_cpu_budget(capsys, tmp_path, m, n, want):
    # the seed-0 bundle at F_101 edited to O(m, n) near the bound of 64 on
    # |m| and |n|: the scans run the twists O(0, j) far past the window,
    # raised along the first ruling, and O(64, 64) runs out of fibers
    # raised along the second
    body = generated_body(capsys, "smooth-bimodule-chi2", "--prime", "101", "--seed", "0")
    body.update(m=m, n=n)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(body))
    code, rep = run_child(["split", "--in", str(path)])
    assert code in (0, 2)
    assert (code, rep["computed"] if code == 0 else rep["error"]) == want


def test_split_on_a_doubled_member_sheaf_with_shifted_flag(capsys, tmp_path):
    # the descriptor of this sheaf sets its own twist flag (ku = -1)
    code, rep = run(capsys, "generate", "non-reduced", "--seed", "2002")
    assert code == 0
    body = dict(rep["instances"][0])
    body.pop("validation")
    path = tmp_path / "nr-shifted.json"
    path.write_text(json.dumps(body))
    code, rep = run(capsys, "split", "--in", str(path))
    assert code == 0 and rep["agree"] and rep["shifted_flag"]
    assert rep["table"] == rep["computed"]
    assert rep["table"]["ab_prime"] == [-3, -1]


@pytest.mark.parametrize("field, ku, kv, apic, dinf", [
    ({"kind": "Fp", "p": 101}, 0, 0, "5 mod 101", 14),
    ({"kind": "Fp", "p": 101}, 0, 0, "5 mod 101", 20),
    ({"kind": "Fp", "p": 101}, 3, 3, "5 mod 101", 25),
    ({"kind": "Q"}, 0, 0, "5", 20),
])
def test_doubled_member_sheaf_with_a_divisor_past_the_twist_window(
        capsys, tmp_path, field, ku, kv, apic, dinf):
    # deg D beyond 2(|ku| + |kv|) + 8 once put D rows outside the Cech
    # window's Pt block, and the two windows then disagreed (exit 3)
    body = {"type": "nr-sheaf", "field": field, "ku": ku, "kv": kv, "apic": apic,
            "dfin": [], "dinf": dinf}
    code, rep = run_on(capsys, tmp_path, "split", body)
    assert code == 0 and rep["agree"] and rep["table"] == rep["computed"]
    code, rep = run_on(capsys, tmp_path, "cech", body)
    assert code == 0 and rep["h0"] - rep["h1"] == rep["chi"] == 2 * (ku + kv) - dinf


def test_stability_on_descriptor(capsys, files):
    code, rep = run(capsys, "stability", "--in", files["desc"])
    assert code == 0
    assert rep["class"] == "Unstable"  # a < b splits off a destabilizer
    assert rep["hilbert"]["leading"] == 8


def test_ext_dims(capsys, files):
    code, rep = run(capsys, "ext", "--in", files["member"])
    assert code == 0 and rep["consistent"]
    assert rep["ext_dims"] == [1, 9, 0]
    assert rep["smooth_locus_dim"] == 9 and rep["quotient_dim"] == 3


def test_hochschild(capsys):
    code, rep = run(capsys, "hochschild", "--count", "3")
    assert code == 0 and rep["euler_constant"] == 3
    assert [r["d"] for r in rep["rows"]] == [0, 1, 2, 3]
    assert rep["rows"][0]["hh1"] == 6


def test_strong_table(capsys):
    code, rep = run(capsys, "strong")
    assert code == 0 and rep["all_match_threshold"] and rep["threshold"] == -2
    assert any(not r["strong"] for r in rep["rows"])


def test_hom_matrix(capsys, files):
    code, rep = run(capsys, "hom-matrix", "--in", files["hommatrix"])
    assert code == 0 and rep["strong"]
    assert rep["matrix"][0][3] == [6, 0]


def test_psi(capsys, files):
    code, rep = run(capsys, "psi", "--in", files["quad"])
    assert code == 0
    assert rep["relation_dim"] == rep["expected_dim"] in (2, 3)
    assert all(len(r) == 8 for r in rep["relations"])


def test_roundtrip(capsys):
    code, rep = run(capsys, "roundtrip", "--seed", "3", "--count", "1")
    assert code == 0 and len(rep["trips"]) == 1
    assert rep["trips"][0]["points"] > 6


@pytest.mark.parametrize("command", sorted(COUNT_CEILINGS))
def test_a_count_above_the_ceiling_is_exit_2_at_once(capsys, command):
    limit = COUNT_CEILINGS[command]
    start = time.process_time()
    code, rep = run(capsys, command, "--count", str(limit + 1))
    assert time.process_time() - start < 0.5
    assert code == 2 and rep["type"] == "validation" and str(limit) in rep["error"]
    if command == "hochschild":
        code, rep = run(capsys, command, "--count", str(limit))
        assert code == 0 and len(rep["rows"]) == limit + 1


# every command with a --count ceiling, run at it: the round trip at
# p = 101, and `generate` for each kind over Q and at p = 101
AT_THE_CEILING = ([["roundtrip", "--prime", "101"], ["hochschild"], ["mckay"]]
                  + [["generate", kind, "--prime", prime]
                     for kind in GENERATE_KINDS for prime in ("0", "101")])
CEILING_ALARM_SECONDS = 10


def _ceiling_timed_out(signum, frame):
    raise TimeoutError(f"a command ran past {CEILING_ALARM_SECONDS} s at its count ceiling")


def test_every_command_answers_at_its_count_ceiling(capsys):
    # about 1.6 s in all; each run is exit 0 with one JSON object
    assert {argv[0] for argv in AT_THE_CEILING} == set(COUNT_CEILINGS)
    previous = signal.signal(signal.SIGALRM, _ceiling_timed_out)
    try:
        for argv in AT_THE_CEILING:
            argv = [*argv, "--count", str(COUNT_CEILINGS[argv[0]])]
            signal.alarm(CEILING_ALARM_SECONDS)
            try:
                code = main(argv)
            finally:
                signal.alarm(0)
            out = capsys.readouterr().out
            assert code == 0, (argv, out)
            assert isinstance(json.loads(out), dict), argv
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_a_negative_count_is_exit_2_on_every_command(capsys):
    for command in COMMANDS:
        code, rep = run(capsys, command, "--count", "-1")
        assert code == 2 and rep == {"error": "--count must be nonnegative",
                                     "type": "validation"}, command


def capped_child(args, cpu_seconds=10):
    """`python args` as a child process that caps its own CPU time."""
    def cap():
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))

    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          preexec_fn=cap)


def run_child(argv, cpu_seconds=10):
    """`bimodulus argv` as a child process that caps its own CPU time:
    its exit code and its JSON report."""
    proc = capped_child(["-m", "bimodulus.cli", *argv], cpu_seconds)
    return proc.returncode, json.loads(proc.stdout)


# random_sheaf_datum at degrees 1 and 2 and random_quadruple over Q, seeds
# 0-29: the draws, their degrees, the sampler's give-ups and every twisting
# point, checked on the member's terms in Fractions: on it, and smooth (some
# partial of the bihomogeneous form nonzero there)
_Q_DRAWS = """
import json, random
from fractions import Fraction
from bimodulus import linebundles, moduli
from bimodulus.errors import SpecialPosition
from bimodulus.exactmath import QQ

give_ups = 0
sample = linebundles.random_smooth_point

def counted(*args, **kwargs):
    global give_ups
    try:
        return sample(*args, **kwargs)
    except SpecialPosition:
        give_ups += 1
        raise

linebundles.random_smooth_point = counted

def values(terms, pt):
    out = [Fraction(0)] * 5  # f, then its four partials
    for e, c in terms.items():
        c = Fraction(c)
        out[0] += c * pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2] * pt[3] ** e[3]
        for i in range(4):
            if e[i]:
                d = list(e)
                d[i] -= 1
                out[i + 1] += c * e[i] * pt[0] ** d[0] * pt[1] ** d[1] * pt[2] ** d[2] * pt[3] ** d[3]
    return out

problems = []
for s in range(30):
    drawn = [(moduli.random_sheaf_datum(QQ, random.Random(s), degree=d)[1], d) for d in (1, 2)]
    q = moduli.random_quadruple(QQ, random.Random(s), component=s % 2)
    drawn += [(q.L0, 2), (q.L1, 2 - s % 2), (q.L2, 2)]
    for L, d in drawn:
        if L.degree_total() != d:
            problems.append([s, "degree", L.degree_total(), d])
        for x, y in L.minus + L.plus:
            pt = [Fraction(c) for c in (*x, *y)]
            f, *grad = values(L.curve.f.terms, pt)
            if f or not any(grad):
                problems.append([s, "point", str(pt)])
print(json.dumps({"give_ups": give_ups, "problems": problems}))
"""


def test_draws_over_q_plant_their_points_and_never_give_up():
    proc = capped_child(["-c", _Q_DRAWS], cpu_seconds=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"give_ups": 0, "problems": []}


@pytest.mark.parametrize("prime", [1000003, 2305843009213693951])
def test_the_roundtrip_at_large_primes_within_a_cpu_budget(prime):
    # at 1000003 the report is the one the full pass over the incidence
    # points printed
    code, rep = run_child(["roundtrip", "--prime", str(prime), "--seed", "0"])
    assert code == 0 and len(rep["trips"]) == 1
    trip = rep["trips"][0]
    assert (trip["points"] - prime - 1) ** 2 <= 4 * prime
    if prime == 1000003:
        assert trip == {"j": "440618 mod 1000003", "points": 1000799, "stable_reps_checked": 4}
    else:
        assert trip == {"j": "1459955389145647174 mod 2305843009213693951",
                        "points": 2305843007556666894, "stable_reps_checked": 4}


def test_a_roundtrip_prime_above_the_ceiling_is_exit_2_at_once(capsys, tmp_path):
    # at 2^64 + 13 the two point counts alone took about a second; the
    # child's process time here is mostly its start
    prime = 2 ** 64 + 13
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    code, rep = run_child(["roundtrip", "--prime", str(prime)])
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 0.5
    assert code == 2 and rep["type"] == "validation" and "2^64" in rep["error"]
    # an instance over that prime is refused the same way
    body = generated_body(capsys, "smooth-bimodule-chi2", "--prime", str(prime))
    start = time.process_time()
    code, rep = run_on(capsys, tmp_path, "roundtrip", body)
    assert time.process_time() - start < 0.5
    assert code == 2 and rep["type"] == "validation" and "2^64" in rep["error"]


def test_a_roundtrip_over_an_extension_above_the_ceiling_is_exit_2_at_once(capsys, tmp_path):
    # over F_{p^2} the trip streams all p^2 + 1 fibers: about 3 s at p = 101
    body = generated_body(capsys, "smooth-bimodule-chi2", "--prime", "101")
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(lift_to_fp2(body)))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    code, rep = run_child(["roundtrip", "--in", str(path)])
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 0.5
    assert code == 2 and rep["type"] == "validation"
    assert "10000" in rep["error"] and "10201" in rep["error"]


# one child process runs, in-process, `generate` of every kind at the prime
# of argv[1], seed 0, every command that reads an instance on each of those
# instances, and every command without input at that prime; it prints each
# argv with its exit code and whether its stdout was one JSON document
EVERY_COMMAND = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
from bimodulus.cli import main
from bimodulus.jsonio import GENERATE_KINDS

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    try:
        report = json.loads(out.getvalue())
    except ValueError:
        report = None
    results.append([argv, code, report is not None])
    return code, report

prime, results = sys.argv[1], []
with tempfile.TemporaryDirectory() as tmp:
    pairs = Path(tmp, "pairs.json")
    pairs.write_text(json.dumps({"m": 1, "ab": [0, 0], "ab_prime": [-1, -1]}))
    run(["hom-matrix", "--in", str(pairs)])
    for command in ("roundtrip", "strong", "mckay", "hochschild", "toric-check", "mrel-dim"):
        run([command, "--prime", prime])
    for kind in GENERATE_KINDS:
        code, report = run(["generate", kind, "--prime", prime, "--seed", "0"])
        if code:
            continue
        body = report["instances"][0]
        body.pop("validation", None)
        path = Path(tmp, kind + ".json")
        path.write_text(json.dumps(body))
        for command in ("classify", "split", "stability", "cech", "ext", "psi", "mrel-dim",
                        "roundtrip"):
            run([command, "--in", str(path)])
print(json.dumps(results))
"""


def test_every_command_at_a_word_size_prime_within_a_cpu_budget():
    # a missed reduction mod p would let the ints of a residue loop grow
    # without bound; each command answers in milliseconds but the round
    # trips, which count points in about 0.2 s each
    prime = str(2 ** 61 - 1)

    def cap():
        resource.setrlimit(resource.RLIMIT_CPU, (30, 30))

    proc = subprocess.run([sys.executable, "-c", EVERY_COMMAND, prime],
                          capture_output=True, text=True, preexec_fn=cap)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert {argv[0] for argv, _, _ in results} == set(COMMANDS)
    assert [code for argv, code, _ in results if argv[0] == "generate"] == [0] * 5
    assert [(argv, code, ok) for argv, code, ok in results if code not in (0, 2) or not ok] == []


def test_cech(capsys, files):
    code, rep = run(capsys, "cech", "--in", files["nr"])
    assert code == 0
    assert rep["h0"] - rep["h1"] == rep["chi"]


def test_toric_check(capsys):
    code, rep = run(capsys, "toric-check")
    assert code == 0 and rep["pass"]
    assert rep["weight_rank"] == 3 and rep["kernel_rank"] == 4


def test_mckay(capsys):
    code, rep = run(capsys, "mckay", "--count", "2", "--seed", "5")
    assert code == 0 and rep["confluent"] and rep["graded_match"]
    assert all(d["equal"] for d in rep["draws"]) and len(rep["draws"]) == 2


def test_mrel_dim(capsys):
    code, rep = run(capsys, "mrel-dim", "--seed", "2")
    assert code == 0 and rep["agree"]
    assert rep["action_rank"] == 13 and rep["moduli_dim"] == 3


def test_generate_then_classify(capsys, files):
    out_path = files["tmp"] / "gen.json"
    code, rep = run(capsys, "generate", "smooth-bimodule-chi2",
                    "--seed", "11", "--out", str(out_path))
    assert code == 0 and rep["valid"] == 1
    assert json.loads(out_path.read_text()) == rep  # --out mirrors stdout
    body = dict(rep["instances"][0])
    assert body.pop("validation")["member_kind"] == "I0"
    member = files["tmp"] / "gen-instance.json"
    member.write_text(json.dumps(body))
    code, rep2 = run(capsys, "classify", "--in", str(member))
    assert code == 0 and rep2["kind"] == "I0"


def test_generate_reducible_classifies_each_member_once_in_drawing(capsys, monkeypatch, tmp_path):
    # make_kind classifies the drawn member, the curve takes that type, and
    # reading the instance back to validate it classifies it once more; a
    # command on a loaded bundle classifies its member once, on loading,
    # and the split of a reducible member takes the curve's type
    real, calls = curves.kodaira_classify, []

    def counted(f):
        calls.append(f)
        return real(f)

    for module in (curves, linebundles, jsonio, cli):
        monkeypatch.setattr(module, "kodaira_classify", counted)
    for seed in range(4):
        code, rep = run(capsys, "generate", "reducible", "--prime", "101", "--seed", str(seed))
        assert code == 0 and rep["valid"] == 1
        assert rep["instances"][0]["validation"]["member_kind"] == "I2"
    assert len(calls) == 8
    for kind, member in (("reducible", "I2"), ("smooth-bimodule-chi2", "I0")):
        _, rep = run(capsys, "generate", kind, "--prime", "101", "--seed", "0")
        body = rep["instances"][0]
        body.pop("validation")
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(body))
        for command in ("classify", "split", "stability"):
            calls.clear()
            code, rep = run(capsys, command, "--in", str(path))
            assert code == 0 and len(calls) == 1, (kind, command, len(calls))
            if command == "classify":
                assert rep["kind"] == member


def test_every_command_is_wired():
    assert len(COMMANDS) == 14


def test_the_digest_runs_every_command():
    digest = Path(__file__).resolve().parent / "data" / "cli_digest.txt"
    run_commands = {line.split()[2] for line in digest.read_text().splitlines()}
    assert set(COMMANDS) <= run_commands


def component0_quadruple(field, seed):
    rng = random.Random(seed)
    while True:
        _, U = random_sheaf_datum(field, rng)
        try:
            return phi(U)
        except DegenerateInstance:
            continue  # the sheaf hit a ruling pullback; redraw


@pytest.mark.parametrize("prime", [11, 0])
def test_mrel_dim_reads_the_field_of_its_instance(capsys, tmp_path, prime):
    # --prime only picks the field of a draw; the F_11 quadruple would be
    # coerced into F_101, and the Q one has a denominator divisible by 5
    field = PrimeField(11) if prime else QQ
    path = write_instance(tmp_path, "quad.json", component0_quadruple(field, 54))
    code, rep = run(capsys, "mrel-dim", "--in", path)
    assert code == 0 and rep["agree"] and rep["action_rank"] == 13
    assert run(capsys, "mrel-dim", "--in", path, "--prime", "5") == (code, rep)


def test_roundtrip_reads_the_field_of_its_instance(capsys, tmp_path):
    body = generated_body(capsys, "smooth-bimodule-chi2", "--prime", "11", "--seed", "0")
    code, rep = run_on(capsys, tmp_path, "roundtrip", body)
    assert code == 0 and rep["trips"][0]["points"] > 6
    assert run_on(capsys, tmp_path, "roundtrip", body, "--prime", "0") == (code, rep)


def test_small_characteristic_is_exit_2(capsys):
    for cmd in ("toric-check", "mckay", "roundtrip"):
        code, rep = run(capsys, cmd, "--prime", "2")
        assert code == 2 and rep["type"] == "validation"


def test_missing_input_is_exit_2(capsys):
    code, rep = run(capsys, "classify", "--in", "/no/such/file.json")
    assert code == 2 and "cannot read" in rep["error"]
    code, rep = run(capsys, "classify")
    assert code == 2


def test_bad_json_is_exit_2(capsys, tmp_path):
    # malformed JSON, a file not in UTF-8, arrays nested 200 000 deep and an
    # integer of 5000 digits, past the digit limit of int
    p = tmp_path / "broken.json"
    for data in (b"{not json", b'{"type": "line-bundle", "m": "\xff"}',
                 b"[" * 200_000 + b"]" * 200_000, b'{"m": 1' + b"0" * 4999 + b"}"):
        p.write_bytes(data)
        code, rep = run(capsys, "classify", "--in", str(p))
        assert code == 2 and rep["type"] == "validation"


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_is_exit_2(capsys, tmp_path, where):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
    code, rep = run(capsys, "toric-check", "--out", str(out))
    assert code == 2 and rep["type"] == "validation"
    assert rep["error"].startswith(f"cannot write {out}: ")


def test_off_curve_point_listed_minus_and_plus_is_exit_2(capsys, tmp_path):
    # the point cancels from the divisor, but it is checked first
    body = generated_body(capsys, "smooth-bimodule-chi2", "--prime", "101", "--seed", "0")
    F = PrimeField(101)
    f = jsonio.instance_from_json(body).curve.f
    off = next([["1 mod 101", "0 mod 101"], [f"{y} mod 101", "1 mod 101"]] for y in range(101)
               if f.eval_full([(F.one(), F.zero()), (F(y), F.one())]))
    body["minus"].append(off)
    body["plus"].append(off)
    code, rep = run_on(capsys, tmp_path, "split", body)
    assert (code, rep) == (2, {"error": "twisting point is not on the curve", "type": "validation"})


def generated_body(capsys, *argv):
    code, rep = run(capsys, "generate", *argv)
    assert code == 0
    body = dict(rep["instances"][0])
    body.pop("validation")
    return body


def run_on(capsys, tmp_path, command, body, *argv):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(body))
    return run(capsys, command, "--in", str(path), *argv)


def drop_exp(body):
    del body["curve"]["terms"][0]["exp"]


def set_key(key, value, where=None):
    def mutate(body):
        (body[where] if where else body)[key] = value
    return mutate


@pytest.mark.parametrize("kind, command, mutate", [
    ("smooth-bimodule-chi2", "classify", drop_exp),
    ("smooth-bimodule-chi2", "classify", set_key("m", "a")),
    ("smooth-bimodule-chi2", "classify", set_key("terms", 5, where="curve")),
    ("smooth-bimodule-chi2", "classify", set_key("m", 2.5)),
    ("non-reduced", "cech", set_key("ku", "a")),
    ("non-reduced", "cech", set_key("dinf", 1.5)),
    ("non-reduced", "cech", set_key("dfin", 5)),
    ("smooth-bimodule-chi2", "split", set_key("field", {"kind": "Fp"})),
    ("non-reduced", "cech", set_key("field", {"kind": "quad-ext"})),
    ("smooth-bimodule-chi2", "classify", set_key("field", {"kind": "Fp", "p": "101"})),
], ids=["term-without-exp", "m-not-a-number", "terms-not-a-list", "fractional-m",
        "ku-not-a-number", "fractional-dinf", "dfin-not-a-list", "prime-field-without-p",
        "extension-without-base", "p-not-a-number"])
def test_malformed_instance_is_exit_2(capsys, tmp_path, kind, command, mutate):
    body = generated_body(capsys, kind, "--seed", "0")
    assert run_on(capsys, tmp_path, command, body)[0] == 0
    mutate(body)
    code, rep = run_on(capsys, tmp_path, command, body)
    assert code == 2 and rep["type"] == "validation"


HOM_PAIRS = {"m": 1, "ab": [0, 0], "ab_prime": [-1, -1]}
INTEGRAL = {"type": "descriptor", "kind": "integral",
            "params": {"chi": 2, "invertible": True, "v_pullback": False}}


@pytest.mark.parametrize("flag, ab_prime", [(None, [-1, -1]), (False, [-1, -1]), (True, [-2, 0])])
def test_hom_matrix_from_a_descriptor(capsys, tmp_path, flag, ab_prime):
    body = {"descriptor": INTEGRAL, "m": 1}
    if flag is not None:
        body["shifted_flag"] = flag
    code, rep = run_on(capsys, tmp_path, "hom-matrix", body)
    assert code == 0 and rep["ab"] == [0, 0] and rep["ab_prime"] == ab_prime


@pytest.mark.parametrize("body", [
    [],
    {**HOM_PAIRS, "m": "a"},
    {**HOM_PAIRS, "m": 1.5},
    {**HOM_PAIRS, "ab": ["x", 1]},
    {**HOM_PAIRS, "ab": 5},
    {**HOM_PAIRS, "ab_prime": [-1, -1, 0]},
    {"descriptor": INTEGRAL, "shifted_flag": "yes"},
], ids=["not-an-object", "m-not-a-number", "fractional-m", "ab-not-integers",
        "ab-not-a-list", "ab-prime-not-a-pair", "flag-not-a-boolean"])
def test_malformed_hom_matrix_input_is_exit_2(capsys, tmp_path, body):
    assert run_on(capsys, tmp_path, "hom-matrix", HOM_PAIRS)[0] == 0
    code, rep = run_on(capsys, tmp_path, "hom-matrix", body)
    assert code == 2 and rep["type"] == "validation"


def test_prime_beyond_the_primality_bound_is_exit_2(capsys, tmp_path):
    body = generated_body(capsys, "smooth-bimodule-chi2", "--seed", "0")
    body["field"]["p"] = 10 ** 30 + 57
    start = time.process_time()
    code, rep = run_on(capsys, tmp_path, "classify", body)
    assert code == 2 and rep["type"] == "validation"
    code, rep = run(capsys, "roundtrip", "--prime", str(10 ** 30 + 57))
    assert code == 2 and rep["type"] == "validation"
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("kind, command, key", [
    ("smooth-bimodule-chi2", "split", "n"),
    ("non-reduced", "cech", "ku"),
    ("non-reduced", "cech", "kv"),
    ("non-reduced", "split", "ku"),
    ("non-reduced", "split", "kv"),
    ("non-reduced", "cech", "dinf"),
])
def test_presentation_integer_beyond_the_bound_is_exit_2_at_once(
        capsys, tmp_path, kind, command, key):
    body = generated_body(capsys, kind, "--prime", "11", "--seed", "1")
    for value in (10 ** 40, -10 ** 40, 65):
        body[key] = value
        start = time.process_time()
        code, rep = run_on(capsys, tmp_path, command, body)
        assert code == 2 and rep["type"] == "validation" and f"'{key}'" in rep["error"]
        assert time.process_time() - start < 1.0


def test_presentation_integer_at_the_bound_still_parses(capsys, tmp_path):
    body = generated_body(capsys, "smooth-bimodule-chi2", "--prime", "11", "--seed", "1")
    body["n"] = 64
    code, rep = run_on(capsys, tmp_path, "split", body)
    assert code == 0 and rep["agree"]


def test_split_on_huge_rational_coefficients_answers_at_once(capsys, tmp_path):
    # the member's form scaled by 10^30 is the same member
    body = generated_body(capsys, "smooth-bimodule-chi2", "--prime", "0", "--seed", "1")
    code, want = run_on(capsys, tmp_path, "split", body)
    assert code == 0 and want["agree"]
    for t in body["curve"]["terms"]:
        t["coef"] = str(Fraction(t["coef"]) * 10 ** 30)
    start = time.process_time()
    code, rep = run_on(capsys, tmp_path, "split", body)
    assert (code, rep) == (0, want)
    assert time.process_time() - start < 2.0


def test_console_script():
    proc = subprocess.run([sys.executable, "-m", "bimodulus.cli", "toric-check"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"]


USAGE_ERRORS = [
    (["bogus"], "argument command: unknown command 'bogus'"),
    (["split", "--prime", "abc"], "argument --prime: invalid int value: 'abc'"),
    (["split", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=["unknown-command", "bad-int", "unknown-flag", "no-command"])
def test_usage_errors_are_exit_2_with_a_json_error(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": message, "type": "validation"} and err == ""


def test_usage_error_of_the_console_script_is_json_on_stdout():
    proc = subprocess.run([sys.executable, "-m", "bimodulus.cli", "split", "--prime", "abc"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stderr == ""
    assert json.loads(proc.stdout)["type"] == "validation"


def test_the_shared_parser_keeps_no_state_between_runs(capsys):
    # one parser serves every run in a process: a usage error, or a run with
    # options, must leave the next run as a fresh interpreter would see it
    fresh = {}
    for argv in (["mrel-dim", "--prime", "11", "--seed", "1"], ["mrel-dim"]):
        proc = subprocess.run([sys.executable, "-m", "bimodulus.cli", *argv],
                              capture_output=True, text=True)
        fresh[tuple(argv)] = (proc.returncode, proc.stdout)
    for argv, message in USAGE_ERRORS[:2]:
        assert main(list(argv)) == 2
        assert json.loads(capsys.readouterr().out) == {"error": message, "type": "validation"}
        for valid, want in fresh.items():
            assert main(list(valid)) == want[0]
            assert capsys.readouterr().out == want[1]


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bimodulus")


@pytest.mark.parametrize("prime, seeds", [(5, (0, 1)), (7, (0, 1)), (11, (0, 1)), (101, (0,)), (1009, (0,))])
def test_split_and_stability_do_not_change_under_base_change_to_fp2(capsys, tmp_path, prime, seeds):
    # cohomology dimensions do not change under field extension, so the
    # reports over F_{p^2} are those over F_p; where F_p finds no usable
    # split fiber, the lift may find one and is not compared
    for kind in ("smooth-bimodule-chi2", "smooth-bimodule-chi1", "non-reduced", "reducible"):
        for seed in seeds:
            body = generated_body(capsys, kind, "--prime", str(prime), "--seed", str(seed))
            base, lift = tmp_path / "base.json", tmp_path / "lift.json"
            base.write_text(json.dumps(body))
            lift.write_text(json.dumps(lift_to_fp2(body)))
            for command in ("split", "stability"):
                code = main([command, "--in", str(base)])
                report = capsys.readouterr().out
                start = time.process_time()
                lifted = main([command, "--in", str(lift)]), capsys.readouterr().out
                # split on the F_{1009^2} lift took over 80 s while the
                # extension tabulated its square roots
                assert time.process_time() - start < 10.0
                if code == 0:
                    assert lifted == (0, report)
