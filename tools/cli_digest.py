"""Digest of the seeded CLI reports, one line per command.

    python3 tools/cli_digest.py > digest.txt

Runs a fixed list of seeded commands in-process against the package in
this checkout's `src/` and prints, for each, the exit code, the sha256 of
what it wrote to stdout and the command itself.  Two checkouts give the
same digest exactly when every report is byte-identical, so to check that
a change leaves the output alone, diff the digests of both checkouts.
The digest is also committed as `tests/data/cli_digest.txt`, which CI
diffs against; a change that alters a report by design regenerates it.

The list: `generate` for every kind at `--prime 0`, 101 and 11, seeds
0-3; `classify`, `split`, `stability`, `cech` and `ext` on each generated
instance (its `validation` entry stripped), and `psi` and `mrel-dim --in`
on each generated quadruple; then a few commands without input files,
and `hom-matrix` on one descriptor file and one pair file.  Last, for
every kind at `--prime` 5, 7 and 11, seeds 0-1, the generated instance is
lifted to F_{p^2} (`lift_to_fp2`): `psi` runs on each lifted quadruple,
and `classify`, `split` and `stability` on each other lift, with
`roundtrip --in` on the smooth chi = 2 bundles.  Then two round trips at
larger primes (103 and 10007), and last `generate` of the smooth
bimodules over Q at seeds 4-7, members drawn through two planted points
whose bundles take their points off the planted fibers.  Then `split` and `stability` on edited instances that
drive the twist scans hard (`EDITED`), then three usage errors
(`USAGE_ERRORS`), each reported as a JSON error object with exit 2.  Last,
`psi --in` on generated component-1 quadruples at F_101 and F_11 whose
canonical representatives share a point (`SHARED_SUPPORT`), so that the
products of sections vanish doubly there.  Then `cech --in` on the edited
doubled-member sheaves with a divisor (`divisor-{0..3}.json` of `EDITED`).
Last, `generate quadruple` at the primes 1000003 and 2^61 - 1, seeds 0-3
(both components occur), and `psi --in` on each (`WORD_SIZE_PRIMES`), so
that products of sections run with residues near the word size.  Last,
`classify --in` on the lifted smooth chi = 2 members at `--prime` 5, 7
and 11, seeds 0-1, with every scalar "[v,0]" rewritten to "[v,1]"
(`off_base_field`), so that their coefficients leave F_p.  Last,
`roundtrip --in` on the lifted smooth chi = 2 bundles at `--prime` 5, 7
and 11, seeds 2-5 (`LIFTED_ROUNDTRIP_SEEDS`), so that more trips stream
their incidence points over F_{p^2}.  Last, edited instances with a point
listed twice (`REPEATED_POINT`): `split`, `stability` and `roundtrip` on
two bundles O(1,1)(-2P), and `psi` on two component-1 quadruples whose
bundles share the doubled point.  Last, edited instances with a minus
point on the second-ruling fiber y = (1 : 0) (`AT_INFINITY`): `split` and
`stability` on one at F_101, and `split` on one at F_5.
576 commands in all, and every command of the CLI among them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bimodulus.cli import main  # noqa: E402
from bimodulus.exactmath import PrimeField, QuadExtField  # noqa: E402
from bimodulus.jsonio import GENERATE_KINDS  # noqa: E402

ON_EACH_INSTANCE = ("classify", "split", "stability", "cech", "ext")
ON_EACH_QUADRUPLE = ("psi", "mrel-dim")
WITHOUT_INPUT = (
    ["roundtrip", "--seed", "3", "--count", "2"],
    ["roundtrip", "--prime", "11", "--seed", "1"],
    ["strong"],
    ["mckay"],
    ["mckay", "--seed", "2"],
    ["hochschild"],
    ["toric-check"],
    ["mrel-dim"],
    ["mrel-dim", "--prime", "11", "--seed", "1"],
) + tuple(["generate", "non-reduced", "--seed", str(s)] for s in (2000, 2001, 2002))
HOM_MATRIX_INPUTS = {
    "hom-descriptor.json": {"m": 1, "shifted_flag": True, "descriptor": {
        "type": "descriptor", "kind": "integral",
        "params": {"chi": 2, "invertible": True, "v_pullback": False}}},
    "hom-pairs.json": {"m": 1, "ab": [0, 0], "ab_prime": [-1, -1]},
}
AT_LARGER_PRIMES = (
    ["roundtrip", "--prime", "103", "--seed", "1"],
    ["roundtrip", "--prime", "10007", "--seed", "0"],
)
OVER_Q = tuple(["generate", kind, "--prime", "0", "--seed", str(s)]
               for kind in ("smooth-bimodule-chi2", "smooth-bimodule-chi1") for s in range(4, 8))
FP101 = {"kind": "Fp", "p": 101}
# instance files run through `split` and `stability`: the seed-0 smooth
# chi = 2 bundle, O(2,1) minus four points, with (m, n) changed so that the
# canonical reps of its low twists raise more than ten fibers along the
# second ruling (at F_101 and F_1009) or so that b reaches past the twist
# window (also on the seed-1 bundle at F_11, O(-1,2)); and doubled-member
# sheaves with a divisor and |ku| + |kv| >= 6 over F_101 and Q
EDITED = tuple(
    (f"raised-{p}-{m}-{n}.json", ("smooth-bimodule-chi2", p, seed), {"m": m, "n": n})
    for p, seed, m, n in ((101, 0, 6, -4), (101, 0, 4, -8), (101, 0, 2, -10),
                          (1009, 0, 6, -4), (1009, 0, 4, -8), (1009, 0, 2, -10),
                          (101, 0, 2, 12), (101, 0, 2, 16), (11, 1, -1, 12), (11, 1, -1, 16))
) + tuple((f"divisor-{i}.json", None, body) for i, body in enumerate((
    {"type": "nr-sheaf", "field": FP101, "ku": 4, "kv": 2, "apic": "3 mod 101",
     "dfin": ["1 mod 101", "0 mod 101", "1 mod 101"], "dinf": 1},
    {"type": "nr-sheaf", "field": FP101, "ku": -3, "kv": 4, "apic": "7 mod 101",
     "dfin": ["2 mod 101", "1 mod 101"], "dinf": 2},
    {"type": "nr-sheaf", "field": {"kind": "Q"}, "ku": 3, "kv": 3, "apic": "-2/7",
     "dfin": ["2/5", "0", "3"], "dinf": 1},
    {"type": "nr-sheaf", "field": {"kind": "Q"}, "ku": 5, "kv": -2, "apic": "1/3",
     "dfin": ["-1", "1"], "dinf": 3},
)))


def _pair(p, x, y):
    """The point (x, y) of an instance over F_p, None standing for (1 : 0)."""
    return [[f"{c} mod {p}", f"1 mod {p}"] if c is not None else [f"1 mod {p}", f"0 mod {p}"]
            for c in (x, y)]


def _doubled_quadruple(x, y):
    """The bundles of the component-1 quadruple at F_11 (seed 0) with L0 =
    O(1,1)(-2P) and L1 = O(1,1)(-2P-Q), P = (x, y) and Q = (None, 5), and
    the drawn L2."""
    P, Q = _pair(11, x, y), _pair(11, None, 5)
    L2 = [_pair(11, 4, None), _pair(11, 2, None), _pair(11, 7, 3), _pair(11, 10, 9)]
    return {"bundles": [{"m": 1, "n": 1, "minus": [P, P], "plus": []},
                        {"m": 1, "n": 1, "minus": [P, P, Q], "plus": []},
                        {"m": 1, "n": 2, "minus": L2, "plus": []}]}


# instances with a point P listed twice, edited like `EDITED`: O(1,1)(-2P)
# on the smooth chi = 2 members at F_11 (seed 3) and F_101 (seed 0), and two
# component-1 quadruples whose L0 and L1 share the doubled point, so that
# the product behind `psi1`'s first skip arrow vanishes to order 4 at P
REPEATED_POINT = (
    ("doubled-11.json", ("smooth-bimodule-chi2", 11, 3),
     {"m": 1, "n": 1, "minus": [_pair(11, 4, 5)] * 2}),
    ("doubled-101.json", ("smooth-bimodule-chi2", 101, 0),
     {"m": 1, "n": 1, "minus": [_pair(101, 64, 52)] * 2}),
    ("doubled-quadruple-11-a.json", ("quadruple", 11, 0), _doubled_quadruple(2, 0)),
    ("doubled-quadruple-11-b.json", ("quadruple", 11, 0), _doubled_quadruple(3, 6)),
)
# instances whose split scans meet y = (1 : 0): the seed-1 smooth chi = 2
# bundle at F_101 as O(0,2) minus its two points and a point there, run
# through `split` and `stability`, and the seed-7 reducible bundle at F_5
# twisted by O(-1,0), run through `split`, whose points with the fibers
# raised along the first ruling meet every fiber y = (t : 1), t != 0, too
AT_INFINITY = (
    ("infinity-101.json", ("smooth-bimodule-chi2", 101, 1),
     {"m": 0, "n": 2, "minus": [_pair(101, 57, None), _pair(101, 62, 36), _pair(101, 55, 26)]},
     ("split", "stability")),
    ("infinity-5.json", ("reducible", 5, 7), {"m": -2}, ("split",)),
)
USAGE_ERRORS = (["bogus"], ["split", "--prime", "abc"], ["split", "--bogus"])
# (prime, seed) of `generate quadruple` draws of component 1 on which both
# products behind `psi1`'s skip arrows take a point twice
SHARED_SUPPORT = ((101, 5), (101, 7), (11, 5), (11, 7))
# primes of the `generate quadruple` draws, seeds 0-3, run through `psi`
WORD_SIZE_PRIMES = (1000003, 2305843009213693951)
# seeds of the further lifted smooth chi = 2 bundles run through `roundtrip`
LIFTED_ROUNDTRIP_SEEDS = range(2, 6)
ON_EACH_LIFT = {
    "smooth-bimodule-chi2": ("classify", "split", "stability", "roundtrip"),
    "smooth-bimodule-chi1": ("classify", "split", "stability"),
    "non-reduced": ("classify", "split", "stability"),
    "reducible": ("classify", "split", "stability"),
    "quadruple": ("psi",),
}


def lift_to_fp2(body):
    """An instance over F_p as the same instance over F_{p^2}: the field
    becomes the default quadratic extension and every scalar "v mod p"
    becomes "[v,0] mod p adjoin sqrt(d)"."""
    p = body["field"]["p"]
    d = QuadExtField(PrimeField(p)).d.v
    text = re.sub(rf'"(-?\d+) mod {p}"', rf'"[\1,0] mod {p} adjoin sqrt({d})"', json.dumps(body))
    lifted = json.loads(text)
    lifted["field"] = {"kind": "quad-ext", "base": body["field"], "d": d}
    return lifted


def off_base_field(body):
    """The member of a lifted instance as a member instance whose every
    coefficient [v,0] becomes [v,1], v + sqrt(d), off the base field."""
    text = re.sub(r'"\[(-?\d+),0\] mod', r'"[\1,1] mod', json.dumps(body["curve"]))
    return {"type": "member", "field": body["field"], "f": json.loads(text)}


def run(argv):
    """(exit code, stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def emit(argv, code, text):
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    print(code, digest, " ".join(argv), flush=True)


def generated_body(argv):
    """(exit code, stdout, instance body without its `validation` entry)
    of one `generate` run; the body is {} when it fails."""
    code, text = run(argv)
    body = json.loads(text)["instances"][0] if code == 0 else {}
    body.pop("validation", None)
    return code, text, body


def edited_instance(tmp, name, generated, edits):
    """The path of the instance `generate` draws for `generated` = (kind,
    prime, seed), or of {} when it is None, updated by `edits`."""
    body = {}
    if generated is not None:
        kind, prime, seed = generated
        _, _, body = generated_body(["generate", kind, "--prime", str(prime), "--seed", str(seed)])
    body.update(edits)
    path = Path(tmp) / name
    path.write_text(json.dumps(body))
    return path


def main_digest():
    with tempfile.TemporaryDirectory() as tmp:
        for kind in GENERATE_KINDS:
            for prime in (0, 101, 11):
                for seed in range(4):
                    argv = ["generate", kind, "--prime", str(prime), "--seed", str(seed)]
                    code, text, body = generated_body(argv)
                    emit(argv, code, text)
                    path = Path(tmp) / f"{kind}-{prime}-{seed}.json"
                    path.write_text(json.dumps(body))
                    commands = ON_EACH_INSTANCE + (ON_EACH_QUADRUPLE if kind == "quadruple" else ())
                    for command in commands:
                        code, text = run([command, "--in", str(path)])
                        emit([command, "--in", path.name], code, text)
        for argv in WITHOUT_INPUT:
            emit(argv, *run(list(argv)))
        for name, body in HOM_MATRIX_INPUTS.items():
            path = Path(tmp) / name
            path.write_text(json.dumps(body))
            emit(["hom-matrix", "--in", name], *run(["hom-matrix", "--in", str(path)]))
        for kind, commands in ON_EACH_LIFT.items():
            for prime in (5, 7, 11):
                for seed in range(2):
                    _, _, body = generated_body(
                        ["generate", kind, "--prime", str(prime), "--seed", str(seed)])
                    path = Path(tmp) / f"{kind}-{prime}x{prime}-{seed}.json"
                    path.write_text(json.dumps(lift_to_fp2(body)))
                    for command in commands:
                        code, text = run([command, "--in", str(path)])
                        emit([command, "--in", path.name], code, text)
        for argv in AT_LARGER_PRIMES + OVER_Q:
            emit(argv, *run(list(argv)))
        for name, generated, edits in EDITED:
            path = edited_instance(tmp, name, generated, edits)
            for command in ("split", "stability"):
                code, text = run([command, "--in", str(path)])
                emit([command, "--in", name], code, text)
        for argv in USAGE_ERRORS:
            emit(argv, *run(list(argv)))
        for prime, seed in SHARED_SUPPORT:
            _, _, body = generated_body(
                ["generate", "quadruple", "--prime", str(prime), "--seed", str(seed)])
            name = f"quadruple-{prime}-{seed}.json"
            path = Path(tmp) / name
            path.write_text(json.dumps(body))
            emit(["psi", "--in", name], *run(["psi", "--in", str(path)]))
        for name, generated, _ in EDITED:
            if generated is None:
                emit(["cech", "--in", name], *run(["cech", "--in", str(Path(tmp) / name)]))
        for prime in WORD_SIZE_PRIMES:
            for seed in range(4):
                argv = ["generate", "quadruple", "--prime", str(prime), "--seed", str(seed)]
                code, text, body = generated_body(argv)
                emit(argv, code, text)
                name = f"quadruple-{prime}-{seed}.json"
                path = Path(tmp) / name
                path.write_text(json.dumps(body))
                emit(["psi", "--in", name], *run(["psi", "--in", str(path)]))
        for prime in (5, 7, 11):
            for seed in range(2):
                _, _, body = generated_body(
                    ["generate", "smooth-bimodule-chi2", "--prime", str(prime), "--seed", str(seed)])
                name = f"member-{prime}x{prime}-{seed}-off-base.json"
                path = Path(tmp) / name
                path.write_text(json.dumps(off_base_field(lift_to_fp2(body))))
                emit(["classify", "--in", name], *run(["classify", "--in", str(path)]))
        for prime in (5, 7, 11):
            for seed in LIFTED_ROUNDTRIP_SEEDS:
                _, _, body = generated_body(
                    ["generate", "smooth-bimodule-chi2", "--prime", str(prime), "--seed", str(seed)])
                name = f"smooth-bimodule-chi2-{prime}x{prime}-{seed}.json"
                path = Path(tmp) / name
                path.write_text(json.dumps(lift_to_fp2(body)))
                emit(["roundtrip", "--in", name], *run(["roundtrip", "--in", str(path)]))
        for name, generated, edits in REPEATED_POINT:
            path = edited_instance(tmp, name, generated, edits)
            commands = ("psi",) if generated[0] == "quadruple" else ("split", "stability", "roundtrip")
            for command in commands:
                emit([command, "--in", name], *run([command, "--in", str(path)]))
        for name, generated, edits, commands in AT_INFINITY:
            path = edited_instance(tmp, name, generated, edits)
            for command in commands:
                emit([command, "--in", name], *run([command, "--in", str(path)]))


if __name__ == "__main__":
    main_digest()
