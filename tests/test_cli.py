"""Front-end behaviour: one in-process run per command, the exit-code
contract, and file output."""

import json
import random
import subprocess
import sys

import pytest

from bimodulus.cli import COMMANDS, main
from bimodulus.curves import make_kind
from bimodulus.exactmath import PrimeField
from bimodulus.jsonio import generate_instance, instance_to_json


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


def test_every_command_is_wired():
    assert len(COMMANDS) == 14


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
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, rep = run(capsys, "classify", "--in", str(p))
    assert code == 2 and rep["type"] == "validation"


def test_console_script():
    proc = subprocess.run([sys.executable, "-m", "bimodulus.cli", "toric-check"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"]
