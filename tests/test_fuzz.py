"""Malformed input: seeded mutations of generated instances, each run in
process through `cli.main` on a command that reads its type, must end in
exit 0 or 2 with one JSON object on stdout, never in exit 3, an uncaught
exception or a hang."""

import copy
import json
import random
import signal
import sys
from collections import Counter
from pathlib import Path

from bimodulus.jsonio import GENERATE_KINDS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from cli_digest import generated_body, run  # noqa: E402

# the commands that read each instance type (the others refuse it by design)
READERS = {
    "line-bundle": ("classify", "split", "stability", "ext", "roundtrip"),
    "nr-sheaf": ("classify", "split", "stability", "ext", "cech"),
    "quadruple": ("psi", "mrel-dim"),
}
REPLACEMENTS = (None, 0, -1, 1.5, "", [], {}, True, 10**40, "3/7", "1 mod 13", 64, 65)
MUTATIONS = 2000
ALARM_SECONDS = 10


def _slots(node):
    """(container, key) of every value below node, dict entries and list
    items alike, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    out = []
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            out.extend(_slots(value))
    return out


def _mutant(body, rng):
    """A copy of body with one dict key deleted, or one value replaced."""
    body = copy.deepcopy(body)
    container, key = rng.choice(_slots(body))
    if isinstance(container, dict) and rng.random() < 0.25:
        del container[key]
    else:
        container[key] = rng.choice(REPLACEMENTS)
    return body


def _timed_out(signum, frame):
    raise TimeoutError(f"a command ran past {ALARM_SECONDS} s")


def test_mutated_instances_exit_0_or_2_with_one_json_object(tmp_path):
    bodies = []
    for kind in GENERATE_KINDS:
        for prime in (11, 0):
            for seed in (0, 1):
                code, _, body = generated_body(
                    ["generate", kind, "--prime", str(prime), "--seed", str(seed)])
                assert code == 0
                bodies.append(body)
    rng = random.Random(36)
    path = tmp_path / "mutant.json"
    codes = Counter()
    previous = signal.signal(signal.SIGALRM, _timed_out)
    try:
        for _ in range(MUTATIONS):
            body = rng.choice(bodies)
            command = rng.choice(READERS[body["type"]])
            mutant = _mutant(body, rng)
            path.write_text(json.dumps(mutant))
            signal.alarm(ALARM_SECONDS)
            try:
                code, text = run([command, "--in", str(path)])
            finally:
                signal.alarm(0)
            assert code in (0, 2), (command, mutant, text)
            assert isinstance(json.loads(text), dict), (command, mutant, text)
            codes[code] += 1
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert codes[0] and codes[2]
