"""Seeded fuzz of the CLI's JSON readers and exit codes.

Valid cone, fan, group, hodge and config inputs are mutated at random
(a key dropped, a value of another type, a value wrapped in a list,
negated or zeroed, non-UTF-8 bytes) and run through `cli.main` in
process.  Whatever the input, the exit code is 0, 1 or 2 and never the
internal-error code 3; exit 1 comes exactly with a report whose own
verdict is false, and exit 2 only with one `error:` line and no report.
"""

import copy
import json
import random

from siegeltoric.catalog import principal_cone
from siegeltoric.cli import main
from siegeltoric.jsonio import cone_to_json

SEED = 20240615
CASES = 400

CONE_G2 = {"g": 2, "scale": 1,
           "generators": [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, -1], [-1, 1]]],
           "labels": ["z11", "z22", "z12"]}
FAN_G2 = {"cones": [
    CONE_G2,
    {"g": 2, "scale": 1,
     "generators": [[[1, 1], [1, 1]], [[0, 0], [0, 1]], [[1, 0], [0, 0]]]},
]}
GROUP_G2 = [{"matrix": [[0, 1], [1, 0]]}, {"matrix": [[1, 1], [0, 1]]}]
TAU = {"re": [[0.0, 0.5], [0.5, 0.0]], "im": [[2.0, 0.5], [0.5, 1.0]]}
NILPOTENT = {"g": 2, "k": 1, "u": [[1.5]], "tau_cusp": {"re": [[0.0]], "im": [[1.0]]}}
BLOCK = {"tau_prime": {"re": [[0.0]], "im": [[1.0]]},
         "Z": {"re": [[0.0]], "im": [[2.0]]},
         "S": {"re": [[0.5]], "im": [[0.25]]}}
CONFIG = {"seed": 3, "trials": 2, "tol": 1e-9, "output": "json"}

# (base document, argv with FILE for the mutated file and FAN or GROUP for
# the valid FAN_G2 or GROUP_G2 file); every base runs at genus <= 3
TARGETS = [
    (CONE_G2, ["cone", "check", "FILE"]),
    (CONE_G2, ["cone", "volume", "FILE"]),
    (CONE_G2, ["ma", "verify", "FILE", "--symbolic"]),
    (CONE_G2, ["ke", "test", "FILE"]),
    (CONE_G2, ["residue", "FILE", "--d", "1"]),
    (CONE_G2, ["intersect", "FILE", "--edges", "0"]),
    (cone_to_json(principal_cone(3)), ["ma", "verify", "FILE", "--randomized", "--trials", "1"]),
    (cone_to_json(principal_cone(3)), ["intersect", "FILE", "--edges", "0"]),
    (FAN_G2, ["fan", "check", "FILE"]),
    (FAN_G2, ["intersect", "FILE", "--edges", "0,1,2"]),
    (FAN_G2, ["separable", "FILE", "GROUP"]),
    (GROUP_G2, ["separable", "FAN", "FILE"]),
    (TAU, ["hodge", "siegel", "FILE"]),
    (TAU, ["hodge", "riemann", "FILE"]),
    (NILPOTENT, ["hodge", "nilpotent", "FILE"]),
    (NILPOTENT, ["hodge", "weight", "FILE"]),
    (BLOCK, ["hodge", "block-volume", "FILE"]),
    (CONFIG, ["ma", "verify", "principal-g2", "--randomized"]),
]

REPLACEMENTS = [None, True, "x", "12345678901234567890", 1.5, -1, 0, 7, [], {}, [[1]]]
VERDICTS = ("ok", "holds", "separable", "is_fan")


def _paths(doc):
    """Every path into the document, the root included."""
    yield ()
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        for rest in _paths(value):
            yield (key,) + rest


def _mutate(rng, doc):
    path = rng.choice(list(_paths(doc)))
    if not path:
        return [doc] if rng.random() < 0.5 else rng.choice(REPLACEMENTS)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    move = rng.randrange(4)
    if move == 0:
        del parent[key]
    elif move == 1:
        parent[key] = rng.choice(REPLACEMENTS)
    elif move == 2:
        parent[key] = [value]
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        parent[key] = -value if rng.random() < 0.5 else 0
    else:
        parent[key] = rng.choice(REPLACEMENTS)
    return doc


def test_mutated_inputs_keep_the_exit_code_contract(tmp_path, monkeypatch, capsys):
    rng = random.Random(SEED)
    seen = set()
    target = tmp_path / "input.json"
    files = {"FILE": str(target), "FAN": str(tmp_path / "fan.json"),
             "GROUP": str(tmp_path / "group.json")}
    (tmp_path / "fan.json").write_text(json.dumps(FAN_G2))
    (tmp_path / "group.json").write_text(json.dumps(GROUP_G2))
    for case in range(CASES):
        base, argv = rng.choice(TARGETS)
        doc = copy.deepcopy(base)
        for _ in range(rng.randint(1, 2)):
            doc = _mutate(rng, doc)
        data = json.dumps(doc).encode()
        if rng.random() < 0.05:
            data = data[:1] + b"\xff" + data[1:]
        target.write_bytes(data)
        if base is CONFIG:
            monkeypatch.setenv("SIEGELTORIC_CONFIG", str(target))
        else:
            monkeypatch.delenv("SIEGELTORIC_CONFIG", raising=False)
        code = main([files.get(a, a) for a in argv])
        out, err = capsys.readouterr()
        where = f"case {case}: {argv} on {data[:200]!r}"
        seen.add(code)
        assert code in (0, 1, 2), f"{where}\n{err}"
        if code == 2:
            assert out == "" and err.startswith("error:"), where
            assert len(err.splitlines()) == 1, where
        else:
            report = json.loads(out)
            verdict = next((report[k] for k in VERDICTS if k in report), None)
            assert (verdict is False) == (code == 1), where
    # the mutations reach both the rejecting and the accepting side
    assert {0, 2} <= seen

