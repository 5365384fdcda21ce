"""Start-up cost: no subcommand loads numpy, `dataclasses` or `inspect`.

Each check runs in a fresh interpreter, since the test process itself has
those modules loaded already."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# Runs each request of argv[1] through cli.main and prints, per request,
# its exit code, its report and which of the watched modules were loaded
# after it.
SCRIPT = """
import contextlib, io, json, sys
WATCHED = ("numpy", "dataclasses", "inspect")
def loaded():
    return [m for m in WATCHED if m in sys.modules]
from siegeltoric import cli
seen = [{"argv": "import", "loaded": loaded()}]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    seen.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                 "loaded": loaded()})
print(json.dumps(seen))
"""


def run_requests(argvs, flags=()):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *flags, "-c", SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture()
def cli_requests(tmp_path):
    """One request per subcommand and per `hodge` subcheck."""
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"cones": [
        {"g": 2, "scale": 1,
         "generators": [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, -1], [-1, 1]]]},
        {"g": 2, "scale": 1,
         "generators": [[[1, 1], [1, 1]], [[0, 0], [0, 1]], [[1, 0], [0, 0]]]},
    ]}))
    group = tmp_path / "group.json"
    group.write_text(json.dumps([{"matrix": [[0, 1], [1, 0]]}]))
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"re": [[0.0, 0.5], [0.5, 0.0]], "im": [[2.0, 0.5], [0.5, 1.0]]}))
    nilp = tmp_path / "nilp.json"
    nilp.write_text(json.dumps({"g": 2, "k": 1, "u": [[1.5]],
                                "tau_cusp": {"re": [[0.0]], "im": [[1.0]]}}))
    block = tmp_path / "block.json"
    block.write_text(json.dumps({"tau_prime": {"re": [[0.0]], "im": [[1.0]]},
                                 "Z": {"re": [[0.0]], "im": [[2.0]]},
                                 "S": {"re": [[0.5]], "im": [[0.25]]}}))
    return [
        ["catalog", "list"],
        ["cone", "check", "principal-g2"],
        ["cone", "volume", "principal-g3"],
        ["ma", "verify", "principal-g2", "--symbolic"],
        ["ma", "verify", "principal-g3", "--randomized", "--trials", "2"],
        ["ke", "test", "principal-g2"],
        ["residue", "principal-g2", "--d", "1"],
        ["intersect", "principal-g2", "--edges", "0"],
        ["fan", "check", str(fan)],
        ["separable", str(fan), str(group)],
        ["hodge", "siegel", str(tau)],
        ["hodge", "riemann", str(tau)],
        ["hodge", "nilpotent", str(nilp)],
        ["hodge", "weight", str(nilp)],
        ["hodge", "block-volume", str(block), "--tol", "1e-8"],
    ]


def test_exact_subcommands_leave_numpy_unloaded(cli_requests):
    seen = run_requests(cli_requests)
    assert [s["argv"] for s in seen] == ["import"] + cli_requests
    for s in seen:
        assert "numpy" not in s["loaded"], s["argv"]
    for s in seen[1:]:
        assert s["code"] in (0, 1) and s["stdout"], s["argv"]


def test_subcommands_leave_dataclasses_and_inspect_unloaded(cli_requests):
    # -S: no site hook may load (and so hide) either module before the package
    seen = run_requests(cli_requests, flags=("-S",))
    assert [s["argv"] for s in seen] == ["import"] + cli_requests
    for s in seen:
        assert s["loaded"] == [], s["argv"]
    for s in seen[1:]:
        assert s["code"] in (0, 1) and s["stdout"], s["argv"]


def test_hodge_answers_without_numpy(tmp_path):
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"re": [[0.0]], "im": [[1.0]]}))
    _, hodge = run_requests([["hodge", "siegel", str(tau)]])
    assert "numpy" not in hodge["loaded"] and hodge["code"] == 0
    assert hodge["stdout"] == '{"check": "hodge-siegel", "ok": true, "tol": 1e-09}\n'
