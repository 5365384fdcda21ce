"""Start-up cost: numpy loads only on the `hodge` path.

Each check runs in a fresh interpreter, since the test process itself has
numpy loaded already."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# Runs each request of argv[1] through cli.main and prints, per request,
# its exit code, its report and whether numpy was loaded after it.
SCRIPT = """
import contextlib, io, json, sys
from siegeltoric import cli
seen = [{"argv": "import", "numpy": "numpy" in sys.modules}]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    seen.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                 "numpy": "numpy" in sys.modules})
print(json.dumps(seen))
"""


def run_requests(requests):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(requests)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_subcommands_leave_numpy_unloaded(tmp_path):
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"cones": [
        {"g": 2, "scale": 1,
         "generators": [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, -1], [-1, 1]]]},
        {"g": 2, "scale": 1,
         "generators": [[[1, 1], [1, 1]], [[0, 0], [0, 1]], [[1, 0], [0, 0]]]},
    ]}))
    group = tmp_path / "group.json"
    group.write_text(json.dumps([{"matrix": [[0, 1], [1, 0]]}]))
    requests = [
        ["catalog", "list"],
        ["cone", "check", "principal-g2"],
        ["cone", "volume", "principal-g3"],
        ["ma", "verify", "principal-g2", "--symbolic"],
        ["ke", "test", "principal-g2"],
        ["residue", "principal-g2", "--d", "1"],
        ["intersect", "principal-g2", "--edges", "0"],
        ["fan", "check", str(fan)],
        ["separable", str(fan), str(group)],
    ]
    seen = run_requests(requests)
    assert [s["argv"] for s in seen] == ["import"] + requests
    for s in seen:
        assert s["numpy"] is False, s["argv"]
    for s in seen[1:]:
        assert s["code"] in (0, 1) and s["stdout"], s["argv"]


def test_hodge_loads_numpy_and_answers(tmp_path):
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"re": [[0.0]], "im": [[1.0]]}))
    _, hodge = run_requests([["hodge", "siegel", str(tau)]])
    assert hodge["numpy"] is True and hodge["code"] == 0
    assert hodge["stdout"] == '{"check": "hodge-siegel", "ok": true, "tol": 1e-09}\n'
