"""Compare the reports of two checkouts on every benchmark request and on
the frontier requests.

Run from anywhere:  python3 tools/compare_reports.py BASE_CHECKOUT
Builds each workload's requests for seeds 101-105 with perfbench/inputs.py
(read, never written) and runs each one from its work directory; then runs
each of the fixed FRONTIER requests, whose work goes past the benchmark's
cones, which stop at genus 5, and its symbolic work, which stops at
genus 3: on catalog cones, genus-6 `cone volume`, `residue` and
`intersect`, a randomized `ma verify` of one trial at genus 7, 8, 9
and 10 (the largest genus its cost guard admits), and a genus-12 `ke
test`, `cone check` and symbolic `ma verify`; `cone check`, symbolic
`ma verify` and `ke test` on a genus-24 principal-cone file, past the
catalog's genus range, which is written in the temporary directory with
perfbench/inputs.py's `principal_generators` and `cone_json`; past
the benchmark's genus-2 fans of 4-6 cones, `fan check`, `separable`
against four seeded GL(3,Z) elements and -I (written there with
perfbench/inputs.py's `random_frame`), and two `intersect --edges`
requests (the sorted ray ids of one cone, answered `one`, and a
selection that is no cone's, answered `zero`) on a fan of 64 GL(3,Z)
translates of the principal cone with distinct ray sets, and `fan
check` on one of 128 such translates, both written there too, seeded,
with perfbench/inputs.py's `random_frame`, `translate` and `ray`; and,
past the benchmark's `hodge` requests, which stop at genus 3, `hodge
siegel`, `riemann`, `nilpotent`, `weight` (depth 0, so u is 8 x 8) and
`block-volume` at genus period_domain.HODGE_GENUS_MAX = 8, on seeded
points that are written there with perfbench/inputs.py's
`_siegel_point`, and `riemann` on a 16 x 8 filtration basis [tau A; A]
there, A from its `random_frame`.  `frontier_requests` writes these files and lists the
frontier requests, for tools/frontier_bench.py too.  Every request runs
once under BASE_CHECKOUT/src and once under this checkout's src, and
every request whose exit code, stdout or stderr differ is listed.  Exits
1 on any difference in exit code or stdout; differences in stderr alone
are listed, not failed.
"""

import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
from siegeltoric.period_domain import HODGE_GENUS_MAX  # noqa: E402

SEEDS = range(101, 106)
TIMEOUT_S = 120
FRONTIER = (
    ["cone", "volume", "principal-g6"],
    ["residue", "principal-g6", "--d", "3"],
    ["intersect", "principal-g6", "--edges", "0"],
    ["ma", "verify", "principal-g7", "--randomized", "--trials", "1"],
    ["ma", "verify", "principal-g8", "--randomized", "--trials", "1"],
    ["ma", "verify", "principal-g9", "--randomized", "--trials", "1"],
    ["ma", "verify", "principal-g10", "--randomized", "--trials", "1"],
    ["ke", "test", "principal-g12"],
    ["cone", "check", "principal-g12"],
    ["ma", "verify", "principal-g12"],
    ["cone", "check", "principal-g24.json"],
    ["ma", "verify", "principal-g24.json", "--symbolic"],
    ["ke", "test", "principal-g24.json"],
    ["fan", "check", "translates-g3.json"],
    ["fan", "check", "translates-g3-128.json"],
    ["separable", "translates-g3.json", "group-g3.json"],
)
FAN_SEED = 3601
GROUP_SEED, GROUP_SIZE = 3607, 4
HODGE_SEED, HODGE_DEPTH = 3613, 3


def translate_fan(path, size):
    """Write `size` GL(3,Z) translates of the principal cone with distinct
    ray sets, each marked at random, to path; return the `intersect
    --edges` lists of one cone's rays and of a selection that is no cone's,
    as indices in the fan's sorted distinct rays."""
    rng = random.Random(FAN_SEED)
    cones, ray_sets = [], []
    while len(cones) < size:
        f, _ = inputs.random_frame(rng, 3, rng.randint(1, 4))
        marking = rng.sample(range(6), 6)
        cone = inputs.translate(3, f, marking, f"c{len(cones)}_")
        rays = frozenset(map(inputs.ray, cone["generators"]))
        if rays not in ray_sets:
            ray_sets.append(rays)
            cones.append(cone)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"cones": cones}, fh)
    rays = sorted(set().union(*ray_sets))
    one = sorted(rays.index(r) for r in rng.choice(ray_sets))
    while True:
        zero = sorted(rng.sample(range(len(rays)), 6))
        if {rays[i] for i in zero} not in ray_sets:
            return one, zero


def translate_group(path):
    """Write GROUP_SIZE seeded GL(3,Z) elements and -I to path."""
    rng = random.Random(GROUP_SEED)
    mats = [inputs.random_frame(rng, 3, rng.randint(1, 4))[0] for _ in range(GROUP_SIZE)]
    mats.append([[-int(i == j) for j in range(3)] for i in range(3)])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([{"matrix": m} for m in mats], fh)


def hodge_files(tmp):
    """Write seeded genus-HODGE_GENUS_MAX inputs of the five hodge checks to
    tmp, each point drawn by perfbench/inputs.py's `_siegel_point`, and
    return their argv: a point for `siegel` and `riemann`, a depth-3 cusp
    nilpotent for `nilpotent`, a depth-0 one (u is 8 x 8) for `weight`,
    block coordinates of sizes 3 and 5 for `block-volume`, and, drawn
    last so that the other files keep their bytes, a 16 x 8 filtration
    basis [tau A; A] for `riemann`, with A in GL(8,Z) from
    perfbench/inputs.py's `random_frame`."""
    g, k = HODGE_GENUS_MAX, HODGE_DEPTH
    rng = random.Random(HODGE_SEED)
    docs = {
        "tau": inputs._siegel_point(rng, g),
        "nilp": {"g": g, "k": k, "u": inputs._siegel_point(rng, g - k)["im"],
                 "tau_cusp": inputs._siegel_point(rng, k)},
        "weight": {"g": g, "k": 0, "u": inputs._siegel_point(rng, g)["im"]},
        "block": {"tau_prime": inputs._siegel_point(rng, k),
                  "Z": inputs._siegel_point(rng, g - k),
                  "S": {part: [[rng.uniform(-1, 1) for _ in range(g - k)] for _ in range(k)]
                        for part in ("re", "im")}},
    }
    tau, a = inputs._siegel_point(rng, g), inputs.random_frame(rng, g, k)[0]
    docs["filt"] = {"re": inputs.matmul(tau["re"], a) + a,
                    "im": inputs.matmul(tau["im"], a) + [[0] * g for _ in range(g)]}
    for name, doc in docs.items():
        with open(os.path.join(tmp, f"hodge-{name}-g{g}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return [["hodge", check, f"hodge-{name}-g{g}.json", *tail]
            for check, name, tail in (("siegel", "tau", []), ("riemann", "tau", []),
                                      ("nilpotent", "nilp", []), ("weight", "weight", []),
                                      ("block-volume", "block", ["--tol", "1e-8"]),
                                      ("riemann", "filt", []))]


def frontier_requests(tmp):
    """Write the frontier fixtures to tmp and return the argv of every
    frontier request, each to be run from tmp."""
    with open(os.path.join(tmp, "principal-g24.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs.cone_json(24, inputs.principal_generators(24)), fh)
    translate_group(os.path.join(tmp, "group-g3.json"))
    translate_fan(os.path.join(tmp, "translates-g3-128.json"), 128)
    frontier = list(FRONTIER) + hodge_files(tmp)
    for edges in translate_fan(os.path.join(tmp, "translates-g3.json"), 64):
        frontier.append(["intersect", "translates-g3.json",
                         "--edges", ",".join(map(str, edges))])
    return frontier


def run(src, argv, cwd, env):
    """Exit code (or "timeout"), stdout and stderr of one CLI process on
    src, run from cwd in env with PYTHONPATH=src."""
    try:
        proc = subprocess.run([sys.executable, "-m", "siegeltoric.cli"] + argv, cwd=cwd,
                              env=dict(env, PYTHONPATH=src), capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", b"", b""
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sources = [os.path.join(os.path.abspath(sys.argv[1]), "src"), os.path.join(ROOT, "src")]
    os.chdir(ROOT)   # inputs.py reads the golden files relative to the checkout
    differ, failed = 0, False
    with tempfile.TemporaryDirectory() as tmp:
        requests = []
        for workload in inputs.WORKLOADS:
            for seed in SEEDS:
                workdir = os.path.join(tmp, f"{workload}-{seed}")
                requests += [(f"{workload} seed {seed} {req.label}", req.argv, workdir)
                             for req in inputs.build(workload, seed, workdir)]
        requests += [(f"frontier {' '.join(argv)}", argv, tmp)
                     for argv in frontier_requests(tmp)]
        for label, argv, workdir in requests:
            base, new = (run(src, argv, workdir, os.environ) for src in sources)
            fields = [name for name, a, b in zip(("exit", "stdout", "stderr"), base, new)
                      if a != b]
            if fields:
                differ += 1
                failed |= fields != ["stderr"]
                print(f"{label}: {', '.join(fields)} differ")
    print(f"{differ} of {len(requests)} requests differ")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
