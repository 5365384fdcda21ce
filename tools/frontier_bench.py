"""Time the frontier requests of tools/compare_reports.py end to end, and
named layers of the package in process.

Run from anywhere:  python3 tools/frontier_bench.py [--base CHECKOUT] --out BENCH_<n>.json

Writes the frontier fixtures with compare_reports.frontier_requests in a
temporary directory and runs each frontier request RUNS times, each run a
fresh `python -m siegeltoric.cli` process on this checkout's src; with
--base, each run of the change is paired with one on CHECKOUT/src, the
order of the two alternating from run to run.  Before its timed runs,
each side runs each request once untimed, writing the bytecode of every
module it imports to one cache in the temporary directory, which the timed
runs read: no side pays for compiling, whatever __pycache__ a checkout
holds and whatever PYTHONDONTWRITEBYTECODE says.  The JSON written to
--out:

  machine   cpu_count, python (version), python_start_s (median of 9 runs
            of `python -c pass`, in s), and commits: for "change" and, with
            --base, "base", the checkout's git HEAD ("commit", null outside
            git) and whether its src differs from HEAD ("src_dirty")
  runs      RUNS
  requests  one entry per request: "argv", and per side ("change", and
            "base" with --base) "exit" and "stdout_bytes" (one value per
            run), "runs_s" (wall seconds of each run, process start
            included), "median_s", "q1_s" and "q3_s" (inclusive quartiles)
  inprocess one entry per layer of LAYERS: "name", and per side "runs_s"
            (seconds of the one timed call of each run), "median_s",
            "q1_s", "q3_s" and "result" (the call's result in one number,
            the same in every run of the side)

Each run of a layer is a fresh interpreter on the side's src, run from
the fixture directory; it imports the package and builds its input
untimed, then times the one call.  The runs alternate between the sides
as the requests' runs do.

The tool records; it decides nothing, and exits 0 whatever the requests
answer.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare_reports  # noqa: E402

ROOT = compare_reports.ROOT
RUNS = 5
START_RUNS = 9

# in-process layers: name, untimed set-up, timed call and its result as
# one number; each runs as a script from the frontier fixture directory
LAYERS = (
    ("cone_lattice.is_fan translates-g3",
     "import json\n"
     "from siegeltoric import cone_lattice, jsonio\n"
     "with open('translates-g3.json', encoding='utf-8') as fh:\n"
     "    fan = jsonio.fan_from_json(json.load(fh))",
     "cone_lattice.is_fan(fan)", "len(out)"),
    ("exact_algebra.pencil_det principal-g6",
     "from siegeltoric import catalog, exact_algebra, volume_ke\n"
     "pencil = volume_ke.volume_function(catalog.catalog_get('principal-g6').cone).pencil",
     "exact_algebra.pencil_det(pencil)", "len(out.terms)"),
)
LAYER_SCRIPT = """{setup}
import json, time
t0 = time.perf_counter()
out = {call}
seconds = time.perf_counter() - t0
print(json.dumps([seconds, {result}]))
"""


def time_stats(times):
    """runs_s, with its median and inclusive quartiles."""
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"runs_s": times, "median_s": median, "q1_s": q1, "q3_s": q3}


def side_stats(runs):
    """exit, stdout_bytes and the time_stats of one side's wall times."""
    return {"exit": [code for code, _, _ in runs],
            "stdout_bytes": [size for _, size, _ in runs],
            **time_stats([t for _, _, t in runs])}


def cached_env(cwd):
    """The environment of every run: bytecode cached in cwd/pycache."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = os.path.join(cwd, "pycache")
    return env


def alternate(sources, runs, one_run):
    """one_run(src) `runs` times for every src of sources (a dict side ->
    src directory), the order of the sides alternating from run to run;
    the results, a list per side."""
    got = {side: [] for side in sources}
    order = list(sources)
    for _ in range(runs):
        for side in order:
            got[side].append(one_run(sources[side]))
        order.reverse()
    return got


def timed_run(src, argv, cwd, env):
    """Exit code (or "timeout"), stdout length and wall seconds of one CLI
    process on src."""
    t0 = time.perf_counter()
    code, out, _ = compare_reports.run(src, argv, cwd, env)
    return code, len(out), time.perf_counter() - t0


def measure(requests, sources, runs, cwd):
    """Run each argv of requests once untimed and then `runs` times from
    cwd under every src of sources (a dict side -> src directory),
    alternating the order of the sides from run to run, with bytecode
    cached in cwd/pycache; return one record per request."""
    env = cached_env(cwd)
    records = []
    for argv in requests:
        for src in sources.values():
            timed_run(src, argv, cwd, env)
        got = alternate(sources, runs, lambda src: timed_run(src, argv, cwd, env))
        records.append({"argv": argv, **{side: side_stats(r) for side, r in got.items()}})
    return records


def layer_run(src, script, cwd, env):
    """Seconds of the timed call and its result, from one fresh interpreter
    on src running script from cwd."""
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                          text=True, env=dict(env, PYTHONPATH=src),
                          timeout=compare_reports.TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"layer script failed on {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def measure_inprocess(layers, sources, runs, cwd):
    """Run each layer of layers (LAYERS entries) `runs` times from cwd under
    every src of sources, alternating the order of the sides from run to
    run; return one record per layer."""
    env = cached_env(cwd)
    records = []
    for name, setup, call, result in layers:
        script = LAYER_SCRIPT.format(setup=setup, call=call, result=result)
        got = alternate(sources, runs, lambda src: layer_run(src, script, cwd, env))
        record = {"name": name}
        for side, side_runs in got.items():
            results = {value for _, value in side_runs}
            if len(results) != 1:
                raise RuntimeError(f"{name} on {side}: results differ between runs: {results}")
            record[side] = {**time_stats([t for t, _ in side_runs]), "result": results.pop()}
        records.append(record)
    return records


def commit(checkout):
    """git HEAD of checkout and whether its src differs from HEAD; null
    and false outside a git work tree."""
    def git(*args):
        proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    head = git("rev-parse", "HEAD")
    return {"commit": head, "src_dirty": bool(head and git("status", "--porcelain", "--", "src"))}


def python_start_s():
    times = []
    for _ in range(START_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time the frontier requests end to end.")
    parser.add_argument("--base", help="a second checkout, timed in alternation with this one")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    checkouts = {"change": ROOT}
    if args.base:
        checkouts["base"] = os.path.abspath(args.base)
    sources = {side: os.path.join(path, "src") for side, path in checkouts.items()}
    machine = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
               "python_start_s": python_start_s(),
               "commits": {side: commit(path) for side, path in checkouts.items()}}
    with tempfile.TemporaryDirectory() as tmp:
        requests = measure(compare_reports.frontier_requests(tmp), sources, RUNS, tmp)
        inprocess = measure_inprocess(LAYERS, sources, RUNS, tmp)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "runs": RUNS, "requests": requests,
                   "inprocess": inprocess}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
