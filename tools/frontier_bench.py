"""Time the frontier requests of tools/compare_reports.py end to end.

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


def side_stats(runs):
    """exit, stdout_bytes and runs_s lists of one side, with the median and
    the inclusive quartiles of its wall times."""
    times = [t for _, _, t in runs]
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"exit": [code for code, _, _ in runs],
            "stdout_bytes": [size for _, size, _ in runs],
            "runs_s": times, "median_s": median, "q1_s": q1, "q3_s": q3}


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
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = os.path.join(cwd, "pycache")
    records = []
    for argv in requests:
        for src in sources.values():
            timed_run(src, argv, cwd, env)
        got = {side: [] for side in sources}
        order = list(sources)
        for _ in range(runs):
            for side in order:
                got[side].append(timed_run(sources[side], argv, cwd, env))
            order.reverse()
        records.append({"argv": argv, **{side: side_stats(r) for side, r in got.items()}})
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
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "runs": RUNS, "requests": requests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
