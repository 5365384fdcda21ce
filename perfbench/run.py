"""Benchmark of the siegeltoric command-line interface.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client sends the workload's requests one at a time.  Each
request is a fresh process, `python -m siegeltoric.cli ...` with
PYTHONPATH=src, under a per-request deadline.  Every answer is checked
against what the seeded input was built to give (see inputs.py); a wrong
exit code or verdict, a traceback, stdout that differs between identical
requests, or a kill at the deadline counts as a failed request.  A run
makes round(S / pass length) passes, at least one, over the workload's
request list; wall_s and cpu_s are medians over passes.

--trace 0 measures end to end with tracing off.  --trace 1 runs each
request of one pass twice, first untraced and then under
perfbench/tracer.py, measures the start-up decomposition, and reports the
per_layer metrics named in BENCHMARK.json as totals over the traced pass.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --workload all runs every workload in
turn and prefixes each metric with its workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

TRACER = os.path.join(HERE, "tracer.py")
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
KILL_GRACE_S = 2.0


@dataclass
class Outcome:
    request: inputs.Request
    wall: float
    rss_kb: int
    returncode: int
    killed: bool
    stdout: bytes
    stderr: bytes
    error: Optional[str] = None


# Interpreter settings that change caching or I/O; requests run with the
# interpreter's defaults whatever the caller's environment, so that the
# bytecode cache warmed in set-up is used.
UNSET_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONUNBUFFERED",
             "PYTHONOPTIMIZE")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    return env


def spawn(argv, env, deadline, out_path, err_path, graceful=False):
    """Run argv to completion or to its deadline.

    Returns (wall seconds, max RSS in KiB, exit code, killed).  The child
    is reaped with wait4, so its own rusage is read; at the deadline it
    gets SIGKILL, or SIGTERM and then SIGKILL after a grace period when
    `graceful` (so a traced child can write its spans).
    """
    state = {"killed": False}

    def on_alarm(signum, frame):
        if graceful and not state["killed"]:
            proc.send_signal(signal.SIGTERM)
            signal.setitimer(signal.ITIMER_REAL, KILL_GRACE_S)
        else:
            proc.kill()
        state["killed"] = True

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    return wall, usage.ru_maxrss, proc.returncode, state["killed"]


def parse_text(text: str) -> dict:
    """Top-level `key: value` lines of a --output text report."""
    fields = {}
    for line in text.splitlines():
        if line and not line.startswith(" ") and ": " in line:
            key, value = line.split(": ", 1)
            fields[key] = value
    return fields


def verify(outcome: Outcome, seen: dict, deadline: float) -> None:
    """Set outcome.error to the first reason the answer is not acceptable."""
    req = outcome.request
    key = tuple(req.argv)
    if outcome.killed:
        outcome.error = f"killed at the {deadline:g} s deadline"
    elif b"Traceback (most recent call last)" in outcome.stderr:
        outcome.error = "traceback on stderr"
    elif outcome.returncode not in (0, 1, 2):
        outcome.error = f"exit code {outcome.returncode} outside 0/1/2"
    elif outcome.returncode != req.exit_code:
        outcome.error = f"exit code {outcome.returncode}, expected {req.exit_code}"
    elif key in seen and seen[key] != outcome.stdout:
        outcome.error = "stdout differs from an identical earlier request"
    if outcome.error is not None:
        return
    seen.setdefault(key, outcome.stdout)
    try:
        text = outcome.stdout.decode("utf-8")
        report = parse_text(text) if req.text else json.loads(text)
    except ValueError as exc:
        outcome.error = f"unreadable report: {exc}"
        return
    try:
        for name, want in req.fields.items():
            if report.get(name) != want:
                outcome.error = f"{name} = {report.get(name)!r}, expected {want!r}"
                return
        if req.check is not None:
            outcome.error = req.check(report)
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        outcome.error = f"report lacks an expected field: {exc!r}"


def run_pass(requests, workdir, deadline, seen, traced=False):
    """Run the requests one after another; return outcomes, pass wall and CPU."""
    env = child_env()
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    outcomes, spans = [], []
    usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    for i, req in enumerate(requests):
        if traced:
            span_path = os.path.join(workdir, f"spans-{i:02d}.json")
            argv = [sys.executable, TRACER, span_path] + req.argv
        else:
            argv = [sys.executable, "-m", "siegeltoric.cli"] + req.argv
        wall, rss, rc, killed = spawn(argv, env, deadline, out_path, err_path, traced)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        outcome = Outcome(req, wall, rss, rc, killed, stdout, stderr)
        verify(outcome, seen, deadline)
        outcomes.append(outcome)
        if traced:
            try:
                with open(span_path, encoding="utf-8") as fh:
                    spans.append(json.load(fh))
            except FileNotFoundError:   # SIGKILLed before it could write
                spans.append({"stats": {}, "killed": True, "open_lp": 0, "span_cost_s": 0.0})
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    return outcomes, wall, cpu, spans


def setup(workload, seed, workdir):
    """Generate the inputs and warm the bytecode cache, SETUP_REPEATS times.

    Returns the requests and the median set-up time.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        requests = inputs.build(workload, seed, workdir)
        subprocess.run([sys.executable, "-c", "import siegeltoric.cli"], env=child_env(),
                       check=True)
        times.append(time.perf_counter() - start)
    return requests, statistics.median(times)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail(latencies):
    """Tail latency: returns (value, percentile, samples beyond it).

    The tail is the highest percentile with at least 10 samples beyond it,
    or the nearest-rank p90 when that is higher.  The first reaches p90
    only from 100 samples on and would fall below the median in a run of
    a few dozen requests; the second has fewer than 10 samples beyond it
    there (with 10 samples or fewer it is the maximum).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, (9 * n + 9) // 10 - 1)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def report_failures(outcomes):
    """Print each failed request; return (failed, wrong), where a wrong
    answer is any failure other than a kill at the deadline."""
    for o in outcomes:
        if o.error is not None:
            print(f"FAILED {o.request.label}: {o.error}  [{' '.join(o.request.argv)}]")
    failed = sum(1 for o in outcomes if o.error is not None)
    return failed, sum(1 for o in outcomes if o.error is not None and not o.killed)


def label_summary(outcomes):
    by_label: dict[str, list[float]] = {}
    for o in outcomes:
        by_label.setdefault(o.request.label, []).append(o.wall)
    for label, walls in by_label.items():
        print(f"    {label:24s} {len(walls):3d} x  median {statistics.median(walls):8.4f} s")


def end_to_end(workload, requests, workdir, passes, setup_s):
    deadline = inputs.DEADLINE_S[workload]
    seen = {}
    walls, cpus, outcomes = [], [], []
    for _ in range(passes):
        done, wall, cpu, _ = run_pass(requests, workdir, deadline, seen)
        walls.append(wall)
        cpus.append(cpu)
        outcomes += done
    latencies = [o.wall for o in outcomes]
    # a killed request's memory is wherever it stood at the deadline
    finished = [o for o in outcomes if not o.killed] or outcomes
    tail_value, tail_pct, beyond = tail(latencies)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "peak_rss_mb": (max(o.rss_kb for o in finished) / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    failed, wrong = report_failures(outcomes)
    print(f"workload {workload}: {passes} pass(es) of {len(requests)} requests, "
          f"1 closed-loop client, deadline {deadline:g} s")
    label_summary(outcomes)
    for name, values in (("wall_s", walls), ("cpu_s", cpus), ("latency_p50_s", latencies)):
        lo, hi = quartiles(values)
        print(f"  {name:15s} {metrics[name][0]:10.4f} s   quartiles {lo:.4f} .. {hi:.4f}")
    print(f"  {'latency_tail_s':15s} {tail_value:10.4f} s   p{tail_pct:.1f} of "
          f"{len(latencies)} samples, {beyond} beyond it")
    print(f"  {'failed_ratio':15s} {failed / len(outcomes):10.4f} 1   "
          f"{failed} of {len(outcomes)} ({failed - wrong} killed at the deadline)")
    killed_rss = [o.rss_kb / 1024 for o in outcomes if o.killed]
    print(f"  {'peak_rss_mb':15s} {metrics['peak_rss_mb'][0]:10.4f} MB   requests that finished"
          + (f"; killed ones reached {max(killed_rss):.1f} MB" if killed_rss else ""))
    print(f"  {'setup_s':15s} {setup_s:10.4f} s   median of {SETUP_REPEATS}")
    print(f"  outputs correct: {wrong == 0}")
    return wrong == 0, len(outcomes), failed, metrics


def startup_decomposition():
    """Median fresh-interpreter times, each net of a bare interpreter."""
    env = child_env()
    codes = {"python.start_s": "pass", "numpy.import_s": "import numpy",
             "cli.import_s": "import siegeltoric.cli"}
    times = {name: [] for name in codes}
    for _ in range(STARTUP_REPEATS):
        for name, code in codes.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times[name].append(time.perf_counter() - start)
    med = {name: statistics.median(v) for name, v in times.items()}
    base = med["python.start_s"]
    return {"python.start_s": base, "numpy.import_s": med["numpy.import_s"] - base,
            "cli.import_s": med["cli.import_s"] - base}


LAYERS = ("cli", "jsonio", "catalog", "exact_algebra", "volume_ke", "residue_intersect",
          "cone_lattice", "exactlp", "period_domain")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def per_layer(outcomes_plain, outcomes_traced, spans, startup):
    """The per_layer metrics of BENCHMARK.json for one traced pass.

    A name `<span>.<stat>` is the stat totalled over the pass (maxima for
    `*_max` stats); `<span>.<x>_ratio` is the share of calls that returned
    true; `<layer>.<stat>` totals the stat over the layer's spans.  The
    rest are derived figures, named in `derived` below.
    """
    stats: dict[str, dict] = {}
    for record in spans:
        for name, st in record["stats"].items():
            acc = stats.setdefault(name, {})
            for key, value in st.items():
                if key.endswith("_max") or key == "max_call_s":
                    acc[key] = max(acc.get(key, 0), value)
                else:
                    acc[key] = acc.get(key, 0) + value

    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    inprocess = get("cli.main", "total_s")
    traced_wall = sum(o.wall for o in outcomes_traced)
    plain_wall = sum(o.wall for o in outcomes_plain)
    derived = dict(startup)
    derived.update({
        "cli.process_overhead_s": traced_wall - inprocess,
        "exactlp.killed": sum(r["open_lp"] for r in spans),
        "trace.inprocess_s": inprocess,
        "trace.uncovered_share": get("cli.main", "self_s") / inprocess if inprocess else 0.0,
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.span_cost_s": sum(r["span_cost_s"] for r in spans),
    })
    with open(BENCHMARK, encoding="utf-8") as fh:
        wanted = json.load(fh)["per_layer"]
    m = {}
    for entry in wanted:
        name = entry["name"]
        head, stat = name.rsplit(".", 1)
        if name in derived:
            value = derived[name]
        elif head in LAYERS:
            value = sum(st.get(stat, 0) for span, st in stats.items()
                        if span.startswith(head + "."))
        elif stat.endswith("_ratio"):
            calls = get(head, "calls")
            value = get(head, "true") / calls if calls else 0.0
        else:
            value = get(head, stat)
        m[name] = (value, entry["unit"])
    return m


def traced_run(workload, requests, workdir):
    deadline = inputs.DEADLINE_S[workload]
    seen = {}
    plain, traced, spans = [], [], []
    for req in requests:   # each request untraced, then traced, so drift cancels
        plain += run_pass([req], workdir, deadline, seen)[0]
        done, _, _, record = run_pass([req], workdir, deadline, seen, traced=True)
        traced += done
        spans += record
    metrics = per_layer(plain, traced, spans, startup_decomposition())
    outcomes = plain + traced
    failed, wrong = report_failures(outcomes)
    print(f"workload {workload}: traced pass of {len(requests)} requests")
    for name, (value, unit) in metrics.items():
        print(f"  {name:50s} {value:14.6f} {unit}")
    print("  The layer self times and cli.main.self_s add up to trace.inprocess_s by "
          "construction;\n  trace.uncovered_share is the part of it in cli.main's own code, "
          "outside every module span.")
    print("  trace.span_cost_s estimates the tracing overhead as span calls times the wrapper "
          "cost\n  calibrated in each traced process; trace.overhead_s, traced minus untraced "
          "wall of one\n  pair per request, is within the machine's run-to-run noise.")
    print(f"  outputs correct: {wrong == 0}")
    return wrong == 0, len(outcomes), failed, metrics


def run_workload(workload, seed, seconds, trace):
    work_root = os.path.join(os.getcwd(), ".perfbench_work")
    workdir = os.path.join(work_root, f"{workload}-{seed}")
    requests, setup_s = setup(workload, seed, workdir)
    if trace:
        result = traced_run(workload, requests, workdir)
    else:
        passes = max(1, round(seconds / inputs.PASS_SECONDS[workload]))
        result = end_to_end(workload, requests, workdir, passes, setup_s)
    shutil.rmtree(workdir, ignore_errors=True)
    if not os.listdir(work_root):
        os.rmdir(work_root)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS) + ["all"],
                        help="a workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    needed = [os.path.join("src", "siegeltoric", "cli.py"), inputs.GOLDEN_RESIDUE,
              inputs.GOLDEN_VOLUME, BENCHMARK]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: run from the root of a siegeltoric checkout; missing {missing}",
              file=sys.stderr)
        return 2

    if args.workload != "all":
        correct, attempted, failed, metrics = run_workload(
            args.workload, args.seed, args.seconds, args.trace)
    else:
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in inputs.WORKLOADS:
            ok, n, bad, m = run_workload(workload, args.seed, args.seconds, args.trace)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            metrics.update({f"{workload}.{name}": value for name, value in m.items()})
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
