"""Run one siegeltoric CLI request with spans around each layer.

Usage: python perfbench/tracer.py OUT.json CLI-ARGS...

Wraps public functions and methods of the package modules from outside
the package, runs `siegeltoric.cli.main` on CLI-ARGS, and writes span
aggregates to OUT.json when the request ends, also when it is stopped by
SIGTERM at a deadline.  Spans are aggregated in memory as they close:
per span name the call count, self time (duration minus the time its
child spans cover), total time (outermost calls only), longest call and
a few exact counters.  OUT.json also holds span_cost_s, the span count
times the cost of one span, calibrated on a no-op before the request.
Stdout is the CLI's own report, unchanged.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

from siegeltoric import (catalog, cli, cone_lattice, exact_algebra, exactlp, jsonio,
                         period_domain, residue_intersect, volume_ke)

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # [name, start, child seconds]
        self.stats: dict[str, dict] = {}
        self.depth: dict[str, int] = {}

    def _close(self, frame, end):
        name, start, child = frame
        dur = end - start
        st = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                          "max_call_s": 0.0})
        st["calls"] += 1
        st["self_s"] += dur - child
        if self.depth[name] == 0:
            st["total_s"] += dur
        st["max_call_s"] = max(st["max_call_s"], dur)
        if self.stack:
            self.stack[-1][2] += dur

    def wrap(self, name, fn, count=None):
        stack, depth = self.stack, self.depth
        depth.setdefault(name, 0)

        def traced(*args, **kwargs):
            frame = [name, _clock(), 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                depth[name] -= 1
                self._close(frame, end)
            if count is not None:
                count(self.stats[name], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def stop(self) -> int:
        """Close every open span now; return how many were LP calls."""
        end = _clock()
        open_lp = sum(1 for f in self.stack if f[0] == "exactlp.feasible_eq_nonneg")
        while self.stack:
            frame = self.stack.pop()
            self.depth[frame[0]] -= 1
            self._close(frame, end)
        return open_lp


def call_cost(rounds: int = 5, calls: int = 500) -> float:
    """Seconds a span adds to one call: a wrapped no-op against a plain
    one, best of `rounds`."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    best = float("inf")
    for _ in range(rounds):
        start = _clock()
        for _ in range(calls):
            noop()
        mid = _clock()
        for _ in range(calls):
            wrapped()
        best = min(best, (_clock() - mid) - (mid - start))
    return max(best, 0.0) / calls


def _add(st, key, value):
    st[key] = st.get(key, 0) + value


def _count_mul(st, args, result):
    _add(st, "term_pairs", len(args[0].terms) * len(args[1].terms))
    st["out_terms_max"] = max(st.get("out_terms_max", 0), len(result.terms))


def _count_det(st, args, result):
    st["order_max"] = max(st.get("order_max", 0), args[0].rows)


def _count_true(st, args, result):
    _add(st, "true", 1 if result else 0)


def _count_bytes(st, args, result):
    _add(st, "bytes", len(result.encode("utf-8")))


# (owner, attribute, span name, counter); an owner is a module or a class
SPANS = [
    (exact_algebra.MultiPoly, "__mul__", "exact_algebra.mul", _count_mul),
    (exact_algebra.MultiPoly, "__add__", "exact_algebra.add", None),
    (exact_algebra.MultiPoly, "__sub__", "exact_algebra.add", None),
    (exact_algebra.MultiPoly, "__pow__", "exact_algebra.pow", None),
    (exact_algebra.MultiPoly, "partial", "exact_algebra.partial", None),
    (exact_algebra.MultiPoly, "eval_at", "exact_algebra.eval_at", None),
    (exact_algebra.PolyMatrix, "det", "exact_algebra.det", _count_det),
    (exact_algebra, "pencil_det", "exact_algebra.pencil_det", None),
    (exact_algebra, "poly_to_json", "exact_algebra.poly_to_json", None),
    (volume_ke, "volume_function", "volume_ke.volume_function", None),
    (volume_ke, "det_t_symbolic", "volume_ke.det_t_symbolic", None),
    (volume_ke, "ma_rhs", "volume_ke.ma_rhs", None),
    (volume_ke, "is_ke_point", "volume_ke.is_ke_point", None),
    (volume_ke, "verify_ma_identity", "volume_ke.verify_ma_identity", None),
    (residue_intersect, "residue_chain", "residue_intersect.residue_chain", None),
    (residue_intersect, "chi_descriptor", "residue_intersect.chi_descriptor", None),
    (residue_intersect, "intersection_vanishing",
     "residue_intersect.intersection_vanishing", None),
    (residue_intersect, "toric_verdict", "residue_intersect.toric_verdict", None),
    (cone_lattice, "is_fan", "cone_lattice.is_fan", None),
    (cone_lattice, "is_separable", "cone_lattice.is_separable", None),
    (cone_lattice, "cones_meet_nontrivially", "cone_lattice.cones_meet_nontrivially",
     _count_true),
    (cone_lattice, "lattice_volume", "cone_lattice.predicates", None),
    (cone_lattice, "is_regular", "cone_lattice.predicates", None),
    (cone_lattice, "edge_class", "cone_lattice.predicates", None),
    (cone_lattice, "gl_act", "cone_lattice.predicates", None),
    (exactlp, "feasible_eq_nonneg", "exactlp.feasible_eq_nonneg", _count_true),
    (exactlp, "cone_membership", "exactlp.cone_membership", None),
    (jsonio, "cone_from_json", "jsonio.read", None),
    (jsonio, "fan_from_json", "jsonio.read", None),
    (jsonio, "group_from_json", "jsonio.read", None),
    (jsonio, "complex_matrix_from_json", "jsonio.read", None),
    (jsonio, "dump_report", "jsonio.dump_report", _count_bytes),
    (jsonio, "render_text", "jsonio.render_text", None),
    (catalog, "catalog_get", "catalog.catalog_get", None),
    (catalog, "catalog_names", "catalog.catalog_names", None),
    (period_domain, "siegel_membership", "period_domain.check", None),
    (period_domain, "riemann_check", "period_domain.check", None),
    (period_domain, "weight_filtration", "period_domain.check", None),
    (period_domain, "nilpotent_orbit_check", "period_domain.check", None),
    (period_domain, "block_volume_identity", "period_domain.check", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every span target at every binding site in the package.

    Names bound with `from ... import` (cone_lattice.feasible_eq_nonneg,
    volume_ke.pencil_det, cli.poly_to_json, ...) are found by identity in
    each package module's namespace.
    """
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "siegeltoric" or n.startswith("siegeltoric."))]
    for owner, attr, name, count in SPANS:
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(name, original, count)
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    cost = call_cost()
    tracer = Tracer()
    install(tracer)
    state = {"killed": False, "open_lp": 0}

    def write():
        calls = sum(st["calls"] for st in tracer.stats.values())
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"stats": tracer.stats, **state, "span_cost_s": calls * cost}, fh)

    def on_term(signum, frame):
        state["killed"] = True
        state["open_lp"] = tracer.stop()
        write()
        sys.stdout.flush()
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        write()


if __name__ == "__main__":
    sys.exit(main())
