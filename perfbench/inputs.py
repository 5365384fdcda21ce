"""Seeded inputs and expected answers for the siegeltoric benchmark.

Everything here is plain integer and float arithmetic: cones, fans, group
lists and period-domain points are built without importing the package,
so a change to the package cannot change the inputs it is measured on.
The program sees only the files written here and catalog names.

A workload is a *pass*: a fixed list of requests built from the workload
seed.  Each request carries its expected exit code and the report fields
that follow from how its input was built.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

# Per-request deadline in seconds, per workload.  Each sits clear of
# every request time measured when the benchmark was introduced: genus-3
# symbolic requests took up to 9 s, everything else in symbolic-g3,
# randomized-g45 and cli-mix under 2.5 s, and in fan-lp the requests took
# under 1.5 s except the Fourier-Motzkin cases, which took 26 s or more.
DEADLINE_S = {"symbolic-g3": 40.0, "randomized-g45": 20.0, "fan-lp": 5.0, "cli-mix": 10.0}

GOLDEN_RESIDUE = os.path.join("tests", "golden", "residue_g3_d1.json")
GOLDEN_VOLUME = os.path.join("tests", "golden", "volume_poly_g3.json")

# Relative positions (h, marking of sigma, marking of h.sigma) of genus-3
# principal-cone pairs.  Exact-LP cost depends only on the relative
# position and the markings, not on the common GL(3,Z) frame, so the seed
# moves the frame and the cost profile stays fixed: the Fourier-Motzkin
# route checks the fast pairs in under 1 s; it takes 28 s on the fan
# check of slow-a and over 60 s on the separability check of slow-b.
G3_PAIRS = {
    "fast-a": ([[1, 0, 0], [0, 1, 0], [0, -1, 1]],
               [2, 3, 1, 4, 5, 0], [0, 1, 4, 2, 3, 5]),
    "fast-b": ([[1, -1, 0], [0, 1, 1], [1, -1, 1]],
               [5, 1, 0, 4, 2, 3], [4, 0, 5, 1, 2, 3]),
    "slow-a": ([[1, 0, -1], [-1, 1, 1], [0, 1, 1]],
               [5, 0, 1, 2, 4, 3], [5, 2, 0, 4, 3, 1]),
    "slow-b": ([[1, 1, -1], [0, 1, -1], [0, 1, 0]],
               [2, 3, 5, 0, 4, 1], [4, 1, 2, 0, 5, 3]),
}


# ----------------------------------------------------------------------
# integer matrices


def identity(g: int) -> list[list[int]]:
    return [[int(i == j) for j in range(g)] for i in range(g)]


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def transpose(a):
    return [list(r) for r in zip(*a)]


def act(f, a):
    """f a f^T."""
    return matmul(matmul(f, a), transpose(f))


def zeta(g: int, i: int, j: int) -> list[list[int]]:
    m = [[0] * g for _ in range(g)]
    m[i][i] = 1
    if i != j:
        m[j][j] = 1
        m[i][j] = m[j][i] = -1
    return m


def principal_generators(g: int) -> list[list[list[int]]]:
    """Edges of the principal cone: diagonal pairs first, then i < j."""
    pairs = [(i, i) for i in range(g)] + [(i, j) for i in range(g) for j in range(i + 1, g)]
    return [zeta(g, i, j) for i, j in pairs]


def random_frame(rng: random.Random, g: int, steps: int):
    """A random element of GL(g,Z) and its inverse, as a walk of
    elementary row operations row_i += s * row_j."""
    f, finv = identity(g), identity(g)
    for _ in range(steps):
        i, j = rng.sample(range(g), 2)
        s = rng.choice((1, -1))
        e, einv = identity(g), identity(g)
        e[i][j], einv[i][j] = s, -s
        f, finv = matmul(e, f), matmul(finv, einv)
    return f, finv


def coords(m) -> tuple[int, ...]:
    """Coordinates in the delta basis, order (1,1),(1,2),...,(g,g)."""
    g = len(m)
    return tuple(m[i][j] for i in range(g) for j in range(i, g))


def ray(m) -> tuple[int, ...]:
    c = coords(m)
    d = math.gcd(*(abs(v) for v in c))
    return tuple(v // d for v in c)


def cone_json(g, gens, labels=None) -> dict:
    obj = {"g": g, "scale": 1, "generators": gens}
    if labels is not None:
        obj["labels"] = labels
    return obj


def translate(g, f, marking, tag):
    """Principal cone moved by f, generators listed in `marking` order."""
    base = principal_generators(g)
    gens = [act(f, base[k]) for k in marking]
    return cone_json(g, gens, [f"{tag}{k}" for k in range(len(gens))])


def first_moved(gamma, gens) -> Optional[int]:
    for k, a in enumerate(gens):
        if act(gamma, a) != a:
            return k
    return None


# ----------------------------------------------------------------------
# polynomials in the report format


def poly_terms(obj) -> dict:
    return {tuple(t["exp"]): (t["num"], t["den"]) for t in obj["terms"]}


def permuted_terms(terms: dict, marking) -> dict:
    """Terms of F(y) with y[marking[i]] = x_i, in the x variables."""
    return {tuple(e[marking[i]] for i in range(len(marking))): c for e, c in terms.items()}


def g2_volume_terms() -> dict:
    # det(x1 E11 + x2 E22 + x3 zeta12) = x1 x2 + x1 x3 + x2 x3
    return {(1, 1, 0): ("1", "1"), (1, 0, 1): ("1", "1"), (0, 1, 1): ("1", "1")}


# ----------------------------------------------------------------------
# requests


@dataclass
class Request:
    label: str
    argv: list[str]
    exit_code: int
    fields: dict = field(default_factory=dict)
    check: Optional[Callable[[dict], Optional[str]]] = None

    @property
    def text(self) -> bool:
        """True when the report is requested as --output text."""
        return "--output" in self.argv and self.argv[self.argv.index("--output") + 1] == "text"


class PassInputs:
    """Writes input files for one pass and collects its requests."""

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.requests: list[Request] = []
        self._n = 0
        os.makedirs(workdir, exist_ok=True)

    def file(self, stem: str, obj) -> str:
        self._n += 1
        path = os.path.join(self.workdir, f"{self._n:02d}-{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def add(self, label, argv, exit_code=0, fields=None, check=None):
        self.requests.append(Request(label, list(argv), exit_code, dict(fields or {}), check))

    def repeat_first(self):
        """Repeat the first request, so stdout identity is checked in every pass."""
        first = self.requests[0]
        self.requests.append(Request(first.label + "-repeat", list(first.argv),
                                     first.exit_code, first.fields, first.check))

    def marking(self, n):
        m = list(range(n))
        self.rng.shuffle(m)
        return m

    def frame(self, g, steps=None):
        return random_frame(self.rng, g, steps if steps is not None else self.rng.randint(2, 4))


def _expect_poly(key, want: dict):
    def check(report):
        if poly_terms(report[key]) != want:
            return f"{key} differs from the expected polynomial"
        return None
    return check


def _expect_residue(want_s0: dict, d: int, gd_zero: bool):
    def check(report):
        if len(report["S"]) != d + 1:
            return f"residue chain has {len(report['S'])} entries, expected {d + 1}"
        if poly_terms(report["S"][0]) != want_s0:
            return "S_0 differs from the volume polynomial"
        if gd_zero and report["g_d"]["terms"]:
            return "g_d is not identically zero"
        return None
    return check


def _load_golden():
    with open(GOLDEN_RESIDUE, encoding="utf-8") as fh:
        residue = json.load(fh)
    with open(GOLDEN_VOLUME, encoding="utf-8") as fh:
        volume = json.load(fh)
    return residue, volume


# ----------------------------------------------------------------------
# workloads


def symbolic_g3(b: PassInputs) -> None:
    residue, volume = _load_golden()
    f3 = poly_terms(volume["F"])
    m1, m2 = b.marking(6), b.marking(6)
    t1 = b.file("g3-translate", translate(3, b.frame(3)[0], m1, "a"))
    t2 = b.file("g3-translate", translate(3, b.frame(3)[0], m2, "b"))

    def golden_residue(report):
        if report["S"] != residue["S"] or report["g_d"] != residue["g_d"]:
            return "residue chain differs from tests/golden/residue_g3_d1.json"
        return None

    # chi of d = 1 on a principal genus-3 cone: every edge is equivalent
    # under the cone's symmetry group and g_d vanishes (golden file).
    chi = {"constant": "-120/1", "denominator_exp": 10}

    def chi_d1(report):
        got = report.get("chi") or {}
        if any(got.get(k) != v for k, v in chi.items()) or got["numerator"]["terms"]:
            return "unexpected residue integrand for d = 1"
        return None

    b.add("residue-golden", ["residue", "principal-g3", "--d", "1"], 0, {"d": 1}, golden_residue)
    b.add("ma-symbolic", ["ma", "verify", t1, "--symbolic"], 0,
          {"holds": True, "mode": "symbolic", "g": 3, "vol": 1, "witnesses": []})
    b.add("ke-test", ["ke", "test", t2], 0, {"member": True, "ok": True, "g": 3})
    b.add("volume-golden", ["cone", "volume", "principal-g3"], 0,
          {"lattice_volume": 1, "ok": True}, _expect_poly("volume_polynomial", f3))
    b.add("volume", ["cone", "volume", t1], 0, {"lattice_volume": 1, "ok": True},
          _expect_poly("volume_polynomial", permuted_terms(f3, m1)))
    b.add("residue-d1", ["residue", t1, "--d", "1"], 0, {"d": 1},
          _expect_residue(permuted_terms(f3, m1), 1, True))
    b.add("residue-d2", ["residue", t2, "--d", "2"], 0, {"d": 2},
          _expect_residue(permuted_terms(f3, m2), 2, False))
    i, j = b.rng.sample(range(6), 2)
    b.add("intersect-d1", ["intersect", t1, "--edges", str(i)], 0,
          {"value": "unknown", "selected": [i]}, chi_d1)
    b.add("intersect-d1", ["intersect", "principal-g3", "--edges", str(j)], 0,
          {"value": "unknown", "selected": [j]}, chi_d1)
    b.add("intersect-d2", ["intersect", t2, "--edges", f"{i},{j}"], 0,
          {"value": "zero", "reason": "d_ge_g_minus_1", "selected": [i, j]})
    b.repeat_first()


def randomized_g45(b: PassInputs) -> None:
    for g, count, trials in ((4, 4, 12), (5, 2, 3)):
        for k in range(count):
            f = identity(g) if k == 0 else b.frame(g)[0]
            marking = list(range(g * (g + 1) // 2)) if k == 0 else b.marking(g * (g + 1) // 2)
            path = b.file(f"g{g}-cone", translate(g, f, marking, "e"))
            seed = b.rng.randrange(10 ** 6)
            b.add(f"ma-randomized-g{g}",
                  ["ma", "verify", path, "--randomized", "--trials", str(trials),
                   "--seed", str(seed)], 0,
                  {"holds": True, "mode": "randomized", "g": g, "vol": 1,
                   "seed": seed, "witnesses": []})


def _g2_fan(b: PassInputs, size: int) -> list[dict]:
    """`size` distinct GL(2,Z) translates of the principal cone."""
    cones, seen = [], set()
    while len(cones) < size:
        f, _ = b.frame(2, b.rng.randint(1, 5))
        rays = frozenset(ray(act(f, a)) for a in principal_generators(2))
        if rays in seen:
            continue
        seen.add(rays)
        cones.append(translate(2, f, b.marking(3), f"c{len(cones)}_"))
    return cones


def _g3_pair(name: str, k, kinv):
    """A principal-cone pair in a fixed relative position, moved by k."""
    h, m1, m2 = G3_PAIRS[name]
    c1 = translate(3, k, m1, "p")
    c2 = translate(3, matmul(k, h), m2, "q")
    return c1, c2, matmul(matmul(k, h), kinv)


def _separable_fields(gamma_list, cones) -> dict:
    """Expected separability report when every gamma maps each cone onto
    a cone that meets it: a violation at each cone's first moved generator."""
    violations = []
    for gi, gamma in enumerate(gamma_list):
        for ci, cone in enumerate(cones):
            moved = first_moved(gamma, cone["generators"])
            if moved is not None:
                violations.append({"cone_index": ci, "cone_label": cone["labels"][0],
                                   "group_index": gi, "moved_generator": moved})
    violations.sort(key=lambda v: (v["cone_label"], v["group_index"]))
    return {"separable": not violations, "violations": violations, "ok": not violations}


def fan_lp(b: PassInputs) -> None:
    for size in (9, 12, 16):
        fan = b.file(f"g2-fan{size}", {"cones": _g2_fan(b, size)})
        b.add(f"fan-g2-{size}", ["fan", "check", fan], 0,
              {"is_fan": True, "num_cones": size, "violations": []})
    first_fan = b.requests[0].argv[2]

    def one_violation(report):
        if len(report["violations"]) != 1:
            return f"expected one violation, got {report['violations']}"
        return None

    # the principal cone beside a subcone that is not a face of it
    for _ in range(2):
        f, _ = b.frame(2)
        sigma = translate(2, f, [0, 1, 2], "s")
        while True:
            mix = [[b.rng.randint(0, 2) for _ in range(3)] for _ in range(3)]
            det = (mix[0][0] * (mix[1][1] * mix[2][2] - mix[1][2] * mix[2][1])
                   - mix[0][1] * (mix[1][0] * mix[2][2] - mix[1][2] * mix[2][0])
                   + mix[0][2] * (mix[1][0] * mix[2][1] - mix[1][1] * mix[2][0]))
            if det != 0 and all(sum(1 for v in row if v) >= 2 for row in mix):
                break
        sub = [[[sum(row[k] * sigma["generators"][k][r][c] for k in range(3))
                 for c in range(2)] for r in range(2)] for row in mix]
        overlap = b.file("g2-overlap",
                         {"cones": [sigma, cone_json(2, sub, ["u0", "u1", "u2"])]})
        b.add("fan-g2-overlap", ["fan", "check", overlap], 1,
              {"is_fan": False, "ok": False}, one_violation)

    # the coordinate swap breaks separability of the principal cone, and
    # so does its conjugate on every translate
    swap = [[0, 1], [1, 0]]
    principal = cone_json(2, principal_generators(2), ["z11", "z22", "z12"])
    fields = _separable_fields([swap], [principal])
    b.add("separable-g2-swap",
          ["separable", b.file("g2-principal", {"cones": [principal]}),
           b.file("g2-swap", [{"matrix": swap}])], 1, fields)
    for _ in range(2):
        f, finv = b.frame(2)
        moved = translate(2, f, b.marking(3), "m")
        gamma = matmul(matmul(f, swap), finv)
        b.add("separable-g2-swap", ["separable", b.file("g2-cone", {"cones": [moved]}),
                                    b.file("g2-swap", [{"matrix": gamma}])],
              1, _separable_fields([gamma], [moved]))
    b.add("separable-g2-sign", ["separable", first_fan,
                                b.file("g2-sign", [{"matrix": identity(2)},
                                                   {"matrix": [[-1, 0], [0, -1]]}])],
          0, {"separable": True, "violations": []})

    # genus 3: pairs in fixed relative positions, seeded common frame
    k, kinv = b.frame(3, 5)
    for name in ("fast-a", "fast-b", "slow-a"):
        c1, c2, _ = _g3_pair(name, k, kinv)
        b.add(f"fan-g3-{name}", ["fan", "check", b.file("g3-pair", {"cones": [c1, c2]})],
              0, {"is_fan": True, "violations": []})
    c1, c2, gamma = _g3_pair("slow-b", k, kinv)
    # gamma maps c1 onto c2; the expected verdict needs the two to meet
    assert {ray(a) for a in c1["generators"]} & {ray(a) for a in c2["generators"]}
    b.add("separable-g3-pair", ["separable", b.file("g3-pair", {"cones": [c1, c2]}),
                                b.file("g3-group", [{"matrix": gamma}])],
          1, _separable_fields([gamma], [c1, c2]))
    # coordinate permutations map the principal cone onto itself and move
    # its generators; conjugated, the same holds on a translate
    f, finv = b.frame(3)
    single = translate(3, f, b.marking(6), "r")
    single_path = b.file("g3-cone", {"cones": [single]})
    for p in ([[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
              [[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]):
        perm = matmul(matmul(f, p), finv)
        b.add("separable-g3-perm", ["separable", single_path,
                                    b.file("g3-perm", [{"matrix": perm}])],
              1, _separable_fields([perm], [single]))
    signs = [{"matrix": identity(3)}, {"matrix": [[-v for v in r] for r in identity(3)]}]
    b.add("separable-g3-sign", ["separable", single_path, b.file("g3-sign", signs)],
          0, {"separable": True, "violations": []})
    b.repeat_first()


def _siegel_point(rng: random.Random, g: int) -> dict:
    """X + iY with X symmetric and Y = Q Q^T + I/2 positive definite."""
    x = [[rng.uniform(-1, 1) for _ in range(g)] for _ in range(g)]
    q = [[rng.uniform(-1, 1) for _ in range(g)] for _ in range(g)]
    re = [[(x[i][j] + x[j][i]) / 2 for j in range(g)] for i in range(g)]
    im = [[sum(q[i][k] * q[j][k] for k in range(g)) + (0.5 if i == j else 0.0)
           for j in range(g)] for i in range(g)]
    return {"re": re, "im": im}


def cli_mix(b: PassInputs) -> None:
    rng = b.rng
    level = rng.randint(2, 9)
    level_name = f"principal-g2-level-{level}"
    f2 = g2_volume_terms()
    _, volume = _load_golden()
    m = b.marking(3)
    t2 = b.file("g2-translate", translate(2, b.frame(2)[0], m, "t"))
    cone_ok = {"generators_psd": True, "regular": True, "lattice_volume": 1, "ok": True}

    def catalog_names(report):
        names = [e["name"] for e in report["entries"]]
        if names != ["principal-g2", "principal-g3", "principal-g2-level-3"]:
            return f"unexpected catalog names {names}"
        return None

    b.add("catalog", ["catalog", "list"], 0, {"ok": True}, catalog_names)
    b.add("catalog-text", ["catalog", "list", "--output", "text"], 0, {"ok": "True"})
    b.add("cone-check", ["cone", "check", "principal-g2"], 0, cone_ok)
    b.add("cone-check", ["cone", "check", level_name], 0, dict(cone_ok, scale=level))
    b.add("cone-check", ["cone", "check", t2], 0, cone_ok)
    b.add("cone-check-text", ["cone", "check", "principal-g3", "--output", "text"], 0,
          {"ok": "True", "regular": "True"})
    b.add("cone-volume", ["cone", "volume", "principal-g2"], 0, {"lattice_volume": 1},
          _expect_poly("volume_polynomial", f2))
    b.add("cone-volume", ["cone", "volume", level_name], 0, {"lattice_volume": 1},
          _expect_poly("volume_polynomial", f2))
    b.add("cone-volume", ["cone", "volume", t2], 0, {"lattice_volume": 1},
          _expect_poly("volume_polynomial", f2))
    b.add("cone-volume", ["cone", "volume", "principal-g3"], 0, {"lattice_volume": 1},
          _expect_poly("volume_polynomial", poly_terms(volume["F"])))
    for cone in ("principal-g2", t2):
        b.add("ma-symbolic-g2", ["ma", "verify", cone, "--symbolic"], 0,
              {"holds": True, "g": 2, "vol": 1, "witnesses": []})
        b.add("ke-test-g2", ["ke", "test", cone], 0, {"member": True, "ok": True})

    def residue_g2(report):
        # leading coefficient of x1 x2 + x1 x3 + x2 x3 in x1 is x2 + x3
        if poly_terms(report["S"][1]) != {(0, 1, 0): ("1", "1"), (0, 0, 1): ("1", "1")}:
            return "S_1 differs from x2 + x3"
        return None

    b.add("residue-g2", ["residue", "principal-g2", "--d", "1"], 0, {"d": 1}, residue_g2)
    edge = rng.randrange(3)
    b.add("intersect-cone", ["intersect", "principal-g2", "--edges", str(edge)], 0,
          {"value": "zero", "reason": "d_ge_g_minus_1"})
    b.add("intersect-cone", ["intersect", t2, "--edges", "0,1", "--output", "text"], 0,
          {"value": "zero"})

    cones = _g2_fan(b, rng.randint(4, 6))
    fan = b.file("g2-fan", {"cones": cones})
    rays = sorted({ray(a) for c in cones for a in c["generators"]})
    top = rng.choice(cones)
    pick = sorted(rays.index(ray(a)) for a in top["generators"])
    cone_sets = [{ray(a) for a in c["generators"]} for c in cones]
    while True:
        other = sorted(rng.sample(range(len(rays)), 3))
        if {rays[i] for i in other} not in cone_sets:
            break
    b.add("intersect-fan", ["intersect", fan, "--edges", ",".join(map(str, pick))], 0,
          {"value": "one", "intersection_number": 1})
    b.add("intersect-fan", ["intersect", fan, "--edges", ",".join(map(str, other))], 0,
          {"value": "zero", "intersection_number": 0, "reason": "toric_empty"})

    tau = b.file("tau", _siegel_point(rng, 2))
    b.add("hodge-siegel", ["hodge", "siegel", tau], 0, {"ok": True})
    bad = _siegel_point(rng, 3)
    bad["im"] = [[-v for v in row] for row in bad["im"]]
    b.add("hodge-siegel", ["hodge", "siegel", b.file("tau-lower", bad), "--output", "text"],
          1, {"ok": "False"})
    b.add("hodge-riemann", ["hodge", "riemann", b.file("tau", _siegel_point(rng, 3))], 0,
          {"ok": True})
    u = rng.uniform(0.5, 2.0)
    nilp = b.file("nilp", {"g": 2, "k": 1, "u": [[u]], "tau_cusp": _siegel_point(rng, 1)})
    b.add("hodge-nilpotent", ["hodge", "nilpotent", nilp], 0, {"ok": True})
    q = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)]
    u2 = [[sum(q[i][k] * q[j][k] for k in range(2)) + (1.0 if i == j else 0.0)
           for j in range(2)] for i in range(2)]
    weight = b.file("nilp", {"g": 3, "k": 1, "u": u2})
    b.add("hodge-weight", ["hodge", "weight", weight], 0,
          {"dim_image": 2, "dim_kernel": 4, "ok": True})
    s = {"re": [[rng.uniform(-1, 1)] for _ in range(2)],
         "im": [[rng.uniform(-1, 1)] for _ in range(2)]}
    block = b.file("block", {"tau_prime": _siegel_point(rng, 2), "Z": _siegel_point(rng, 1),
                             "S": s})
    b.add("hodge-block-volume", ["hodge", "block-volume", block, "--tol", "1e-8"], 0,
          {"ok": True})
    b.repeat_first()


WORKLOADS = {
    "symbolic-g3": symbolic_g3,
    "randomized-g45": randomized_g45,
    "fan-lp": fan_lp,
    "cli-mix": cli_mix,
}

# Nominal length of one pass, which fixes the number of passes per run
# (round(--seconds / nominal), at least one), so that every run of a
# workload does the same work.  Measured on a shared 2-CPU Xeon, where
# one pass of symbolic-g3 took 10-16 s, fan-lp about 14 s, randomized-g45
# about 5 s and cli-mix about 3.5 s.
PASS_SECONDS = {"symbolic-g3": 15.0, "randomized-g45": 5.0, "fan-lp": 15.0, "cli-mix": 3.5}


def build(workload: str, seed: int, workdir: str) -> list[Request]:
    b = PassInputs(workdir, seed)
    WORKLOADS[workload](b)
    return b.requests
