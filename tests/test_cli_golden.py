"""Stdout and exit code of each subcommand, byte for byte, against files
under tests/golden/cli/.  The files were captured once and are never
rewritten here: a change in any report shows up as a failing pin.

The pins fan-check-overlap.json, separable-pair-fan.json,
intersect-pair-fan-edges012.json, hodge-weight-g3.json and
hodge-siegel-g2.txt were captured at commit bed151f, the last commit
whose handlers encoded their own reports: `siegeltoric.cli.main(argv)`
ran in process on each of their requests below, with the input files
written as in the test, and its stdout was stored unchanged.  The pins
hodge-riemann-g2.json, hodge-nilpotent-g3.json,
hodge-block-volume-g3.json, fan-check-pair-fan.json and
intersect-pair-fan-edges013.json were captured the same way at commit
b1b6229, and cone-check-volume2-g2.json, cone-volume-volume2-g2.json,
ma-verify-volume2-g2-symbolic.json and cone-check-index2-g2.json, whose
cones span lattices of index 2, at commit df74081.
"""

import json
import os

import pytest

from siegeltoric.cli import main
from siegeltoric.jsonio import cone_to_json
from test_residue_intersect import invertible_case_cone

GOLDEN_CLI_DIR = os.path.join(os.path.dirname(__file__), "golden", "cli")

E11, E22 = [[1, 0], [0, 0]], [[0, 0], [0, 1]]

# input files, named in braces in the requests below
INPUTS = {
    # invertible_case_cone(3), whose residue minor at d = 3 is not zero
    "invertible_g3": cone_to_json(invertible_case_cone(3)),
    # the second cone lies inside the first but misses its generator
    # [[1, -1], [-1, 1]]: their intersection is not a face of the first
    "overlap_fan": {"cones": [
        {"g": 2, "generators": [E11, E22, [[1, -1], [-1, 1]]], "labels": ["z11", "z22", "z12"]},
        {"g": 2, "generators": [[[2, -1], [-1, 1]], E11, E22], "labels": ["w", "e11", "e22"]},
    ]},
    # two cones meeting in their common face {E11, E22}; the labels sort
    # the second cone first
    "pair_fan": {"cones": [
        {"g": 2, "generators": [[[1, 1], [1, 1]], E22, E11], "labels": ["plus", "p22", "p11"]},
        {"g": 2, "generators": [E11, E22, [[1, -1], [-1, 1]]], "labels": ["minus", "m22", "m12"]},
    ]},
    # the coordinate swap and the reflection x2 -> -x2: each moves a
    # generator of each cone of pair_fan, and the moved cone still meets it
    "swap_reflect": [{"matrix": [[0, 1], [1, 0]]}, {"matrix": [[1, 0], [0, -1]]}],
    "weight_g3": {"g": 3, "k": 1, "u": [[2.0, 0.5], [0.5, 1.0]]},
    "tau_g2": {"re": [[0.5, 0.1], [0.1, -0.25]], "im": [[2.0, 0.5], [0.5, 1.0]]},
    "nilpotent_g3": {"g": 3, "k": 1, "u": [[2.0, 0.5], [0.5, 1.0]],
                     "tau_cusp": {"re": [[0.25]], "im": [[1.5]]}},
    # tau' at genus 1 and Z at genus 2 (tau_g2), glued by a 1x2 S
    "block_g3": {"tau_prime": {"re": [[0.5]], "im": [[2.0]]},
                 "Z": {"re": [[0.5, 0.1], [0.1, -0.25]], "im": [[2.0, 0.5], [0.5, 1.0]]},
                 "S": {"re": [[0.25, -0.5]], "im": [[0.5, 0.25]]}},
    # the principal cone with E11 doubled: lattice volume 2, not regular
    "volume2_g2": {"g": 2, "generators": [[[2, 0], [0, 0]], E22, [[1, -1], [-1, 1]]]},
    # one imprimitive generator: index 2, and no lattice volume
    "index2_g2": {"g": 2, "generators": [[[2, 0], [0, 0]]]},
}

# golden file -> (argv, exit code)
REQUESTS = {
    "catalog-list.json": (["catalog", "list"], 0),
    "catalog-list.txt": (["catalog", "list", "--output", "text"], 0),
    "cone-check-principal-g3.json": (["cone", "check", "principal-g3"], 0),
    "cone-volume-principal-g3.json": (["cone", "volume", "principal-g3"], 0),
    "ma-verify-principal-g4-symbolic.json": (
        ["ma", "verify", "principal-g4", "--symbolic"], 0),
    "ma-verify-principal-g3-randomized.json": (
        ["ma", "verify", "principal-g3", "--randomized", "--trials", "3", "--seed", "7"], 0),
    "ke-test-principal-g5.json": (["ke", "test", "principal-g5"], 0),
    "residue-principal-g3-d1.json": (["residue", "principal-g3", "--d", "1"], 0),
    "residue-invertible-g3-d3.json": (["residue", "{invertible_g3}", "--d", "3"], 0),
    "intersect-principal-g4-edges0.json": (["intersect", "principal-g4", "--edges", "0"], 0),
    "fan-check-overlap.json": (["fan", "check", "{overlap_fan}"], 1),
    "separable-pair-fan.json": (["separable", "{pair_fan}", "{swap_reflect}"], 1),
    "intersect-pair-fan-edges012.json": (["intersect", "{pair_fan}", "--edges", "0,1,2"], 0),
    "hodge-weight-g3.json": (["hodge", "weight", "{weight_g3}"], 0),
    "hodge-siegel-g2.txt": (["hodge", "siegel", "{tau_g2}", "--output", "text"], 0),
    "hodge-riemann-g2.json": (["hodge", "riemann", "{tau_g2}"], 0),
    "hodge-nilpotent-g3.json": (["hodge", "nilpotent", "{nilpotent_g3}"], 0),
    "hodge-block-volume-g3.json": (["hodge", "block-volume", "{block_g3}"], 0),
    "fan-check-pair-fan.json": (["fan", "check", "{pair_fan}"], 0),
    # rays 0 and 1 lie in the second cone only, ray 3 in the first only
    "intersect-pair-fan-edges013.json": (["intersect", "{pair_fan}", "--edges", "0,1,3"], 0),
    "cone-check-volume2-g2.json": (["cone", "check", "{volume2_g2}"], 0),
    "cone-volume-volume2-g2.json": (["cone", "volume", "{volume2_g2}"], 0),
    "ma-verify-volume2-g2-symbolic.json": (["ma", "verify", "{volume2_g2}", "--symbolic"], 0),
    "cone-check-index2-g2.json": (["cone", "check", "{index2_g2}"], 0),
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_stdout_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SIEGELTORIC_CONFIG", raising=False)
    paths = {}
    for stem, obj in INPUTS.items():
        paths[stem] = tmp_path / f"{stem}.json"
        paths[stem].write_text(json.dumps(obj))
    argv, code = REQUESTS[name]
    assert main([a.format(**paths) for a in argv]) == code
    with open(os.path.join(GOLDEN_CLI_DIR, name), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    out, err = capsys.readouterr()
    assert out == expected and err == ""
