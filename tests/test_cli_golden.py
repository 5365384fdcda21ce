"""Stdout of each subcommand, byte for byte, against files under
tests/golden/cli/.  The files were captured once and are never rewritten
here: a change in any report shows up as a failing pin."""

import json
import os

import pytest

from siegeltoric.cli import main
from siegeltoric.jsonio import cone_to_json
from test_residue_intersect import invertible_case_cone

GOLDEN_CLI_DIR = os.path.join(os.path.dirname(__file__), "golden", "cli")

# golden file -> argv; "{invertible_g3}" is a cone file holding
# invertible_case_cone(3), whose residue minor at d = 3 is not zero
REQUESTS = {
    "catalog-list.json": ["catalog", "list"],
    "catalog-list.txt": ["catalog", "list", "--output", "text"],
    "cone-check-principal-g3.json": ["cone", "check", "principal-g3"],
    "cone-volume-principal-g3.json": ["cone", "volume", "principal-g3"],
    "ma-verify-principal-g4-symbolic.json": ["ma", "verify", "principal-g4", "--symbolic"],
    "ma-verify-principal-g3-randomized.json": [
        "ma", "verify", "principal-g3", "--randomized", "--trials", "3", "--seed", "7"],
    "ke-test-principal-g5.json": ["ke", "test", "principal-g5"],
    "residue-principal-g3-d1.json": ["residue", "principal-g3", "--d", "1"],
    "residue-invertible-g3-d3.json": ["residue", "{invertible_g3}", "--d", "3"],
    "intersect-principal-g4-edges0.json": ["intersect", "principal-g4", "--edges", "0"],
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_stdout_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SIEGELTORIC_CONFIG", raising=False)
    cone_path = tmp_path / "invertible_g3.json"
    cone_path.write_text(json.dumps(cone_to_json(invertible_case_cone(3))))
    argv = [a.format(invertible_g3=cone_path) for a in REQUESTS[name]]
    assert main(argv) == 0
    with open(os.path.join(GOLDEN_CLI_DIR, name), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert capsys.readouterr().out == expected
