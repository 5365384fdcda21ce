"""CLI exit codes, report formats, determinism, config resolution."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from siegeltoric import cli, cone_lattice, period_domain, volume_ke
from siegeltoric.catalog import principal_cone
from siegeltoric.cli import main
from siegeltoric.jsonio import cone_to_json, quote
from test_cli_golden import GOLDEN_CLI_DIR
from test_residue_intersect import invertible_case_cone

CLI = [sys.executable, "-m", "siegeltoric.cli"]

# wall seconds for one fresh `ma verify principal-g<6|7> --randomized
# --trials 1`; under 1 s each on a 2-CPU machine
RANDOMIZED_FRONTIER_BUDGET_S = 5.0

# wall seconds for one fresh `ma verify principal-g10 --randomized --trials
# 1`, the largest genus its cost guard admits; about 2.2 s on a 2-CPU machine
RANDOMIZED_BOUND_BUDGET_S = 10.0

# wall seconds for one fresh `residue principal-g<4|5|6> --d 1` or
# `intersect principal-g<4|5|6> --edges 1`; about 1 s at g = 6 on a 2-CPU
# machine, most of it expanding F
RESIDUE_FRONTIER_BUDGET_S = 10.0

# wall seconds for one fresh `hodge riemann` at the genus bound on entries
# spread over the binary64 range; about 1.3 s on a 2-CPU machine
HODGE_BUDGET_S = 5.0

# a 4x2 filtration of full rank whose F^T psi F is not zero
FIRST_RELATION_FAILS = {"re": [[1, 0], [5, 1], [0, 0], [0, 0]],
                        "im": [[0, 0], [0, 0], [1, 0], [0, 1]]}


def run_cli(*args, env=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


@pytest.fixture()
def cone_file(tmp_path):
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({
        "g": 2, "scale": 1,
        "generators": [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, -1], [-1, 1]]],
        "labels": ["z11", "z22", "z12"],
    }))
    return str(path)


@pytest.fixture()
def fan_file(tmp_path):
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"cones": [
        {"g": 2, "scale": 1,
         "generators": [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[1, -1], [-1, 1]]]},
        {"g": 2, "scale": 1,
         "generators": [[[1, 1], [1, 1]], [[0, 0], [0, 1]], [[1, 0], [0, 0]]]},
    ]}))
    return str(path)


@pytest.fixture()
def group_file(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps([{"matrix": [[0, 1], [1, 0]]}]))
    return str(path)


class TestExitCodes:
    def test_pass_is_zero(self, cone_file):
        proc = run_cli("ma", "verify", cone_file, "--symbolic")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["holds"] is True and report["mode"] == "symbolic"

    def test_property_failure_is_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "g": 2, "scale": 1, "generators": [[[1, 0], [0, -1]]]}))
        proc = run_cli("cone", "check", str(bad))
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["generators_psd"] is False

    def test_malformed_json_is_two(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"g": 2,,}')
        proc = run_cli("cone", "check", str(bad))
        assert proc.returncode == 2
        assert "line" in proc.stderr

    def test_long_integer_literal_error_is_short(self, tmp_path, capsys):
        path = tmp_path / "cone.json"
        for literal, reason in (("7" * 5000, "Exceeds the limit (4300 digits)"),
                                ("12x" + "7" * 5000, None)):
            path.write_text(json.dumps({"g": 1, "generators": [[[literal]]]}))
            assert main(["cone", "check", str(path)]) == 2
            out, err = capsys.readouterr()
            [line] = err.splitlines()
            assert out == "" and line.startswith("error:") and len(line) < 400, line
            assert f"({len(literal)} characters)" in line
            assert reason is None or reason in line

    @pytest.mark.parametrize("entry, shown", [
        ("9007199254740993.0", "9007199254740992.0"), ("1e300", "1e+300")],
        ids=["2^53+1", "1e300"])
    def test_float_integer_past_2_53_is_two(self, entry, shown, tmp_path, capsys):
        # the float 9007199254740993.0 is 2^53, and 1e300 a 301-digit binary value
        path = tmp_path / "cone.json"
        path.write_text('{"g": 1, "generators": [[[%s]]]}' % entry)
        assert main(["cone", "volume", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: integer {shown} written as a float is past 2^53; "
                "write it as an integer or a decimal string\n")

    @pytest.mark.parametrize("doc, literal", [
        ({"g": 1, "generators": [[["\u0661"]]]}, "\u0661"),
        ({"g": " 1", "generators": [[["1_0"]]]}, " 1"),
        ({"g": 1, "generators": [[["1_0"]]]}, "1_0"),
        ({"g": 1, "scale": "+5", "generators": [[[1]]]}, "+5"),
    ], ids=["arabic-indic", "space", "underscore", "plus"])
    def test_integer_string_must_be_ascii_decimal(self, doc, literal, tmp_path, capsys):
        # int() would read these as 1, 1, 10 and 5: the first cone passed and
        # the second had lattice_volume 10
        path = tmp_path / "cone.json"
        path.write_text(json.dumps(doc))
        assert main(["cone", "check", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: bad integer literal {literal!r}\n")

    @pytest.mark.parametrize("argv, data, config", [
        (["cone", "check", "{path}"],
         {"g": 1, "generators": [[[list(range(3000))]]]}, False),
        (["hodge", "siegel", "{path}"], {"re": [["x" * 5000]], "im": [[0]]}, False),
        (["catalog", "list"], {"seed": "x" * 5000}, True),
        (["catalog", "list"], {"output": "x" * 5000}, True),
        (["catalog", "list"], {"tol": "x" * 5000}, True),
        (["cone", "check", "{path}"], {"g": int("9" * 4000), "generators": [[[1]]]}, False),
        (["hodge", "weight", "{path}"], {"g": 2, "k": int("9" * 4000), "u": [[1.0]]}, False),
        (["hodge", "weight", "{path}"], {"g": int("9" * 4000), "u": [[1.0]]}, False),
    ], ids=["integer-entry", "number-entry", "config-seed", "config-output", "config-tol",
            "cone-genus", "hodge-depth", "hodge-genus"])
    def test_long_file_value_error_is_short(self, argv, data, config, tmp_path,
                                            monkeypatch, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        if config:
            monkeypatch.setenv("SIEGELTORIC_CONFIG", str(path))
        else:
            monkeypatch.delenv("SIEGELTORIC_CONFIG", raising=False)
        assert main([a.format(path=path) for a in argv]) == 2
        out, err = capsys.readouterr()
        [line] = err.splitlines()
        assert out == "" and line.startswith("error:") and len(line) < 400, line
        assert " characters)" in line

    @pytest.mark.parametrize("argv, text, config", [
        (["cone", "check", "{path}"], '{"g": 1, "generators": [[[%s]]]}' % ("7" * 5000), False),
        (["catalog", "list"], '{"seed": %s}' % ("7" * 5000), True),
    ], ids=["cone-file", "config-file"])
    def test_digit_limit_number_names_its_file(self, argv, text, config, tmp_path,
                                               monkeypatch, capsys):
        # json.load itself refuses a JSON number past the int-to-str digit limit
        path = tmp_path / "input.json"
        path.write_text(text)
        if config:
            monkeypatch.setenv("SIEGELTORIC_CONFIG", str(path))
        else:
            monkeypatch.delenv("SIEGELTORIC_CONFIG", raising=False)
        assert main([a.format(path=path) for a in argv]) == 2
        out, err = capsys.readouterr()
        [line] = err.splitlines()
        assert out == "" and line.startswith(
            f"error: {path}: Exceeds the limit (4300 digits) for integer string conversion")

    def test_determinant_beyond_digit_limit_is_quoted(self, fan_file, tmp_path, capsys):
        # det = 10^5000 - 1 has more digits than Python converts to str by default
        big = str(10 ** 2500)
        path = tmp_path / "group.json"
        path.write_text(json.dumps([{"matrix": [[big, 1], [1, big]]}]))
        assert main(["separable", fan_file, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"error: {path}: element 0: invalid group element: matrix has determinant "
            f"{'9' * 40}... (5000 characters), expected +-1\n")

    def test_scale_violation_is_an_invalid_cone(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            {"g": 2, "scale": 2, "generators": [[[2, 1], [1, 2]], [[2, 0], [0, 0]]]}))
        assert main(["cone", "check", str(path)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: invalid cone: entry (1,2)=1 not divisible by scale 2\n")

    @pytest.mark.parametrize("group, prefix", [
        ([{"matrix": [[1, 0], [0, 1]]}, {"matrix": [[2, 0], [0, 1]]}], "element 1: "),
        ({"elements": [{"matrix": [[2, 0], [0, 1]]}]}, "element 0: "),
        ({"matrix": [[2, 0], [0, 1]]}, ""),
    ], ids=["list", "elements", "single"])
    def test_group_error_names_its_element(self, group, prefix, fan_file, tmp_path, capsys):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group))
        assert main(["separable", fan_file, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {prefix}invalid group element: "
                                           "matrix has determinant 2, expected +-1\n")

    def test_unknown_name_is_two(self):
        assert run_cli("cone", "check", "no-such-entry").returncode == 2

    @pytest.mark.parametrize("name, reason", [
        ("principal-g13", "genus must be in [1, 12] in 'principal-g13'"),
        ("principal-g0", "genus must be in [1, 12] in 'principal-g0'"),
        ("principal-g2-level-0", "level must be positive in 'principal-g2-level-0'"),
        ("no-such-entry", "no catalog entry named 'no-such-entry'"),
    ], ids=["genus-13", "genus-0", "level-0", "unknown"])
    def test_unknown_name_gives_the_catalog_reason(self, name, reason, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)   # no file of that name
        monkeypatch.delenv("SIEGELTORIC_CONFIG", raising=False)
        assert main(["cone", "check", name]) == 2
        assert capsys.readouterr() == (
            "", f"error: {name!r} is neither a file nor a catalog entry: {reason}\n")

    @pytest.mark.parametrize("argv", [
        ["intersect", "principal-g6", "--edges", "1_0"],
        ["intersect", "principal-g6", "--edges", "\u0661"],
        ["intersect", "principal-g6", "--edges", "+1"],
        ["cone", "check", "principal-g\u0663"],
        ["cone", "check", "principal-g3\n"],
        ["cone", "check", "principal-g2-level-" + "1" * 5000],
        ["cone", "check", "principal-g" + "9" * 4000],
    ], ids=["edges-underscore", "edges-arabic-indic", "edges-plus", "name-arabic-indic",
            "name-newline", "name-5000-digit-level", "name-4000-digit-genus"])
    def test_integer_arguments_read_as_decode_int_reads(self, argv, tmp_path, monkeypatch,
                                                        capsys):
        # int() and \d read the first five as edges 10, 1 and 1 and as the
        # genus-3 cone; the long names gave Python's digit-limit line and an
        # 8102-character one
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SIEGELTORIC_CONFIG", raising=False)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        [line] = err.splitlines()
        assert out == "" and line.startswith("error:") and len(line) < 400, line
        assert ("bad --edges list" if argv[0] == "intersect"
                else "is neither a file nor a catalog entry") in line, line

    def test_edges_list_takes_spaces_around_its_parts(self, capsys):
        assert main(["intersect", "principal-g3", "--edges", " 0, 1 ,"]) == 0
        assert json.loads(capsys.readouterr().out)["selected"] == [0, 1]

    def test_bad_run_config_is_two(self, tmp_path, monkeypatch, capsys):
        assert run_cli("ma", "verify", "principal-g2", "--randomized",
                       "--trials", "0").returncode == 2
        assert run_cli("--tol", "-1", "catalog", "list").returncode == 2
        assert main(["--tol", "nan", "catalog", "list"]) == 2
        cfg = tmp_path / "cfg.json"
        monkeypatch.setenv("SIEGELTORIC_CONFIG", str(cfg))
        for bad in ({"trials": "x"}, {"tol": "x"}, {"seed": "abc"}, {"trials": True},
                    {"seed": 1.5}):
            cfg.write_text(json.dumps(bad))
            assert main(["ma", "verify", "principal-g2", "--randomized"]) == 2, bad
        cfg.write_bytes(b'{"seed": "\xff"}')
        assert main(["catalog", "list"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert all(line.startswith("error:") for line in captured.err.splitlines())

    def test_ke_test_wrong_generator_count_is_two(self, tmp_path):
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({
            "g": 2, "scale": 1, "generators": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}))
        proc = run_cli("ke", "test", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    def test_intersect_fan_negative_edge_is_two(self, fan_file):
        proc = run_cli("intersect", fan_file, "--edges=-1,0,1")
        assert proc.returncode == 2, proc.stdout
        assert "out of range" in proc.stderr

    @pytest.mark.parametrize("content", [b'{"g": 2, "\xff": 1}', b"[" * 100000,
                                         b'{"g": 2, "generators": []}'],
                             ids=["non-utf8", "nested-too-deeply", "no-generators"])
    def test_unreadable_cone_file_is_two(self, content, tmp_path):
        path = tmp_path / "cone.json"
        path.write_bytes(content)
        proc = run_cli("cone", "check", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {path}") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["residue", "principal-g1", "--d", "1"], "N = 1 has no residue chain"),
        (["intersect", "principal-g1", "--edges", "0"], "N = 1 has no selection"),
    ], ids=["residue", "intersect"])
    def test_genus_one_has_no_chain_or_selection(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "[1, 0]" not in err

    def test_internal_error_is_three(self, monkeypatch, capsys):
        def broken(args):
            raise TypeError("handler bug")

        monkeypatch.setattr(cli, "_cmd_catalog_list", broken)
        assert main(["catalog", "list"]) == cli.EXIT_INTERNAL == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: TypeError: handler bug\n"

    def test_symbolic_ma_and_ke_run_past_genus_3(self, tmp_path):
        # one rational determinant decides both at every genus
        for g in (4, 5):
            path = tmp_path / f"g{g}.json"
            path.write_text(json.dumps(cone_to_json(principal_cone(g))))
            proc = run_cli("ma", "verify", str(path), "--symbolic")
            assert proc.returncode == 0, proc.stderr
            report = json.loads(proc.stdout)
            assert report["holds"] is True and report["mode"] == "symbolic" and report["g"] == g
        proc = run_cli("ke", "test", str(tmp_path / "g4.json"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["member"] is True

    @pytest.mark.parametrize("fan,message", [
        (5, "fan file needs a 'cones' list"),
        ({"cones": 5}, "fan file needs a 'cones' list"),
        ({"cones": None}, "fan file needs a 'cones' list"),
        ({"cones": [{"g": 1, "scale": 1, "generators": [[[1]]], "labels": 5}]},
         "cone 0: cone 'labels' must be a list"),
        ({"cones": [{"g": 2, "scale": 1, "generators": [[[1, 0], [0, 0]]]},
                    {"g": 2, "scale": 1, "generators": [[[0, 1], [0, 0]]]}]},
         "cone 1: invalid cone: generator 0 is not symmetric"),
        ({"cones": [{"g": 1, "scale": 1, "generators": [[[1]]]},
                    {"g": 2, "scale": 1, "generators": [[[1, 0], [0, 0]]]}]},
         "invalid fan: fan cones disagree on g or scale"),
        ({"cones": []}, "invalid fan: empty fan"),
    ], ids=["top-level-number", "cones-number", "cones-null", "labels-number",
            "second-cone-asymmetric", "genus-mismatch", "no-cones"])
    def test_bad_fan_file_is_two(self, fan, message, tmp_path, group_file):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(fan))
        for args in (("fan", "check", str(path)), ("separable", str(path), group_file)):
            proc = run_cli(*args)
            assert proc.returncode == 2, args
            assert proc.stderr == f"error: {path}: {message}\n", args

    @pytest.mark.parametrize("size", [2, 4])
    def test_group_element_of_other_genus_is_two(self, size, tmp_path, capsys):
        # a genus-3 fan against a 2x2 or a 4x4 group element
        fan = tmp_path / "fan.json"
        fan.write_text(json.dumps({"cones": [cone_to_json(principal_cone(3))]}))
        group = tmp_path / "group.json"
        group.write_text(json.dumps(
            [{"matrix": [[int(i == j) for j in range(size)] for i in range(size)]}]))
        assert main(["separable", str(fan), str(group)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {group}: group element 0 is {size}x{size}, fan has g=3\n")

    @pytest.mark.parametrize("text", ['{"re": [[NaN]], "im": [[1]]}',
                                      '{"re": [[0]], "im": [[Infinity]]}'],
                             ids=["nan", "infinity"])
    def test_non_finite_hodge_input_is_two(self, text, tmp_path):
        path = tmp_path / "tau.json"
        path.write_text(text)
        proc = run_cli("hodge", "siegel", str(path))
        assert proc.returncode == 2
        assert "non-finite" in proc.stderr

    @pytest.mark.parametrize("sub,obj,message", [
        ("weight", [1], "expected a JSON object"),
        ("nilpotent", [1], "expected a JSON object"),
        ("block-volume", [1], "expected a JSON object"),
        ("block-volume", {"tau_prime": {"re": [[0.0]], "im": [[1.0]]},
                          "S": {"re": [[0.5]], "im": [[0.25]]}}, "missing key 'Z'"),
        ("riemann", {"re": [], "im": []}, "nonempty list of rows"),
        ("riemann", {"re": 5, "im": 5}, "nonempty list of rows"),
        ("riemann", {"re": [[1, 2, 3]], "im": [[0, 0, 0]]},
         "filtration must be 2g x g, got 1x3"),
        ("nilpotent", {"g": 2, "k": 0, "u": [[1.0, 0.0], [0.0, 1.0]],
                       "tau_cusp": {"re": [[0.0]], "im": [[1.0]]}},
         "depth k=0 has no cusp Siegel factor"),
        ("nilpotent", {"g": 2, "k": 0, "u": [[2, 0], [0, 2]],
                       "tau_cusp": {"re": [[]], "im": [[]]}},
         "depth k=0 has no cusp Siegel factor"),
        ("nilpotent", {"g": 2, "k": 1, "u": [[1.0]]}, "tau_cusp must be 1x1, got none"),
        ("block-volume", {"tau_prime": {"re": [[0.0]], "im": [[1.0]]},
                          "Z": {"re": [[0.0]], "im": [[-1.0]]},
                          "S": {"re": [[0.5]], "im": [[0.25]]}},
         "Z is not in its Siegel space"),
    ], ids=["weight-list", "nilpotent-list", "block-volume-list", "block-volume-no-Z",
            "riemann-empty", "riemann-number", "riemann-1x3", "nilpotent-depth-0-cusp",
            "nilpotent-depth-0-empty-cusp", "nilpotent-no-cusp", "block-volume-z-outside"])
    def test_bad_hodge_file_is_two(self, sub, obj, message, tmp_path):
        path = tmp_path / "hodge.json"
        path.write_text(json.dumps(obj))
        proc = run_cli("hodge", sub, str(path))
        assert proc.returncode == 2, proc.stdout
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert message in proc.stderr

    @pytest.mark.parametrize("sub,obj,message", [
        ("siegel", {"re": [["x"]], "im": [[0]]},
         "complex matrix entries must be numbers, got 'x'"),
        ("riemann", {"re": [["x"]], "im": [[0]]},
         "complex matrix entries must be numbers, got 'x'"),
        ("weight", {"g": 2, "k": 5, "u": [[1.0]]}, "need 0 <= k < g, got k=5, g=2"),
        ("nilpotent", {"g": 2, "k": 1, "u": [[1.0]], "tau_cusp": {"re": [["x"]], "im": [[0]]}},
         "complex matrix entries must be numbers, got 'x'"),
        ("block-volume", {"tau_prime": {"re": [[0.0]], "im": [[1.0]]}}, "missing key 'Z'"),
        ("riemann", {"re": [[1, 2, 3]], "im": [[0, 0, 0]]}, "filtration must be 2g x g, got 1x3"),
        ("riemann", {"re": [[0, 0]] * 4, "im": [[0, 0]] * 4},
         "filtration basis is rank deficient"),
        ("riemann", {"re": [[0, 0], [0, 0]], "im": [[1, 0], [0, -1]]},
         "tau is not in the Siegel space"),
        ("nilpotent", {"g": 2, "k": 0, "u": [[-1, 0], [0, -1]]},
         "nilpotent is not in the positive cone"),
        ("block-volume", {"tau_prime": {"re": [[0.0]], "im": [[1.0]]},
                          "Z": {"re": [[0.0]], "im": [[-1.0]]},
                          "S": {"re": [[0.5]], "im": [[0.25]]}},
         "Z is not in its Siegel space"),
        ("riemann", {"re": [[0] * 9] * 9,
                     "im": [[int(i == j) for j in range(9)] for i in range(9)]},
         "period-domain checks limited to g <= 8, got g=9"),
    ], ids=["siegel", "riemann", "weight", "nilpotent", "block-volume", "riemann-1x3",
            "riemann-rank-deficient", "riemann-tau-outside", "nilpotent-not-positive",
            "block-volume-z-outside", "riemann-genus-9"])
    def test_hodge_input_error_names_the_file(self, sub, obj, message, tmp_path,
                                              monkeypatch, capsys):
        # the prefix every file-reading subcommand puts before an input error
        monkeypatch.delenv("SIEGELTORIC_CONFIG", raising=False)
        path = tmp_path / "hodge.json"
        path.write_text(json.dumps(obj))
        assert main(["hodge", sub, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("sub,u", [
        ("nilpotent", {"a": 1}),
        ("weight", {"a": 1}),
        ("weight", [[1, 0], [0, float("inf")]]),
    ], ids=["nilpotent-object", "weight-object", "weight-infinity"])
    def test_bad_nilpotent_block_is_two(self, sub, u, tmp_path):
        path = tmp_path / "nilp.json"
        path.write_text(json.dumps({"g": 2, "k": 0, "u": u}))
        proc = run_cli("hodge", sub, str(path))
        assert proc.returncode == 2, proc.stdout
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("sub,obj", [
        ("weight", {"g": 2, "u": [["1", "0"], ["0", True]]}),
        ("weight", {"g": 1, "u": [[True]]}),
        ("siegel", {"re": [["0"]], "im": [[1]]}),
        ("siegel", {"re": [[0]], "im": [[True]]}),
    ], ids=["u-string", "u-bool", "re-string", "im-bool"])
    def test_non_number_matrix_entry_is_two(self, sub, obj, tmp_path):
        path = tmp_path / "hodge.json"
        path.write_text(json.dumps(obj))
        proc = run_cli("hodge", sub, str(path))
        assert proc.returncode == 2, proc.stdout
        assert proc.stderr.startswith("error:") and "must be numbers" in proc.stderr

    @pytest.mark.parametrize("sub,obj,code", [
        # F^T psi F is exactly 0 and H = diag(2e400, 2)
        ("riemann", {"re": [[1e200, 0], [0, 1], [1e200, 0], [0, 1]],
                     "im": [[1e200, 0], [0, 1], [0, 0], [0, 0]]}, 0),
        # the identity holds, but the assembled Im(tau) = [[r, -r^2], [-r^2, 1 + r^3]]
        # (r = 1e300) has smallest eigenvalue about 1/r^2, below tol
        ("block-volume", {"tau_prime": {"re": [[1e300]], "im": [[1e300]]},
                          "Z": {"re": [[0]], "im": [[1]]},
                          "S": {"re": [[1e300]], "im": [[1e300]]}}, 1),
        ("siegel", {"re": [[0]], "im": [[1e308]]}, 0),
    ], ids=["riemann", "block-volume", "siegel"])
    def test_binary64_overflow_gets_exact_verdict(self, sub, obj, code, tmp_path):
        # these intermediates overflow binary64; exact arithmetic decides them
        path = tmp_path / "hodge.json"
        path.write_text(json.dumps(obj))
        proc = run_cli("hodge", sub, str(path))
        assert proc.returncode == code and proc.stderr == ""
        assert json.loads(proc.stdout)["ok"] is (code == 0)

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-bound", "above-bound"])
    def test_hodge_cost_guard(self, extra, tmp_path):
        # full-mantissa entries whose exponents spread over the binary64
        # range: Y is diagonally dominant, so tau is a Siegel point, and u
        # is any symmetric matrix, at sizes past the oracle comparisons of
        # tests/test_period_domain.py (m <= 5)
        rng = random.Random(8)
        g = period_domain.HODGE_GENUS_MAX + extra

        def entry(lo, hi):
            return rng.choice((-1, 1)) * (1 + rng.random()) * 2.0 ** rng.randint(lo, hi)

        exps = [rng.randint(0, 900) for _ in range(g)]
        re = [[0.0] * g for _ in range(g)]
        im = [[0.0] * g for _ in range(g)]
        for i in range(g):
            im[i][i] = 2.0 ** exps[i]
            for j in range(i, g):
                re[i][j] = re[j][i] = entry(-1000, 900)
                if j > i:
                    im[i][j] = im[j][i] = entry(-1070, min(exps[i], exps[j]) - 8)
        u = [[0.0] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                u[i][j] = u[j][i] = entry(-1074, 1023)
        tau_path, nilp_path = tmp_path / "tau.json", tmp_path / "nilpotent.json"
        tau_path.write_text(json.dumps({"re": re, "im": im}))
        nilp_path.write_text(json.dumps({"g": g, "k": 0, "u": u}))
        for sub, path, where in (("riemann", tau_path, f"{tau_path}: "),
                                 ("weight", nilp_path, f"{nilp_path}: ")):
            t0 = time.perf_counter()
            proc = subprocess.run(CLI + ["hodge", sub, str(path)],
                                  capture_output=True, text=True, timeout=60)
            elapsed = time.perf_counter() - t0
            if extra:
                assert proc.returncode == 2 and proc.stdout == ""
                assert proc.stderr == (f"error: {where}period-domain checks limited to "
                                       f"g <= {g - 1}, got g={g}\n")
            else:
                assert proc.returncode == 0, proc.stderr
                assert json.loads(proc.stdout)["ok"] is True
                assert elapsed < HODGE_BUDGET_S, f"{sub}: {elapsed:.2f} s"

    @pytest.mark.parametrize("g", [4, 5, 6])
    @pytest.mark.parametrize("args", [("residue", "--d", "1"), ("intersect", "--edges", "1")],
                             ids=["residue", "intersect"])
    def test_residue_frontier_within_budget(self, args, g):
        # g_d = 0 by rank alone, wherever F expands (N <= 21)
        t0 = time.perf_counter()
        proc = subprocess.run(CLI + [args[0], f"principal-g{g}", *args[1:]],
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        gd = report["g_d"] if args[0] == "residue" else report["chi"]["numerator"]
        assert gd == {"nvars": g * (g + 1) // 2, "terms": []}
        assert elapsed < RESIDUE_FRONTIER_BUDGET_S, f"g={g}: {elapsed:.2f} s"

    def test_residue_term_guard_is_two(self, tmp_path):
        # S_5^15 of the genus-5 invertible case could have 3e8 terms
        path = tmp_path / "g5.json"
        path.write_text(json.dumps(cone_to_json(invertible_case_cone(5))))
        t0 = time.perf_counter()
        proc = subprocess.run(CLI + ["residue", str(path), "--d", "5"],
                              capture_output=True, text=True, timeout=15)
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: residue minor limited to 250000 terms")
        assert elapsed < 5.0, f"{elapsed:.2f} s"

    def test_volume_polynomial_cost_guard_is_two(self):
        proc = subprocess.run(CLI + ["cone", "volume", "principal-g7"],
                              capture_output=True, text=True, timeout=15)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: volume polynomial limited to N <= 21, got N=28\n"

    @pytest.mark.parametrize("g", [6, 7])
    def test_randomized_ma_frontier_within_budget(self, g):
        # the pencil alone decides each point; F (262144 terms at g = 7) is
        # never expanded
        t0 = time.perf_counter()
        proc = subprocess.run(CLI + ["ma", "verify", f"principal-g{g}", "--randomized",
                                     "--trials", "1"],
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["holds"] is True
        assert elapsed < RANDOMIZED_FRONTIER_BUDGET_S, f"g={g}: {elapsed:.2f} s"

    def test_randomized_cost_guard_is_two(self):
        # 1000 points at g = 8 would take about an hour
        t0 = time.perf_counter()
        proc = subprocess.run(CLI + ["ma", "verify", "principal-g8", "--randomized",
                                     "--trials", "1000"],
                              capture_output=True, text=True, timeout=15)
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: randomized check limited to trials * (N^6 + 4e5)")
        assert elapsed < 1.0, f"{elapsed:.2f} s"

    @pytest.mark.parametrize("g", [10, 11], ids=["at-bound", "above-bound"])
    def test_randomized_cost_guard(self, g):
        # one point takes about 2 s at g = 10 and 6.5 s at g = 11
        n = g * (g + 1) // 2
        t0 = time.perf_counter()
        proc = subprocess.run(CLI + ["ma", "verify", f"principal-g{g}", "--randomized",
                                     "--trials", "1"],
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if g == 11:
            assert proc.returncode == 2 and proc.stdout == ""
            assert proc.stderr == (
                "error: randomized check limited to trials * (N^6 + 4e5) <= 60000000000, "
                f"got {n ** 6 + 400_000} (N={n}, trials=1)\n")
            assert elapsed < 1.0, f"{elapsed:.2f} s"
        else:
            assert proc.returncode == 0, proc.stderr
            report = json.loads(proc.stdout)
            assert report["holds"] is True and report["witnesses"] == []
            assert elapsed < RANDOMIZED_BOUND_BUDGET_S, f"{elapsed:.2f} s"

    def test_randomized_cost_guard_evaluates_no_point(self, monkeypatch, capsys):
        # the smallest refused requests: two trials pass at g = 10, seven at g = 9
        def evaluated(*args):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(volume_ke, "_det_t_at", evaluated)
        for g, trials in ((11, 1), (10, 3), (9, 8)):
            argv = ["ma", "verify", f"principal-g{g}", "--randomized", "--trials", str(trials)]
            assert main(argv) == 2
            assert f"N={g * (g + 1) // 2}, trials={trials}" in capsys.readouterr().err

    @staticmethod
    def count_ke_point_calls(monkeypatch) -> list:
        """The cones is_ke_point is asked about, with det M made to raise:
        vol = c.index = |det M|, so the identity holds by construction."""
        def computed(*args):
            raise AssertionError("det M was computed")

        calls, is_ke_point = [], volume_ke.is_ke_point

        def counted(c):
            calls.append(c)
            return is_ke_point(c)

        monkeypatch.setattr(volume_ke, "rational_det", computed)
        monkeypatch.setattr(volume_ke, "is_ke_point", counted)
        return calls

    def test_symbolic_ma_verify_computes_no_det_m(self, monkeypatch, capsys):
        calls = self.count_ke_point_calls(monkeypatch)
        assert main(["ma", "verify", "principal-g12", "--symbolic"]) == 0
        assert capsys.readouterr().out == (
            '{"g": 12, "holds": true, "identity": "monge-ampere", "mode": "symbolic", '
            '"seed": null, "vol": 1, "witnesses": []}\n')
        assert [c.g for c in calls] == [12]

    def test_ke_test_computes_no_det_m(self, monkeypatch, capsys):
        calls = self.count_ke_point_calls(monkeypatch)
        assert main(["ke", "test", "principal-g12"]) == 0
        assert capsys.readouterr().out == (
            '{"check": "ke-membership", "g": 12, "member": true, "ok": true}\n')
        assert [c.g for c in calls] == [12]

    def test_residue_and_intersect_eliminate_no_order_n_matrix(self, monkeypatch, capsys):
        # the residue chain trusts the cone's independence (c.index >= 1),
        # so no N x N elimination runs at g = 4 (N = 10); the reports are
        # those of the route that computed det M
        bareiss = cone_lattice._bareiss

        def bounded(a, *args, **kwargs):
            assert len(a) != 10, "an elimination of order N = 10 ran"
            return bareiss(a, *args, **kwargs)

        monkeypatch.setattr(cone_lattice, "_bareiss", bounded)
        assert main(["residue", "principal-g4", "--d", "2"]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert len(out) == 13602 and hashlib.sha256(out).hexdigest() == (
            "b7545425fbb91d9ffbdffbf1e07bbb744a1b28bb70816a119649ec75d84f3181")
        assert main(["intersect", "principal-g4", "--edges", "0"]) == 0
        with open(os.path.join(GOLDEN_CLI_DIR, "intersect-principal-g4-edges0.json"),
                  encoding="utf-8", newline="") as fh:
            assert capsys.readouterr().out == fh.read()

    def test_separable_violation_is_one(self, fan_file, group_file):
        proc = run_cli("separable", fan_file, group_file)
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert not report["separable"] and report["violations"]


class TestReports:
    def test_catalog_list_names(self):
        proc = run_cli("catalog", "list")
        names = [e["name"] for e in json.loads(proc.stdout)["entries"]]
        assert names == ["principal-g2", "principal-g3", "principal-g2-level-3"]

    def test_catalog_names_resolve_in_other_commands(self):
        assert run_cli("cone", "check", "principal-g2-level-7").returncode == 0

    def test_ma_report_schema(self, cone_file):
        report = json.loads(run_cli(
            "ma", "verify", cone_file, "--randomized", "--trials", "3",
            "--seed", "11").stdout)
        assert set(report) == {"identity", "mode", "holds", "vol", "g",
                               "witnesses", "seed"}
        assert report["identity"] == "monge-ampere"
        assert report["seed"] == 11

    def test_residue_report_schema(self):
        report = json.loads(run_cli("residue", "principal-g2", "--d", "1").stdout)
        assert set(report) == {"d", "S", "g_d", "chi"}
        assert report["chi"]["constant"] == "9/8"
        assert report["g_d"]["terms"] == []

    def test_ke_test(self, cone_file):
        proc = run_cli("ke", "test", cone_file)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["member"] is True

    def test_intersect_cone(self):
        report = json.loads(run_cli(
            "intersect", "principal-g2", "--edges", "0").stdout)
        assert report["value"] == "zero"
        assert report["reason"] == "d_ge_g_minus_1"

    def test_intersect_partial_cone_unknown_without_chi(self, tmp_path):
        # d = 1 < g - 1 on a boundary edge, but 2 of the 6 generators give
        # no volume polynomial, so no residue integrand is attached
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"g": 3, "scale": 1, "generators": [
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]]]}))
        proc = run_cli("intersect", str(path), "--edges", "0")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["value"] == "unknown" and report["reason"] is None
        assert "chi" not in report

    def test_intersect_fan_toric(self, fan_file):
        report = json.loads(run_cli(
            "intersect", fan_file, "--edges", "0,1,2").stdout)
        assert report["check"] == "toric-intersection"
        assert report["intersection_number"] in (0, 1)

    def test_fan_check(self, fan_file):
        proc = run_cli("fan", "check", fan_file)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is_fan"] is True

    def test_large_catalog_level_is_a_string(self, tmp_path, capsys):
        # integers beyond 2^53 are decimal strings in every report
        big = 2 ** 60
        level = f"principal-g2-level-{big}"
        fan = tmp_path / "fan.json"
        fan.write_text(json.dumps({"cones": [cone_to_json(principal_cone(2, big))]}))
        for argv in (["cone", "check", level], ["cone", "volume", level],
                     ["fan", "check", str(fan)]):
            assert main(argv) == 0, argv
            assert json.loads(capsys.readouterr().out)["scale"] == str(big), argv

    def test_large_ray_coordinate_is_a_string(self, tmp_path, capsys):
        big = 2 ** 60
        fan = tmp_path / "fan.json"
        fan.write_text(json.dumps({"cones": [{"g": 2, "generators": [
            [[big, 1], [1, 0]], [[0, 0], [0, 1]], [[1, 0], [0, 0]]]}]}))
        assert main(["intersect", str(fan), "--edges", "0,1,2"]) == 0
        assert json.loads(capsys.readouterr().out)["rays"][2] == [str(big), 1, 0]

    def test_large_lattice_volume_is_a_string(self, tmp_path, capsys):
        big = 2 ** 60
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"g": 1, "generators": [[[str(big)]]]}))
        for argv, key in ((["cone", "check", str(path)], "lattice_volume"),
                          (["cone", "volume", str(path)], "lattice_volume"),
                          (["ma", "verify", str(path)], "vol")):
            assert main(argv) == 0, argv
            assert json.loads(capsys.readouterr().out)[key] == str(big), argv

    def test_report_integer_beyond_str_digit_limit(self, tmp_path, capsys):
        # a = 10^2200 + 1; the lattice volume a^3 has 6601 digits, past
        # Python's default 4300-digit limit on int-to-str conversion
        a = 10 ** 2200 + 1
        gap = "0" * 2199
        cube = f"1{gap}3{gap}3{gap}1"
        path = tmp_path / "cone.json"
        path.write_text(json.dumps({"g": 2, "generators": [
            [[str(a), 0], [0, 0]], [[0, 0], [0, str(a)]], [[str(a), str(a)], [str(a), str(a)]]]}))
        limit = sys.get_int_max_str_digits()
        for argv, key in ((["cone", "check", str(path)], "lattice_volume"),
                          (["cone", "volume", str(path)], "lattice_volume"),
                          (["ma", "verify", str(path)], "vol")):
            assert main(argv) == 0, argv
            out, err = capsys.readouterr()
            assert err == "" and json.loads(out)[key] == cube, argv
            assert sys.get_int_max_str_digits() == limit

    def test_large_seed_is_a_string(self, capsys):
        big = 2 ** 60
        assert main(["ma", "verify", "principal-g2", "--randomized", "--trials", "2",
                     "--seed", str(big)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == str(big)

    def test_text_output_renders_same_data(self, cone_file):
        text = run_cli("--output", "text", "cone", "volume", cone_file).stdout
        assert "lattice_volume: 1" in text


class TestDeterminism:
    def test_byte_identical_reports(self, cone_file):
        args = ("ma", "verify", cone_file, "--randomized",
                "--trials", "4", "--seed", "3")
        first = run_cli(*args).stdout
        second = run_cli(*args).stdout
        assert first == second


class TestHodgeCommands:
    def test_siegel(self, tmp_path):
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"re": [[0.0]], "im": [[1.0]]}))
        assert run_cli("hodge", "siegel", str(path)).returncode == 0

    def test_siegel_failure(self, tmp_path):
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"re": [[1.0]], "im": [[0.0]]}))
        assert run_cli("hodge", "siegel", str(path)).returncode == 1

    def test_riemann_on_large_tau(self, tmp_path):
        # [tau; I] multiplies no two entries of tau, so 1e200 stays in range
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"re": [[1e200, 0], [0, 1]], "im": [[1e200, 0], [0, 1]]}))
        proc = run_cli("hodge", "riemann", str(path))
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["ok"] is True

    def test_riemann_first_relation_failure(self, tmp_path):
        # F^T psi F has the entry -5i: exit 1, not an input error
        path = tmp_path / "filt.json"
        path.write_text(json.dumps(FIRST_RELATION_FAILS))
        proc = run_cli("hodge", "riemann", str(path))
        assert proc.returncode == 1 and proc.stderr == ""
        assert json.loads(proc.stdout)["ok"] is False

    def test_block_volume(self, tmp_path):
        path = tmp_path / "block.json"
        path.write_text(json.dumps({
            "tau_prime": {"re": [[0.0]], "im": [[1.0]]},
            "Z": {"re": [[0.0]], "im": [[2.0]]},
            "S": {"re": [[0.5]], "im": [[0.25]]},
        }))
        assert run_cli("hodge", "block-volume", str(path), "--tol", "1e-8").returncode == 0
        # the assembled Im tau has smallest eigenvalue about 0.94, so it
        # fails the Siegel test at tol 1 (exit 1) and passes at tol 0.9
        proc = run_cli("hodge", "block-volume", str(path), "--tol", "1")
        assert proc.returncode == 1 and proc.stderr == ""
        assert json.loads(proc.stdout)["ok"] is False
        assert run_cli("hodge", "block-volume", str(path), "--tol", "0.9").returncode == 0

    def test_weight(self, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(json.dumps({"g": 2, "k": 0, "u": [[1.0, 0.0], [0.0, 1.0]]}))
        report = json.loads(run_cli("hodge", "weight", str(path)).stdout)
        assert report["dim_image"] == 2 and report["dim_kernel"] == 2


class TestCatalogContract:
    def test_every_listed_entry_passes_cone_check(self):
        names = [e["name"] for e in json.loads(run_cli("catalog", "list").stdout)["entries"]]
        for name in names:
            assert run_cli("cone", "check", name).returncode == 0, name

    def test_principal_entries_pass_symbolic_ma(self):
        names = [e["name"] for e in json.loads(run_cli("catalog", "list").stdout)["entries"]]
        for name in names:
            proc = run_cli("ma", "verify", name, "--symbolic")
            assert proc.returncode == 0, name
            assert json.loads(proc.stdout)["holds"] is True


class TestConfig:
    def test_env_config_supplies_defaults(self, cone_file, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 2, "seed": 99}))
        env = dict(os.environ, SIEGELTORIC_CONFIG=str(cfg))
        report = json.loads(run_cli(
            "ma", "verify", cone_file, "--randomized", env=env).stdout)
        assert report["seed"] == 99

    def test_unknown_config_key_is_two(self, tmp_path, monkeypatch, capsys):
        # misspelt keys used to be ignored, so the run took the defaults
        cfg = tmp_path / "cfg.json"
        monkeypatch.setenv("SIEGELTORIC_CONFIG", str(cfg))
        cfg.write_text(json.dumps({"trails": 1, "sed": 5}))
        assert main(["ma", "verify", "principal-g2", "--randomized"]) == 2
        assert capsys.readouterr() == ("", f"error: config {cfg}: unknown key 'sed'\n")
        cfg.write_text(json.dumps({"seed": 3, "x" * 50: 1}))
        assert main(["catalog", "list"]) == 2
        assert capsys.readouterr().err == (
            f"error: config {cfg}: unknown key '{'x' * 40}'... (50 characters)\n")
        cfg.write_text(json.dumps({"seed": 3}))
        assert main(["ma", "verify", "principal-g2", "--randomized", "--trials", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 3

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_integer_tol_past_binary64_is_two(self, sign, tmp_path, monkeypatch, capsys):
        # an int too large for a float is no finite tolerance; a small int
        # tolerance is reported as the int it is
        cfg = tmp_path / "cfg.json"
        monkeypatch.setenv("SIEGELTORIC_CONFIG", str(cfg))
        cfg.write_text(json.dumps({"tol": sign * 10 ** 400}))
        assert main(["catalog", "list"]) == 2
        assert capsys.readouterr() == ("", "error: tol must be a finite positive number, got "
                                           f"{quote(sign * 10 ** 400)}\n")
        tau = tmp_path / "tau.json"
        tau.write_text(json.dumps({"re": [[0]], "im": [[2]]}))
        cfg.write_text(json.dumps({"tol": 1}))
        assert main(["hodge", "siegel", str(tau)]) == 0
        assert '"tol": 1}' in capsys.readouterr().out

    def test_flag_overrides_config(self, cone_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 99}))
        env = dict(os.environ, SIEGELTORIC_CONFIG=str(cfg))
        report = json.loads(run_cli(
            "ma", "verify", cone_file, "--randomized", "--seed", "5",
            env=env).stdout)
        assert report["seed"] == 5

    def test_in_process_entry_point(self, capsys):
        code = main(["catalog", "list"])
        assert code == 0
        assert "principal-g2" in capsys.readouterr().out
