"""CLI exit codes, report formats, determinism, config resolution."""

import json
import subprocess
import sys

import pytest

from siegeltoric import cli
from siegeltoric.catalog import principal_cone
from siegeltoric.cli import main
from siegeltoric.jsonio import cone_to_json

CLI = [sys.executable, "-m", "siegeltoric.cli"]


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

    def test_unknown_name_is_two(self):
        assert run_cli("cone", "check", "no-such-entry").returncode == 2

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

    @pytest.mark.parametrize("content", [b'{"g": 2, "\xff": 1}', b"[" * 100000],
                             ids=["non-utf8", "nested-too-deeply"])
    def test_unreadable_cone_file_is_two(self, content, tmp_path):
        path = tmp_path / "cone.json"
        path.write_bytes(content)
        proc = run_cli("cone", "check", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {path}") and "Traceback" not in proc.stderr

    def test_internal_error_is_three(self, monkeypatch, capsys):
        def broken(args, config):
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

    @pytest.mark.parametrize("fan", [
        5,
        {"cones": 5},
        {"cones": None},
        {"cones": [{"g": 1, "scale": 1, "generators": [[[1]]], "labels": 5}]},
    ], ids=["top-level-number", "cones-number", "cones-null", "labels-number"])
    def test_bad_fan_file_is_two(self, fan, tmp_path, group_file):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(fan))
        for args in (("fan", "check", str(path)), ("separable", str(path), group_file)):
            proc = run_cli(*args)
            assert proc.returncode == 2, args
            assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

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
    ], ids=["weight-list", "nilpotent-list", "block-volume-list", "block-volume-no-Z",
            "riemann-empty", "riemann-number"])
    def test_bad_hodge_file_is_two(self, sub, obj, message, tmp_path):
        path = tmp_path / "hodge.json"
        path.write_text(json.dumps(obj))
        proc = run_cli("hodge", sub, str(path))
        assert proc.returncode == 2, proc.stdout
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert message in proc.stderr

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

    @pytest.mark.parametrize("sub,obj,stage", [
        ("riemann", {"re": [[1e200, 0], [0, 1], [1e200, 0], [0, 1]],
                     "im": [[1e200, 0], [0, 1], [0, 0], [0, 0]]}, "F^T psi F"),
        ("block-volume", {"tau_prime": {"re": [[1e300]], "im": [[1e300]]},
                          "Z": {"re": [[0]], "im": [[1]]},
                          "S": {"re": [[1e300]], "im": [[1e300]]}}, "assembled tau"),
        ("siegel", {"re": [[0]], "im": [[1e308]]}, "Im(tau)"),
    ], ids=["riemann", "block-volume", "siegel"])
    def test_binary64_overflow_is_two(self, sub, obj, stage, tmp_path):
        path = tmp_path / "hodge.json"
        path.write_text(json.dumps(obj))
        proc = run_cli("hodge", sub, str(path))
        assert proc.returncode == 2, proc.stdout
        assert proc.stderr.startswith("error:") and stage in proc.stderr
        assert proc.stderr.count("\n") == 1 and "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("args", [("residue", "--d", "1"), ("intersect", "--edges", "1")],
                             ids=["residue", "intersect"])
    def test_residue_cost_guard_is_two(self, args, tmp_path):
        path = tmp_path / "g4.json"
        path.write_text(json.dumps(cone_to_json(principal_cone(4))))
        proc = subprocess.run(CLI + [args[0], str(path), *args[1:]],
                              capture_output=True, text=True, timeout=15)
        assert proc.returncode == 2
        assert "N <= 6" in proc.stderr and "Traceback" not in proc.stderr

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

    def test_intersect_fan_toric(self, fan_file):
        report = json.loads(run_cli(
            "intersect", fan_file, "--edges", "0,1,2").stdout)
        assert report["check"] == "toric-intersection"
        assert report["intersection_number"] in (0, 1)

    def test_fan_check(self, fan_file):
        proc = run_cli("fan", "check", fan_file)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is_fan"] is True

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

    def test_block_volume(self, tmp_path):
        path = tmp_path / "block.json"
        path.write_text(json.dumps({
            "tau_prime": {"re": [[0.0]], "im": [[1.0]]},
            "Z": {"re": [[0.0]], "im": [[2.0]]},
            "S": {"re": [[0.5]], "im": [[0.25]]},
        }))
        assert run_cli("hodge", "block-volume", str(path), "--tol", "1e-8").returncode == 0

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
        import os
        env = dict(os.environ, SIEGELTORIC_CONFIG=str(cfg))
        report = json.loads(run_cli(
            "ma", "verify", cone_file, "--randomized", env=env).stdout)
        assert report["seed"] == 99

    def test_flag_overrides_config(self, cone_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 99}))
        import os
        env = dict(os.environ, SIEGELTORIC_CONFIG=str(cfg))
        report = json.loads(run_cli(
            "ma", "verify", cone_file, "--randomized", "--seed", "5",
            env=env).stdout)
        assert report["seed"] == 5

    def test_in_process_entry_point(self, capsys):
        code = main(["catalog", "list"])
        assert code == 0
        assert "principal-g2" in capsys.readouterr().out
