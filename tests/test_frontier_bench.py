"""Smoke test of tools/frontier_bench.py: its measuring functions on two
short requests and on the pencil_det layer, two runs each, with this
checkout on both sides.  Nothing here is timed against a bound."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import frontier_bench  # noqa: E402

SIDE_KEYS = ["exit", "median_s", "q1_s", "q3_s", "runs_s", "stdout_bytes"]


def test_measure_records_the_documented_keys(tmp_path):
    src = os.path.join(frontier_bench.ROOT, "src")
    requests = [["catalog", "list"], ["cone", "check", "principal-g2"]]
    records = frontier_bench.measure(requests, {"change": src, "base": src}, 2, str(tmp_path))
    assert [r["argv"] for r in records] == requests
    for record in records:
        assert sorted(record) == ["argv", "base", "change"]
        for side in ("change", "base"):
            got = record[side]
            assert sorted(got) == SIDE_KEYS
            assert got["exit"] == [0, 0], record
            assert len(set(got["stdout_bytes"])) == 1 and got["stdout_bytes"][0] > 0
            assert len(got["runs_s"]) == 2
            assert 0 < got["q1_s"] <= got["median_s"] <= got["q3_s"]


def test_commit_reads_git_head():
    got = frontier_bench.commit(frontier_bench.ROOT)
    assert sorted(got) == ["commit", "src_dirty"]
    assert got["commit"] is None or len(got["commit"]) == 40
    assert isinstance(got["src_dirty"], bool)


def test_measure_inprocess_records_the_documented_keys(tmp_path):
    src = os.path.join(frontier_bench.ROOT, "src")
    layers = [layer for layer in frontier_bench.LAYERS if layer[0].startswith("exact_algebra.")]
    records = frontier_bench.measure_inprocess(layers, {"change": src, "base": src}, 2,
                                               str(tmp_path))
    assert [r["name"] for r in records] == ["exact_algebra.pencil_det principal-g6"]
    record = records[0]
    assert sorted(record) == ["base", "change", "name"]
    for side in ("change", "base"):
        got = record[side]
        assert sorted(got) == ["median_s", "q1_s", "q3_s", "result", "runs_s"]
        assert got["result"] == 16807
        assert len(got["runs_s"]) == 2
        assert 0 < got["q1_s"] <= got["median_s"] <= got["q3_s"]
