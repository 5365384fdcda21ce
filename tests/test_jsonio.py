"""On-disk format round trips and big-integer handling."""

import json
import re

import pytest

from siegeltoric.cone_lattice import MarkedCone
from siegeltoric.jsonio import (
    InputFormatError,
    complex_matrix_from_json,
    cone_from_json,
    cone_to_json,
    decode_int,
    dump_report,
    encode_int,
    fan_from_json,
    field,
    group_from_json,
    int_matrix_from_json,
    real_matrix_from_json,
    render_text,
)


def test_int_encoding_threshold():
    assert encode_int(2 ** 53) == 2 ** 53
    assert encode_int(2 ** 53 + 1) == str(2 ** 53 + 1)
    assert encode_int(-(2 ** 60)) == str(-(2 ** 60))


def test_decode_accepts_numbers_and_strings():
    assert decode_int(7) == 7
    assert decode_int("123456789012345678901234567890") == 123456789012345678901234567890
    with pytest.raises(InputFormatError):
        decode_int(True)
    with pytest.raises(InputFormatError):
        decode_int("7.5")


def test_cone_round_trip():
    cone = MarkedCone(g=2, scale=1, generators=(
        ((1, 0), (0, 0)), ((0, 0), (0, 1)), ((1, -1), (-1, 1))),
        labels=("z11", "z22", "z12"))
    assert cone_from_json(cone_to_json(cone)) == cone


def test_cone_with_huge_entries_round_trips():
    big = 2 ** 60
    cone = MarkedCone(g=1, scale=1, generators=(((big,),),))
    blob = json.dumps(cone_to_json(cone))
    assert str(big) in blob
    assert cone_from_json(json.loads(blob)) == cone


def test_invalid_cone_reports_format_error():
    with pytest.raises(InputFormatError):
        cone_from_json({"g": 2, "scale": 1, "generators": [[[1, 2], [3, 4]]]})


def test_group_file_variants():
    single = {"matrix": [[0, 1], [1, 0]]}
    assert len(group_from_json(single)) == 1
    assert len(group_from_json([single, single])) == 2
    assert len(group_from_json({"elements": [single]})) == 1


def test_fan_requires_cones_key():
    with pytest.raises(InputFormatError):
        fan_from_json({})


def test_complex_matrix_round_trip():
    got = complex_matrix_from_json({"re": [[1, 0.5], [0, 3]], "im": [[2, 0], [-1, 0]]})
    assert got == [[1 + 2j, 0.5], [-1j, 3]]
    assert all(type(v) is complex for row in got for v in row)


def test_real_matrix_reads_floats():
    got = real_matrix_from_json([[1, 2.5], [-3, 0]])
    assert got == [[1.0, 2.5], [-3.0, 0.0]]
    assert all(type(v) is float for row in got for v in row)


@pytest.mark.parametrize("obj,message", [
    ([[1, 2], [3]], "bad matrix: rows have unequal lengths"),
    ([[10 ** 400]], "bad matrix: int too large to convert to float"),
    ([[1e400]], "matrix has a non-finite entry"),
    ([[1, "2"]], "matrix entries must be numbers"),
], ids=["ragged", "huge-int", "infinite", "string"])
def test_real_matrix_rejects(obj, message):
    with pytest.raises(InputFormatError, match=re.escape(message)):
        real_matrix_from_json(obj)


def test_complex_matrix_ragged_rows():
    with pytest.raises(InputFormatError, match="bad complex matrix: rows have unequal"):
        complex_matrix_from_json({"re": [[1, 2], [3, 4]], "im": [[1, 2], [3]]})


def test_complex_matrix_shape_mismatch():
    with pytest.raises(InputFormatError):
        complex_matrix_from_json({"re": [[1, 2]], "im": [[1]]})


@pytest.mark.parametrize("obj", [{"re": [], "im": []}, {"re": 5, "im": 5},
                                 {"re": [[1]], "im": [1]}])
def test_complex_matrix_needs_rows(obj):
    with pytest.raises(InputFormatError, match="nonempty list of rows"):
        complex_matrix_from_json(obj)


def test_field_reads_a_key_of_an_object():
    obj = {"g": 2, "k": None}
    assert field(obj, "g", decode_int) == 2
    assert field(obj, "k", decode_int, 0) == 0
    assert field(obj, "tau_cusp", complex_matrix_from_json, None) is None
    with pytest.raises(InputFormatError, match="missing key 'u'"):
        field(obj, "u", int_matrix_from_json)
    with pytest.raises(InputFormatError, match="expected a JSON object, got list"):
        field([1], "g", decode_int)


def test_dump_report_is_canonical():
    a = dump_report({"b": 1, "a": [3, 2]})
    b = dump_report({"a": [3, 2], "b": 1})
    assert a == b and a.endswith("\n")


def test_render_text_nested():
    text = render_text({"outer": {"inner": 5}, "flag": True})
    assert "outer:" in text and "inner: 5" in text and "flag: True" in text


def test_int_matrix_from_json_validation():
    with pytest.raises(InputFormatError):
        int_matrix_from_json("nope")
    with pytest.raises(InputFormatError):
        int_matrix_from_json([])
