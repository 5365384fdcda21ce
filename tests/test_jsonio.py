"""On-disk format round trips and big-integer handling."""

import json
import re
from fractions import Fraction

import pytest

from siegeltoric.cone_lattice import MarkedCone, SeparabilityViolation
from siegeltoric.exact_algebra import MultiPoly, poly_to_json
from siegeltoric.jsonio import (
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
    report_value,
)


def test_int_encoding_threshold():
    assert encode_int(2 ** 53) == 2 ** 53
    assert encode_int(2 ** 53 + 1) == str(2 ** 53 + 1)
    assert encode_int(-(2 ** 60)) == str(-(2 ** 60))


def test_report_value_int_threshold():
    assert report_value(2 ** 53) == 2 ** 53 and report_value(-(2 ** 53)) == -(2 ** 53)
    assert report_value(2 ** 53 + 1) == str(2 ** 53 + 1)
    assert report_value(-(2 ** 53 + 1)) == str(-(2 ** 53 + 1))


def test_report_value_scalars():
    assert report_value(True) is True and dump_report({"ok": report_value(True)}) == '{"ok": true}\n'
    assert report_value(Fraction(5)) == "5/1"
    assert report_value(Fraction(-3, 4)) == "-3/4"
    assert report_value(1e-09) == 1e-09 and report_value(None) is None
    assert report_value("edge0") == "edge0"


def test_report_value_polynomial_and_records():
    p = MultiPoly(2, {(1, 1): Fraction(1, 2), (0, 0): Fraction(-3)})
    assert report_value(p) == poly_to_json(p)
    assert report_value(SeparabilityViolation(group_index=0, cone_index=1, moved_generator=2)) \
        == {"group_index": 0, "cone_index": 1, "moved_generator": 2}
    assert report_value(((1, 2), (3, (2 ** 60,)))) == [[1, 2], [3, [str(2 ** 60)]]]
    assert report_value({"S": (p,), "c": Fraction(1, 3)}) == {"S": [poly_to_json(p)], "c": "1/3"}


def test_decode_accepts_numbers_and_strings():
    assert decode_int(7) == 7
    assert decode_int(2.0) == 2
    assert decode_int("123456789012345678901234567890") == 123456789012345678901234567890
    with pytest.raises(ValueError, match=r"^expected integer, got True$"):
        decode_int(True)
    with pytest.raises(ValueError, match=r"^expected integer, got 2\.5$"):
        decode_int(2.5)
    with pytest.raises(ValueError, match=r"^bad integer literal '7\.5'$"):
        decode_int("7.5")


@pytest.mark.parametrize("literal", [
    " 3", "3 ", "1_0", "+5", "\u0661", "\uff13", "", "-", "--3", "0x10", "1e3", "1/2",
], ids=["space", "trailing-space", "underscore", "plus", "arabic-indic", "fullwidth",
        "empty", "minus", "double-minus", "hex", "exponent", "ratio"])
def test_decode_int_takes_ascii_decimals_only(literal):
    # int() would read the first six as 3, 3, 10, 5, 1 and 3
    with pytest.raises(ValueError, match=f"^bad integer literal {re.escape(repr(literal))}$"):
        decode_int(literal)


def test_decode_int_reads_a_float_integer_below_2_53_only():
    # from 2^53 on, neighbouring integers share a float: 2^53 + 1 reads as 2^53
    assert decode_int(-3.0) == -3 and decode_int(-0.0) == 0
    assert decode_int(9007199254740991.0) == 2 ** 53 - 1
    for v in (9007199254740992.0, -9007199254740992.0, 1e300):
        with pytest.raises(ValueError, match=rf"^integer {re.escape(repr(v))} written "
                                             r"as a float is past 2\^53; write it as "
                                             r"an integer or a decimal string$"):
            decode_int(v)


def test_decode_int_reads_negative_and_long_decimals():
    assert decode_int("-3") == -3 and decode_int("0") == 0 and decode_int("-0") == 0
    assert decode_int(str(2 ** 53 + 1)) == 2 ** 53 + 1
    assert decode_int(str(-(10 ** 40))) == -(10 ** 40)


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


def test_cone_with_huge_scale_round_trips():
    big = 2 ** 60
    cone = MarkedCone(g=1, scale=big, generators=(((big,),),))
    obj = cone_to_json(cone)
    assert obj["scale"] == str(big)
    assert cone_from_json(json.loads(json.dumps(obj))) == cone


def test_invalid_cone_reports_format_error():
    with pytest.raises(ValueError, match=r"^invalid cone: generator 0 is not symmetric$"):
        cone_from_json({"g": 2, "scale": 1, "generators": [[[1, 2], [3, 4]]]})


def test_group_file_variants():
    single = {"matrix": [[0, 1], [1, 0]]}
    assert len(group_from_json(single)) == 1
    assert len(group_from_json([single, single])) == 2
    assert len(group_from_json({"elements": [single]})) == 1


def test_fan_requires_cones_key():
    with pytest.raises(ValueError, match=r"^fan file needs a 'cones' list$"):
        fan_from_json({})


def _binary64(rows):
    return [[Fraction(float(v)) for v in row] for row in rows]


def test_complex_matrix_reads_exact_pair():
    # each entry is the rational value of its binary64 reading, the largest
    # finite and the smallest subnormal number included
    re_rows = [[1, 0.1], [1e308, -5e-324], [2 ** 53 + 1, 0]]
    im_rows = [[2.5, 0], [-1, 5e-324], [-0.0, 1e-300]]
    got = complex_matrix_from_json({"re": re_rows, "im": im_rows})
    assert got == (_binary64(re_rows), _binary64(im_rows))
    assert type(got) is tuple and all(type(v) is Fraction for m in got for row in m for v in row)
    assert got[0][0][1] == Fraction(3602879701896397, 2 ** 55)
    assert got[0][1] == [Fraction(int(1e308)), Fraction(-1, 2 ** 1074)]
    assert got[0][2][0] == 2 ** 53


def test_real_matrix_reads_exact_rows():
    rows = [[1, 2.5, 0.1], [-3, 1e308, 5e-324]]
    got = real_matrix_from_json(rows)
    assert got == _binary64(rows)
    assert all(type(v) is Fraction for row in got for v in row)
    assert got[1][1:] == [Fraction(int(1e308)), Fraction(1, 2 ** 1074)]


@pytest.mark.parametrize("obj,message", [
    ([[1, 2], [3]], "bad matrix: rows have unequal lengths"),
    ([[10 ** 400]], "bad matrix: int too large to convert to float"),
    ([[1e400]], "matrix has a non-finite entry"),
    ([[1, "2"]], "matrix entries must be numbers"),
], ids=["ragged", "huge-int", "infinite", "string"])
def test_real_matrix_rejects(obj, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        real_matrix_from_json(obj)


def test_complex_matrix_ragged_rows():
    with pytest.raises(ValueError, match="bad complex matrix: rows have unequal"):
        complex_matrix_from_json({"re": [[1, 2], [3, 4]], "im": [[1, 2], [3]]})


def test_complex_matrix_shape_mismatch():
    with pytest.raises(ValueError, match=r"^re/im shapes disagree$"):
        complex_matrix_from_json({"re": [[1, 2]], "im": [[1]]})


@pytest.mark.parametrize("obj", [{"re": [], "im": []}, {"re": 5, "im": 5},
                                 {"re": [[1]], "im": [1]}])
def test_complex_matrix_needs_rows(obj):
    with pytest.raises(ValueError, match="nonempty list of rows"):
        complex_matrix_from_json(obj)


def test_field_reads_a_key_of_an_object():
    obj = {"g": 2, "k": None}
    assert field(obj, "g", decode_int) == 2
    assert field(obj, "k", decode_int, 0) == 0
    assert field(obj, "tau_cusp", complex_matrix_from_json, None) is None
    with pytest.raises(ValueError, match="missing key 'u'"):
        field(obj, "u", int_matrix_from_json)
    with pytest.raises(ValueError, match="expected a JSON object, got list"):
        field([1], "g", decode_int)


def test_dump_report_is_canonical():
    a = dump_report({"b": 1, "a": [3, 2]})
    b = dump_report({"a": [3, 2], "b": 1})
    assert a == b and a.endswith("\n")


def test_render_text_nested():
    text = render_text({"outer": {"inner": 5}, "flag": True})
    assert "outer:" in text and "inner: 5" in text and "flag: True" in text


def test_int_matrix_from_json_validation():
    with pytest.raises(ValueError, match=r"^matrix must be a nonempty list of rows$"):
        int_matrix_from_json("nope")
    with pytest.raises(ValueError, match=r"^matrix must be a nonempty list of rows$"):
        int_matrix_from_json([])
