"""JSON readers/writers for the on-disk formats.

`report_value` alone writes the package's values as JSON: integers are
JSON numbers up to 2^53 and decimal strings beyond (readers accept
both, a string as an ASCII decimal with an optional leading "-", and an
integral float below 2^53 in absolute value),
Fractions are "n/d" strings and polynomials follow `poly_to_json`.
Complex matrices travel as {"re": [[...]], "im": [[...]]}.  A numeric
matrix is read once, each entry as a binary64 number kept as the exact
Fraction it is: a real one into Fraction rows, a complex one into the
pair (Re, Im) of them.  All emitters produce deterministic output
(sorted keys, fixed separators) so identical runs are byte-identical.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Mapping

from .cone_lattice import ConeShapeError, Fan, GroupElement, MarkedCone, quote
from .exact_algebra import MultiPoly, poly_to_json

INT_JSON_MAX = 2 ** 53


def encode_int(v: int):
    return v if abs(v) <= INT_JSON_MAX else str(v)


def decode_int(v) -> int:
    if isinstance(v, bool):
        raise ValueError(f"expected integer, got {quote(v)}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        # int() would also read " 3", "1_0", "+5" and non-ASCII digits
        if not (v.isascii() and v.removeprefix("-").isdigit()):
            raise ValueError(f"bad integer literal {quote(v)}")
        try:
            return int(v)
        except ValueError as exc:  # past Python's int-to-str digit limit
            raise ValueError(f"bad integer literal {quote(v)}: {exc}") from exc
    if isinstance(v, float) and v.is_integer():
        # from 2^53 on, a float no longer pins one integer: 2^53 + 1 reads as 2^53
        if abs(v) >= INT_JSON_MAX:
            raise ValueError(f"integer {quote(v)} written as a float is past 2^53; "
                             "write it as an integer or a decimal string")
        return int(v)
    raise ValueError(f"expected integer, got {quote(v)}")


_REQUIRED = object()


def field(obj, key: str, parse, default=_REQUIRED):
    """parse(obj[key]) from a JSON object; an absent or null value gives
    default, and is an error when no default is given."""
    if not isinstance(obj, Mapping):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    value = obj.get(key)
    if value is not None:
        return parse(value)
    if default is _REQUIRED:
        raise ValueError(f"missing key {key!r}")
    return default


def _check_rows(obj) -> None:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ValueError("matrix must be a nonempty list of rows")


def int_matrix_from_json(obj) -> tuple[tuple[int, ...], ...]:
    _check_rows(obj)
    return tuple(tuple(decode_int(v) for v in row) for row in obj)


def cone_to_json(c: MarkedCone) -> dict:
    out: dict[str, Any] = {"g": c.g, "scale": c.scale, "generators": c.generators}
    if c.labels is not None:
        out["labels"] = c.labels
    return report_value(out)


def cone_from_json(obj: Mapping) -> MarkedCone:
    try:
        g = decode_int(obj["g"])
        scale = decode_int(obj.get("scale", 1))
        gens = tuple(int_matrix_from_json(m) for m in obj["generators"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad cone object: {exc}") from exc
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise ValueError("cone 'labels' must be a list")
    try:
        return MarkedCone(g=g, scale=scale, generators=gens, labels=labels)
    except ConeShapeError as exc:
        raise ValueError(f"invalid cone: {exc}") from exc


def group_element_from_json(obj: Mapping) -> GroupElement:
    try:
        mat = int_matrix_from_json(obj["matrix"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad group element object: {exc}") from exc
    try:
        return GroupElement(matrix=mat)
    except ConeShapeError as exc:
        raise ValueError(f"invalid group element: {exc}") from exc


def _entries(items: list, parse, what: str) -> list:
    """parse(item) for each item, with `<what> <i>: ` in front of an error
    in entry i."""
    out = []
    for i, item in enumerate(items):
        try:
            out.append(parse(item))
        except ValueError as exc:
            raise ValueError(f"{what} {i}: {exc}") from exc
    return out


def group_from_json(obj) -> list[GroupElement]:
    """A group file is either one element object or a list of them
    (optionally wrapped as {"elements": [...]})."""
    if isinstance(obj, Mapping) and "elements" in obj:
        obj = obj["elements"]
    if isinstance(obj, Mapping):
        return [group_element_from_json(obj)]
    if isinstance(obj, list):
        return _entries(obj, group_element_from_json, "element")
    raise ValueError("group file must hold an element or a list of elements")


def fan_from_json(obj: Mapping) -> Fan:
    if not isinstance(obj, Mapping) or not isinstance(obj.get("cones"), list):
        raise ValueError("fan file needs a 'cones' list")
    cones = _entries(obj["cones"], cone_from_json, "cone")
    try:
        return Fan(cones=cones)
    except ConeShapeError as exc:
        raise ValueError(f"invalid fan: {exc}") from exc


def _finite_rows(obj, what: str) -> list[list[Fraction]]:
    """The rows of a JSON number matrix, rectangular and finite, each entry
    read as a binary64 number and kept as the rational it is."""
    for v in (v for row in obj for v in row):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{what} entries must be numbers, got {quote(v)}")
    if any(len(row) != len(obj[0]) for row in obj):
        raise ValueError(f"bad {what}: rows have unequal lengths")
    try:
        rows = [[float(v) for v in row] for row in obj]
    except OverflowError as exc:
        raise ValueError(f"bad {what}: {exc}") from exc
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError(f"{what} has a non-finite entry")
    return [[Fraction(v) for v in row] for row in rows]


def real_matrix_from_json(obj) -> list[list[Fraction]]:
    """A nonempty list of equal-length rows of finite numbers, as Fraction
    rows of their binary64 values."""
    _check_rows(obj)
    return _finite_rows(obj, "matrix")


def complex_matrix_from_json(obj: Mapping) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """{"re": rows, "im": rows} of one shape, as the pair (Re, Im) of
    Fraction rows that period_domain takes."""
    try:
        re_obj, im_obj = obj["re"], obj["im"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad complex matrix: {exc}") from exc
    _check_rows(re_obj)
    _check_rows(im_obj)
    re_rows = _finite_rows(re_obj, "complex matrix")
    im_rows = _finite_rows(im_obj, "complex matrix")
    if len(re_rows) != len(im_rows) or len(re_rows[0]) != len(im_rows[0]):
        raise ValueError("re/im shapes disagree")
    return re_rows, im_rows


def report_value(v):
    """The JSON form of a report value: ints beyond +-2^53 as decimal
    strings, Fractions as "n/d", polynomials by poly_to_json, NamedTuple
    records as objects keyed by field name, tuples as lists; containers
    are converted entry by entry, and bools, None, floats and strings
    stay as they are."""
    if v is None or isinstance(v, (bool, float, str)):
        return v
    if isinstance(v, int):
        return encode_int(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, MultiPoly):
        return poly_to_json(v)
    if isinstance(v, dict):
        return {k: report_value(x) for k, x in v.items()}
    if hasattr(v, "_fields"):
        return {k: report_value(x) for k, x in zip(v._fields, v)}
    if isinstance(v, (tuple, list)):
        return [report_value(x) for x in v]
    raise TypeError(f"no JSON form for {type(v).__name__}")


def dump_report(report: dict) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(report, sort_keys=True, separators=(", ", ": "),
                      ensure_ascii=False) + "\n"


def render_text(report: dict, indent: int = 0) -> str:
    """Human-readable rendering of the same report object."""
    lines = []
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)
