"""JSON readers/writers for the on-disk formats.

`report_value` alone writes the package's values as JSON: integers are
JSON numbers up to 2^53 and decimal strings beyond (readers accept
both), Fractions are "n/d" strings and polynomials follow
`poly_to_json`.  Complex matrices travel as {"re": [[...]],
"im": [[...]]}; numeric matrices are read into nested lists of Python
floats or complex numbers.  All emitters produce deterministic output
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


class InputFormatError(ValueError):
    pass


def encode_int(v: int):
    return v if abs(v) <= INT_JSON_MAX else str(v)


def decode_int(v) -> int:
    if isinstance(v, bool):
        raise InputFormatError(f"expected integer, got {quote(v)}")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return int(v)
        except ValueError as exc:
            msg = f"bad integer literal {quote(v)}"
            # Python's other reason, an invalid literal, quotes it in full
            if str(exc).startswith("Exceeds the limit"):
                msg += f": {exc}"
            raise InputFormatError(msg) from exc
    if isinstance(v, float) and v.is_integer():
        return int(v)
    raise InputFormatError(f"expected integer, got {quote(v)}")


_REQUIRED = object()


def field(obj, key: str, parse, default=_REQUIRED):
    """parse(obj[key]) from a JSON object; an absent or null value gives
    default, and is an error when no default is given."""
    if not isinstance(obj, Mapping):
        raise InputFormatError(f"expected a JSON object, got {type(obj).__name__}")
    value = obj.get(key)
    if value is not None:
        return parse(value)
    if default is _REQUIRED:
        raise InputFormatError(f"missing key {key!r}")
    return default


def _check_rows(obj) -> None:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise InputFormatError("matrix must be a nonempty list of rows")


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
        raise InputFormatError(f"bad cone object: {exc}") from exc
    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list):
            raise InputFormatError("cone 'labels' must be a list")
        labels = tuple(str(s) for s in labels)
    try:
        return MarkedCone(g=g, scale=scale, generators=gens, labels=labels)
    except ConeShapeError as exc:
        raise InputFormatError(f"invalid cone: {exc}") from exc


def group_element_from_json(obj: Mapping) -> GroupElement:
    try:
        mat = int_matrix_from_json(obj["matrix"])
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"bad group element object: {exc}") from exc
    try:
        return GroupElement(matrix=mat)
    except ConeShapeError as exc:
        raise InputFormatError(f"invalid group element: {exc}") from exc


def _entries(items: list, parse, what: str) -> list:
    """parse(item) for each item, with `<what> <i>: ` in front of an error
    in entry i."""
    out = []
    for i, item in enumerate(items):
        try:
            out.append(parse(item))
        except ValueError as exc:
            raise InputFormatError(f"{what} {i}: {exc}") from exc
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
    raise InputFormatError("group file must hold an element or a list of elements")


def fan_from_json(obj: Mapping) -> Fan:
    if not isinstance(obj, Mapping) or not isinstance(obj.get("cones"), list):
        raise InputFormatError("fan file needs a 'cones' list")
    cones = _entries(obj["cones"], cone_from_json, "cone")
    try:
        return Fan(cones=cones)
    except ConeShapeError as exc:
        raise InputFormatError(f"invalid fan: {exc}") from exc


def _finite_rows(obj, what: str) -> list[list[float]]:
    """The rows of a JSON number matrix as floats: rectangular and finite."""
    for v in (v for row in obj for v in row):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise InputFormatError(f"{what} entries must be numbers, got {quote(v)}")
    if any(len(row) != len(obj[0]) for row in obj):
        raise InputFormatError(f"bad {what}: rows have unequal lengths")
    try:
        rows = [[float(v) for v in row] for row in obj]
    except OverflowError as exc:
        raise InputFormatError(f"bad {what}: {exc}") from exc
    if not all(math.isfinite(v) for row in rows for v in row):
        raise InputFormatError(f"{what} has a non-finite entry")
    return rows


def real_matrix_from_json(obj) -> list[list[float]]:
    """A nonempty list of equal-length rows of finite numbers, as floats."""
    _check_rows(obj)
    return _finite_rows(obj, "matrix")


def complex_matrix_from_json(obj: Mapping) -> list[list[complex]]:
    """{"re": rows, "im": rows} of one shape, as rows of complex numbers."""
    try:
        re_obj, im_obj = obj["re"], obj["im"]
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"bad complex matrix: {exc}") from exc
    _check_rows(re_obj)
    _check_rows(im_obj)
    re_rows = _finite_rows(re_obj, "complex matrix")
    im_rows = _finite_rows(im_obj, "complex matrix")
    if len(re_rows) != len(im_rows) or len(re_rows[0]) != len(im_rows[0]):
        raise InputFormatError("re/im shapes disagree")
    return [[complex(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(re_rows, im_rows)]


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
