"""Regenerate the frozen golden files from the naive oracle.

Run from the repository root:  python3 tools/make_golden.py
The outputs land in tests/golden/ and are committed; the test suite
reads them, and tests/test_golden_drift.py requires them to equal what
golden_files() returns.  The oracle lives in tests/naive_oracle.py and
shares no code with the package.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

import naive_oracle as oracle  # noqa: E402


def zeta(g, i, j):
    rows = [[0] * g for _ in range(g)]
    if i == j:
        rows[i][i] = 1
    else:
        rows[i][i] = 1
        rows[j][j] = 1
        rows[i][j] = -1
        rows[j][i] = -1
    return rows


def principal_pencil(g):
    pairs = [(i, i) for i in range(g)]
    pairs += [(i, j) for i in range(g) for j in range(i + 1, g)]
    return [zeta(g, i, j) for i, j in pairs]


def poly_json(p, nvars):
    items = sorted(p.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    return {
        "nvars": nvars,
        "terms": [{"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
                  for e, c in items],
    }


def golden_files():
    """{file name: text} of each golden file under tests/golden/."""
    # residue chain for the genus-3 principal cone, one selected divisor
    g = 3
    nvars = g * (g + 1) // 2
    f = oracle.pencil_determinant(principal_pencil(g))
    chain, gd = oracle.residue_chain_naive(f, nvars, d=1)
    residue = {
        "case": "principal-g3-residue-d1",
        "g": g,
        "nvars": nvars,
        "d": 1,
        "S": [poly_json(s, nvars) for s in chain],
        "g_d": poly_json(gd, nvars),
    }
    # genus-3 principal cone volume polynomial, for cross-checks
    volume = {
        "case": "principal-g3-volume-polynomial",
        "g": g,
        "nvars": nvars,
        "F": poly_json(f, nvars),
    }
    return {name: json.dumps(obj, indent=1, sort_keys=True) + "\n"
            for name, obj in (("residue_g3_d1.json", residue),
                              ("volume_poly_g3.json", volume))}


def main():
    out_dir = os.path.join(os.path.dirname(__file__), "..", "tests", "golden")
    os.makedirs(out_dir, exist_ok=True)
    for name, text in golden_files().items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote", path)


if __name__ == "__main__":
    main()
