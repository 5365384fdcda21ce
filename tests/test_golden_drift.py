"""The frozen golden files equal what the naive oracle regenerates.

tools/make_golden.py writes tests/golden/residue_g3_d1.json and
volume_poly_g3.json from tests/naive_oracle.py; a change to either the
oracle or a file that the other does not follow fails here.
"""

import importlib.util
import os

HERE = os.path.dirname(__file__)
MAKE_GOLDEN = os.path.join(HERE, os.pardir, "tools", "make_golden.py")


def test_golden_files_match_the_oracle():
    spec = importlib.util.spec_from_file_location("make_golden", MAKE_GOLDEN)
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    files = make_golden.golden_files()
    assert sorted(files) == ["residue_g3_d1.json", "volume_poly_g3.json"]
    for name, text in files.items():
        with open(os.path.join(HERE, "golden", name), encoding="utf-8", newline="") as fh:
            assert fh.read() == text, name
