"""Reports render numpy values to the same bytes whether or not the
serializers import numpy themselves; the expected strings are the output of
the version that imported numpy at module level."""

import numpy as np

from avoidance.reporting import csv_cell, render_csv, render_json


def test_render_json_numpy_values():
    report = {
        "i": np.int64(-7),
        "f": np.float64(1 / 3),
        "big": np.float64(1e300),
        "tiny": np.float64(5e-324),
        "ai": np.array([[1, 2], [3, -4]]),
        "af": np.array([[0.5, 1e-20], [2.0, -3.25]]),
        "nest": [np.int64(2), {"x": np.array([0.1, 0.2])}],
        "f32": np.float32(0.1),
        "i8": np.int8(-3),
        "u64": np.uint64(2**64 - 1),
    }
    expected = (
        '{\n  "i": -7,\n  "f": 0.3333333333333333,\n  "big": 1e+300,\n  "tiny": 5e-324,\n'
        '  "ai": [\n    [\n      1,\n      2\n    ],\n    [\n      3,\n      -4\n    ]\n  ],\n'
        '  "af": [\n    [\n      0.5,\n      1e-20\n    ],\n    [\n      2.0,\n      -3.25\n'
        '    ]\n  ],\n  "nest": [\n    2,\n    {\n      "x": [\n        0.1,\n        0.2\n'
        '      ]\n    }\n  ],\n  "f32": 0.10000000149011612,\n  "i8": -3,\n'
        '  "u64": 18446744073709551615\n}\n'
    )
    assert render_json(report) == expected


def test_csv_cell_numpy_values():
    cases = [
        (np.int64(-7), "-7"),
        (np.float64(1 / 3), "0.333333333333"),
        (np.float64(2.0), "2"),
        (np.float64(1e300), "1e+300"),
        (np.float32(0.1), "0.10000000149"),
        (np.uint64(2**64 - 1), "18446744073709551615"),
        (np.array([1, 2, 3]), "[1 2 3]"),
        (np.array([[0.5, 1.0], [2.5, -3.0]]), "[[ 0.5  1. ]\n [ 2.5 -3. ]]"),
    ]
    for value, text in cases:
        assert csv_cell(value) == text, value
    rows = [{"a": np.int64(3), "b": np.float64(2 / 3)}]
    assert render_csv({"v": np.float64(0.25)}, ["a", "b"], rows) == "# v=0.25\na,b\n3,0.666666666667\n"
