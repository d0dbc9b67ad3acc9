import math

import numpy as np

from fiberflow.reports import fmt


def test_fmt_non_finite_signed_zero_and_digits():
    assert [fmt(x) for x in (math.inf, -math.inf, math.nan, -math.nan)] == ["inf", "-inf", "nan", "nan"]
    assert [fmt(x) for x in (-0.0, 0.0, np.float64(-0.0))] == ["-0", "0", "-0"]
    assert [fmt(x) for x in (3, np.int64(7), 1.0 / 3.0, -2.5e-300, np.float64(1e16))] == [
        "3",
        "7",
        "0.333333333333",
        "-2.5e-300",
        "1e+16",
    ]
