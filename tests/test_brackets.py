"""The certified sup of a power-log ratio profile against a brute-force
numpy maximum.  The oracle is written here from the profile's definition
alone: it shares no code with the module under test."""

import math

import numpy as np
import pytest

from calderon import ratio_profile_sup

ORACLE_STOP = 10**6
A_GRID = (0.05, 0.2, 0.5, 1.0, 1.7, 3.0)
B_GRID = (0.25, 0.75, 2.0, 3.0, 4.5, 6.0)
RATIO_CASES = [(a, b) for a in A_GRID for b in B_GRID if b / a <= 15.0]


@pytest.mark.parametrize("a, b", RATIO_CASES)
def test_ratio_profile_sup_is_the_brute_force_max(a, b):
    # log(t+2)**b (t+1)**-a over the integers t in [start, 10**6)
    t = np.arange(ORACLE_STOP, dtype=np.float64)
    profile = np.log(t + 2.0) ** b / (t + 1.0) ** a
    peak_inside = math.exp(b / a) < ORACLE_STOP - 1  # the real peak lies below exp(b/a) - 2
    for start in (0, 16, 1000):
        brute = float(np.max(profile[start:]))
        sup = ratio_profile_sup(a, b, start)
        assert sup >= brute * (1.0 - 1e-14), (start, sup, brute)
        if peak_inside:
            assert sup <= brute * (1.0 + 1e-14), (start, sup, brute)
