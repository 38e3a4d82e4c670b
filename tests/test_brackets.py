"""Certified primitives of `brackets` against oracles written here from
their definitions alone, sharing no code with the module under test: the sup
of a power-log ratio profile against a brute-force numpy maximum, the upper
incomplete gamma function against mpmath at 40 digits, and the power-log
tail bracket against an mpmath sum of the series."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from calderon import ratio_profile_sup
from calderon.brackets import _upper_gamma, min_tail_start, powerlog_tail

DOUBLE_MIN, DOUBLE_MAX = sys.float_info.min, sys.float_info.max

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


# a whole or fractional in [1, 171], and x in (0, 745], thickest where the
# evaluation changes method: x near a - 1 and near frac(a) + 1
GAMMA_A = st.one_of(st.integers(1, 171).map(float), st.floats(1.0, 171.0))
GAMMA_X = st.floats(0.0, 745.0, exclude_min=True)


@st.composite
def _gamma_arguments(draw):
    a = draw(GAMMA_A)
    edge = draw(st.sampled_from((None, a - 1.0, a - math.floor(a) + 1.0)))
    x = draw(GAMMA_X) if edge is None else edge + draw(st.floats(-1.0, 1.0))
    assume(0.0 < x <= 745.0)
    return a, x


@settings(deadline=None, max_examples=300, derandomize=True)
@given(_gamma_arguments())
def test_upper_gamma_matches_mpmath_to_5e_14(args):
    a, x = args
    with mpmath.workdps(40):
        true = mpmath.gammainc(a, x)
        got = _upper_gamma(a, x)
        assert 0.0 <= got < math.inf
        if DOUBLE_MIN <= true <= DOUBLE_MAX:
            assert abs(got - true) <= 5e-14 * true, (a, x, got, true)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(st.floats(170.0, 200.0), st.floats(0.0, 745.0, exclude_min=True))
def test_upper_gamma_refuses_exactly_where_gamma_of_a_overflows(a, x):
    # the set the tail integral has always refused: Gamma(a) read as beyond the double range
    from scipy.special import gamma

    overflows = math.isinf(gamma(a))
    assert math.isinf(_upper_gamma(a, x)) == overflows, (a, x)
    # at alpha 4 the tail's other factors, 3**a and log(U)**(a-1), stay inside the double range
    start = min_tail_start(4.0, a - 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if overflows:
            with pytest.raises(OverflowError, match="exceeds the double range"):
                powerlog_tail(4.0, a - 1.0, start)
        else:
            assert math.isfinite(powerlog_tail(4.0, a - 1.0, start).hi)


def test_upper_gamma_refusal_edge_is_one_double():
    from scipy.special import gamma

    edge = 171.6243769563027
    below = math.nextafter(edge, 0.0)
    assert math.isinf(gamma(edge)) and math.isfinite(gamma(below))
    for x in (1e-300, 1.0, 170.0, 745.0, 1e6):
        assert math.isinf(_upper_gamma(edge, x)) and math.isfinite(_upper_gamma(below, x)), x


TAIL_N = 100  # terms summed one by one past the start before the integral takes over


def _mpmath_tail(start, alpha, beta, shift_power, harmonic_weight, weight):
    """sum_{k >= start} weight * log(k+2)**beta / (k+1)**(alpha+shift_power)
    (over k when harmonic_weight): TAIL_N terms one by one, then the
    Euler-Maclaurin formula at N = start + TAIL_N, with the integral by
    quadrature in log k and the end corrections through the third
    derivative; its remainder is of order |f^(5)(N)|, far inside the
    bracket's width, which is at least the term at the start."""

    def f(k):
        v = weight * mpmath.log(k + 2) ** beta / (k + 1) ** (alpha + shift_power)
        return v / k if harmonic_weight else v

    with mpmath.workdps(30):
        N = mpmath.mpf(start + TAIL_N)
        head = mpmath.fsum(f(mpmath.mpf(k)) for k in range(start, start + TAIL_N))
        L = mpmath.log(N)
        rest = mpmath.quad(lambda t: f(mpmath.exp(t)) * mpmath.exp(t), [L, L + 8, L + 32, L + 128, L + 512, mpmath.inf])
        ends = f(N) / 2 - mpmath.diff(f, N) / 12 + mpmath.diff(f, N, 3) / 720
        return head + rest + ends


@st.composite
def _tail_arguments(draw):
    theta = draw(st.floats(0.05, 0.95))
    shift_power = draw(st.sampled_from((0.0, 1.0, 2.0, 1.0 - theta)))
    weight = theta if shift_power == 1.0 - theta else 1.0
    harmonic_weight = draw(st.booleans())
    alpha = draw(st.floats(0.25, 4.0))
    beta = draw(st.one_of(st.just(0.0), st.floats(0.0, 6.0)))
    s = alpha + shift_power + (1.0 if harmonic_weight else 0.0)
    assume(s >= 1.1)
    # min_tail_start only picks inputs inside the bracket's stated domain
    first = min_tail_start(alpha, beta, shift_power=shift_power, harmonic_weight=harmonic_weight)
    start = first + draw(st.one_of(st.integers(0, 64), st.integers(0, 1 << 20)))
    return start, alpha, beta, shift_power, harmonic_weight, weight


@settings(deadline=None, max_examples=60, derandomize=True)
@given(_tail_arguments())
def test_powerlog_tail_bracket_contains_the_mpmath_sum(args):
    start, alpha, beta, shift_power, harmonic_weight, weight = args
    b = powerlog_tail(alpha, beta, start, shift_power=shift_power,
                      harmonic_weight=harmonic_weight, weight=weight)
    true = _mpmath_tail(*args)
    assert b.lo <= true <= b.hi, (args, b, true)


@pytest.mark.parametrize("alpha", [2.0, 100.0])
def test_powerlog_tail_past_an_overflowing_power_matches_mpmath(alpha):
    # log(U)**170 (alpha 2, log U = 85) and 99**171 (alpha 100) leave the
    # double range on the way to a finite bracket
    start = min_tail_start(alpha, 170.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = powerlog_tail(alpha, 170.0, start)
    true = _mpmath_tail(start, alpha, 170.0, 0.0, False, 1.0)
    # at alpha 2 the sum lies within 1e-50 of its integral, so only the
    # rounding of Gamma(171, 85) separates the two ends from it
    assert b.lo <= true * (1 + 5e-14) and true * (1 - 5e-14) <= b.hi, (b, true)
    with mpmath.workdps(30):
        lam = mpmath.mpf(alpha) - 1
        integral = mpmath.gammainc(171, lam * mpmath.log(start + 1)) / lam ** 171
    assert b.lo == pytest.approx(float(integral), rel=5e-14, abs=0.0)


@pytest.mark.parametrize("alpha", [1.01, 1.5])
def test_powerlog_tail_refuses_an_integral_beyond_the_double_range(alpha):
    # (s-1)**-(beta+1) = 0.01**-171 or 2**171 lifts I = Gamma(171, .)/(s-1)**171 past it
    start = min_tail_start(alpha, 170.0)
    with mpmath.workdps(30):
        lam = mpmath.mpf(alpha) - 1
        assert mpmath.gammainc(171, lam * mpmath.log(start + 1)) / lam ** 171 > DOUBLE_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="exceeds the double range"):
            powerlog_tail(alpha, 170.0, start)
