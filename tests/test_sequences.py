import functools
import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calderon.brackets import powerlog_profile, powerlog_tail
from calderon.operators import calderon
from calderon.optimal_range import harmonic_calderon_closed_form
from calderon.sequences import (
    EULER_GAMMA,
    _harmonic_table,
    DomainMismatchError,
    FiniteSequence,
    HeadResolutionError,
    IndexDomain,
    PowerLogSequence,
    Rearrangement,
    ZERO_TAIL,
    add_scaled,
    decreasing_rearrangement,
    dilate,
    finite,
    harmonic_number,
    harmonic_numbers,
    materialize,
    power_log,
    sequence_from_json,
    sequence_to_json,
    weighted_tail_sum,
    zero,
)

finite_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=0,
    max_size=40,
)


# ---------------------------------------------------------------------------
# construction


def test_finite_trims_leading_and_trailing_zeros():
    x = finite([0.0, 0.0, 3.0, 0.0, -1.0, 0.0])
    assert x.offset == 2
    assert list(x.values) == [3.0, 0.0, -1.0]
    assert x.end == 5


def test_finite_zero_sequence_is_canonical():
    x = finite([0.0, 0.0])
    assert x.is_zero
    assert len(x.values) == 0


def test_value_at_inside_and_outside_support():
    x = finite([1.0, 2.0], offset=3)
    assert x.value_at(3) == 1.0
    assert x.value_at(4) == 2.0
    assert x.value_at(2) == 0.0
    assert x.value_at(99) == 0.0


def test_power_log_validation():
    with pytest.raises(ValueError):
        power_log(0.0, 0.0)
    with pytest.raises(ValueError):
        power_log(1.0, -1.0)


def test_power_log_values():
    x = power_log(1.0, 0.0)
    assert x.value_at(0) == 1.0
    assert x.value_at(9) == 0.1
    y = power_log(2.0, 1.0, scale=3.0)
    k = 7.0
    assert y.value_at(7) == pytest.approx(3.0 * math.log(k + 2) / (k + 1) ** 2, rel=1e-15)


# ---------------------------------------------------------------------------
# rearrangement


def test_rearrangement_finite_sorts_absolute_values():
    x = finite([3.0, -1.0, 0.5, 2.0, 0.0, -0.25])
    mu = decreasing_rearrangement(x)
    assert list(mu.values) == [3.0, 2.0, 1.0, 0.5, 0.25]
    assert mu.tail == ZERO_TAIL


def test_rearrangement_of_rearrangement_is_identity():
    x = finite([3.0, -1.0, 0.5])
    mu = decreasing_rearrangement(x)
    assert decreasing_rearrangement(mu).equals(mu)


def test_rearrangement_powerlog_monotone_profile_is_itself():
    # alpha=1, beta=0 is already nonincreasing: head must equal the profile
    mu = decreasing_rearrangement(power_log(1.0, 0.0))
    n = len(mu.values)
    assert np.array_equal(mu.values, power_log(1.0, 0.0).head(n))
    assert mu.tail == power_log(1.0, 0.0)
    assert mu.value_at(10**6) == power_log(1.0, 0.0).value_at(10**6)


def test_rearrangement_powerlog_bump_against_brute_force():
    # log^3(t+2)/(t+1)^0.8 rises before settling: brute-sort a huge window
    x = power_log(0.8, 3.0)
    mu = decreasing_rearrangement(x)
    n_check = 2048
    brute_window = 3_000_000
    brute = np.sort(x.values_at(np.arange(brute_window, dtype=np.float64)))[::-1]
    assert np.array_equal(mu.head(n_check), brute[:n_check])


def test_rearrangement_head_extension_uses_tail_profile():
    mu = decreasing_rearrangement(power_log(2.0, 0.0))
    n = len(mu.values)
    h = mu.head(n + 5)
    k = float(n + 2)
    assert h[n + 2] == pytest.approx(1.0 / (k + 1.0) ** 2, rel=1e-15)


def test_rearrangement_rejects_increasing_head():
    with pytest.raises(ValueError):
        Rearrangement(np.array([1.0, 2.0]), ZERO_TAIL)


def test_rearrangement_rejects_tail_above_head_edge():
    with pytest.raises(ValueError):
        Rearrangement(np.array([0.001]), power_log(1.0, 0.0, 1.0))


def test_every_rearrangement_tail_is_a_power_log_profile_at_scale_at_least_zero():
    for scale in (-1.0, -1e-300):
        with pytest.raises(ValueError, match="tail scale must be nonnegative"):
            Rearrangement(np.array([2.0]), power_log(1.0, 0.0, scale))
        with pytest.raises(ValueError, match="tail scale must be nonnegative"):
            Rearrangement(np.empty(0), power_log(2.0, 1.0, scale))
    tails = [decreasing_rearrangement(x).tail for x in
             (finite([3.0, -1.0]), zero(), power_log(1.5, 2.0, -0.37), power_log(1.0, 0.0, 0.0))]
    tails.append(dilate(decreasing_rearrangement(finite([2.0, 1.0])), 3).tail)
    assert tails[0] == tails[1] == tails[3] == tails[4] == ZERO_TAIL == Rearrangement(np.empty(0)).tail
    assert tails[2] == power_log(1.5, 2.0, 0.37)
    assert all(type(t) is PowerLogSequence and t.scale >= 0 for t in tails)


def test_finite_mu_is_read_past_its_support_without_a_profile(monkeypatch):
    from calderon import sequences

    calls = []

    def spy(*args):
        calls.append(args)
        return powerlog_profile(*args)

    monkeypatch.setattr(sequences, "powerlog_profile", spy)
    mu = decreasing_rearrangement(finite([0.5, -3.0, 2.0]))
    assert mu.tail is ZERO_TAIL
    assert mu.head(6).tolist() == [3.0, 2.0, 0.5, 0.0, 0.0, 0.0]
    assert Rearrangement(np.empty(0)).head(4).tolist() == [0.0] * 4
    assert np.array_equal(calderon(mu, 4096).window_values, calderon(finite(mu.values), 4096).window_values)
    assert calls == []


def _abs_profile(alpha, beta, scale, n):
    # |x| on [0, n), written from the profile's definition alone
    k = np.arange(n, dtype=np.float64)
    return np.abs(scale * np.log(k + 2.0) ** beta / (k + 1.0) ** alpha)


PEAK_CASES = [(a, q) for a in (0.2, 0.5, 1.0, 2.0, 3.0) for q in (0.5, 0.7, 1.0, 2.0, 3.5, 5.0, 7.0, 9.5, 12.0)]


@pytest.mark.parametrize("alpha, ratio", PEAK_CASES)
def test_peak_index_is_the_first_argmax_of_the_scanned_profile(alpha, ratio):
    # the real peak lies below e^(beta/alpha) - 2, so the scan covers it
    n = math.ceil(math.exp(ratio)) + 2
    for scale in (1.0, -0.37, 3e200, -2.5e-300):
        expected = int(np.argmax(_abs_profile(alpha, alpha * ratio, scale, n)))
        assert power_log(alpha, alpha * ratio, scale).peak_index == expected, scale


SETTLE_CASES = [(a, q) for a in (0.5, 1.0, 2.0) for q in (0.5, 1.0, 2.0, 3.0, 4.0)]


@pytest.mark.parametrize("alpha, ratio", SETTLE_CASES)
@pytest.mark.parametrize("scale", [1.0, -0.37])
def test_power_log_head_is_the_brute_force_sort_up_to_its_settle_index(alpha, ratio, scale):
    # the settle index is the first index past the peak where |x| <= |x(0)|
    v = _abs_profile(alpha, alpha * ratio, scale, 1 << 17)
    peak = int(np.argmax(v))
    past = np.nonzero(v[peak + 1:] <= v[0])[0]
    assert past.size
    settle = 0 if peak == 0 else peak + 1 + int(past[0])
    expected = np.sort(v[:max(settle, 8)])[::-1]
    assert np.array_equal(decreasing_rearrangement(power_log(alpha, alpha * ratio, scale)).values, expected)


def test_head_resolution_error_when_settle_point_unreachable():
    # tiny alpha with huge beta peaks astronomically late
    with pytest.raises(HeadResolutionError):
        decreasing_rearrangement(power_log(0.05, 6.0))


@settings(deadline=None, max_examples=60, derandomize=True)
@given(finite_values)
def test_mu_idempotent_property(vals):
    mu = decreasing_rearrangement(finite(vals))
    assert decreasing_rearrangement(mu).equals(mu)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(finite_values, st.randoms(use_true_random=False))
def test_mu_permutation_invariant_property(vals, rnd):
    perm = list(range(len(vals)))
    rnd.shuffle(perm)
    a = decreasing_rearrangement(finite(vals))
    b = decreasing_rearrangement(finite([vals[i] for i in perm]))
    assert a.equals(b)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(finite_values, st.floats(min_value=-8, max_value=8, allow_nan=False))
def test_mu_absolute_homogeneity_property(vals, c):
    n = len(vals) + 1
    lhs = decreasing_rearrangement(finite(np.asarray(vals) * c)).head(n)
    rhs = abs(c) * decreasing_rearrangement(finite(vals)).head(n)
    assert np.array_equal(lhs, rhs)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(finite_values, finite_values)
def test_mu_two_term_subadditivity_property(v1, v2):
    x1, x2 = finite(v1), finite(v2)
    s = add_scaled(x1, 1.0, x2, 1.0)
    n = max(len(v1), len(v2)) + 2
    lhs = decreasing_rearrangement(s).head(n)
    rhs = dilate(decreasing_rearrangement(x1), 2).head(n) + dilate(
        decreasing_rearrangement(x2), 2
    ).head(n)
    assert np.all(lhs <= rhs + 1e-9 * (1 + np.abs(rhs)))


# ---------------------------------------------------------------------------
# dilation


def test_dilation_repeats_each_entry():
    mu = decreasing_rearrangement(finite([3.0, 1.0]))
    d = dilate(mu, 3)
    assert list(d.values) == [3.0, 3.0, 3.0, 1.0, 1.0, 1.0]


def test_dilation_composition():
    mu = decreasing_rearrangement(finite([5.0, 2.0, 1.0]))
    assert dilate(dilate(mu, 2), 3).equals(dilate(mu, 6))


def test_dilation_of_analytic_tail_requires_materialization():
    with pytest.raises(DomainMismatchError):
        dilate(decreasing_rearrangement(power_log(1.0, 0.0)), 2)


def test_dilation_validates_factor():
    with pytest.raises(ValueError):
        dilate(finite([1.0]), 0)


# ---------------------------------------------------------------------------
# linear combination


def test_add_scaled_finite_grids_align():
    x1 = finite([1.0, 2.0])
    x2 = finite([10.0], offset=1)
    s = add_scaled(x1, 2.0, x2, -1.0)
    assert s.value_at(0) == 2.0
    assert s.value_at(1) == -6.0
    assert s.value_at(2) == 0.0


def test_add_scaled_same_shape_analytic():
    s = add_scaled(power_log(1.5, 1.0, 2.0), 1.0, power_log(1.5, 1.0, 1.0), 3.0)
    assert isinstance(s, PowerLogSequence)
    assert s.scale == 5.0


def test_add_scaled_mixed_shapes_rejected():
    with pytest.raises(DomainMismatchError):
        add_scaled(power_log(1.0, 0.0), 1.0, power_log(2.0, 0.0), 1.0)
    with pytest.raises(DomainMismatchError):
        add_scaled(power_log(1.0, 0.0), 1.0, finite([1.0]), 1.0)


def test_add_scaled_domain_mismatch_rejected():
    line = finite([1.0], offset=-1, domain=IndexDomain.LINE)
    half = finite([1.0])
    with pytest.raises(DomainMismatchError):
        add_scaled(line, 1.0, half, 1.0)


def test_materialize_analytic_window():
    m = materialize(power_log(1.0, 0.0), 4)
    assert list(m.values) == [1.0, 0.5, 1.0 / 3.0, 0.25]
    assert m.domain is IndexDomain.HALF_LINE


# ---------------------------------------------------------------------------
# weighted tails


def test_weighted_tail_finite_exact():
    x = finite([4.0, 3.0, 2.0, 1.0])
    b = weighted_tail_sum(x, 1)
    assert b.halfwidth == 0.0
    assert b.mid == pytest.approx(2.0 / 2.0 + 1.0 / 3.0, rel=1e-15)


def test_weighted_tail_harmonic_telescopes_exactly():
    # sum_{k>n} 1/(k(k+1)) = 1/(n+1)
    for n in (0, 1, 7, 100):
        b = weighted_tail_sum(power_log(1.0, 0.0), n)
        assert b.halfwidth == 0.0
        assert b.mid == pytest.approx(1.0 / (n + 1), rel=1e-15)


@pytest.mark.parametrize("alpha,beta", [(1.5, 0.0), (2.0, 1.0), (1.25, 2.0), (1.0, 1.0)])
def test_weighted_tail_bracket_contains_brute(alpha, beta):
    x = power_log(alpha, beta)
    n = 63
    b = weighted_tail_sum(x, n)
    ks = np.arange(n + 1, 1 << 22, dtype=np.float64)
    brute = float(np.sum(x.values_at(ks) / ks))
    rem = weighted_tail_sum(x, (1 << 22) - 1)
    # the certified bracket must overlap brute + certified remainder
    assert max(b.lo, brute + rem.lo) <= min(b.hi, brute + rem.hi) + 1e-12


def test_weighted_tail_rearrangement_combines_head_and_profile():
    mu = decreasing_rearrangement(power_log(1.5, 0.0))
    n = 10
    b = weighted_tail_sum(mu, n)
    ks = np.arange(n + 1, 1 << 22, dtype=np.int64)
    brute = float(np.sum(np.array([mu.value_at(int(k)) for k in ks[:4096]]) / ks[:4096]))
    brute += float(np.sum(mu.tail.values_at(ks[4096:].astype(np.float64)) / ks[4096:]))
    rem = weighted_tail_sum(mu, (1 << 22) - 1)
    assert max(b.lo, brute + rem.lo) <= min(b.hi, brute + rem.hi) + 1e-12


@pytest.mark.parametrize("alpha,beta,scale,n", [(1.0, 2.0, 1.0, 5), (3.0, 2.0, 0.37, 5), (2.5, 0.5, 0.37, 0)])
def test_weighted_tail_rearrangement_with_head_past_n_contains_brute(alpha, beta, scale, n):
    # the stored head reaches past n, so the explicit sum starts inside it
    mu = decreasing_rearrangement(power_log(alpha, beta, scale))
    assert len(mu.values) > n + 1
    b = weighted_tail_sum(mu, n)
    K = 1 << 22
    ks = np.arange(n + 1, K, dtype=np.float64)
    brute = float(np.sum(np.asarray(mu.head(K)[n + 1:], dtype=np.longdouble) / ks))
    rem = weighted_tail_sum(mu, K - 1)
    assert max(b.lo, brute + rem.lo) <= min(b.hi, brute + rem.hi) * (1 + 1e-15)


# ---------------------------------------------------------------------------
# harmonic numbers


def test_harmonic_numbers_match_fsum():
    hs = harmonic_numbers(5000)
    for m in (1, 2, 100, 4096, 4999):
        exact = math.fsum(1.0 / j for j in range(1, m + 1))
        assert hs[m - 1] == pytest.approx(exact, abs=1e-13)


@functools.cache
def _reference_harmonic_table() -> tuple:
    terms = (Fraction(1.0 / j) for j in range(1, 4097))
    return tuple(float(h) for h in itertools.accumulate(terms, initial=Fraction(0)))


def test_harmonic_table_is_the_exact_fraction_sums_bitwise():
    # the fixed-point integer sums in units of 2^-80 round once, like Fraction
    table = _harmonic_table()
    assert table.shape == (4097,)
    assert table.tobytes() == np.array(_reference_harmonic_table()).tobytes()


def _reference_harmonic(m: int) -> float:
    """H_m by the scalar formula, written out here: the exact sums of the
    doubles 1/j up to 4096, the asymptotic expansion with math.log beyond."""
    if m <= 4096:
        return _reference_harmonic_table()[m]
    fm = float(m)
    return (math.log(fm) + 0.5772156649015328606065120900824024 + 1.0 / (2.0 * fm)
            - 1.0 / (12.0 * fm ** 2) + 1.0 / (120.0 * fm ** 4))


def test_harmonic_numbers_equal_harmonic_number_bitwise():
    # both read one formula; it must reproduce the scalar reference bit for bit
    count = 1 << 20
    reference = np.array([_reference_harmonic(m) for m in range(1, count + 1)])
    hs = harmonic_numbers(count)
    assert hs.tobytes() == reference.tobytes()
    for m in (0, 1, 4096, 4097, 65536, count, 10**7):
        assert harmonic_number(m) == _reference_harmonic(m), m
    assert harmonic_number(np.arange(1, 4098)).tobytes() == reference[:4097].tobytes()


def test_harmonic_image_array_equals_the_reference_closed_form_bitwise():
    n = np.arange(1 << 16)
    reference = np.array([(_reference_harmonic(k + 1) + 1.0) / (k + 1.0) for k in range(1 << 16)])
    assert harmonic_calderon_closed_form(n).tobytes() == reference.tobytes()
    assert harmonic_calderon_closed_form(70000) == (_reference_harmonic(70001) + 1.0) / 70001.0
    with pytest.raises(ValueError):
        harmonic_calderon_closed_form(np.array([3, -1]))


def test_harmonic_number_equals_fsum_up_to_4096():
    for m in range(4097):
        exact = math.fsum(1.0 / j for j in range(1, m + 1))
        assert harmonic_number(m) == exact, m


def test_harmonic_number_asymptotic_branch_continuous():
    a = harmonic_number(4096)
    b = harmonic_number(4097)
    assert 0 < b - a < 1.0 / 4096
    big = harmonic_number(10**7)
    assert big == pytest.approx(math.log(10**7) + EULER_GAMMA, abs=1e-7)


# ---------------------------------------------------------------------------
# JSON wire format


def test_sequence_json_round_trip_finite():
    x = finite([1.5, -2.0], offset=3, domain=IndexDomain.LINE)
    d = sequence_to_json(x)
    y = sequence_from_json(json.loads(json.dumps(d)))
    assert isinstance(y, FiniteSequence)
    assert y.offset == 3 and list(y.values) == [1.5, -2.0] and y.domain is IndexDomain.LINE


def test_sequence_json_round_trip_power_log():
    x = power_log(1.5, 2.0, scale=0.5)
    y = sequence_from_json(sequence_to_json(x))
    assert isinstance(y, PowerLogSequence)
    assert (y.alpha, y.beta, y.scale) == (1.5, 2.0, 0.5)


def test_sequence_json_scale_omitted_when_one():
    assert "scale" not in sequence_to_json(power_log(1.0, 0.0))


def test_sequence_json_rejects_unknown_fields():
    with pytest.raises(ValueError):
        sequence_from_json({"kind": "finite", "domain": "half_line", "offset": 0,
                            "values": [1.0], "extra": 1})
    with pytest.raises(ValueError):
        sequence_from_json({"kind": "power_log", "alpha": 1.0})
    with pytest.raises(ValueError):
        sequence_from_json({"kind": "mystery"})


def test_powerlog_profile_split_scale_matches_direct_formula():
    # at scales from 2**512 up the profile is formed at the mantissa and
    # rescaled by a power of two: no bit moves where the direct formula is finite
    rng = np.random.default_rng(11)
    for _ in range(300):
        alpha, beta = rng.uniform(0.0, 3.0), rng.uniform(0.0, 40.0)
        scale = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(512 * math.log10(2.0), 308.0))
        k = np.floor(10.0 ** rng.uniform(0.0, 7.0, 32))
        with np.errstate(over="ignore"):
            direct = scale * np.log(k + 2.0) ** beta / (k + 1.0) ** alpha
            got = powerlog_profile(k, alpha, beta, scale)
        finite_direct = np.isfinite(direct)
        assert np.array_equal(got[finite_direct], direct[finite_direct])


@pytest.mark.parametrize("alpha, beta", [(1e300, 1e300), (1e6, 4e6)])
def test_powerlog_profile_without_a_value_raises_overflow_and_never_warns(alpha, beta):
    # log(k+2)**beta and (k+1)**alpha both overflow: inf / inf is no value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            power_log(alpha, beta).values_at(np.arange(4.0))
        with pytest.raises(OverflowError):
            decreasing_rearrangement(power_log(alpha, beta))


def test_powerlog_profile_whose_power_overflows_reads_zero_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = power_log(1e6, 1.0).values_at(np.arange(5.0))
        mu = decreasing_rearrangement(power_log(1e6, 1.0))
    assert v.tolist() == [math.log(2.0), 0.0, 0.0, 0.0, 0.0]
    assert mu.head(4).tolist() == [math.log(2.0), 0.0, 0.0, 0.0]


def test_tail_integral_beyond_the_double_range_raises_overflow_and_never_warns():
    # Gamma(201) overflows while the incomplete ratio underflows to 0: 0 * inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="exceeds the double range"):
            powerlog_tail(1e4, 200.0, 1)


def test_powerlog_profile_near_the_double_range_has_no_intermediate_overflow():
    # 1e308 * log(k+2) overflows for k >= 1, the profile value does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = power_log(1.5, 1.0, 1e308).values_at(np.arange(1.0, 100.0))
    assert np.all(np.isfinite(v))
    assert v[-1] == pytest.approx(1e308 * (math.log(101.0) / 100.0 ** 1.5), rel=1e-14)
