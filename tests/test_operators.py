import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calderon import operators
from calderon.families import family_rng, generate_family
from calderon.operators import (
    METHOD_FAST,
    METHOD_NAIVE,
    OperatorOutput,
    _fast_len,
    bench_hilbert,
    calderon,
    calderon_min_kernel,
    dilation_commutation_band,
    estimate_weak11_constant,
    fast_naive_agreement,
    hardy_ratio,
    hilbert,
    hilbert_symmetric,
    kernel_values,
    reflected_lower_pair,
)
from calderon.optimal_range import harmonic_calderon_closed_form
from calderon.report import PASS, RunConfig
from calderon.sequences import (
    DomainMismatchError,
    FiniteSequence,
    IndexDomain,
    add_scaled,
    decreasing_rearrangement,
    dilate,
    finite,
    power_log,
    weighted_tail_sum,
)
from calderon.spaces import weak_l1_quasinorm
from calderon.suites import TOLERANCE_FAST, run_suite

finite_values = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False, width=64),
    min_size=1,
    max_size=24,
)


def brute_calderon(vals, n):
    """(S x)(n) by direct fsum over the support: average of the first n+1
    entries plus the weighted tail sum_{k > n} x(k)/k."""
    head = math.fsum(vals[: n + 1]) / (n + 1)
    tail = math.fsum(vals[k] / k for k in range(n + 1, len(vals)))
    return head + tail


def brute_hilbert(vals, offset, n):
    """(H x)(n) by direct fsum with the 1/(pi (n - k)) kernel, k != n."""
    return math.fsum(
        v / (n - (offset + j)) for j, v in enumerate(vals) if offset + j != n
    ) / math.pi


# ---------------------------------------------------------------------------
# averaging operator S


@settings(deadline=None, max_examples=50, derandomize=True)
@given(finite_values)
def test_calderon_matches_brute_oracle(vals):
    x = finite(vals)
    out = calderon(x, 12)
    for n in range(12):
        expected = brute_calderon(list(x.dense(0, max(len(vals), 12))), n)
        assert out.value_at(n) == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert out.tail_halfwidth_per_index[n] == 0.0


@settings(deadline=None, max_examples=50, derandomize=True)
@given(finite_values)
def test_min_kernel_route_agrees_with_prefix_route(vals):
    x = finite(vals)
    a = calderon(x, 10).window_values
    b = calderon_min_kernel(x, 10).window_values
    assert np.allclose(a, b, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize(
    "x, window",
    [
        (finite(family_rng("min_kernel_blocks", 1).standard_normal(3000), offset=5), 8192),
        (power_log(1.5, 1.0, 0.37), 2100),
    ],
)
def test_min_kernel_row_blocks_agree_with_prefix_route(x, window):
    # window x K exceeds one 2^24-entry block: 2 row blocks in both cases
    a = calderon(x, window)
    b = calderon_min_kernel(x, window)
    slack = a.tail_halfwidth_per_index + b.tail_halfwidth_per_index
    assert np.all(np.abs(a.window_values - b.window_values) <= slack + 1e-12)


def test_min_kernel_beyond_size_limit_raises_before_any_work():
    # an analytic input at window 65536 needs a 65536 x 262144 kernel (2^34)
    with pytest.raises(ValueError, match="size limit"):
        calderon_min_kernel(power_log(1.0, 0.0), 1 << 16)
    # a far support needs one long row even at window 1
    with pytest.raises(ValueError, match="size limit"):
        calderon_min_kernel(finite([1.0], offset=1 << 25), 1)


def test_calderon_analytic_tail_bracket_contains_brute():
    x = power_log(1.5, 1.0)
    out = calderon(x, 8)
    big = 1 << 21
    dense = list(x.values_at(np.arange(big, dtype=np.float64)))
    for n in range(8):
        expected = brute_calderon(dense, n)
        hw = out.tail_halfwidth_per_index[n]
        # the brute sum itself is missing at most the tiny k >= 2^21 tail
        assert abs(out.window_values[n] - expected) <= hw + 1e-6


def test_calderon_harmonic_profile_closed_form():
    out = calderon(power_log(1.0, 0.0), 64)
    closed = harmonic_calderon_closed_form(np.arange(64))
    assert out.window_values == pytest.approx(closed, rel=1e-12, abs=1e-12)
    assert out.value_at(0) == pytest.approx(2.0, abs=1e-12)
    assert out.value_at(1) == pytest.approx(1.25, abs=1e-12)


def test_harmonic_closed_form_values():
    assert harmonic_calderon_closed_form(0) == 2.0
    assert harmonic_calderon_closed_form(1) == 1.25
    # (H_3 + 1) / 3
    assert harmonic_calderon_closed_form(2) == pytest.approx((11.0 / 6.0 + 1.0) / 3.0, rel=1e-15)
    with pytest.raises(ValueError):
        harmonic_calderon_closed_form(-1)


def test_calderon_rejects_line_domain():
    x = finite([1.0], offset=-1, domain=IndexDomain.LINE)
    with pytest.raises(DomainMismatchError):
        calderon(x, 4)


def test_calderon_rejects_empty_window():
    with pytest.raises(ValueError):
        calderon(finite([1.0]), 0)
    with pytest.raises(ValueError):
        calderon_min_kernel(finite([1.0]), 0)


def dense_calderon(x, window):
    """S x on [0, window) by the dense prefix-sum formula over the whole
    window, in longdouble: the formula `calderon` must equal bit for bit."""
    ld = np.asarray(x.head(window), dtype=np.longdouble)
    beyond = weighted_tail_sum(x, window - 1)
    ns = np.arange(window, dtype=np.longdouble)
    head = np.cumsum(ld) / (ns + 1.0)
    w = np.zeros(window, dtype=np.longdouble)
    w[1:] = ld[1:] / np.arange(1, window, dtype=np.longdouble)
    suffix = np.sum(w) - np.cumsum(w)
    with np.errstate(over="ignore"):
        values = (head + suffix + beyond.mid).astype(np.float64)
    return values, np.full(window, float(beyond.halfwidth))


_normals = family_rng("calderon_dense", 1).standard_normal(300)

# (x, window): supports of 0, 1 and 2 entries, offsets > 0, support = window,
# support > window, window 1, pairwise-sum lengths past 128, finite
# rearrangements, an analytic input, and values above the double range
CALDERON_SHAPES = [
    (finite(()), 1),
    (finite(()), 7),
    (finite([2.5]), 1),
    (finite([2.5]), 130),
    (finite([-1.5], offset=3), 10),
    (finite([0.7, -3.0]), 2),
    (finite([0.7, -3.0], offset=2), 9),
    (finite(_normals[:5]), 5),
    (finite(_normals[:7], offset=4), 1),
    (finite(_normals[:3], offset=20), 128),
    (finite(_normals[:130], offset=1), 257),
    (finite(_normals), 129),
    (finite(_normals, offset=9), 4097),
    (decreasing_rearrangement(finite(_normals)), 1),
    (decreasing_rearrangement(finite(_normals)), 129),
    (decreasing_rearrangement(finite(_normals)), 300),
    (decreasing_rearrangement(finite(_normals[:17])), 1 << 14),
    (power_log(1.5, 1.0, 0.37), 2100),
    (finite([1e308] * 3), 4),
]


@pytest.mark.parametrize("x, window", CALDERON_SHAPES)
def test_calderon_is_the_dense_formula_bit_for_bit(x, window):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = calderon(x, window)
    values, hw = dense_calderon(x, window)
    assert got.window_values.tobytes() == values.tobytes()
    assert got.tail_halfwidth_per_index.tobytes() == hw.tobytes()


def test_kernel_values_row():
    ks = np.arange(0, 10)
    row = kernel_values(3, ks)
    assert row[0] == 0.25  # k = 0 limit is 1/(n+1)
    assert row[1] == 0.25 and row[2] == 0.25 and row[3] == 0.25
    assert row[4] == 0.25  # min(1/4, 1/4)
    assert row[5] == 0.2
    assert np.all(np.diff(row) <= 0)


def test_verify_kernel_monotonicity_passes():
    # for each row n, k -> min(1/k, 1/(n+1)) is nonincreasing on k >= 1
    for n in (0, 1, 5, 64):
        assert np.all(np.diff(kernel_values(n, np.arange(1, 513))) <= 0)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(finite_values, finite_values)
def test_linearity_property(v1, v2):
    x1, x2 = finite(v1), finite(v2)
    lhs = calderon(add_scaled(x1, 2.5, x2, -1.25), 16).window_values
    rhs = 2.5 * calderon(x1, 16).window_values - 1.25 * calderon(x2, 16).window_values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(rhs)), 1.0)


def test_positivity_and_monotone_image():
    rng = family_rng("test-positivity", 3)
    for _ in range(20):
        x = finite(np.abs(rng.standard_normal(12)))
        out = calderon(x, 32).window_values
        assert np.all(out >= -1e-15)
        assert np.all(np.diff(out) <= 1e-12)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(finite_values)
def test_pointwise_domination_property(vals):
    # |(S x)(n)| <= (S mu(x))(n), read on the certified brackets
    x = finite(vals)
    sx = calderon(x, 32)
    smu = calderon(decreasing_rearrangement(x), 32)
    lhs = np.abs(sx.window_values) - sx.tail_halfwidth_per_index
    rhs = smu.window_values + smu.tail_halfwidth_per_index
    assert np.all(lhs - rhs <= 1e-12 * np.maximum(1.0, rhs))


def test_image_of_monotone_is_own_rearrangement():
    mu = decreasing_rearrangement(finite([4.0, 2.0, 1.0, 0.5]))
    v = calderon(decreasing_rearrangement(mu), 32).window_values
    assert np.all(np.diff(v) <= 0)
    assert np.array_equal(np.sort(v)[::-1], v)


def test_dilation_commutation_band_two_sided():
    fam = [finite(np.abs(family_rng("test-band", 5, i).standard_normal(12)))
           for i in range(10)]
    lo, hi = dilation_commutation_band(fam, (2, 4, 8), window=256)
    assert 0.2 <= lo <= hi <= 5.0


def test_dilation_commutation_not_exact():
    # mu = (1, 1), m = 2: (S sigma_2 mu)(0) = 1 + 1 + 1/2 + 1/3 != (S mu)(0) = 2
    mu = decreasing_rearrangement(finite([1.0, 1.0]))
    lhs = calderon(dilate(mu, 2), 1).value_at(0)
    rhs = calderon(mu, 1).value_at(0)
    assert lhs == pytest.approx(1.0 + 1.0 + 0.5 + 1.0 / 3.0, rel=1e-14)
    assert abs(lhs / rhs - 1.0) > 0.1


def test_hardy_constant_within_classical_bound():
    fam = generate_family("RandomSigned", 60, seed=11)
    for p in (1.5, 2.0, 3.0):
        assert 0.0 < hardy_ratio(p, fam) <= p + p / (p - 1.0)


def test_hardy_rejects_p_one():
    with pytest.raises(ValueError):
        hardy_ratio(1.0, [finite([1.0])])


# ---------------------------------------------------------------------------
# Hilbert transform H


@settings(deadline=None, max_examples=50, derandomize=True)
@given(finite_values, st.integers(min_value=-6, max_value=6))
def test_hilbert_naive_matches_brute_oracle(vals, offset):
    x = FiniteSequence(IndexDomain.LINE, offset, np.asarray(vals, dtype=np.float64))
    if x.is_zero:
        return
    out = hilbert(x, -8, 8, METHOD_NAIVE)
    for n in range(-8, 9):
        expected = brute_hilbert(x.values, x.offset, n)
        assert out.value_at(n) == pytest.approx(expected, rel=1e-11, abs=1e-11)


@settings(deadline=None, max_examples=50, derandomize=True)
@given(finite_values, st.integers(min_value=-6, max_value=6))
def test_hilbert_fast_matches_brute_oracle(vals, offset):
    x = FiniteSequence(IndexDomain.LINE, offset, np.asarray(vals, dtype=np.float64))
    if x.is_zero:
        return
    out = hilbert(x, -8, 8, METHOD_FAST)
    for n in range(-8, 9):
        expected = brute_hilbert(x.values, x.offset, n)
        assert out.value_at(n) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def dense_hilbert(vals, s0, out_lo, out_hi):
    """The naive route written out as a dense formula: row n is built on its
    own as 1/(n - k) with its diagonal zeroed, and each output is the one dot
    product of that row with vals that a full-overlap `np.convolve` takes,
    over the rescale by 2**e as in `hilbert`."""
    e = math.frexp(float(np.max(np.abs(vals))))[1]
    scaled = np.ldexp(vals, -e)
    ks = s0 + np.arange(len(vals), dtype=np.float64)
    out = np.empty(out_hi - out_lo + 1)
    for i, n in enumerate(range(out_lo, out_hi + 1)):
        with np.errstate(divide="ignore"):
            row = 1.0 / (float(n) - ks)
        row[ks == n] = 0.0
        # pairs row[j] with scaled[j], summed from the largest k down
        out[i] = np.convolve(np.ascontiguousarray(row[::-1]), scaled, mode="valid")[0]
    return np.ldexp(out / math.pi, e)


# (K, offset, out_lo, out_hi): windows across, wholly left and wholly right of
# the support, and a kernel longer than the window
NAIVE_SHAPES = [
    (1, 3, -64, 64),
    (7, -5, -20, 25),
    (7, 4, -60, -15),  # window wholly left of the support
    (7, -3, 30, 75),  # window wholly right of the support
    (10, -13, -20, 10),
    (64, 0, -5, 5),
    (100, -50, -8, 8),
]


@pytest.mark.parametrize("K, offset, out_lo, out_hi", NAIVE_SHAPES)
def test_naive_hilbert_is_the_direct_sum_within_its_rounding_bound(K, offset, out_lo, out_hi):
    # every output against its sum written out term by term: a K-term dot
    # product with rounded reciprocals errs by at most about (K + 2) u times
    # the sum of |terms| (Higham, section 4.2), and the final / pi adds a few
    # ulps of the value
    u = 2.0**-53
    vals = np.random.default_rng([K, abs(offset)]).standard_normal(K) * 3.0
    out = hilbert(FiniteSequence(IndexDomain.LINE, offset, vals), out_lo, out_hi, METHOD_NAIVE)
    for n in range(out_lo, out_hi + 1):
        terms = [v / (n - (offset + j)) for j, v in enumerate(vals) if offset + j != n]
        want = math.fsum(terms) / math.pi
        bound = ((K + 3) * math.fsum(map(abs, terms)) / math.pi + 4.0 * abs(want)) * u
        assert abs(out.value_at(n) - want) <= bound, n


@pytest.mark.parametrize("K, offset, out_lo, out_hi", NAIVE_SHAPES)
def test_naive_hilbert_is_the_dense_formula_bit_for_bit(K, offset, out_lo, out_hi):
    vals = np.random.default_rng([K, abs(offset)]).standard_normal(K) * 3.0
    got = hilbert(FiniteSequence(IndexDomain.LINE, offset, vals), out_lo, out_hi, METHOD_NAIVE)
    assert np.array_equal(got.window_values, dense_hilbert(vals, offset, out_lo, out_hi))


@pytest.mark.parametrize("K, offset, out_lo, out_hi", NAIVE_SHAPES)
def test_naive_hilbert_matches_brute_oracle_at_every_block_edge(monkeypatch, K, offset, out_lo, out_hi):
    # the naive route has no row blocks: at a 64-entry KERNEL_BLOCK it gives
    # the same bits as at the default, and every output, each edge of a
    # 64 // K row partition among them, matches the brute oracle
    vals = np.random.default_rng([K, abs(offset), 1]).standard_normal(K)
    x = FiniteSequence(IndexDomain.LINE, offset, vals)
    default = hilbert(x, out_lo, out_hi, METHOD_NAIVE)
    monkeypatch.setattr(operators, "KERNEL_BLOCK", 64)
    out = hilbert(x, out_lo, out_hi, METHOD_NAIVE)
    assert np.array_equal(out.window_values, default.window_values)
    for n in range(out_lo, out_hi + 1):
        assert out.value_at(n) == pytest.approx(brute_hilbert(vals, offset, n), rel=1e-11, abs=1e-11)


def test_hilbert_of_unit_impulse():
    e0 = FiniteSequence(IndexDomain.LINE, 0, np.array([1.0]))
    out = hilbert_symmetric(e0, 5, METHOD_NAIVE)
    assert out.value_at(0) == 0.0
    for n in (1, 2, 3, 4, 5):
        assert out.value_at(n) == pytest.approx(1.0 / (math.pi * n), rel=1e-15)
        assert out.value_at(-n) == pytest.approx(-1.0 / (math.pi * n), rel=1e-15)


def test_unit_impulse_weak_constant_is_two_over_pi():
    e0 = FiniteSequence(IndexDomain.LINE, 0, np.array([1.0]))
    h = hilbert_symmetric(e0, 64, METHOD_NAIVE)
    w = weak_l1_quasinorm(
        finite(h.window_values, offset=h.offset, domain=IndexDomain.LINE)
    ).value
    assert w == pytest.approx(2.0 / math.pi, abs=1e-12)


def test_hilbert_analytic_input_carries_certified_halfwidth():
    out = hilbert(power_log(1.5, 0.0), -4, 4, METHOD_FAST, analytic_window=1 << 12)
    assert np.all(out.tail_halfwidth_per_index > 0)
    ref = hilbert(power_log(1.5, 0.0), -4, 4, METHOD_FAST, analytic_window=1 << 14)
    # enlarging the truncation moves values by less than the certified width
    assert np.all(
        np.abs(out.window_values - ref.window_values)
        <= out.tail_halfwidth_per_index + 1e-12
    )


def test_hilbert_analytic_window_must_cover_output():
    with pytest.raises(ValueError):
        hilbert(power_log(1.5, 0.0), -100, 100, analytic_window=128)


def test_hilbert_rejects_bad_method_and_window():
    x = FiniteSequence(IndexDomain.LINE, 0, np.array([1.0]))
    with pytest.raises(ValueError):
        hilbert(x, 2, 1)
    with pytest.raises(ValueError):
        hilbert(x, 0, 1, method="magic")


def test_hilbert_method_alias_fast():
    x = FiniteSequence(IndexDomain.LINE, 0, np.array([1.0, -2.0]))
    a = hilbert(x, -3, 3, "fast").window_values
    b = hilbert(x, -3, 3, METHOD_FAST).window_values
    assert np.array_equal(a, b)


def test_fast_length_is_scipys_real_fast_length():
    # the fast route's transform length, the smallest 2^a 3^b 5^c >= n
    from scipy.fft import next_fast_len

    assert [_fast_len(n) for n in range(1, 100001)] == [next_fast_len(n, True) for n in range(1, 100001)]


def test_fast_naive_agreement_small():
    rng = family_rng("test-agreement", 2)
    x = FiniteSequence(IndexDomain.LINE, -16, rng.standard_normal(256))
    assert fast_naive_agreement(x, 256) <= 1e-9


def test_operators_suite_passes_where_hx_has_near_zeros():
    # seed 31337 puts an output of 3.8e-8 near a zero of H x; the fast route's
    # error is normwise, so the agreement case must not divide by that output
    report = run_suite("operators", RunConfig(seed=31337))
    assert report.passed, [c.name for c in report.cases if c.status != PASS]


def test_hilbert_even_cancellation_exact():
    vals = np.array([3.0, 1.0, 2.0, 1.0, 3.0])
    x = FiniteSequence(IndexDomain.LINE, -2, vals)
    # (H x)(0) vanishes for even x
    assert abs(hilbert(x, 0, 0, METHOD_NAIVE).value_at(0)) / max(x.l1(), 1.0) <= 1e-15


def test_hilbert_lower_bound_single_case():
    x = finite([4.0, 3.0, 2.0, 1.0])
    for method in (METHOD_NAIVE, METHOD_FAST):
        lhs, rhs = reflected_lower_pair(x, 64, method)
        assert lhs.shape == rhs.shape == (64,)
        assert np.all(lhs - rhs <= 1e-12 * np.maximum(1.0, rhs))
    with pytest.raises(ValueError):
        reflected_lower_pair(finite([1.0, 2.0]), 8, METHOD_NAIVE)
    with pytest.raises(DomainMismatchError):
        reflected_lower_pair(FiniteSequence(IndexDomain.LINE, 0, np.ones(3)), 8, METHOD_NAIVE)


def test_hilbert_reflected_lower_bound_brute():
    # for nonnegative nonincreasing x: (1/2pi)(S x)(n) <= |(H x)(-n)|, n >= 1
    vals = [5.0, 2.0, 1.0, 0.5, 0.25]
    x = finite(vals)
    s = calderon(x, 16)
    xl = FiniteSequence(IndexDomain.LINE, 0, np.asarray(vals))
    pair_lhs, pair_rhs = reflected_lower_pair(x, 15, METHOD_NAIVE)
    for n in range(1, 16):
        lhs = s.value_at(n) / (2.0 * math.pi)
        rhs = abs(brute_hilbert(xl.values, 0, -n))
        assert lhs <= rhs + 1e-12
        assert pair_lhs[n - 1] == lhs
        assert pair_rhs[n - 1] == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_bench_hilbert_rows():
    rows = bench_hilbert([256, 512], seed=1)
    assert [r.size for r in rows] == [256, 512]
    for r in rows:
        assert r.naive_seconds > 0 and r.fast_seconds > 0
        assert r.max_relative_deviation <= 1e-9
        assert r.speedup == r.naive_seconds / r.fast_seconds
    with pytest.raises(ValueError):
        bench_hilbert([0])


def test_weak11_estimate_stable():
    fam = generate_family("RandomSigned", 20, seed=5)
    norm = [FiniteSequence(IndexDomain.LINE, f.offset, f.values / f.l1()) for f in fam]
    est = estimate_weak11_constant(norm, window=1 << 9)
    assert 0 < est.constant < math.inf
    assert est.relative_change <= 0.25


# ---------------------------------------------------------------------------
# output container


def test_operator_output_validation_and_access():
    out = OperatorOutput(-2, np.array([1.0, 2.0]), np.array([0.0, 0.0]), METHOD_NAIVE)
    assert list(out.indices()) == [-2, -1]
    assert out.value_at(-1) == 2.0
    with pytest.raises(IndexError):
        out.value_at(0)
    with pytest.raises(ValueError):
        OperatorOutput(0, np.array([1.0]), np.array([-1.0]), METHOD_NAIVE)
    with pytest.raises(ValueError):
        OperatorOutput(0, np.array([1.0]), np.array([0.0, 0.0]), METHOD_NAIVE)
    assert not out.window_values.flags.writeable


def test_fast_hilbert_matches_naive_at_the_double_range():
    # both routes transform x / 2**1024 and rescale once: no partial sum overflows
    x = finite([1e308, -1e308, 1e308], 0, IndexDomain.LINE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        naive = hilbert_symmetric(x, 4, METHOD_NAIVE).window_values
        assert np.all(np.isfinite(naive))
        assert fast_naive_agreement(x, 4) <= TOLERANCE_FAST


def test_hilbert_of_a_scaled_input_is_the_scaled_transform_bit_for_bit():
    vals = np.random.default_rng(5).standard_normal(300)
    for method in (METHOD_NAIVE, METHOD_FAST):
        h = hilbert(FiniteSequence(IndexDomain.LINE, -40, vals), -100, 100, method).window_values
        h_big = hilbert(FiniteSequence(IndexDomain.LINE, -40, vals * 2.0 ** 900), -100, 100, method).window_values
        assert np.array_equal(h_big, h * 2.0 ** 900)


@pytest.mark.parametrize("route", [calderon, calderon_min_kernel])
def test_calderon_above_the_double_range_reads_inf_without_a_warning(route):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = route(finite([1e308] * 3), 4).window_values
    assert values[0] == math.inf and np.all(np.isfinite(values[1:]))
