import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import zeta

from calderon import brackets, optimal_range, sequences, spaces
from calderon.brackets import TAIL_CAP, TAIL_TOL, DivergentTailError, explicit_sum, stored_profile
from calderon.families import POWER_LOG_GRID
from calderon.operators import calderon
from calderon.optimal_range import GENERATORS, MembershipResult, f_norm_upper, weak_l1_membership
from calderon.sequences import (
    Rearrangement, decreasing_rearrangement, finite, power_log, weighted_tail_sum,
)
from calderon.spaces import (
    LLOG,
    LOG1P,
    M1INF,
    SUM_SPACE,
    WEAK_L1,
    PhiTemplate,
    SpaceSpec,
    axiom_check,
    llog_norm,
    lorentz_phi_norm,
    lp_norm,
    lp_space,
    marcinkiewicz_norm,
    space_norm,
    space_spec_from_json,
    space_spec_to_json,
    sum_space_quasinorm,
    weak_l1_quasinorm,
)

finite_values = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64),
    min_size=1,
    max_size=30,
)

ALL_SPACES = (
    lp_space(1.5),
    lp_space(2.0),
    lp_space(3.0),
    WEAK_L1,
    LLOG,
    SpaceSpec("lorentz_phi", phi=LOG1P),
    SpaceSpec("lorentz_phi", phi=PhiTemplate("power", 0.5)),
    M1INF,
    SUM_SPACE,
)


def _mu_vals(vals):
    return np.sort(np.abs(np.asarray(vals, dtype=np.float64)))[::-1]


# ---------------------------------------------------------------------------
# finite-support values against dense numpy oracles


@settings(deadline=None, max_examples=50, derandomize=True)
@given(finite_values, st.sampled_from([1.0, 1.5, 2.0, 3.0]))
@example([1.8933327381315067e-227], 1.5)
def test_lp_norm_matches_dense_oracle(vals, p):
    # the dense sum at an exact power-of-two scale, so that tiny values such
    # as 1.9e-227 (whose 1.5th power underflows) keep their norm
    mag = np.abs(np.asarray(vals))
    e = math.frexp(float(mag.max()))[1]
    expected = math.ldexp(float(np.sum(np.ldexp(mag, -e) ** p) ** (1.0 / p)), e)
    got = lp_norm(finite(vals), p)
    assert got.tail_halfwidth == 0.0
    assert got.value == pytest.approx(expected, rel=1e-12, abs=1e-300)


@settings(deadline=None, max_examples=50, derandomize=True)
@given(finite_values)
def test_weak_l1_matches_dense_oracle(vals):
    mu = _mu_vals(vals)
    expected = float(np.max((np.arange(len(mu)) + 1.0) * mu))
    got = weak_l1_quasinorm(finite(vals))
    assert got.value == expected


@settings(deadline=None, max_examples=50, derandomize=True)
@given(finite_values)
def test_llog_matches_dense_oracle(vals):
    mu = _mu_vals(vals)
    expected = float(np.sum(mu / (np.arange(len(mu)) + 1.0)))
    got = llog_norm(finite(vals))
    assert got.value == pytest.approx(expected, rel=1e-12, abs=1e-300)


@settings(deadline=None, max_examples=50, derandomize=True)
@given(finite_values)
def test_lorentz_log1p_matches_dense_oracle(vals):
    mu = _mu_vals(vals)
    ns = np.arange(len(mu), dtype=np.float64)
    expected = float(np.sum(mu * (np.log(ns + 2.0) - np.log(ns + 1.0))))
    got = lorentz_phi_norm(finite(vals), LOG1P)
    assert got.value == pytest.approx(expected, rel=1e-12, abs=1e-300)


@settings(deadline=None, max_examples=50, derandomize=True)
@given(finite_values)
def test_lorentz_power_half_matches_dense_oracle(vals):
    mu = _mu_vals(vals)
    ns = np.arange(len(mu), dtype=np.float64)
    expected = float(np.sum(mu * (np.sqrt(ns + 1.0) - np.sqrt(ns))))
    got = lorentz_phi_norm(finite(vals), PhiTemplate("power", 0.5))
    assert got.value == pytest.approx(expected, rel=1e-12, abs=1e-300)


@settings(deadline=None, max_examples=50, derandomize=True)
@given(finite_values)
def test_marcinkiewicz_matches_dense_oracle(vals):
    mu = _mu_vals(vals)
    csums = np.cumsum(mu)
    expected = float(np.max(csums / np.log(np.arange(len(mu)) + 2.0)))
    got = marcinkiewicz_norm(finite(vals))
    assert got.value == pytest.approx(expected, rel=1e-12, abs=1e-300)


@settings(deadline=None, max_examples=50, derandomize=True)
@given(finite_values)
def test_sum_space_equals_sup_norm(vals):
    # |y|_sup <= |y|_weak, so every split costs at least mu(0); x1 = 0 attains it
    expected = float(np.max(np.abs(np.asarray(vals))))
    got = sum_space_quasinorm(finite(vals))
    assert got.value == expected
    assert got.tail_halfwidth == 0.0


@settings(deadline=None, max_examples=100, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64),
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_sum_space_below_every_split(pairs):
    # brute-force oracle for the infimum: any split x = x1 + x2, not only a
    # truncation at some height, scores at least the returned value
    a, b = (np.array(col) for col in zip(*pairs))
    score = weak_l1_quasinorm(finite(a)).value + float(np.max(np.abs(b)))
    assert score >= sum_space_quasinorm(finite(a + b)).value


@pytest.mark.parametrize("alpha, beta", POWER_LOG_GRID)
@pytest.mark.parametrize("scale", [1.0, 0.37, 2.5])
def test_sum_space_of_power_log_is_mu0_exactly(alpha, beta, scale):
    x = power_log(alpha, beta, scale)
    got = sum_space_quasinorm(x)
    assert got.value == decreasing_rearrangement(x).value_at(0)
    assert got.value == float(np.max(np.abs(x.head(4096))))
    assert got.tail_halfwidth == 0.0


def test_lorentz_linear_phi_equals_l1():
    vals = [3.0, -1.0, 0.25, 2.0, -0.5]
    a = lorentz_phi_norm(finite(vals), PhiTemplate("power", 1.0)).value
    b = lp_norm(finite(vals), 1.0).value
    assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# analytic tails against closed forms (zeta oracle is independent of the
# package's bracket machinery)


def test_lp2_of_harmonic_profile_is_sqrt_zeta2():
    got = lp_norm(power_log(1.0, 0.0), 2.0)
    expected = math.sqrt(float(zeta(2.0)))
    assert abs(got.value - expected) <= got.tail_halfwidth + 1e-12
    assert got.tail_halfwidth < 1e-8


def test_lp3_of_harmonic_profile_is_cbrt_zeta3():
    got = lp_norm(power_log(1.0, 0.0), 3.0)
    expected = float(zeta(3.0)) ** (1.0 / 3.0)
    assert abs(got.value - expected) <= got.tail_halfwidth + 1e-12


def test_llog_of_alpha2_profile_is_zeta3():
    got = llog_norm(power_log(2.0, 0.0))
    assert abs(got.value - float(zeta(3.0))) <= got.tail_halfwidth + 1e-12


def test_llog_of_harmonic_profile_is_zeta2():
    got = llog_norm(power_log(1.0, 0.0))
    assert abs(got.value - float(zeta(2.0))) <= got.tail_halfwidth + 1e-12


def test_weak_l1_of_harmonic_profile_is_one():
    got = weak_l1_quasinorm(power_log(1.0, 0.0))
    assert got.value == 1.0
    assert got.tail_halfwidth == 0.0


def test_weak_l1_scales_with_profile_scale():
    got = weak_l1_quasinorm(power_log(1.0, 0.0, scale=3.5))
    assert got.value == pytest.approx(3.5, rel=1e-15)


VERDICT_GRID = [(a, b) for a in (0.5, 0.9, 1.0, 1.1, 2.0) for b in (0.0, 0.5, 1.0, 1.5, 2.0) if b / a <= 4.0]


@pytest.mark.parametrize("alpha, beta", VERDICT_GRID)
def test_sup_verdicts_follow_the_closed_form_rules(alpha, beta):
    # sup (n+1) mu(n) and the m1inf sup are infinite iff alpha < 1 or
    # (alpha = 1, beta > 0); c_a, with one more log, iff alpha < 1 or (alpha = 1, beta > 1)
    x = power_log(alpha, beta, -0.37)
    grows = alpha < 1.0 or (alpha == 1.0 and beta > 0.0)
    assert weak_l1_quasinorm(x).is_infinite is grows
    assert marcinkiewicz_norm(x).is_infinite is grows
    assert math.isinf(weak_l1_membership(x).c_a) is (alpha < 1.0 or (alpha == 1.0 and beta > 1.0))


def test_divergent_sups_are_decided_before_any_head_is_built(monkeypatch):
    def no_head(x):
        raise AssertionError("a head was built")

    monkeypatch.setattr(spaces, "decreasing_rearrangement", no_head)
    monkeypatch.setattr(optimal_range, "decreasing_rearrangement", no_head)
    x = power_log(0.5, 5.0)  # its head never settles under the cap
    assert weak_l1_quasinorm(x).is_infinite and marcinkiewicz_norm(x).is_infinite
    assert weak_l1_membership(x) == MembershipResult(False, math.inf)
    mu = Rearrangement(np.array([2.0]), power_log(1.0, 0.5, 1.0))
    assert weak_l1_quasinorm(mu).is_infinite and marcinkiewicz_norm(mu).is_infinite


def test_marcinkiewicz_of_harmonic_profile_attains_inv_log2():
    # partial sums H_{n+1}; the ratio H_{n+1}/log(n+2) is largest at n = 0
    got = marcinkiewicz_norm(power_log(1.0, 0.0))
    assert got.value == pytest.approx(1.0 / math.log(2.0), rel=1e-13)
    assert got.tail_halfwidth == 0.0


def test_lorentz_log1p_bracket_contains_brute_sum():
    x = power_log(1.0, 0.0)
    got = lorentz_phi_norm(x, LOG1P)
    ns = np.arange(0, 1 << 22, dtype=np.float64)
    brute = float(np.sum(x.values_at(ns) * (np.log(ns + 2.0) - np.log(ns + 1.0))))
    # remaining tail is below sum_{n >= N} 1/(n+1)^2 <= 1/N
    rem_hi = 1.0 / float(1 << 22)
    assert got.value - got.tail_halfwidth <= brute + rem_hi + 1e-12
    assert brute <= got.value + got.tail_halfwidth + 1e-12


def test_lorentz_power_half_bracket_contains_brute_sum():
    x = power_log(1.5, 0.0)
    got = lorentz_phi_norm(x, PhiTemplate("power", 0.5))
    ns = np.arange(0, 1 << 22, dtype=np.float64)
    brute = float(np.sum(x.values_at(ns) * (np.sqrt(ns + 1.0) - np.sqrt(ns))))
    rem_hi = 0.5 / (float(1 << 22) - 1.0)
    assert got.value - got.tail_halfwidth <= brute + rem_hi + 1e-12
    assert brute <= got.value + got.tail_halfwidth + 1e-12


# ---------------------------------------------------------------------------
# power-log tails with beta > 0 and scale != 1 against an oracle that shares
# nothing with the package: an explicit sum over k < 2^22 plus the integral
# test for the decreasing remainder, int_N^inf f <= sum_{k>=N} f(k) <= f(N) + int_N^inf f


ORACLE_N = 1 << 22


def _profile(alpha, beta, scale, u, xp):
    return scale * xp.log(u + 2) ** beta / (u + 1) ** alpha


# (name, norm(x), summand of the series in terms of x(u) and u, outer power)
CONTAINMENT_CASES = [
    ("lp1.5", lambda x: lp_norm(x, 1.5), lambda v, u, xp: v ** 1.5, 1.5),
    ("lp2", lambda x: lp_norm(x, 2.0), lambda v, u, xp: v ** 2, 2.0),
    ("lp3", lambda x: lp_norm(x, 3.0), lambda v, u, xp: v ** 3, 3.0),
    ("llog", llog_norm, lambda v, u, xp: v / (u + 1), 1.0),
    ("log1p", lambda x: lorentz_phi_norm(x, LOG1P), lambda v, u, xp: v * xp.log1p(1 / (u + 1)), 1.0),
    ("power0.5", lambda x: lorentz_phi_norm(x, PhiTemplate("power", 0.5)),
     lambda v, u, xp: v * (xp.sqrt(u + 1) - xp.sqrt(u)), 1.0),
]


def _oracle_sum(term, first):
    """[lo, hi] around sum_{u >= first} term(u), term decreasing from
    ORACLE_N on: fsum below ORACLE_N, the integral test beyond."""
    import mpmath

    head = math.fsum(term(np.arange(first, ORACLE_N, dtype=np.float64), np).tolist())
    rest = float(mpmath.quad(lambda t: term(t, mpmath), [ORACLE_N, mpmath.inf]))
    return head + rest, head + rest + float(term(mpmath.mpf(ORACLE_N), mpmath))


@pytest.mark.parametrize("alpha, beta, scale", [(1.5, 1.0, 0.37), (2.0, 2.0, 2.5), (1.25, 0.5, 1.0)])
@pytest.mark.parametrize("name, norm, summand, power", CONTAINMENT_CASES, ids=[c[0] for c in CONTAINMENT_CASES])
def test_tail_bracket_contains_oracle_for_log_weighted_profiles(alpha, beta, scale, name, norm, summand, power):
    vals = _profile(alpha, beta, scale, np.arange(ORACLE_N, dtype=np.float64), np)
    assert np.all(np.diff(vals) < 0)  # mu(x) = x, and every summand decreases
    lo, hi = _oracle_sum(lambda u, xp: summand(_profile(alpha, beta, scale, u, xp), u, xp), 0)
    lo, hi = lo ** (1.0 / power), hi ** (1.0 / power)
    got = norm(power_log(alpha, beta, scale))
    assert got.value - got.tail_halfwidth <= hi * (1.0 + 1e-12)
    assert lo * (1.0 - 1e-12) <= got.value + got.tail_halfwidth
    assert got.tail_halfwidth <= 1e-9


def test_tail_bracket_contains_oracle_for_weighted_tail_at_the_cap():
    # sum_{k >= 1} x(k)/k behind S: the bracket reaches TAIL_CAP wider than
    # TAIL_TOL and is returned as it stands
    got = weighted_tail_sum(power_log(1.0, 2.0, 1000.0), 0)
    assert got.halfwidth > TAIL_TOL
    lo, hi = _oracle_sum(lambda u, xp: _profile(1.0, 2.0, 1000.0, u, xp) / u, 1)
    assert got.lo <= hi * (1.0 + 1e-12)
    assert lo * (1.0 - 1e-12) <= got.hi


# profiles whose sorted head is longer than the windows 16 and 64: mu(x) on
# [0, ORACLE_N) is the sorted |x| there, since x settles well before
# ORACLE_N and decreases past it


LONG_HEADS = [(1.5, 4.0, 0.37), (2.0, 6.0, 0.37), (1.2, 5.0, 1.0)]


def _oracle_mu(alpha, beta, scale):
    vals = _profile(alpha, beta, scale, np.arange(ORACLE_N, dtype=np.float64), np)
    mu = np.sort(vals)[::-1]
    settled = ORACLE_N // 2
    assert np.array_equal(mu[settled:], vals[settled:]) and np.all(np.diff(vals[settled:]) < 0)
    return mu


def _oracle_m1inf(alpha, beta, scale):
    """[lo, hi] around sup_n (sum_{k<=n} mu(k)) / log(2+n): the partial sums
    exactly below ORACLE_N; past it, on a grid of log n with step 1/64, the
    partial sums bracketed by the integral test with the integral of
    log(u+1)**beta / (u+1)**alpha in closed form (mpmath), until the whole
    mass over log(2+n) falls below lo."""
    import mpmath

    csum = np.cumsum(_oracle_mu(alpha, beta, scale), dtype=np.longdouble)
    lo = hi = float(np.max(csum / np.log(np.arange(ORACLE_N) + 2.0)))
    N, C, a1 = ORACLE_N, float(csum[-1]), alpha - 1.0
    first = float(_profile(alpha, beta, scale, mpmath.mpf(N), mpmath))
    fac = (math.log(N + 2.0) / math.log(N + 1.0)) ** beta  # log(u+2)/log(u+1) on u >= N

    def integral(t):  # int_N^t scale log(u+1)**beta / (u+1)**alpha du
        g = mpmath.gammainc(beta + 1, a1 * mpmath.log(N + 1), a1 * mpmath.log(t + 1))
        return float(scale * g / a1 ** (beta + 1))

    total_hi = C + first + fac * integral(mpmath.inf)
    n, step = N, math.exp(1.0 / 64.0)
    while total_hi / math.log(2.0 + n) > lo:
        nxt = math.floor(n * step)
        lo = max(lo, (C + integral(n + 1)) / math.log(2.0 + n))
        hi = max(hi, (C + first + fac * integral(nxt)) / math.log(2.0 + n))
        n = nxt
    return lo, hi


@pytest.mark.parametrize("alpha, beta, scale", LONG_HEADS)
def test_m1inf_bracket_of_a_long_sorted_head_contains_oracle(alpha, beta, scale):
    lo, hi = _oracle_m1inf(alpha, beta, scale)
    assert hi <= lo * (1.0 + 1e-2)
    for window in (16, 64):
        got = marcinkiewicz_norm(power_log(alpha, beta, scale), window)
        assert got.value - got.tail_halfwidth <= hi * (1.0 + 1e-12), window
        assert lo * (1.0 - 1e-12) <= got.value + got.tail_halfwidth, window


@pytest.mark.parametrize("alpha, beta, scale", LONG_HEADS)
def test_log1p_bracket_of_a_long_sorted_head_contains_oracle(alpha, beta, scale):
    import mpmath

    def term(v, u, xp):
        return v * xp.log1p(1 / (u + 1))

    mu = _oracle_mu(alpha, beta, scale)
    head = math.fsum(term(mu, np.arange(ORACLE_N, dtype=np.float64), np).tolist())
    rest = mpmath.quad(lambda t: term(_profile(alpha, beta, scale, t, mpmath), t, mpmath), [ORACLE_N, mpmath.inf])
    last = term(_profile(alpha, beta, scale, mpmath.mpf(ORACLE_N), mpmath), ORACLE_N, mpmath)
    lo, hi = head + float(rest), head + float(rest + last)
    got = lorentz_phi_norm(power_log(alpha, beta, scale), LOG1P, 16)
    assert got.value - got.tail_halfwidth <= hi * (1.0 + 1e-12)
    assert lo * (1.0 - 1e-12) <= got.value + got.tail_halfwidth


@pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 129, 10_003])
def test_blocked_explicit_sum_equals_one_numpy_sum_bitwise(monkeypatch, n):
    # blocks split where numpy's pairwise summation splits, so the bits agree;
    # numpy sums runs of up to 128 terms unsplit, so no block is shorter
    monkeypatch.setattr(brackets, "SUM_BLOCK", 64)
    rng = np.random.default_rng(n)
    vals = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    blocks = []

    def profile(ks):
        blocks.append(len(ks))
        return stored_profile(vals, 5)(ks)

    def term(v, ks):
        return v * (ks + 0.5)

    got = explicit_sum(profile, 5, 5 + n, term)
    ks = np.arange(5, 5 + n, dtype=np.float64)
    assert got == float(np.sum(np.asarray(vals, dtype=np.longdouble) * (ks + 0.5)))
    assert sum(blocks) == n and max(blocks) <= 128


# ---------------------------------------------------------------------------
# homogeneity: tail starts are chosen on the unit-scale profile

POWERS_OF_TWO = tuple(2.0 ** k for k in (-20, -7, -1, 1, 3, 10))
HOMOGENEITY_SPACES = (
    LLOG,
    lp_space(2.0),
    SpaceSpec(kind="lorentz_phi", phi=LOG1P),
    SpaceSpec(kind="lorentz_phi", phi=PhiTemplate("power", 0.5)),
    M1INF,
)


def _ends(nv) -> list:
    return [nv.value - nv.tail_halfwidth, nv.value, nv.value + nv.tail_halfwidth]


@pytest.mark.parametrize("spec", HOMOGENEITY_SPACES + (lp_space(1.5),), ids=lambda E: E.label)
@pytest.mark.parametrize("alpha, beta", GENERATORS)
def test_certified_norm_scales_with_its_input(spec, alpha, beta):
    # every start is the one at scale 1, and a power-of-two scale multiplies
    # every term exactly, so the bracket at scale c is c times the unit one;
    # lp(1.5) sums at scale c^1.5, which rounds
    for window in (16, 1 << 10, 1 << 14):
        unit = space_norm(spec, power_log(alpha, beta), window)
        for c in POWERS_OF_TWO:
            nv = space_norm(spec, power_log(alpha, beta, c), window)
            assert nv.window == unit.window, (window, c)
            if spec.p == 1.5:
                want = [c * v for v in _ends(unit)]
                assert _ends(nv) == pytest.approx(want, rel=1e-14, abs=0.0), (window, c)
            else:
                assert (nv.value, nv.tail_halfwidth) == (c * unit.value, c * unit.tail_halfwidth), (window, c)


@pytest.mark.parametrize("alpha, beta", GENERATORS)
def test_weighted_tail_and_calderon_image_scale_with_their_input(alpha, beta):
    for window in (16, 1 << 10, 1 << 14):
        unit_tails = [weighted_tail_sum(power_log(alpha, beta), n) for n in (0, window - 1)]
        unit_image = calderon(decreasing_rearrangement(power_log(alpha, beta)), window)
        for c in POWERS_OF_TWO:
            x = power_log(alpha, beta, c)
            tails = [weighted_tail_sum(x, n) for n in (0, window - 1)]
            assert tails == [b.scaled(c) for b in unit_tails], (window, c)
            image = calderon(decreasing_rearrangement(x), window)
            assert np.array_equal(image.window_values, c * unit_image.window_values), (window, c)
            assert np.array_equal(image.tail_halfwidth_per_index, c * unit_image.tail_halfwidth_per_index)


@pytest.mark.parametrize("case", ["fnorm-lp2-recheck", "lp2-large-scale", "m1inf-small-scale"])
def test_tail_starts_stay_below_the_cap_far_from_scale_one(monkeypatch, case):
    # a target not scaled with the data would sum each of these tails out to
    # TAIL_CAP: the re-check of the lp:2 witness pl(1.5,1) at scale 6.8e7
    # behind S, the lp:2 tail at scale 5e7, and the m1inf mass at scale 1e-5
    starts = []
    choose = brackets.choose_tail_start

    def spy(*args, **kwargs):
        start, rem = choose(*args, **kwargs)
        starts.append(start)
        return start, rem

    for module in (brackets, sequences):
        monkeypatch.setattr(module, "choose_tail_start", spy)
    {
        "fnorm-lp2-recheck": lambda: f_norm_upper(finite([1e8, 5e7, 3.3e7]), lp_space(2.0)),
        "lp2-large-scale": lambda: space_norm(lp_space(2.0), power_log(1.0, 0.0, 5e7)),
        "m1inf-small-scale": lambda: marcinkiewicz_norm(power_log(1.05, 0.0, 1e-5)),
    }[case]()
    assert starts and max(starts) < TAIL_CAP


def test_log1p_norm_of_a_power_log_input_chooses_one_tail_start(monkeypatch):
    # the shift-2 correction is bracketed at the start chosen on the shift-1 series
    calls = []
    choose = brackets.choose_tail_start

    def spy(*args, **kwargs):
        calls.append(kwargs.get("shift_power"))
        return choose(*args, **kwargs)

    for module in (brackets, sequences):
        monkeypatch.setattr(module, "choose_tail_start", spy)
    for alpha, beta, scale in ((1.0, 0.0, 1.0), (1.5, 1.0, 0.37), (2.0, 2.0, 3.0), (1.2, 4.0, 1.0)):
        calls.clear()
        nv = lorentz_phi_norm(power_log(alpha, beta, scale), LOG1P)
        assert calls == [1.0] and nv.tail_halfwidth <= TAIL_TOL * scale


@pytest.mark.parametrize("spec", [LLOG, SpaceSpec("lorentz_phi", phi=LOG1P),
                                  SpaceSpec("lorentz_phi", phi=PhiTemplate("power", 0.5))])
def test_summed_norm_of_an_entry_near_the_largest_double_is_finite(spec):
    # the first weight of each is at most 1: the value is a double, and a
    # zero-width bracket keeps it as it stands (0.5 * (v + v) would overflow)
    nv = space_norm(spec, finite([1.5e308]))
    weight = math.log(2.0) if spec.phi is LOG1P else 1.0
    assert nv.value == 1.5e308 * weight and nv.tail_halfwidth == 0.0


# ---------------------------------------------------------------------------
# divergence and infinities


def test_weak_l1_infinite_for_log_profile():
    assert weak_l1_quasinorm(power_log(1.0, 1.0)).is_infinite


def test_weak_l1_infinite_for_slow_power():
    assert weak_l1_quasinorm(power_log(0.5, 0.0)).is_infinite


def test_marcinkiewicz_infinite_for_log_profile():
    # partial sums of log(n+2)/(n+1) grow like log^2, faster than log(2+n)
    assert marcinkiewicz_norm(power_log(1.0, 1.0)).is_infinite


def test_marcinkiewicz_finite_above_alpha_one():
    got = marcinkiewicz_norm(power_log(1.5, 0.0))
    assert not got.is_infinite


def test_marcinkiewicz_upper_end_counts_the_mass_between_window_and_tail_start():
    # for n beyond the window the ratio is at most the whole mass over
    # log(2 + W); for alpha = 1.01 that mass is zeta(1.01)
    got = marcinkiewicz_norm(power_log(1.01, 0.0), window=16)
    assert got.value + got.tail_halfwidth >= zeta(1.01) / math.log(18.0)


def _brute_marcinkiewicz_sup(alpha, beta, n_max=1 << 24, chunk=1 << 20):
    """max over n < n_max of (sum_{k<=n} mu(k)) / log(2+n), from the profile
    values in chunks: past the first 1024 indices the profile is decreasing
    and below all of them, so sorting the first chunk rearranges the prefix."""
    best, carry = 0.0, 0.0
    for k0 in range(0, n_max, chunk):
        ks = np.arange(k0, k0 + chunk, dtype=np.float64)
        vals = np.log(ks + 2.0) ** beta / (ks + 1.0) ** alpha
        if k0 == 0:
            assert vals[1024] <= vals[:1024].min() and np.all(np.diff(vals[1024:]) <= 0)
            vals[:1024] = np.sort(vals[:1024])[::-1]
        csum = carry + np.cumsum(vals)
        best = max(best, float(np.max(csum / np.log(ks + 2.0))))
        carry = float(csum[-1])
    return best


@pytest.mark.parametrize("alpha,beta", [(1.1, 1.0), (1.2, 1.0), (1.05, 2.0)])
def test_marcinkiewicz_bracket_contains_brute_force_sup(alpha, beta):
    brute = _brute_marcinkiewicz_sup(alpha, beta)
    for window in (16, 256, 4096):
        got = marcinkiewicz_norm(power_log(alpha, beta), window=window)
        assert got.value - got.tail_halfwidth <= brute * (1.0 + 1e-9)
        assert brute <= (got.value + got.tail_halfwidth) * (1.0 + 1e-9)


def test_lp_norm_of_values_near_the_largest_double_is_finite():
    got = lp_norm(finite([1e308, 1e308, 1e308]), 2.0)
    assert got.value == pytest.approx(1e308 * math.sqrt(3.0), rel=1e-15)
    assert got.tail_halfwidth == 0.0


def test_lp_divergent_tail_raises():
    with pytest.raises(DivergentTailError):
        lp_norm(power_log(0.5, 0.0), 2.0)
    with pytest.raises(DivergentTailError):
        lp_norm(power_log(1.0, 0.0), 1.0)


def test_lorentz_power_divergent_tail_raises():
    with pytest.raises(DivergentTailError):
        lorentz_phi_norm(power_log(0.25, 0.0), PhiTemplate("power", 0.5))


# ---------------------------------------------------------------------------
# ordering relations between the functionals


@settings(deadline=None, max_examples=40, derandomize=True)
@given(finite_values)
def test_weak_below_l1_and_llog_between(vals):
    x = finite(vals)
    l1 = lp_norm(x, 1.0).value
    weak = weak_l1_quasinorm(x).value
    llog = llog_norm(x).value
    lor = lorentz_phi_norm(x, LOG1P).value
    slack = 1e-12 * (1.0 + l1)
    assert weak <= l1 + slack
    assert llog <= l1 + slack
    assert math.log(2.0) * llog <= lor + slack and lor <= llog + slack


@settings(deadline=None, max_examples=40, derandomize=True)
@given(finite_values)
def test_marcinkiewicz_weak_equivalence(vals):
    # m-norm <= (1/log 2) * weak quasinorm, and weak <= (1 + 1/log 2)-ish m;
    # check only the certified direction plus positivity
    x = finite(vals)
    m = marcinkiewicz_norm(x).value
    weak = weak_l1_quasinorm(x).value
    assert m <= weak / math.log(2.0) + 1e-12 * (1.0 + weak)


# ---------------------------------------------------------------------------
# axioms


@pytest.mark.parametrize("spec", ALL_SPACES, ids=lambda s: s.label)
def test_axiom_check_passes(spec):
    res = axiom_check(spec, trials=60, seed=7)
    assert res.monotonicity_violations == 0 and res.rearrangement_violations == 0, (spec.label, res)
    assert res.homogeneity_max_rel_dev <= 1e-9, (spec.label, res)
    assert 1.0 <= res.quasi_triangle_modulus <= 2.0


def test_axiom_check_modulus_one_for_genuine_norms():
    for spec in (lp_space(2.0), LLOG, SpaceSpec("lorentz_phi", phi=LOG1P)):
        res = axiom_check(spec, trials=60, seed=7)
        assert res.quasi_triangle_modulus <= 1.0 + 1e-9


@settings(deadline=None, max_examples=30, derandomize=True)
@given(finite_values, st.randoms(use_true_random=False))
def test_all_norms_rearrangement_invariant_exactly(vals, rnd):
    perm = list(range(len(vals)))
    rnd.shuffle(perm)
    y = [vals[i] for i in perm]
    for spec in ALL_SPACES:
        assert space_norm(spec, finite(vals)).value == space_norm(spec, finite(y)).value


def test_norm_of_zero_is_zero():
    for spec in ALL_SPACES:
        got = space_norm(spec, finite([0.0]))
        assert got.value == 0.0 and got.tail_halfwidth == 0.0


def test_norm_accepts_precomputed_rearrangement():
    mu = decreasing_rearrangement(finite([3.0, -1.0, 2.0]))
    assert space_norm(WEAK_L1, mu).value == weak_l1_quasinorm(finite([3.0, -1.0, 2.0])).value


# ---------------------------------------------------------------------------
# spec objects and wire format


def test_space_spec_labels():
    assert lp_space(2.0).label == "lp(2)"
    assert lp_space(1.5).label == "lp(1.5)"
    assert WEAK_L1.label == "weak_l1"
    assert M1INF.label == "m1inf"
    assert LLOG.label == "llog"
    assert SpaceSpec("lorentz_phi", phi=LOG1P).label == "lorentz_phi(log1p)"
    assert SpaceSpec("lorentz_phi", phi=PhiTemplate("power", 0.5)).label == "lorentz_phi(power=0.5)"
    assert SUM_SPACE.label == "sum_weakl1_linf"


def test_space_spec_validation():
    with pytest.raises(ValueError):
        SpaceSpec("lp")  # missing p
    with pytest.raises(ValueError):
        lp_space(0.5)
    with pytest.raises(ValueError):
        SpaceSpec("lorentz_phi")  # missing phi
    with pytest.raises(ValueError):
        SpaceSpec("nonsense")
    with pytest.raises(ValueError):
        PhiTemplate("power", -1.0)


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.99])
def test_lp_needs_a_finite_exponent_of_at_least_one(p):
    with pytest.raises(ValueError, match="lp space needs a finite p >= 1"):
        lp_space(p)
    for x in (finite([3.0, 1.0]), power_log(1.5, 0.0)):
        with pytest.raises(ValueError, match="lp space needs a finite p >= 1"):
            lp_norm(x, p)


@pytest.mark.parametrize("spec", ALL_SPACES, ids=lambda s: s.label)
def test_space_spec_json_round_trip(spec):
    doc = space_spec_to_json(spec)
    back = space_spec_from_json(json.loads(json.dumps(doc)))
    assert back == spec


def test_space_spec_json_rejects_garbage():
    with pytest.raises(ValueError):
        space_spec_from_json({"space": "lp"})
    with pytest.raises(ValueError):
        space_spec_from_json({"space": "lorentz_phi", "phi": "exp"})
    with pytest.raises(ValueError):
        space_spec_from_json({"kind": "lp", "p": 2.0})


def test_norm_value_json_uses_strings_for_infinity():
    doc = weak_l1_quasinorm(power_log(1.0, 1.0)).to_json_dict()
    assert doc["value"] == "Infinity"
    assert json.dumps(doc)  # strictly serializable
