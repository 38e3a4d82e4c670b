import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import zeta

from calderon.brackets import DivergentTailError
from calderon.families import POWER_LOG_GRID
from calderon.sequences import decreasing_rearrangement, finite, power_log
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


@pytest.mark.parametrize("alpha, beta, scale", [(1.5, 1.0, 0.37), (2.0, 2.0, 2.5), (1.25, 0.5, 1.0)])
@pytest.mark.parametrize("name, norm, summand, power", CONTAINMENT_CASES, ids=[c[0] for c in CONTAINMENT_CASES])
def test_tail_bracket_contains_oracle_for_log_weighted_profiles(alpha, beta, scale, name, norm, summand, power):
    import mpmath

    u = np.arange(ORACLE_N, dtype=np.float64)
    vals = _profile(alpha, beta, scale, u, np)
    assert np.all(np.diff(vals) < 0)  # mu(x) = x, and every summand decreases
    head = math.fsum(summand(vals, u, np).tolist())

    def f(t):
        return summand(_profile(alpha, beta, scale, t, mpmath), t, mpmath)

    rest = float(mpmath.quad(f, [ORACLE_N, mpmath.inf]))
    lo = (head + rest) ** (1.0 / power)
    hi = (head + rest + float(f(mpmath.mpf(ORACLE_N)))) ** (1.0 / power)
    got = norm(power_log(alpha, beta, scale))
    assert got.value - got.tail_halfwidth <= hi * (1.0 + 1e-12)
    assert lo * (1.0 - 1e-12) <= got.value + got.tail_halfwidth
    assert got.tail_halfwidth <= 1e-9


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
    assert res.ok, (spec.label, res)
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
