import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calderon.families import family_rng, generate_family
from calderon.optimal_range import (
    DEFAULT_GRID,
    DOMINATION_TOL,
    GENERATORS,
    LOG2,
    TAIL_ANALYTIC,
    TAIL_FINITE_SUPPORT,
    TRUNCATION_LEVELS,
    DominationCertificate,
    FNormEstimate,
    GridConfig,
    NoWitnessFoundError,
    _candidate_scale,
    _domination_length,
    _scaled_shape,
    _unit_norm,
    check_domination,
    f_norm_upper,
    f_quasitriangle_pairs,
    harmonic_calderon_closed_form,
    hilbert_upper_constant,
    verify_minimality,
    weak_l1_membership,
)
from calderon.brackets import DivergentTailError
from calderon.operators import METHOD_FAST, calderon, reflected_lower_pair
from calderon.sequences import (
    FiniteSequence,
    IndexDomain,
    decreasing_rearrangement,
    PowerLogSequence,
    Rearrangement,
    finite,
    harmonic_number,
    power_log,
    sequence_from_json,
    sequence_to_json,
)
from calderon import optimal_range, spaces
from calderon.suites import CONTAINMENT_TOL, image_escapes
from calderon.spaces import LLOG, LOG1P, M1INF, WEAK_L1, SpaceSpec, axiom_check, lp_space, space_norm

LORENTZ_LOG1P = SpaceSpec(kind="lorentz_phi", phi=LOG1P)
CATALOG_SPACES = (LLOG, lp_space(2.0), LORENTZ_LOG1P, M1INF)

SMALL_GRID = GridConfig(window=1 << 10)

finite_values = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False, width=64),
    min_size=1,
    max_size=16,
)


def _scale_of(mu_x, shape, window):
    """`_candidate_scale` with the search head read as `f_norm_upper` reads it."""
    return _candidate_scale(mu_x, mu_x.head(_domination_length(mu_x, window)), shape, window)


# ---------------------------------------------------------------------------
# membership c_a(x) = sup mu(n) (n+1)/log(n+2)


def test_harmonic_profile_is_member_with_inv_log2():
    res = weak_l1_membership(power_log(1.0, 0.0))
    assert res.member
    assert res.c_a == pytest.approx(1.0 / LOG2, rel=1e-12)


def test_unit_impulse_membership():
    res = weak_l1_membership(finite([1.0]))
    assert res.member
    assert res.c_a == pytest.approx(1.0 / LOG2, rel=1e-15)


def test_log_profile_sits_on_the_boundary():
    # mu(n)(n+1)/log(n+2) is identically 1 for log(n+2)/(n+1): a member,
    # dominated by the harmonic image at scale 1 (H_{n+1} + 1 >= log(n+2))
    res = weak_l1_membership(power_log(1.0, 1.0))
    assert res.member
    assert res.c_a == pytest.approx(1.0, rel=1e-12)


def test_squared_log_profile_is_not_member():
    res = weak_l1_membership(power_log(1.0, 2.0))
    assert not res.member
    assert math.isinf(res.c_a)


def test_slow_power_profile_is_not_member():
    assert not weak_l1_membership(power_log(0.8, 0.0)).member


def test_fast_power_profile_is_member():
    res = weak_l1_membership(power_log(1.5, 0.0))
    assert res.member and math.isfinite(res.c_a)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(finite_values)
def test_every_finite_sequence_is_member(vals):
    res = weak_l1_membership(finite(vals))
    assert res.member
    mu = np.sort(np.abs(np.asarray(vals)))[::-1]
    expected = float(np.max(mu * (np.arange(len(mu)) + 1.0) / np.log(np.arange(len(mu)) + 2.0)))
    assert res.c_a == pytest.approx(expected, rel=1e-13, abs=1e-300)


@settings(deadline=None, max_examples=30, derandomize=True)
@given(finite_values, st.floats(min_value=0.01, max_value=100.0))
def test_c_a_positive_homogeneity(vals, c):
    base = weak_l1_membership(finite(vals)).c_a
    scaled = weak_l1_membership(finite(np.asarray(vals) * c)).c_a
    assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-300)


def test_c_a_scaling_exact_for_analytic_profiles():
    base = weak_l1_membership(power_log(1.5, 0.0)).c_a
    scaled = weak_l1_membership(power_log(1.5, 0.0, scale=4.0)).c_a
    assert scaled == pytest.approx(4.0 * base, rel=1e-14)


# ---------------------------------------------------------------------------
# domination certificates


def test_certificate_finite_inside_harmonic_image():
    cert = check_domination(finite([1.0]), power_log(1.0, 0.0), window=64)
    assert cert.verified
    assert cert.tail_argument == TAIL_FINITE_SUPPORT
    assert cert.first_violation is None


def test_certificate_harmonic_under_doubled_harmonic():
    cert = check_domination(power_log(1.0, 0.0), power_log(1.0, 0.0, scale=2.0), window=64)
    assert cert.verified
    assert cert.tail_argument == TAIL_ANALYTIC


def test_certificate_detects_window_violation():
    cert = check_domination(finite([100.0, 100.0]), finite([0.1]), window=32)
    assert not cert.window_verified
    assert cert.first_violation == 0
    assert not cert.verified


def test_certificate_tail_rule_rejects_heavier_x():
    # x with alpha = 1 cannot sit under the image of a summable y forever:
    # S mu(y)(n) ~ P/(n+1) while mu(x)(n) (n+1) -> 1 needs scale >= ... checked
    cert = check_domination(power_log(1.0, 0.0), finite([0.001]), window=32)
    assert not cert.verified


def test_certificate_json_round_trip_strict():
    cert = check_domination(power_log(1.0, 0.0), power_log(1.0, 0.0, scale=2.0), window=32)
    doc = cert.to_json_dict()
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc
    assert doc["window_verified"] is True and doc["tail_ok"] is True


def test_certificate_reverifies_from_scratch():
    est = f_norm_upper(finite([2.0, 1.0, 0.5]), WEAK_L1, SMALL_GRID)
    w = est.witness
    again = check_domination(w.x, w.y, w.window)
    assert again.verified
    assert again.tail_argument == w.tail_argument


def test_certificate_of_a_tailed_rearrangement_has_no_json_form():
    # a hand-built tailed Rearrangement has no wire kind: its certificate
    # keeps it as given, verified, but cannot be printed
    mu = decreasing_rearrangement(power_log(2.0, 0.0, 3.0))
    est = f_norm_upper(mu, WEAK_L1, SMALL_GRID)
    assert est.witness.x is mu and est.witness.verified
    with pytest.raises(TypeError):
        est.to_json_dict()


# finite supports of 0..64 entries and one longer than the default grid
# window, magnitudes 1e-6..1e6, drawn from a seeded generator
finite_supports = st.builds(
    lambda n, seed: finite(np.random.default_rng(seed).choice([-1.0, 1.0], n)
                           * 10.0 ** np.random.default_rng(seed + 1).uniform(-6.0, 6.0, n)),
    st.one_of(st.integers(0, 64), st.just((1 << 14) + 3)),
    st.integers(0, 2**32),
)


def _full_window_verdict(mu_x, upper):
    """(window_verified, first_violation) of mu(x) <= S mu(y) read on the
    whole image `upper`, past the support of a finite x too."""
    lhs = mu_x.head(len(upper))
    with np.errstate(divide="ignore", over="ignore"):
        ratios = np.divide(lhs, upper, out=np.zeros(len(upper)), where=lhs > 0)
    bad = np.nonzero(ratios > 1.0 + DOMINATION_TOL)[0]
    return bad.size == 0, (int(bad[0]) if bad.size else None)


def _full_window_scale(mu_x, shape, window):
    """The minimal scale of a shape over a finite x, every image read on the
    whole certificate window."""
    if isinstance(shape, PowerLogSequence) and shape.is_harmonic:
        s_lo = shape.scale * harmonic_calderon_closed_form(np.arange(window))
    else:
        with np.errstate(over="ignore"):
            out = calderon(decreasing_rearrangement(shape), window)
        s_lo = out.window_values - out.tail_halfwidth_per_index
        if float(np.min(s_lo)) <= 0.0:
            return math.inf
    lhs = mu_x.head(window)
    with np.errstate(divide="ignore", over="ignore"):
        return float(np.max(np.divide(lhs, s_lo, out=np.zeros(window), where=lhs > 0)))


@settings(deadline=None, max_examples=40, derandomize=True)
@given(finite_supports)
def test_support_reading_matches_the_full_window_reading(x):
    # past a finite support mu(x) = 0 <= S mu(y): reading the image on the
    # support alone gives the full-window scale bit for bit and the same verdicts
    window = DEFAULT_GRID.window
    mu_x = decreasing_rearrangement(x)
    full = mu_x.read_window(window)
    support = len(mu_x.values)
    shapes = [power_log(1.0, 0.0)] + [power_log(a, b) for a, b in GENERATORS]
    shapes += [finite(mu_x.head(min(L, support))) for L in TRUNCATION_LEVELS] + [finite(mu_x.values)]
    for shape in shapes[1:len(GENERATORS) + 1]:
        optimal_range._shape_calderon_floor(shape, full)  # x-independent, cached per window
    seen = []

    def spy(y, n):
        seen.append(n)
        return calderon(y, n)

    with mock.patch.object(optimal_range, "calderon", spy):
        for shape in shapes:
            c = 1.0  # the empty x: only the re-check reads it
            if support:
                c = _scale_of(mu_x, shape, full)[0]
                assert c.hex() == _full_window_scale(mu_x, shape, full).hex(), shape
                if math.isinf(c) or c == 0.0:
                    continue
            for factor in (1.0, 1.0 - 1e-9):
                y = _scaled_shape(shape, c * factor)
                cert = check_domination(x, y, window)
                ref = calderon(decreasing_rearrangement(y), full)
                expected = _full_window_verdict(mu_x, ref.window_values + ref.tail_halfwidth_per_index)
                assert cert.window == full and cert.tail_ok
                assert (cert.window_verified, cert.first_violation) == expected, (shape, factor)
    assert seen and max(seen) <= max(support, 1)


# ---------------------------------------------------------------------------
# the F functional


def test_f_of_unit_impulse_is_half_two_sided():
    est = f_norm_upper(finite([1.0]), WEAK_L1)
    assert est.upper == pytest.approx(0.5, rel=1e-12)
    assert est.lower == pytest.approx(0.5, rel=1e-12)
    assert est.witness.verified


def test_f_of_harmonic_profile_is_half_two_sided():
    est = f_norm_upper(power_log(1.0, 0.0), WEAK_L1)
    assert est.upper == pytest.approx(0.5, rel=1e-12)
    assert est.lower == pytest.approx(0.5, rel=1e-12)


def test_f_raises_for_certified_non_member():
    with pytest.raises(NoWitnessFoundError, match="no witness exists"):
        f_norm_upper(power_log(1.0, 2.0), WEAK_L1)


@pytest.mark.parametrize("x", [finite([3.0, -1.0, 0.5]), power_log(1.5, 4.0, 0.37), finite([1e308] * 3)],
                         ids=["finite", "long_head", "c_a_beyond_double_range"])
def test_f_over_weak_l1_reads_mu_of_x_once(monkeypatch, x):
    # the floor c_a(x) log 2 / 2 is read on the mu(x) the search uses, and at
    # mu(x)/4 where c_a(x) exceeds the double range
    reads = []

    def spy(y):
        reads.extend([y] if y is x else [])
        return decreasing_rearrangement(y)

    for module in (optimal_range, spaces):
        monkeypatch.setattr(module, "decreasing_rearrangement", spy)
    est = f_norm_upper(x, WEAK_L1)
    assert len(reads) == 1 and 0.0 < est.lower <= est.upper


def test_f_search_reads_the_window_head_of_an_analytic_x_once(monkeypatch):
    # one head per query, sliced for the truncation shapes, not one per
    # shape; the re-check reads mu(x) again for itself
    x = power_log(1.5, 1.0, 1.3)
    expected = f_norm_upper(x, LLOG).to_json_dict()
    window, profile = DEFAULT_GRID.window, power_log(1.5, 1.0, 1.3)
    head, recheck = Rearrangement.head, optimal_range.check_domination
    reads, in_recheck = [], [False]

    def spy_head(self, n):
        if n == window and self.tail == profile:
            reads.append("recheck" if in_recheck[0] else "search")
        return head(self, n)

    def spy_recheck(*args):
        in_recheck[0] = True
        try:
            return recheck(*args)
        finally:
            in_recheck[0] = False

    monkeypatch.setattr(Rearrangement, "head", spy_head)
    monkeypatch.setattr(optimal_range, "check_domination", spy_recheck)
    got = f_norm_upper(x, LLOG).to_json_dict()
    assert reads == ["search", "recheck"]
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_f_of_log_profile_has_unit_harmonic_witness():
    est = f_norm_upper(power_log(1.0, 1.0), WEAK_L1)
    assert est.upper == pytest.approx(1.0, rel=1e-12)
    assert est.witness.verified


def test_f_inconclusive_message_outside_weak_l1():
    # in a space without the membership characterization the failure is
    # reported as inconclusive rather than as a certified non-membership
    with pytest.raises(NoWitnessFoundError, match="inconclusive"):
        f_norm_upper(power_log(1.0, 2.0), M1INF, SMALL_GRID)


# finite supports with magnitudes 1e-6..1e6, and the fnorm_mix in-range profiles
wide_finite = st.lists(
    st.tuples(st.floats(min_value=-6.0, max_value=6.0), st.sampled_from([-1.0, 1.0])),
    min_size=1,
    max_size=64,
).map(lambda terms: finite([sign * 10.0**e for e, sign in terms]))
in_range_profiles = st.builds(
    lambda ab, scale: power_log(ab[0], ab[1], scale),
    st.sampled_from([(1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (1.25, 0.0), (1.5, 0.0),
                     (1.5, 1.0), (2.0, 0.0), (2.0, 2.0)]),
    st.floats(min_value=0.5, max_value=2.0),
)


def _dense_c_star(values) -> float:
    """c*(x) = max_n mu(n)(n+1)/(H_{n+1}+1) over a finite support, densely."""
    mu = np.sort(np.abs(np.asarray(values)))[::-1]
    hs = np.cumsum(1.0 / (np.arange(len(mu)) + 1.0))
    return float(np.max(mu * (np.arange(len(mu)) + 1.0) / (hs + 1.0)))


def _weak_norm_at_minimal_scale(mu_x, shape, window):
    c, _ = _scale_of(mu_x, shape, window)
    if math.isinf(c) or c == 0.0:
        return math.inf
    try:
        return space_norm(WEAK_L1, _scaled_shape(shape, c), window).value
    except DivergentTailError:
        return math.inf


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.one_of(wide_finite, in_range_profiles))
def test_no_catalog_shape_beats_the_harmonic_witness_in_weak_l1(x):
    # f = c* on weak-l1: a decreasing y with |y|_weak = t lies below t a, so
    # S y <= t S a and every certified witness costs at least c*
    window = SMALL_GRID.window
    mu_x = decreasing_rearrangement(x)
    harmonic = _weak_norm_at_minimal_scale(mu_x, power_log(1.0, 0.0), window)
    assert math.isfinite(harmonic)
    shapes = [power_log(a, b) for a, b in GENERATORS]
    for L in sorted({min(L, window) for L in TRUNCATION_LEVELS}):
        shapes.append(finite(mu_x.head(L)))
    shapes.append(mu_x)
    for shape in shapes:
        assert _weak_norm_at_minimal_scale(mu_x, shape, window) >= harmonic * (1.0 - 1e-12)
    est = f_norm_upper(x, WEAK_L1, SMALL_GRID)
    y = est.witness.y
    assert isinstance(y, PowerLogSequence) and (y.alpha, y.beta) == (1.0, 0.0)
    assert est.upper == y.scale  # the unit norm of the harmonic profile is 1
    if isinstance(x, FiniteSequence):
        assert est.upper == pytest.approx(_dense_c_star(x.values), rel=1e-13)


def test_f_of_zero_is_zero():
    est = f_norm_upper(finite([0.0]), WEAK_L1)
    assert est.upper == 0.0


def test_f_depends_only_on_rearrangement_bitwise():
    vals = [3.0, -1.0, 0.5, 2.0]
    a = f_norm_upper(finite(vals), WEAK_L1, SMALL_GRID)
    b = f_norm_upper(finite(vals[::-1]), WEAK_L1, SMALL_GRID)
    c = f_norm_upper(finite([-v for v in vals]), WEAK_L1, SMALL_GRID)
    assert a.upper == b.upper == c.upper


@settings(deadline=None, max_examples=15, derandomize=True)
@given(finite_values, st.sampled_from([0.25, 2.0, 7.5]))
def test_f_positive_homogeneity(vals, c):
    a = f_norm_upper(finite(vals), WEAK_L1, SMALL_GRID)
    b = f_norm_upper(finite(np.asarray(vals) * c), WEAK_L1, SMALL_GRID)
    assert b.upper == pytest.approx(c * a.upper, rel=1e-11, abs=1e-300)


def test_f_upper_never_below_c_star_half_rule():
    # the harmonic witness at scale c_star certifies, so upper <= |c_star a|_E;
    # and lower = c_a log2 / 2 <= upper must hold
    rng = family_rng("test-fnorm", 9)
    for _ in range(10):
        x = finite(rng.standard_normal(8))
        est = f_norm_upper(x, WEAK_L1, SMALL_GRID)
        cs = _dense_c_star(x.values)
        assert est.upper <= cs * 1.0 + 1e-12  # weak norm of scaled harmonic = scale
        assert est.lower is not None and est.lower <= est.upper * (1 + 1e-9)


def test_f_monotone_under_grid_refinement():
    x = finite([2.0, 1.0, 0.5, 0.25])
    coarse = f_norm_upper(x, WEAK_L1, SMALL_GRID)
    fine = f_norm_upper(x, WEAK_L1, DEFAULT_GRID)
    assert fine.upper <= coarse.upper * (1.0 + 1e-12)


def test_f_in_other_spaces_finite_for_members():
    x = finite([1.0, 0.5])
    for E in (M1INF, LLOG, lp_space(2.0)):
        est = f_norm_upper(x, E, SMALL_GRID)
        assert math.isfinite(est.upper) and est.upper > 0
        assert est.witness.verified


def test_estimate_validation_and_grid_validation():
    cert = check_domination(finite([1.0]), power_log(1.0, 0.0), window=32)
    with pytest.raises(ValueError):
        FNormEstimate(upper=1.0, lower=2.0, witness=cert)
    with pytest.raises(ValueError):
        GridConfig(window=8)


def test_c_star_matches_dense_oracle():
    vals = [4.0, 1.0, 0.25]
    assert f_norm_upper(finite(vals), WEAK_L1).upper == pytest.approx(_dense_c_star(vals), rel=1e-13)


@pytest.mark.parametrize(
    "x, y",
    [(finite([1e-13]), finite(())), (finite([1e-20, 5e-21]), finite([1e-30]))],
    ids=["empty-witness", "tiny-witness"],
)
def test_check_domination_slack_is_relative(x, y):
    # an absolute floor on the slack would accept any witness below 1e-12
    cert = check_domination(x, y, window=64)
    assert not cert.window_verified and cert.first_violation == 0


def test_f_lp2_of_tiny_finite_input_is_positive():
    # normed directly, the scaled power-log witnesses would underflow to 0;
    # priced by homogeneity they keep their rank, so the search sees the same
    # witness as at unit magnitude
    est = f_norm_upper(finite([1e-300, 3e-301]), lp_space(2.0), SMALL_GRID)
    assert est.upper > 0.0 and est.witness.verified
    unit = f_norm_upper(finite([1.0, 0.3]), lp_space(2.0), SMALL_GRID)
    assert est.upper == pytest.approx(1e-300 * unit.upper, rel=1e-12)


# ---------------------------------------------------------------------------
# the priced witness search


def _estimate_or_error(x, E):
    try:
        return f_norm_upper(x, E, SMALL_GRID)
    except (NoWitnessFoundError, ArithmeticError) as e:
        return type(e)


def _shape_key(y):
    if isinstance(y, PowerLogSequence):
        return (y.alpha, y.beta, y.scale)
    return (type(y).__name__, tuple(np.asarray(y.values).tolist()), repr(getattr(y, "tail", None)))


def _direct_scan(x, E):
    """The search with every scaled candidate normed directly, not priced by
    homogeneity: its estimate, and the (lower end, upper end, y) of each
    candidate's E-norm."""
    brackets = []

    def spy(E, y, window=65536):
        nv = space_norm(E, y, window)
        brackets.append((nv.value - nv.tail_halfwidth, nv.value + nv.tail_halfwidth, y))
        return nv

    class DirectUnit:
        """Stands in for the unit norm of a shape: c times it norms c shape."""

        def __init__(self, E, shape, window):
            self.args = (E, shape, window)

        def __rmul__(self, c):
            E, shape, window = self.args
            nv = spy(E, _scaled_shape(shape, c), window)
            return nv.value + nv.tail_halfwidth

    with mock.patch.object(optimal_range, "space_norm", spy), \
            mock.patch.object(optimal_range, "_unit_norm", DirectUnit):
        return _estimate_or_error(x, E), brackets


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.one_of(wide_finite, in_range_profiles), st.sampled_from(CATALOG_SPACES))
def test_priced_search_picks_the_direct_scan_witness(x, E):
    priced = _estimate_or_error(x, E)
    direct, brackets = _direct_scan(x, E)
    if not isinstance(priced, FNormEstimate):
        assert priced is direct
        return
    key = _shape_key(priced.witness.y)
    lo, hi = next((lo, hi) for lo, hi, cand in brackets if _shape_key(cand) == key)
    assert lo <= priced.upper <= hi * (1.0 + 1e-9)
    assert priced.witness.verified
    if key != _shape_key(direct.witness.y):
        # only a near tie may move the witness: the two direct norms agree to 1e-9
        assert direct.upper == pytest.approx(hi, rel=1e-9)


UNIT_SHAPES = [power_log(1.0, 0.0)] + [power_log(a, b) for a, b in GENERATORS]


@pytest.mark.parametrize("E", (WEAK_L1,) + CATALOG_SPACES, ids=lambda E: E.label)
@pytest.mark.parametrize("shape", UNIT_SHAPES, ids=lambda g: f"pl({g.alpha},{g.beta})")
def test_scaled_norm_floor_is_below_the_certified_upper_end(E, shape):
    # c |g|_E = |c g|_E, so the scale-1 bracket times c overlaps the direct
    # bracket at scale c: its lower end (the floor) is not above the direct
    # upper end, and its upper end, the search's price, is not below the
    # direct lower end.  Both brackets start their tails at the same index,
    # so the price exceeds the direct upper end only by roundoff
    for window in (16, 1 << 10, 1 << 14):
        unit = _unit_norm(E, shape, window)
        try:
            nv1 = space_norm(E, shape, window)
            floor = nv1.value - nv1.tail_halfwidth
        except DivergentTailError:
            floor = math.inf
        for c in (1e-3, 0.37, 1.0, 2.5, 300.0):
            try:
                nv = space_norm(E, _scaled_shape(shape, c), window)
            except DivergentTailError:
                assert math.isinf(floor) and math.isinf(unit)
                continue
            lower, upper = nv.value - nv.tail_halfwidth, nv.value + nv.tail_halfwidth
            assert math.isinf(unit) == math.isinf(upper)
            assert c * floor <= upper * (1.0 + 1e-12), (window, c)
            assert c * unit >= lower * (1.0 - 1e-12), (window, c)
            assert c * unit <= upper * (1.0 + 1e-9), (window, c)


@pytest.mark.parametrize("E", CATALOG_SPACES, ids=lambda E: E.label)
def test_search_never_norms_a_scaled_power_log(E):
    # power-log witnesses are priced from their unit norm, even when one wins
    normed = []

    def spy(E, y, window=65536):
        normed.append(y)
        return space_norm(E, y, window)

    _unit_norm.cache_clear()
    with mock.patch.object(optimal_range, "space_norm", spy):
        for x in (finite([3.0, 1.0, 0.5]), power_log(1.5, 0.0, 0.7), finite([1e200])):
            f_norm_upper(x, E, SMALL_GRID)
    powerlogs = [y for y in normed if isinstance(y, PowerLogSequence)]
    assert powerlogs and all(y.scale == 1.0 for y in powerlogs)


def test_search_norms_only_finite_shapes_when_mu_x_wins():
    # mu(x) of a long normal support costs far less than c* |a|_2: with the
    # unit norms cached, no power-log shape is normed at all
    x = finite(family_rng("test-prune", 3).standard_normal(3000))
    E = lp_space(2.0)
    f_norm_upper(x, E)  # fill the unit-norm caches
    normed = []

    def spy(E, y, window=65536):
        normed.append(type(y))
        return space_norm(E, y, window)

    with mock.patch.object(optimal_range, "space_norm", spy):
        est = f_norm_upper(x, E)
    assert normed and set(normed) == {FiniteSequence}
    assert isinstance(est.witness.y, FiniteSequence) and est.witness.verified


def test_weak_l1_of_a_long_support_near_the_double_range():
    # c_a = 1e305 max (n+1)/log(n+2) and f = c* are doubles, although
    # head * (n+1) leaves the double range before the division by log(n+2)
    x = finite([1e305] * 3000)
    ns = np.arange(3000, dtype=np.longdouble)
    want = float(np.max((ns + 1) / np.log(ns + 2)) * np.longdouble(1e305))
    assert weak_l1_membership(x).c_a == pytest.approx(want, rel=1e-15)
    est = f_norm_upper(x, WEAK_L1)
    # the harmonic profile's weak-l1 unit norm is 1: upper is c* bit for bit
    assert est.upper == est.witness.y.scale
    assert est.upper == pytest.approx(1e305 * (3000 / (harmonic_number(3000) + 1.0)), rel=1e-13)
    assert est.lower == 1.2985632795710295e+307
    assert est.witness.verified
    with pytest.raises(OverflowError, match="c_a over the window exceeds the double range"):
        weak_l1_membership(finite([1.7e308] * 3000))


def test_weak_l1_membership_window_sup_is_the_direct_formula():
    # the power-of-two rescale moves no bit where head * (n+1) stays finite
    rng = family_rng("test-membership-rescale", 1)
    for _ in range(300):
        v = 10.0 ** rng.uniform(-290.0, 290.0) * rng.random(int(rng.integers(1, 400)))
        mu = decreasing_rearrangement(finite(v)).values
        ns = np.arange(len(mu), dtype=np.float64)
        direct = float(np.max(mu * (ns + 1.0) / np.log(ns + 2.0)))
        assert weak_l1_membership(finite(v)).c_a == direct
        # a finite support is read whole, also past the window
        assert weak_l1_membership(finite(v), window=16).c_a == direct


@pytest.mark.parametrize("s", [-1.0, -0.37])
def test_negative_scale_power_log_reads_as_its_absolute_scale(s):
    # the rearrangement, and so c_a and f, see only |x|
    for alpha, beta in ((1.0, 0.0), (1.5, 1.0), (0.75, 0.0), (1.0, 2.0)):
        neg, pos = power_log(alpha, beta, s), power_log(alpha, beta, -s)
        assert weak_l1_membership(neg) == weak_l1_membership(pos)
    for E in (WEAK_L1, LLOG, M1INF):
        neg = f_norm_upper(power_log(1.5, 1.0, s), E).to_json_dict()
        assert neg == f_norm_upper(power_log(1.5, 1.0, -s), E).to_json_dict()


def test_f_lp2_of_a_long_support_near_the_double_range():
    # the finite mu(x) certifies |x|_2 = 1e300 sqrt(3000), below every
    # power-log witness's price
    est = f_norm_upper(finite([1e300] * 3000), lp_space(2.0))
    assert est.upper == pytest.approx(1e300 * math.sqrt(3000.0), rel=1e-15)
    assert isinstance(est.witness.y, FiniteSequence) and est.witness.verified


@pytest.mark.parametrize("E", CATALOG_SPACES, ids=lambda E: E.label)
def test_overflowing_image_entries_read_as_the_largest_double(E):
    # the truncations of mu(x), x = 1e308 a, have images that round to inf at
    # the head: read as the largest double, they still bound S from below, so
    # the scale stays certified and the search prices x as 10 times 1e307 a
    big = f_norm_upper(power_log(1.0, 0.0, 1e308), E)
    assert big.witness.verified
    tenth = f_norm_upper(power_log(1.0, 0.0, 1e307), E).upper
    if E == LORENTZ_LOG1P:
        # at 1e307 a finite truncation wins; at 1e308 its image is clamped
        assert 10.0 * tenth <= big.upper <= 10.0 * tenth * 1.01
    else:
        assert big.upper == 10.0 * tenth


# ---------------------------------------------------------------------------
# mu(x) of an analytic input: the unit profile of its tail

# the fnorm_mix in-range profiles at scales of either sign
signed_profiles = st.builds(
    lambda ab, scale, sign: power_log(ab[0], ab[1], sign * scale),
    st.sampled_from([(1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (1.25, 0.0), (1.5, 0.0),
                     (1.5, 0.5), (1.5, 1.0), (2.0, 0.0), (2.0, 2.0)]),
    st.floats(min_value=0.3, max_value=3.0),
    st.sampled_from([-1.0, 1.0]),
)


def _rearrangement_priced_upper(x, E, window):
    """The search with mu(x) itself a candidate, a tailed Rearrangement normed
    after scaling: the least certified E-norm, or None if none certifies."""
    mu_x = decreasing_rearrangement(x)
    shapes = [power_log(1.0, 0.0)] + [power_log(a, b) for a, b in GENERATORS]
    shapes += [finite(mu_x.head(L)) for L in sorted({min(L, window) for L in TRUNCATION_LEVELS})]
    costs = []
    for shape in shapes + [mu_x]:
        c, _ = _scale_of(mu_x, shape, window)
        if math.isinf(c) or c == 0.0:
            continue
        if isinstance(shape, PowerLogSequence):
            cost = c * _unit_norm(E, shape, window)
        else:
            try:
                nv = space_norm(E, _scaled_shape(shape, c), window)
            except DivergentTailError:
                continue
            cost = nv.value + nv.tail_halfwidth
        if 0.0 < cost < math.inf:
            costs.append(cost)
    return min(costs, default=None)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(signed_profiles, st.sampled_from(CATALOG_SPACES))
def test_analytic_mu_x_is_searched_through_its_unit_profile(x, E):
    # x = s g gives mu(x) = |s| mu(g): the same witness function, so only
    # rounding separates the two prices, and the witness is a wire sequence
    want = _rearrangement_priced_upper(x, E, SMALL_GRID.window)
    if want is None:
        with pytest.raises(NoWitnessFoundError):
            f_norm_upper(x, E, SMALL_GRID)
        return
    est = f_norm_upper(x, E, SMALL_GRID)
    assert est.upper == pytest.approx(want, rel=1e-15)
    assert est.witness.verified
    y = est.witness.y
    assert isinstance(y, (FiniteSequence, PowerLogSequence))
    doc = json.loads(json.dumps(sequence_to_json(y)))
    assert sequence_to_json(sequence_from_json(doc)) == sequence_to_json(y)


@pytest.mark.parametrize("E", CATALOG_SPACES, ids=lambda E: E.label)
def test_search_meets_a_tailed_rearrangement_only_in_the_recheck(E):
    # the unit profile's image and norm do not depend on x: once cached, the
    # search over another scale of the profile neither applies S to nor norms
    # a Rearrangement with a power-log tail; only the re-check of a power-log
    # winner reads S mu(y) afresh
    f_norm_upper(power_log(2.0, 2.0, 0.5), E, SMALL_GRID)
    seen, in_recheck = [], []

    def tailed(y):
        return isinstance(y, Rearrangement) and not y.tail.is_zero

    def calderon_spy(y, n):
        if tailed(y):
            seen.append(("calderon", bool(in_recheck)))
        return calderon(y, n)

    def norm_spy(E, y, window=65536):
        if tailed(y):
            seen.append(("space_norm", bool(in_recheck)))
        return space_norm(E, y, window)

    def recheck_spy(x, y, window):
        in_recheck.append(True)
        try:
            return check_domination(x, y, window)
        finally:
            in_recheck.pop()

    with mock.patch.object(optimal_range, "calderon", calderon_spy), \
            mock.patch.object(optimal_range, "space_norm", norm_spy), \
            mock.patch.object(optimal_range, "check_domination", recheck_spy):
        est = f_norm_upper(power_log(2.0, 2.0, -1.3), E, SMALL_GRID)
    assert est.witness.verified
    power_log_winner = isinstance(est.witness.y, PowerLogSequence)
    assert seen == ([("calderon", True)] if power_log_winner else [])


# ---------------------------------------------------------------------------
# quasi-triangle, minimality, sandwich


def test_quasitriangle_on_seeded_pairs():
    rng = family_rng("test-quasitriangle", 13)
    pairs = [
        (finite(rng.standard_normal(int(rng.integers(1, 10)))),
         finite(rng.standard_normal(int(rng.integers(1, 10)))))
        for _ in range(15)
    ]
    c_E = axiom_check(WEAK_L1, trials=60, seed=13).quasi_triangle_modulus
    sides = f_quasitriangle_pairs(WEAK_L1, pairs, c_E, SMALL_GRID)
    assert len(sides) == len(pairs)
    for (x1, x2), (f12, bound) in zip(pairs, sides):
        f1 = f_norm_upper(x1, WEAK_L1, SMALL_GRID).upper
        f2 = f_norm_upper(x2, WEAK_L1, SMALL_GRID).upper
        assert bound == 2.0 * c_E * c_E * (f1 + f2)
        assert 0.0 < f12 <= bound


def test_minimality_probes_small_windows():
    witnesses = [power_log(1.0, 0.0), finite([1.0, 0.5, 0.25])]
    probes = verify_minimality(
        WEAK_L1,
        catalog=[WEAK_L1, M1INF],
        witnesses=witnesses,
        window=1 << 13,
        member_window=1 << 8,
        search=SMALL_GRID,
    )
    # measurements only: the verdicts are drawn in suites.py
    assert all(isinstance(v, float) for p in probes for k, v in vars(p).items() if k != "space")
    by_label = {p.space: p for p in probes}
    weak = by_label["weak_l1"]
    assert image_escapes(weak)
    assert weak.probe_constant > weak.probe_constant_half
    m = by_label["m1inf"]
    assert not image_escapes(m)
    assert m.containment_ratio <= 1.0 + CONTAINMENT_TOL
    assert math.isfinite(m.containment_constant)


def test_hilbert_sandwich_small():
    l1_fam = [
        FiniteSequence(IndexDomain.LINE, 0, family_rng("test-sandwich", 3, i).standard_normal(24))
        for i in range(6)
    ]
    mono_fam = generate_family("RandomNonnegDecreasing", 6, seed=3, max_support=24)
    upper = hilbert_upper_constant(l1_fam, 1 << 9, 64)
    upper_doubled = hilbert_upper_constant(l1_fam, 1 << 10, 64)
    assert 0.0 < upper < math.inf
    assert abs(upper_doubled - upper) / upper <= 0.25
    for x in mono_fam:
        lhs, rhs = reflected_lower_pair(x, 64, METHOD_FAST)
        mask = lhs > 0
        assert np.any(mask)
        assert np.min(rhs[mask] / lhs[mask]) >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# the closed-form anchor used throughout


def test_closed_form_envelope_toward_one():
    ns = np.array([100, 1000, 10_000, 1_000_000], dtype=np.int64)
    ratio = harmonic_calderon_closed_form(ns) * (ns + 1.0) / np.log(ns + 1.0)
    assert np.all(1.0 <= ratio) and np.all(ratio <= 1.0 + 1.8 / np.log(ns + 1.0))


def test_closed_form_matches_prefix_calderon():
    out = calderon(power_log(1.0, 0.0), 2048)
    closed = harmonic_calderon_closed_form(np.arange(2048))
    assert float(np.max(np.abs(out.window_values - closed))) <= 1e-10
