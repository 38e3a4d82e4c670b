"""Named verification suites behind the `verify` command.

Each suite is a fixed-order list of property checks over deterministic
families: (seed, config) fixes every drawn sequence and therefore every byte
of the report.  Wall-clock measurements are deliberately excluded from all
reports (timing lives only in the bench command), so repeated runs are
byte-identical.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from .families import (
    FAMILY_RANDOM_NONNEG_DECREASING,
    FAMILY_RANDOM_SIGNED,
    FAMILY_SPIKES,
    family_rng,
    generate_family,
)
from .operators import (
    METHOD_FAST,
    METHOD_NAIVE,
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
from .optimal_range import (
    GridConfig,
    MinimalityProbe,
    NoWitnessFoundError,
    check_domination,
    f_norm_upper,
    f_quasitriangle_pairs,
    harmonic_calderon_closed_form,
    hilbert_upper_constant,
    verify_minimality,
    weak_l1_membership,
)
from .report import FAIL, PASS, CaseResult, RunConfig, VerificationReport
from .sequences import (
    FiniteSequence,
    IndexDomain,
    add_scaled,
    decreasing_rearrangement,
    dilate,
    finite,
    harmonic_numbers,
    power_log,
    weighted_tail_sum,
)
from .spaces import (
    LLOG,
    LOG1P,
    M1INF,
    SUM_SPACE,
    WEAK_L1,
    AxiomCheckResult,
    PhiTemplate,
    SpaceSpec,
    axiom_check,
    llog_norm,
    lorentz_phi_norm,
    lp_norm,
    lp_space,
    marcinkiewicz_norm,
    sum_space_quasinorm,
    weak_l1_quasinorm,
)

SUITE_NAMES = ("core", "norms", "operators", "optrange", "all")
OPTRANGE_SUBSUITES = ("quasitriangle", "minimality", "hilbert")

LOG2 = math.log(2.0)
TOLERANCE_EXACT = 1e-12  # absolute or relative slack of a check in exact arithmetic
TOLERANCE_FAST = 1e-9  # normwise slack of the FFT Hilbert route against the naive one
QUASITRIANGLE_TOL = 1e-9  # relative slack of f(x1+x2) <= 2 c_E^2 (f(x1) + f(x2))
UNBOUNDED_SUP_THRESHOLD = 10.0  # a harmonic minimality probe above this escapes G,
UNBOUNDED_DRIFT_THRESHOLD = 0.5  # as does one that a window doubling raises this much
CONTAINMENT_TOL = 1e-9  # relative slack of |x|_G <= C f(x)
HOMOGENEITY_TOL = 1e-9  # largest relative deviation of |c x| from |c| |x| in the axiom check


def _case(name: str, ok: bool, observed: Optional[float], note: str, witness=None) -> CaseResult:
    return CaseResult(
        name=name,
        status=PASS if ok else FAIL,
        observed_constant=observed,
        witness=witness,
        note=note,
    )


def _scan_case(name: str, note: str, seed: int, failures, count: bool = False) -> CaseResult:
    """Case from a lazy stream of failures, each a case index or a dict of
    witness fields that holds "case_index".

    The scan stops at the first failure, so the stream computes and draws
    nothing beyond it.  With count=True it consumes the whole stream, reports
    the number of failures as the observed constant and keeps the first one
    as the witness.
    """
    first, violations = None, 0
    for failure in failures:
        violations += 1
        if first is None:
            first = failure if isinstance(failure, dict) else {"case_index": failure}
        if not count:
            break
    witness = None if first is None else {"seed": seed, **first}
    return _case(name, first is None, float(violations) if count else None, note, witness)


def _exceeds(lhs: np.ndarray, rhs: np.ndarray, tol: float) -> bool:
    """Whether lhs <= rhs fails anywhere beyond the slack tol * max(1, |rhs|)."""
    return bool(np.any(lhs - rhs - tol * np.maximum(1.0, np.abs(rhs)) > 0))


# ---------------------------------------------------------------------------
# core suite


def _core_cases(config: RunConfig, axioms: dict) -> List[CaseResult]:
    cases: List[CaseResult] = []
    seed = config.seed

    signed = generate_family(FAMILY_RANDOM_SIGNED, 200, seed)

    cases.append(
        _scan_case(
            "mu_idempotent_bitwise",
            f"mu(mu(x)) == mu(x) bitwise over {len(signed)} signed sequences",
            seed,
            (
                i
                for i, x in enumerate(signed)
                if not decreasing_rearrangement(x).equals(
                    decreasing_rearrangement(decreasing_rearrangement(x))
                )
            ),
        )
    )

    rng = family_rng("core/permutation", seed)
    cases.append(
        _scan_case(
            "mu_permutation_invariant",
            f"mu invariant under index permutation over {len(signed)} sequences",
            seed,
            (
                i
                for i, x in enumerate(signed)
                if not decreasing_rearrangement(x).equals(
                    decreasing_rearrangement(finite(x.values[rng.permutation(len(x.values))]))
                )
            ),
        )
    )

    def homogeneity_failures(rng):
        for i, x in enumerate(signed):
            c = float(rng.standard_normal()) * 3.0
            lhs = decreasing_rearrangement(finite(x.values * c)).values
            if not np.array_equal(lhs, abs(c) * decreasing_rearrangement(x).values):
                yield i

    cases.append(
        _scan_case(
            "mu_absolute_homogeneity_bitwise",
            f"mu(c x) == |c| mu(x) bitwise over {len(signed)} sequences",
            seed,
            homogeneity_failures(family_rng("core/homogeneity", seed)),
        )
    )

    cases.append(
        _scan_case(
            "dilation_composition_bitwise",
            "sigma_m(sigma_k(mu x)) == sigma_{mk}(mu x) for m,k in {2,3,4} over 50 sequences",
            seed,
            (
                {"case_index": i, "m": m, "k": k}
                for i, mu in enumerate(map(decreasing_rearrangement, signed[:50]))
                for m in (2, 3, 4)
                for k in (2, 3, 4)
                if not dilate(dilate(mu, m), k).equals(dilate(mu, m * k))
            ),
        )
    )

    def two_term_failures(rng, n_pairs):
        for i in range(n_pairs):
            n1 = int(rng.integers(1, 48))
            n2 = int(rng.integers(1, 48))
            x1 = finite(rng.standard_normal(n1))
            x2 = finite(rng.standard_normal(n2))
            s = add_scaled(x1, 1.0, x2, 1.0)
            n = max(n1, n2) + 2
            lhs = decreasing_rearrangement(s).head(n)
            d1 = dilate(decreasing_rearrangement(x1), 2).head(n)
            d2 = dilate(decreasing_rearrangement(x2), 2).head(n)
            if np.any(lhs > d1 + d2 + 1e-15):
                yield i

    n_pairs = 1000
    cases.append(
        _scan_case(
            "mu_two_term_subadditivity",
            f"mu(n, x1+x2) <= (sigma_2 mu x1)(n) + (sigma_2 mu x2)(n), {n_pairs} pairs",
            seed,
            two_term_failures(family_rng("core/two_term", seed), n_pairs),
            count=True,
        )
    )

    def multi_term_failures(rng, n_tuples):
        for i in range(n_tuples):
            K = int(rng.integers(2, 7))
            xs = [finite(rng.standard_normal(int(rng.integers(1, 32)))) for _ in range(K)]
            total = xs[0]
            for xk in xs[1:]:
                total = add_scaled(total, 1.0, xk, 1.0)
            n = max(x.end for x in xs) + 2
            lhs = decreasing_rearrangement(total).head(n)
            rhs = np.zeros(n)
            for k, xk in enumerate(xs, start=1):
                rhs += dilate(decreasing_rearrangement(xk), 2**k).head(n)
            if np.any(lhs > rhs + 1e-15):
                yield i

    n_tuples = 200
    cases.append(
        _scan_case(
            "mu_multi_term_dilated_bound",
            f"mu(n, sum x_k) <= sum (sigma_2^k mu x_k)(n), K <= 6, {n_tuples} tuples",
            seed,
            multi_term_failures(family_rng("core/multi_term", seed), n_tuples),
            count=True,
        )
    )

    # certified tail brackets contain brute-force partial sums plus remainder
    worst_hw = 0.0
    ok_tail = True
    for alpha, beta in ((1.0, 0.0), (1.5, 0.0), (2.0, 1.0), (1.25, 2.0)):
        x = power_log(alpha, beta)
        start = 64
        b = weighted_tail_sum(x, start - 1)
        brute = 0.0  # summed in blocks of 2^16 terms, so no 2^21-entry temporary
        for k0 in range(start, 1 << 21, 1 << 16):
            ks = np.arange(k0, min(k0 + (1 << 16), 1 << 21), dtype=np.float64)
            brute += float(np.sum(x.values_at(ks) / ks))
        rem = weighted_tail_sum(x, (1 << 21) - 1)
        overlap = max(b.lo, brute + rem.lo) <= min(b.hi, brute + rem.hi) + 1e-12
        ok_tail = ok_tail and overlap
        worst_hw = max(worst_hw, b.halfwidth)
    cases.append(
        _case(
            "weighted_tail_bracket_contains_brute_sum",
            ok_tail,
            worst_hw,
            "sum_{k>n} x(k)/k brackets overlap 2^21-term partial sums plus certified remainder",
        )
    )

    def add_scaled_failures(rng):
        for i in range(100):
            x1 = finite(rng.standard_normal(int(rng.integers(1, 32))))
            x2 = finite(rng.standard_normal(int(rng.integers(1, 32))), offset=int(rng.integers(0, 8)))
            a1 = float(rng.standard_normal())
            a2 = float(rng.standard_normal())
            s = add_scaled(x1, a1, x2, a2)
            hi = max(x1.end, x2.end) + 1
            want = np.array([a1 * x1.value_at(k) + a2 * x2.value_at(k) for k in range(hi)])
            got = np.array([s.value_at(k) for k in range(hi)])
            if not np.allclose(got, want, rtol=0.0, atol=1e-15):
                yield i

    cases.append(
        _scan_case(
            "add_scaled_pointwise",
            "merged linear combination matches dense arithmetic over 100 draws",
            seed,
            add_scaled_failures(family_rng("core/add_scaled", seed)),
        )
    )
    return cases


# ---------------------------------------------------------------------------
# norms suite


_AXIOM_SPACES: tuple = (
    lp_space(1.5),
    lp_space(2.0),
    lp_space(3.0),
    WEAK_L1,
    LLOG,
    SpaceSpec(kind="lorentz_phi", phi=LOG1P),
    SpaceSpec(kind="lorentz_phi", phi=PhiTemplate("power", 0.5)),
    M1INF,
    SUM_SPACE,
)


def _axiom_check(spec: SpaceSpec, config: RunConfig, axioms: dict) -> AxiomCheckResult:
    """axiom_check at the run's trials and seed, once per run_suite call:
    `axioms` maps a space label to its result within that call only."""
    if spec.label not in axioms:
        axioms[spec.label] = axiom_check(spec, trials=config.trials, seed=config.seed)
    return axioms[spec.label]


def _norms_cases(config: RunConfig, axioms: dict) -> List[CaseResult]:
    cases: List[CaseResult] = []
    seed = config.seed

    for spec in _AXIOM_SPACES:
        res = _axiom_check(spec, config, axioms)
        ok = (
            res.monotonicity_violations == 0
            and res.rearrangement_violations == 0
            and res.homogeneity_max_rel_dev <= HOMOGENEITY_TOL
        )
        cases.append(
            _case(
                f"axioms_{spec.label}",
                ok,
                res.quasi_triangle_modulus,
                (
                    f"monotone={res.monotonicity_violations} rearr={res.rearrangement_violations} "
                    f"homog_dev={res.homogeneity_max_rel_dev:.3e} over {res.trials} trials"
                ),
                None if ok else {"seed": seed, "worst_pair": res.worst_triangle_pair},
            )
        )

    fam = generate_family(FAMILY_RANDOM_SIGNED, 200, seed) + generate_family(
        FAMILY_SPIKES, 50, seed
    )
    sup_ratio = 0.0
    for x in fam:
        w = weak_l1_quasinorm(x).value
        if w == 0.0:
            continue
        sup_ratio = max(sup_ratio, marcinkiewicz_norm(x).value / w)
    cases.append(
        _case(
            "marcinkiewicz_within_inv_log2_of_weak",
            sup_ratio <= 1.0 / LOG2 + 1e-9,
            sup_ratio,
            f"sup m(x)/weak(x) over {len(fam)} finite sequences vs 1/log2 = {1 / LOG2:.12f}",
        )
    )

    wv = weak_l1_quasinorm(power_log(1.0, 1.0)).value
    cases.append(
        _case(
            "log_profile_weak_l1_infinite",
            math.isinf(wv),
            None,
            "sup (n+1) mu(n) diverges for mu(n) = log(n+2)/(n+1)",
        )
    )
    mv = marcinkiewicz_norm(power_log(1.0, 1.0), window=config.window).value
    cases.append(
        _case(
            "log_profile_marcinkiewicz_infinite",
            math.isinf(mv),
            None,
            "partial sums of log(k+2)/(k+1) grow like log^2/2, outrunning log(2+n)",
        )
    )

    rng = family_rng("norms/lorentz_l1", seed)
    worst = 0.0
    for _ in range(50):
        x = finite(rng.standard_normal(int(rng.integers(1, 40))))
        a = lorentz_phi_norm(x, PhiTemplate("power", 1.0)).value
        b = lp_norm(x, 1.0).value
        if b > 0:
            worst = max(worst, abs(a - b) / b)
    cases.append(
        _case(
            "lorentz_linear_phi_equals_l1",
            worst <= 1e-12,
            worst,
            "phi(t)=t Lorentz norm matches the l1 norm on finite supports",
        )
    )

    rng = family_rng("norms/llog_constants", seed)
    lo_ratio, hi_ratio = math.inf, 0.0
    for _ in range(100):
        x = finite(np.abs(rng.standard_normal(int(rng.integers(1, 40)))))
        a = lorentz_phi_norm(x, LOG1P).value
        b = llog_norm(x).value
        if b > 0:
            r = a / b
            lo_ratio, hi_ratio = min(lo_ratio, r), max(hi_ratio, r)
    cases.append(
        _case(
            "llog_vs_log1p_increment_constants",
            LOG2 - 1e-12 <= lo_ratio and hi_ratio <= 1.0 + 1e-12,
            hi_ratio,
            f"ratio of log(1+t)-increment norm to sum mu/(n+1) in [{lo_ratio:.6f}, {hi_ratio:.6f}], "
            f"certified interval [log2, 1]",
        )
    )

    rng = family_rng("norms/sum_space", seed)
    worst = 0.0
    for _ in range(100):
        x = finite(rng.standard_normal(int(rng.integers(1, 40))))
        s = sum_space_quasinorm(x).value
        worst = max(worst, abs(s - float(np.max(np.abs(x.values)))))
    cases.append(
        _case(
            "sum_space_degenerates_to_sup",
            worst <= 1e-12,
            worst,
            "optimal split puts the whole sequence in the bounded part at height mu(0)",
        )
    )
    return cases


# ---------------------------------------------------------------------------
# operators suite


def _operators_cases(config: RunConfig, axioms: dict) -> List[CaseResult]:
    cases: List[CaseResult] = []
    seed = config.seed
    window = config.window
    small = min(window, 256)

    rng = family_rng("operators/linearity", seed)
    worst = 0.0
    for _ in range(50):
        x1 = finite(rng.standard_normal(int(rng.integers(1, 48))))
        x2 = finite(rng.standard_normal(int(rng.integers(1, 48))))
        a1, a2 = float(rng.standard_normal()), float(rng.standard_normal())
        lhs = calderon(add_scaled(x1, a1, x2, a2), small).window_values
        rhs = a1 * calderon(x1, small).window_values + a2 * calderon(x2, small).window_values
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / max(float(np.max(np.abs(rhs))), 1.0))
    cases.append(
        _case(
            "calderon_linearity",
            worst <= TOLERANCE_EXACT,
            worst,
            "max |S(a x1 + b x2) - a S x1 - b S x2| over 50 pairs",
        )
    )

    mono = generate_family(FAMILY_RANDOM_NONNEG_DECREASING, 50, seed)
    cases.append(
        _scan_case(
            "calderon_positive_and_monotone",
            "S x >= 0 and nonincreasing for nonnegative nonincreasing x, 50 draws",
            seed,
            (
                i
                for i, v in enumerate(calderon(x, small).window_values for x in mono)
                if np.any(v < -1e-15) or np.any(np.diff(v) > 1e-15)
            ),
        )
    )

    rng = family_rng("operators/min_kernel", seed)
    worst = 0.0
    for _ in range(50):
        x = finite(rng.standard_normal(int(rng.integers(1, 64))))
        a = calderon(x, small).window_values
        b = calderon_min_kernel(x, small).window_values
        worst = max(worst, float(np.max(np.abs(a - b))))
    cases.append(
        _case(
            "calderon_min_kernel_agreement",
            worst <= TOLERANCE_EXACT,
            worst,
            "averaging-plus-tail route vs min-kernel route, 50 sequences",
        )
    )

    rows, k_max = (0, 1, 2, 7, 64), 512
    cases.append(
        _case(
            "kernel_monotonicity",
            not any(np.any(np.diff(kernel_values(n, np.arange(1, k_max + 1))) > 0) for n in rows),
            None,
            f"rows {list(rows)}, k up to {k_max}",
        )
    )

    def domination_failures(family):
        for i, x in enumerate(family):
            sx = calderon(x, small)
            smu = calderon(decreasing_rearrangement(x), small)
            lhs = np.abs(sx.window_values) - sx.tail_halfwidth_per_index
            rhs = smu.window_values + smu.tail_halfwidth_per_index
            if _exceeds(lhs, rhs, TOLERANCE_EXACT):
                yield i

    signed = generate_family(FAMILY_RANDOM_SIGNED, config.trials, seed)
    cases.append(
        _scan_case(
            "pointwise_domination_by_rearranged_image",
            f"|S x| <= S mu(x) pointwise over {len(signed)} signed sequences",
            seed,
            domination_failures(signed),
            count=True,
        )
    )

    def rearrangement_fixed(x) -> bool:
        v = calderon(decreasing_rearrangement(x), small).window_values
        return bool(np.all(np.diff(v) <= 0)) and np.array_equal(np.sort(v)[::-1], v)

    probes = mono[:50] + [finite(1.0 / (np.arange(64) + 1.0))]
    cases.append(
        _scan_case(
            "image_of_monotone_is_own_rearrangement",
            "S mu(x) is nonincreasing and equal to its sorted self, bitwise",
            seed,
            (i for i, x in enumerate(probes) if not rearrangement_fixed(x)),
        )
    )

    lower_window = min(window, 512)
    cases.append(
        _scan_case(
            "hilbert_reflected_lower_bound",
            f"S x(n)/(2 pi) <= |H x(-n)| on [1, {lower_window}] for nonneg nonincreasing x",
            seed,
            (
                i
                for i, x in enumerate(mono[: min(config.trials, 50)])
                if _exceeds(*reflected_lower_pair(x, lower_window, METHOD_NAIVE), TOLERANCE_EXACT)
            ),
            count=True,
        )
    )

    impulse = FiniteSequence(IndexDomain.LINE, 0, np.array([1.0]))
    h = hilbert_symmetric(impulse, min(window, 4096))
    wnorm = weak_l1_quasinorm(finite(h.window_values)).value
    cases.append(
        _case(
            "unit_impulse_weak_l1_constant",
            abs(wnorm - 2.0 / math.pi) <= TOLERANCE_EXACT,
            wnorm,
            "weak-l1 norm of the transformed unit impulse equals 2/pi",
        )
    )

    rng = family_rng("operators/weak11", seed)
    fam = []
    for _ in range(100):
        v = rng.standard_normal(int(rng.integers(1, 64)))
        v /= np.sum(np.abs(v))
        fam.append(FiniteSequence(IndexDomain.LINE, 0, v))
    est = estimate_weak11_constant(fam, window=1 << 12)
    cases.append(
        _case(
            "weak11_family_constant_stable",
            math.isfinite(est.constant) and est.relative_change <= 0.05,
            est.constant,
            (
                f"empirical sup |Hx|_w over 100 l1-normalized inputs; window doubling moves it "
                f"{est.relative_change * 100:.3f}%"
            ),
        )
    )

    for p in (1.5, 2.0, 3.0):
        bound = p + p / (p - 1.0)
        worst = hardy_ratio(p, signed)
        cases.append(_case(f"hardy_constant_p{p:g}", worst <= bound + 1e-6, worst, f"bound {bound:g}"))

    rng = family_rng("operators/fast_naive", seed)
    v = rng.standard_normal(1 << 12)
    dev = fast_naive_agreement(
        FiniteSequence(IndexDomain.LINE, -(1 << 11), v), 1 << 12
    )
    cases.append(
        _case(
            "hilbert_fast_matches_naive",
            dev <= TOLERANCE_FAST,
            dev,
            "normwise deviation max|naive-fast|/max|naive| between direct-sum and "
            "convolution routes, support 4096",
        )
    )

    def even_failures(rng):
        for i in range(20):
            half = rng.standard_normal(int(rng.integers(1, 32)))
            even = FiniteSequence(
                IndexDomain.LINE, -len(half), np.concatenate([half[::-1], [0.0], half])
            )
            h0 = hilbert(even, 0, 0, METHOD_NAIVE).value_at(0)
            if not abs(h0) / max(even.l1(), 1.0) <= TOLERANCE_EXACT:
                yield i

    cases.append(
        _scan_case(
            "hilbert_even_input_cancels_at_zero",
            "(H x)(0) = 0 for sequences even about 0, 20 draws",
            seed,
            even_failures(family_rng("operators/even", seed)),
        )
    )

    lo, hi = dilation_commutation_band(mono, ms=(2, 4, 8), window=min(window, 4096))
    cases.append(
        _case(
            "dilation_commutation_band",
            0.2 <= lo <= hi <= 5.0,
            hi,
            f"ratio band [{lo:.6f}, {hi:.6f}] of S sigma_m mu(y) to sigma_m S mu(y), m in {{2,4,8}}",
        )
    )
    return cases


# ---------------------------------------------------------------------------
# optrange suite


def _finite_support_cap(grid: GridConfig) -> int:
    # a finite input longer than the window is certified on its whole
    # support; the cap only keeps the seed-1 families as they were drawn
    return max(2, min(32, grid.window // 2))


def _optrange_quasitriangle_cases(config: RunConfig, axioms: dict) -> List[CaseResult]:
    seed = config.seed
    grid = GridConfig.for_window(config.window)
    cap = _finite_support_cap(grid)
    rng = family_rng("optrange/quasitriangle", seed)
    pairs = []
    for _ in range(config.trials):
        a = finite(rng.standard_normal(int(rng.integers(1, cap))))
        b = finite(rng.standard_normal(int(rng.integers(1, cap))))
        pairs.append((a, b))
    c_E = _axiom_check(WEAK_L1, config, axioms).quasi_triangle_modulus
    violations, worst = 0, 0.0
    for f12, bound in f_quasitriangle_pairs(WEAK_L1, pairs, c_E=c_E, search=grid):
        if bound == 0.0:
            ok = f12 == 0.0
            ratio = 0.0 if ok else math.inf
        else:
            ratio = f12 / bound
            ok = f12 <= bound * (1.0 + QUASITRIANGLE_TOL)
        worst = max(worst, ratio)
        violations += not ok
    return [
        _case(
            f"f_quasitriangle_{WEAK_L1.kind}",
            violations == 0,
            worst,
            f"{violations} violations over {len(pairs)} pairs (measured c_E={c_E:.6g})",
        )
    ]


def image_escapes(p: MinimalityProbe) -> bool:
    """The harmonic image leaves G: its probe is unbounded at desk scale."""
    return (p.probe_constant > UNBOUNDED_SUP_THRESHOLD
            or p.probe_constant - p.probe_constant_half >= UNBOUNDED_DRIFT_THRESHOLD)


def _optrange_minimality_cases(config: RunConfig, axioms: dict) -> List[CaseResult]:
    seed = config.seed
    grid = GridConfig.for_window(config.window)
    witnesses = [
        power_log(1.0, 0.0),
        power_log(1.5, 0.0),
        power_log(2.0, 0.0),
        finite([1.0, 0.5, 0.25, 0.125]),
    ] + generate_family(FAMILY_RANDOM_NONNEG_DECREASING, 4, seed, max_support=16)
    catalog = [WEAK_L1, M1INF, LLOG, lp_space(2.0)]
    probes = verify_minimality(
        WEAK_L1,
        catalog,
        witnesses,
        window=1 << 16,
        member_window=min(grid.window, 1 << 12),
        search=grid,
    )
    by = {p.space: p for p in probes}
    cases = [
        _case(
            "minimality_weak_l1_image_escapes",
            image_escapes(by["weak_l1"]),
            by["weak_l1"].probe_constant,
            (
                f"windowed |S mu(a)|_w / |a|_w reaches {by['weak_l1'].probe_constant:.4f} at 2^16 "
                f"(half-window {by['weak_l1'].probe_constant_half:.4f}): growth, not saturation"
            ),
        )
    ]
    for label in ("m1inf", "llog", "lp(2)"):
        p = by[label]
        ok = not image_escapes(p) and p.containment_ratio <= 1.0 + CONTAINMENT_TOL
        cases.append(
            _case(
                f"minimality_containment_{label}",
                ok,
                p.containment_constant,
                (
                    f"probe {p.probe_constant:.4f} (half {p.probe_constant_half:.4f}); "
                    f"|x|_G <= C |x|_F held with C={p.containment_constant:.4f} on generated members"
                ),
            )
        )
    return cases


def _optrange_hilbert_cases(config: RunConfig, axioms: dict) -> List[CaseResult]:
    seed = config.seed
    rng = family_rng("optrange/sandwich", seed)
    l1fam, monofam = [], []
    for _ in range(min(config.trials, 50)):
        v = rng.standard_normal(int(rng.integers(4, 48)))
        v /= np.sum(np.abs(v))
        l1fam.append(finite(v))
        monofam.append(finite(np.sort(rng.random(int(rng.integers(4, 48))))[::-1]))
    # upper half: mu(H x) <= C1 S mu(x), C1 read at the window and its double
    upper = hilbert_upper_constant(l1fam, 1 << 12, 512)
    upper_doubled = hilbert_upper_constant(l1fam, 1 << 13, 512)
    drift = abs(upper_doubled - upper) / max(upper, 1e-300)
    # lower half: the least ratio |H x(-n)| / (S x(n) / (2 pi)), n in [1, 512]
    min_ratio = math.inf
    for x in monofam:
        lhs, rhs = reflected_lower_pair(x, 512, METHOD_FAST)
        mask = lhs > 0
        if np.any(mask):
            min_ratio = min(min_ratio, float(np.min(rhs[mask] / lhs[mask])))
    ok = 0.0 < upper < math.inf and drift <= 0.05 and min_ratio >= 1.0 - 1e-12
    return [
        _case(
            "hilbert_sandwich_two_sided",
            ok,
            upper,
            (
                f"mu(Hx) <= C1 S mu(x) with C1={upper:.6f} "
                f"(doubled window {upper_doubled:.6f}, drift {drift * 100:.3f}%); "
                f"reflected lower bound min ratio {min_ratio:.6f} >= 1"
            ),
        )
    ]


def _optrange_cases(config: RunConfig, axioms: dict) -> List[CaseResult]:
    cases: List[CaseResult] = []
    seed = config.seed
    grid = GridConfig.for_window(config.window)
    cap = _finite_support_cap(grid)

    err0 = abs(harmonic_calderon_closed_form(0) - 2.0)
    err1 = abs(harmonic_calderon_closed_form(1) - 1.25)
    cases.append(
        _case(
            "harmonic_image_anchor_values",
            max(err0, err1) <= TOLERANCE_EXACT,
            max(err0, err1),
            "closed form gives 2 at n=0 and 5/4 at n=1",
        )
    )

    W = min(config.window, 100_000)
    out = calderon(power_log(1.0, 0.0), W)
    closed = harmonic_calderon_closed_form(np.arange(W))
    dev = float(np.max(np.abs(out.window_values - closed) / closed))
    cases.append(
        _case(
            "harmonic_image_prefix_agreement",
            dev <= 1e-10,
            dev,
            f"prefix-sum evaluation matches closed form to window {W}",
        )
    )

    ns = np.arange(10, 10_001)
    ratio = (harmonic_numbers(10_001)[10:] + 1.0) / np.log(ns + 1.0)
    envelope_ok = bool(
        np.all(ratio >= 1.0)
        and np.all(ratio <= 1.0 + 1.8 / np.log(ns + 1.0))
        and np.all(np.diff(ratio) <= 1e-15)
    )
    big = np.array([10**2, 10**3, 10**4, 10**6])
    big_ratio = harmonic_calderon_closed_form(big) * (big + 1) / np.log(big + 1.0)
    big_ok = bool(np.all((1.0 <= big_ratio) & (big_ratio <= 1.0 + 1.8 / np.log(big + 1.0))))
    cases.append(
        _case(
            "harmonic_image_log_envelope",
            envelope_ok and big_ok,
            float(ratio[0]),
            "(H_{n+1}+1)/log(n+1) nonincreasing toward 1 on [10, 10^4] and inside "
            "1 + 1.8/log(n+1) up to 10^6",
        )
    )

    m = weak_l1_membership(power_log(1.0, 0.0), window=grid.window)
    cases.append(
        _case(
            "c_a_of_harmonic_profile",
            m.member and abs(m.c_a - 1.0 / LOG2) <= TOLERANCE_EXACT,
            m.c_a,
            "sup mu(n)(n+1)/log(n+2) for the harmonic profile equals 1/log 2",
        )
    )

    rng = family_rng("optrange/ca_scaling", seed)
    worst = 0.0
    for _ in range(50):
        x = finite(np.abs(rng.standard_normal(int(rng.integers(1, 32)))))
        c = float(rng.uniform(0.1, 10.0))
        a = weak_l1_membership(finite(x.values * c), window=grid.window).c_a
        b = c * weak_l1_membership(x, window=grid.window).c_a
        if b > 0:
            worst = max(worst, abs(a - b) / b)
    cases.append(
        _case(
            "c_a_positive_homogeneity",
            worst <= 1e-12,
            worst,
            "c_a(c x) = c c_a(x) up to float reassociation, 50 draws",
        )
    )

    def invariance_failures(rng):
        for i in range(50):
            x = finite(rng.standard_normal(int(rng.integers(1, cap))))
            fa = f_norm_upper(x, WEAK_L1, grid)
            fb = f_norm_upper(decreasing_rearrangement(x), WEAK_L1, grid)
            if fa.upper != fb.upper:
                yield i

    cases.append(
        _scan_case(
            "f_norm_rearrangement_invariant_bitwise",
            "witness search sees only mu(x): estimates agree bitwise, 50 draws",
            seed,
            invariance_failures(family_rng("optrange/mu_invariance", seed)),
        )
    )

    def witness_found(x) -> bool:
        try:
            f_norm_upper(x, WEAK_L1, grid)
        except NoWitnessFoundError:
            return False
        return True

    mixed = _mixed_membership_family(seed, config.trials, cap)
    cases.append(
        _scan_case(
            "membership_biconditional_with_witness_search",
            f"finiteness of c_a agrees with witness-search success on {len(mixed)} mixed inputs",
            seed,
            (
                i
                for i, x in enumerate(mixed)
                if weak_l1_membership(x, window=grid.window).member != witness_found(x)
            ),
            count=True,
        )
    )

    def reverify_failures(rng):
        for i in range(20):
            x = finite(np.abs(rng.standard_normal(int(rng.integers(1, cap)))))
            est = f_norm_upper(x, WEAK_L1, grid)
            cert = check_domination(est.witness.x, est.witness.y, grid.window)
            if not (est.witness.verified and cert.verified):
                yield i

    cases.append(
        _scan_case(
            "certificate_reverifies_from_scratch",
            "every emitted witness passes an independent re-check, 20 draws",
            seed,
            reverify_failures(family_rng("optrange/reverify", seed)),
        )
    )

    cases.extend(_optrange_quasitriangle_cases(config, axioms))
    cases.extend(_optrange_minimality_cases(config, axioms))
    cases.extend(_optrange_hilbert_cases(config, axioms))
    return cases


def _mixed_membership_family(seed: int, count: int, cap: int = 32) -> list:
    rng = family_rng("optrange/mixed_membership", seed)
    fam = []
    for i in range(count):
        kind = i % 5
        if kind == 0:
            fam.append(finite(rng.standard_normal(int(rng.integers(1, cap)))))
        elif kind == 1:
            fam.append(
                power_log(
                    float(rng.uniform(0.3, 2.5)),
                    float(rng.integers(0, 3)),
                    float(rng.uniform(0.5, 2.0)),
                )
            )
        elif kind == 2:
            fam.append(power_log(1.0, float(rng.integers(0, 4))))
        elif kind == 3:
            v = np.zeros(max(4, int(rng.integers(4, max(5, cap)))))
            v[rng.integers(0, len(v))] = rng.random() + 0.5
            fam.append(finite(v))
        else:
            fam.append(power_log(float(rng.uniform(1.01, 3.0)), 0.0))
    return fam


# ---------------------------------------------------------------------------
# dispatch


_SUITE_BUILDERS: dict = {
    "core": _core_cases,
    "norms": _norms_cases,
    "operators": _operators_cases,
    "optrange": _optrange_cases,
    "optrange/quasitriangle": _optrange_quasitriangle_cases,
    "optrange/minimality": _optrange_minimality_cases,
    "optrange/hilbert": _optrange_hilbert_cases,
}


def run_suite(name: str, config: Optional[RunConfig] = None) -> VerificationReport:
    """Run one named suite (or all four, in fixed order) and return the
    consolidated report.  Reports contain no wall-clock data: identical
    (name, config) pairs produce byte-identical reports."""
    config = config or RunConfig()
    if name != "all" and name not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {name!r}; choose one of {SUITE_NAMES}")
    report = VerificationReport(suite=name, cases=[], environment=config.environment_echo())
    axioms: dict = {}  # norms and optrange both read axiom_check(WEAK_L1)
    for part in SUITE_NAMES[:-1] if name == "all" else (name,):
        report.extend(_SUITE_BUILDERS[part](config, axioms))
    return report


def run_optrange_subsuite(name: str, config: Optional[RunConfig] = None) -> VerificationReport:
    """The focused sub-suites exposed by the optrange CLI verb."""
    if name not in OPTRANGE_SUBSUITES:
        raise ValueError(
            f"unknown optrange sub-suite {name!r}; choose one of {OPTRANGE_SUBSUITES}"
        )
    return run_suite(f"optrange/{name}", config)
