"""End-to-end acceptance criteria.

Each test exercises one numbered criterion at its stated tolerance and prints
a single `criterion NN [PASS|FAIL]` line (run with `pytest -s` to see the
lines stream).  Criteria with runtime budgets assert wall-clock bounds.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np

from calderon import cli
from calderon.families import family_rng, generate_family
from calderon.operators import (
    METHOD_NAIVE,
    bench_hilbert,
    calderon,
    dilation_commutation_band,
    estimate_weak11_constant,
    fast_naive_agreement,
    hardy_ratio,
    hilbert,
    reflected_lower_pair,
)
from calderon.optimal_range import (
    DEFAULT_GRID,
    NoWitnessFoundError,
    f_norm_upper,
    f_quasitriangle_pairs,
    harmonic_calderon_closed_form,
    verify_minimality,
    weak_l1_membership,
)
from calderon.sequences import FiniteSequence, IndexDomain, decreasing_rearrangement, finite, power_log
from calderon.spaces import M1INF, WEAK_L1, axiom_check, weak_l1_quasinorm
from calderon.suites import CONTAINMENT_TOL, _mixed_membership_family, image_escapes

SEED = 1
REPORT_SEED1 = Path(__file__).parent / "data" / "verify_all_seed1.json"


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}", flush=True)
    sys.stdout.flush()


def test_criterion_01_anchor_values_of_the_averaged_profile():
    t0 = time.monotonic()
    out = calderon(power_log(1.0, 0.0), 2)
    e0 = abs(out.value_at(0) - 2.0)
    e1 = abs(out.value_at(1) - 1.25)
    elapsed = time.monotonic() - t0
    ok = e0 <= 1e-12 and e1 <= 1e-12 and elapsed < 1.0
    _line(1, ok, f"errors ({e0:.2e}, {e1:.2e}) <= 1e-12, {elapsed:.3f}s < 1s")
    assert e0 <= 1e-12 and e1 <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_closed_form_envelope_and_prefix_agreement():
    t0 = time.monotonic()
    ns = np.array([10**2, 10**3, 10**4, 10**6])
    ratio = harmonic_calderon_closed_form(ns) * (ns + 1.0) / np.log(ns + 1.0)
    envelope_ok = bool(np.all((1.0 <= ratio) & (ratio <= 1.0 + 1.8 / np.log(ns + 1.0))))
    W = 10**5
    prefix = calderon(power_log(1.0, 0.0), W).window_values
    closed = harmonic_calderon_closed_form(np.arange(W))
    dev = float(np.max(np.abs(prefix - closed)))
    elapsed = time.monotonic() - t0
    ok = envelope_ok and dev <= 1e-10 and elapsed < 10.0
    _line(2, ok, f"envelope inside [1, 1+1.8/log], prefix dev {dev:.2e} <= 1e-10, "
                 f"{elapsed:.2f}s < 10s")
    assert envelope_ok
    assert dev <= 1e-10
    assert elapsed < 10.0


def test_criterion_03_pointwise_domination_thousand_signals():
    t0 = time.monotonic()
    fam = generate_family("RandomSigned", 1000, seed=SEED)
    violations = 0
    for x in fam:
        # |(S x)(n)| <= (S mu(x))(n) on the certified brackets, relative slack 1e-12
        sx = calderon(x, 256)
        smu = calderon(decreasing_rearrangement(x), 256)
        lhs = np.abs(sx.window_values) - sx.tail_halfwidth_per_index
        rhs = smu.window_values + smu.tail_halfwidth_per_index
        violations += bool(np.any(lhs - rhs > 1e-12 * np.maximum(1.0, rhs)))
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 30.0
    _line(3, ok, f"{violations} violations over 1000 signals at window 256, "
                 f"{elapsed:.2f}s < 30s")
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_04_reflected_lower_bound_monotone_family():
    t0 = time.monotonic()
    fam = generate_family("RandomNonnegDecreasing", 200, seed=SEED)
    violations = 0
    for x in fam:
        lhs, rhs = reflected_lower_pair(x, 512, METHOD_NAIVE)
        violations += bool(np.any(lhs - rhs > 1e-12 * np.maximum(1.0, rhs)))
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 60.0
    _line(4, ok, f"{violations} violations over 200 inputs for n in [1, 512], "
                 f"{elapsed:.2f}s < 60s")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_05_unit_impulse_weak_constant_and_family_stability():
    e0 = FiniteSequence(IndexDomain.LINE, 0, np.array([1.0]))
    h = hilbert(e0, -(1 << 12), 1 << 12, METHOD_NAIVE)
    w = weak_l1_quasinorm(
        finite(h.window_values, offset=h.offset, domain=IndexDomain.LINE)
    ).value
    impulse_err = abs(w - 2.0 / math.pi)
    fam = generate_family("RandomSigned", 100, seed=SEED)
    normalized = [
        FiniteSequence(IndexDomain.LINE, x.offset, x.values / x.l1()) for x in fam
    ]
    est = estimate_weak11_constant(normalized, window=1 << 12)
    ok = (
        impulse_err <= 1e-12
        and math.isfinite(est.constant)
        and est.constant > 0
        and est.relative_change <= 0.05
    )
    _line(5, ok, f"|impulse constant - 2/pi| = {impulse_err:.2e} <= 1e-12, family "
                 f"constant {est.constant:.6f}, doubling change "
                 f"{est.relative_change:.2%} <= 5%")
    assert impulse_err <= 1e-12
    assert math.isfinite(est.constant) and est.constant > 0
    assert est.relative_change <= 0.05


def test_criterion_06_hardy_bound_three_exponents():
    t0 = time.monotonic()
    fam = generate_family("RandomSigned", 500, seed=SEED)
    sups = {}
    ok = True
    for p in (1.5, 2.0, 3.0):
        sups[p] = hardy_ratio(p, fam)
        ok &= sups[p] <= p + p / (p - 1.0)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    detail = ", ".join(
        f"p={p:g}: {sups[p]:.4f} <= {p + p / (p - 1.0):g}" for p in sorted(sups)
    )
    _line(6, ok, f"{detail}, {elapsed:.2f}s < 60s")
    assert ok
    assert elapsed < 60.0


def test_criterion_07_fast_route_agreement_and_speedup():
    rng = family_rng("acceptance/fastnaive", SEED)
    x = FiniteSequence(IndexDomain.LINE, -(1 << 11), rng.standard_normal(1 << 12))
    dev = fast_naive_agreement(x, 1 << 12)
    row = bench_hilbert([1 << 16], seed=SEED)[0]
    ok = dev <= 1e-9 and row.speedup > 4.0
    _line(7, ok, f"agreement {dev:.2e} <= 1e-9 at support 2^12, speedup "
                 f"{row.speedup:.1f}x > 4x at support 2^16")
    assert dev <= 1e-9
    assert row.speedup > 4.0


def test_criterion_08_membership_biconditional_and_harmonic_constant():
    fam = _mixed_membership_family(SEED, 500, cap=32)
    disagreements = 0
    for x in fam:
        member = weak_l1_membership(x, window=DEFAULT_GRID.window).member
        try:
            f_norm_upper(x, WEAK_L1, DEFAULT_GRID)
            found = True
        except NoWitnessFoundError:
            found = False
        disagreements += found != member
    c_a = weak_l1_membership(power_log(1.0, 0.0)).c_a
    c_err = abs(c_a - 1.0 / math.log(2.0))
    ok = disagreements == 0 and c_err <= 1e-12
    _line(8, ok, f"{disagreements} disagreements over 500 mixed cases, "
                 f"|c_a(harmonic) - 1/log 2| = {c_err:.2e} <= 1e-12")
    assert disagreements == 0
    assert c_err <= 1e-12


def test_criterion_09_quasitriangle_with_measured_modulus():
    fam = generate_family("RandomSigned", 400, seed=SEED)
    pairs = list(zip(fam[:200], fam[200:]))
    c_E = axiom_check(WEAK_L1, trials=200, seed=SEED).quasi_triangle_modulus
    sides = f_quasitriangle_pairs(WEAK_L1, pairs, c_E)
    violations = sum(f12 > bound * (1.0 + 1e-9) for f12, bound in sides)
    worst = max(f12 / bound for f12, bound in sides)
    ok = violations == 0
    _line(9, ok, f"{violations} violations over {len(sides)} pairs with measured "
                 f"c_E = {c_E:.4f}, worst ratio {worst:.4f}")
    assert len(sides) == 200
    assert violations == 0, sides


def test_criterion_10_range_minimality_probes():
    witnesses = [
        power_log(1.0, 0.0),
        power_log(1.5, 0.0),
        power_log(2.0, 0.0),
        finite([1.0, 0.5, 0.25, 0.125]),
    ] + generate_family("RandomNonnegDecreasing", 4, seed=SEED, max_support=16)
    probes = verify_minimality(
        WEAK_L1,
        catalog=[WEAK_L1, M1INF],
        witnesses=witnesses,
        window=1 << 16,
        member_window=1 << 12,
        search=DEFAULT_GRID,
    )
    by_label = {p.space: p for p in probes}
    weak = by_label["weak_l1"]
    m = by_label["m1inf"]
    contained = m.containment_ratio <= 1.0 + CONTAINMENT_TOL
    ok = (
        image_escapes(weak)
        and weak.probe_constant > 10.0
        and not image_escapes(m)
        and math.isfinite(m.containment_constant)
        and contained
    )
    _line(10, ok, f"weak_l1 probe {weak.probe_constant:.2f} > 10 (escapes), m1inf "
                  f"bounded with C = {m.containment_constant:.3f} and largest "
                  f"|x|_G / (C f(x)) = {m.containment_ratio:.6f}")
    assert image_escapes(weak) and weak.probe_constant > 10.0
    assert not image_escapes(m)
    assert contained


def test_criterion_11_dilation_commutation_band():
    fam = [
        finite(np.abs(family_rng("acceptance/dilation", SEED, i).standard_normal(24)))
        for i in range(25)
    ]
    lo, hi = dilation_commutation_band(fam, (2, 4, 8), window=4096)
    ok = 0.2 <= lo <= hi <= 5.0
    _line(11, ok, f"measured band [{lo:.4f}, {hi:.4f}] inside [0.2, 5]")
    assert 0.2 <= lo <= hi <= 5.0


def test_criterion_12_full_suite_determinism(tmp_path):
    t0 = time.monotonic()
    p1, p2 = tmp_path / "run1.json", tmp_path / "run2.json"
    code1 = cli.main(["verify", "--suite", "all", "--seed", "1", "--out", str(p1)])
    code2 = cli.main(["verify", "--suite", "all", "--seed", "1", "--out", str(p2)])
    elapsed = time.monotonic() - t0
    identical = p1.read_bytes() == p2.read_bytes()
    # the behavioural contract: any change to these bytes must be explained
    committed = p1.read_bytes() == REPORT_SEED1.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical and committed and elapsed / 2.0 <= 300.0
    _line(12, ok, f"two runs exit (0, 0) -> ({code1}, {code2}), byte-identical: "
                  f"{identical}, equal to {REPORT_SEED1.name}: {committed}, "
                  f"{elapsed / 2.0:.1f}s per run <= 300s")
    assert code1 == 0 and code2 == 0
    assert identical
    assert committed
    assert elapsed / 2.0 <= 300.0
